#include "stats/histogram.hh"

#include <algorithm>

namespace tstream
{

void
WeightedCdf::sortSamples() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
WeightedCdf::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    sortSamples();
    const double target = total_ * p / 100.0;
    std::uint64_t run = 0;
    for (const auto &[v, w] : samples_) {
        run += w;
        if (static_cast<double>(run) >= target)
            return static_cast<double>(v);
    }
    return static_cast<double>(samples_.back().first);
}

double
WeightedCdf::cumulativeAt(std::uint64_t value) const
{
    if (total_ == 0)
        return 0.0;
    sortSamples();
    std::uint64_t run = 0;
    for (const auto &[v, w] : samples_) {
        if (v > value)
            break;
        run += w;
    }
    return static_cast<double>(run) / static_cast<double>(total_);
}

} // namespace tstream
