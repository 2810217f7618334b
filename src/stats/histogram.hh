/**
 * @file
 * Log-bucketed histograms and weighted CDFs for Figure 4-style
 * distributions.
 *
 * Stream lengths and reuse distances span seven decades (Sections
 * 4.4-4.5), so the figures bucket them logarithmically and weight each
 * stream by its contribution (its length) rather than counting streams
 * equally; this header provides exactly those two operations for
 * core/figures.hh.
 */

#ifndef TSTREAM_STATS_HISTOGRAM_HH
#define TSTREAM_STATS_HISTOGRAM_HH

#include <cmath>
#include <cstdint>
#include <vector>

namespace tstream
{

/**
 * Histogram over a logarithmic domain [1, 10^decades), with
 * @p bucketsPerDecade sub-buckets per decade. Values of 0 land in the
 * first bucket; values beyond the top decade clamp to the last.
 */
class LogHistogram
{
  public:
    LogHistogram(unsigned decades, unsigned buckets_per_decade)
        : decades_(decades), perDecade_(buckets_per_decade),
          counts_(decades * buckets_per_decade, 0)
    {
    }

    /** Add @p weight at @p value. */
    void
    add(std::uint64_t value, std::uint64_t weight = 1)
    {
        counts_[bucketOf(value)] += weight;
        total_ += weight;
    }

    /** Bucket index for @p value. */
    std::size_t
    bucketOf(std::uint64_t value) const
    {
        if (value <= 1)
            return 0;
        const double lg = std::log10(static_cast<double>(value));
        auto b = static_cast<std::size_t>(lg * perDecade_);
        return b >= counts_.size() ? counts_.size() - 1 : b;
    }

    /** Lower bound of bucket @p b. */
    double
    bucketLow(std::size_t b) const
    {
        return std::pow(10.0, static_cast<double>(b) / perDecade_);
    }

    std::uint64_t total() const { return total_; }

    const std::vector<std::uint64_t> &counts() const { return counts_; }

    /** Fraction of weight in bucket @p b (0..1). */
    double
    fraction(std::size_t b) const
    {
        return total_ == 0
                   ? 0.0
                   : static_cast<double>(counts_[b]) /
                         static_cast<double>(total_);
    }

    /**
     * Fraction of weight at or below @p value (0..1) using bucket
     * granularity.
     */
    double
    cumulativeAt(std::uint64_t value) const
    {
        if (total_ == 0)
            return 0.0;
        const std::size_t limit = bucketOf(value);
        std::uint64_t run = 0;
        for (std::size_t b = 0; b <= limit; ++b)
            run += counts_[b];
        return static_cast<double>(run) / static_cast<double>(total_);
    }

  private:
    unsigned decades_;
    unsigned perDecade_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/**
 * Weighted empirical CDF over integer values (stream lengths).
 * Values are aggregated exactly; percentile queries interpolate on the
 * weight axis.
 */
class WeightedCdf
{
  public:
    void
    add(std::uint64_t value, std::uint64_t weight)
    {
        samples_.emplace_back(value, weight);
        total_ += weight;
        sorted_ = false;
    }

    /** Weighted percentile, p in [0, 100]. */
    double percentile(double p) const;

    /** Fraction of weight at or below @p value. */
    double cumulativeAt(std::uint64_t value) const;

    std::uint64_t total() const { return total_; }

  private:
    void sortSamples() const;

    mutable std::vector<std::pair<std::uint64_t, std::uint64_t>> samples_;
    mutable bool sorted_ = true;
    std::uint64_t total_ = 0;
};

} // namespace tstream

#endif // TSTREAM_STATS_HISTOGRAM_HH
