#include "core/figures.hh"

#include <algorithm>

#include "stats/histogram.hh"

namespace tstream
{

namespace
{

/** Percentage denominator: never zero, so empty traces read as 0%. */
double
pctBase(std::uint64_t total)
{
    return std::max<double>(1.0, static_cast<double>(total));
}

} // namespace

double
MissClassMix::pct(std::size_t cls) const
{
    return 100.0 * static_cast<double>(counts[cls]) / pctBase(total);
}

MissClassMix
missClassMix(const MissTrace &trace)
{
    MissClassMix mix;
    for (const MissRecord &m : trace.misses)
        if (m.cls < mix.counts.size())
            ++mix.counts[m.cls];
    mix.total = trace.misses.size();
    return mix;
}

FigureMetrics
fig1OffChipMetrics(const MissTrace &trace)
{
    const MissClassMix mix = missClassMix(trace);
    using C = MissClass;
    auto pct = [&](C c) { return mix.pct(static_cast<std::size_t>(c)); };
    return {
        {"mpki", trace.mpki()},
        {"compulsory_pct", pct(C::Compulsory)},
        {"io_coherence_pct", pct(C::IoCoherence)},
        {"replacement_pct", pct(C::Replacement)},
        {"coherence_pct", pct(C::Coherence)},
        {"misses", static_cast<double>(mix.total)},
    };
}

FigureMetrics
fig1IntraMetrics(const MissTrace &trace)
{
    const MissClassMix mix = missClassMix(trace);
    using C = IntraClass;
    auto count = [&](C c) {
        return mix.counts[static_cast<std::size_t>(c)];
    };
    auto pct = [&](C c) { return mix.pct(static_cast<std::size_t>(c)); };
    // The paper's "one third to one half of all L2 and peer-L1
    // accesses" are coherence misses.
    const std::uint64_t coherence =
        count(C::CoherencePeerL1) + count(C::CoherenceL2);
    const double onChip = pctBase(coherence + count(C::ReplacementL2));
    return {
        {"mpki", trace.mpki()},
        {"peer_l1_pct", pct(C::CoherencePeerL1)},
        {"coherence_l2_pct", pct(C::CoherenceL2)},
        {"replacement_l2_pct", pct(C::ReplacementL2)},
        {"offchip_pct", pct(C::OffChip)},
        {"coherence_share_pct",
         100.0 * static_cast<double>(coherence) / onChip},
    };
}

FigureMetrics
fig2Metrics(const StreamStats &s)
{
    const double tot = pctBase(s.totalMisses);
    return {
        {"non_repetitive_pct", 100.0 * s.nonRepetitive / tot},
        {"new_stream_pct", 100.0 * s.newStream / tot},
        {"recurring_stream_pct", 100.0 * s.recurringStream / tot},
        {"in_streams_pct", 100.0 * s.inStreamFraction()},
    };
}

FigureMetrics
fig3Metrics(const StreamStats &s)
{
    const double tot = pctBase(s.totalMisses);
    return {
        {"strided_repetitive_pct", 100.0 * s.stridedRepetitive / tot},
        {"non_strided_repetitive_pct",
         100.0 * s.nonStridedRepetitive / tot},
        {"strided_non_repetitive_pct",
         100.0 * s.stridedNonRepetitive / tot},
        {"non_strided_non_repetitive_pct",
         100.0 * s.nonStridedNonRepetitive / tot},
        {"strided_pct",
         100.0 * (s.stridedRepetitive + s.stridedNonRepetitive) / tot},
    };
}

FigureMetrics
fig4LengthMetrics(const StreamStats &s)
{
    WeightedCdf cdf;
    for (const auto &[len, w] : s.lengthWeighted)
        cdf.add(len, w);
    FigureMetrics out;
    for (const std::uint64_t p : kFig4LengthPoints)
        out.emplace_back("cdf_le_" + std::to_string(p),
                         100.0 * cdf.cumulativeAt(p));
    out.emplace_back("median_length", s.medianStreamLength());
    return out;
}

FigureMetrics
fig4ReuseMetrics(const StreamStats &s)
{
    LogHistogram h(kFig4ReuseDecades, 1);
    for (const auto &[dist, w] : s.reuseWeighted)
        h.add(dist == 0 ? 1 : dist, w);
    FigureMetrics out;
    for (int d = 0; d < kFig4ReuseDecades; ++d)
        out.emplace_back("decade_1e" + std::to_string(d) + "_1e" +
                             std::to_string(d + 1) + "_pct",
                         100.0 * h.fraction(static_cast<std::size_t>(d)));
    return out;
}

} // namespace tstream
