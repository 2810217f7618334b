/**
 * @file
 * The paper's figure formulas, each defined once: the Figure 1 miss
 * class mix, the Figure 2 stream fractions, the Figure 3 stride x
 * repetition split and the Figure 4 length CDF and reuse decades.
 *
 * Every function returns the figure's named metrics in its column
 * order. The bench binaries, `tstream-trace analyze` and the query
 * layer's `streams` aggregate all read their numbers from here and only
 * add their own printf layout, so a figure cannot drift between the
 * live bench, the offline CLI and a windowed query.
 */

#ifndef TSTREAM_CORE_FIGURES_HH
#define TSTREAM_CORE_FIGURES_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/stream_analysis.hh"
#include "trace/record.hh"

namespace tstream
{

/** Named metrics in a figure's column order, e.g. {"mpki", 3.2}. */
using FigureMetrics = std::vector<std::pair<std::string, double>>;

/** Per-class miss counts of one trace (off-chip or intra-chip ids). */
struct MissClassMix
{
    static_assert(kNumMissClasses == kNumIntraClasses);
    std::array<std::uint64_t, kNumMissClasses> counts{};
    std::uint64_t total = 0; ///< every record, in range or not

    /** Share of all misses in class @p cls, in percent. */
    double pct(std::size_t cls) const;
};

MissClassMix missClassMix(const MissTrace &trace);

/** Column positions of fig1OffChipMetrics(). */
enum Fig1OffChipColumn : std::size_t
{
    kFig1Mpki,
    kFig1Compulsory,
    kFig1IoCoherence,
    kFig1Replacement,
    kFig1Coherence,
    kFig1Misses,
};

/** Figure 1 (left): mpki, compulsory_pct, io_coherence_pct,
 *  replacement_pct, coherence_pct, misses. */
FigureMetrics fig1OffChipMetrics(const MissTrace &trace);

/** Figure 1 (right): mpki, peer_l1_pct, coherence_l2_pct,
 *  replacement_l2_pct, offchip_pct, coherence_share_pct (the
 *  coherence share of on-chip-satisfied traffic). */
FigureMetrics fig1IntraMetrics(const MissTrace &trace);

/** Column positions of fig2Metrics(). */
enum Fig2Column : std::size_t
{
    kFig2NonRepetitive,
    kFig2NewStream,
    kFig2RecurringStream,
    kFig2InStreams,
};

/** Figure 2: non_repetitive_pct, new_stream_pct,
 *  recurring_stream_pct, in_streams_pct. */
FigureMetrics fig2Metrics(const StreamStats &s);

/** Figure 3: strided_repetitive_pct, non_strided_repetitive_pct,
 *  strided_non_repetitive_pct, non_strided_non_repetitive_pct,
 *  strided_pct. */
FigureMetrics fig3Metrics(const StreamStats &s);

/** Stream lengths at which Figure 4 (left) reads its CDF. */
inline constexpr std::uint64_t kFig4LengthPoints[] = {
    1, 2, 4, 8, 16, 32, 64, 128, 512, 1024, 4096};

/** Reuse-distance decades of Figure 4 (right): 1e0 up to 1e7. */
inline constexpr int kFig4ReuseDecades = 7;

/** Figure 4 (left): cdf_le_<p> for each kFig4LengthPoints entry, in
 *  percent of stream-contributed misses, then median_length. */
FigureMetrics fig4LengthMetrics(const StreamStats &s);

/** Figure 4 (right): decade_1e<d>_1e<d+1>_pct for each decade, the
 *  share of stream-length-weighted reuse distances in it. */
FigureMetrics fig4ReuseMetrics(const StreamStats &s);

} // namespace tstream

#endif // TSTREAM_CORE_FIGURES_HH
