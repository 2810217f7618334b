/**
 * @file
 * Temporal-streaming prefetcher: the config and stats types shared by
 * every prefetch policy.
 *
 * The paper is the characterization behind the temporal-streaming
 * prefetcher line (TSE [25], STEMS, and successors): record the miss
 * sequence in a history buffer, locate the previous occurrence of a
 * missing address, and replay the addresses that followed it. The
 * model reports the standard figures of merit:
 *
 *  - coverage: fraction of misses eliminated by an earlier prefetch;
 *  - accuracy: fraction of issued prefetches that were useful;
 *  - timeliness is not modeled (the traces are timing-free), matching
 *    the paper's hardware-independent stance.
 *
 * The mechanism itself lives behind the pluggable policy API in
 * core/prefetch_policy.hh (FixedDepthPolicy + evaluatePolicy()).
 */

#ifndef TSTREAM_CORE_TS_PREFETCHER_HH
#define TSTREAM_CORE_TS_PREFETCHER_HH

#include <cstdint>

#include "trace/record.hh"

namespace tstream
{

/** Configuration of the temporal-streaming prefetcher. */
struct TsPrefetcherConfig
{
    /** History buffer entries per CPU. */
    std::uint32_t historyEntries = 1 << 18;
    /** Addresses replayed per stream lookup. */
    std::uint32_t replayDepth = 8;
    /** Prefetch buffer capacity (blocks) per CPU. */
    std::uint32_t bufferBlocks = 64;
    /**
     * Cross-CPU lookups: a miss may locate its stream in another
     * CPU's history (the paper's streams recur across processors).
     */
    bool crossCpu = true;
};

/** Result of evaluating a prefetch policy over one trace. */
struct TsPrefetcherStats
{
    std::uint64_t misses = 0;        ///< demand misses observed
    std::uint64_t covered = 0;       ///< eliminated by a prefetch
    std::uint64_t issued = 0;        ///< prefetches issued
    std::uint64_t useful = 0;        ///< prefetches that were hit
    std::uint64_t evictions = 0;     ///< buffer entries displaced unused
    std::uint64_t streamLookups = 0; ///< index hits that replayed

    double
    coverage() const
    {
        return misses == 0
                   ? 0.0
                   : static_cast<double>(covered) /
                         static_cast<double>(misses);
    }

    double
    accuracy() const
    {
        return issued == 0
                   ? 0.0
                   : static_cast<double>(useful) /
                         static_cast<double>(issued);
    }
};

} // namespace tstream

#endif // TSTREAM_CORE_TS_PREFETCHER_HH
