/**
 * @file
 * Tests for the pluggable prefetch-policy API (core/prefetch_policy.hh).
 *
 * The differential suite embeds a frozen copy of the pre-API
 * TsPrefetcher::evaluate() / evaluateHybrid() algorithms and demands
 * *exact* stat equality against FixedDepthPolicy / HybridPolicy driven
 * through evaluatePolicy() — the bit-identity contract of the
 * redesign. On top of that: adaptive depth throttling, storage
 * accounting, the registry, and the prefetcher-in-the-loop engine
 * (covered misses vanish from the recorded trace; the remainder is the
 * uncovered subsequence of the baseline run).
 */

#include <gtest/gtest.h>

#include "core/prefetch_policy.hh"
#include "core/stride.hh"
#include "sim/experiment.hh"
#include "util/rng.hh"

namespace tstream
{
namespace
{

// ---------------------------------------------------------------------------
// Frozen reference: the pre-API TsPrefetcher algorithms, verbatim.
// ---------------------------------------------------------------------------

struct RefPrefetcher
{
    struct HistoryPos
    {
        std::uint32_t cpu;
        std::uint64_t pos;
    };
    struct History
    {
        std::vector<BlockId> ring;
        std::uint64_t head = 0;
    };
    struct Buffer
    {
        std::vector<BlockId> fifo;
        std::unordered_map<BlockId, std::uint32_t> present;
    };

    explicit RefPrefetcher(const TsPrefetcherConfig &cfg) : cfg_(cfg) {}

    void
    append(unsigned cpu, BlockId blk)
    {
        History &h = history_[cpu];
        h.ring[static_cast<std::size_t>(h.head % cfg_.historyEntries)] =
            blk;
        index_[blk] =
            HistoryPos{static_cast<std::uint32_t>(cpu), h.head};
        h.head++;
    }

    void
    insertPrefetch(Buffer &buf, BlockId blk, TsPrefetcherStats &stats)
    {
        stats.issued++;
        buf.fifo.push_back(blk);
        buf.present[blk]++;
        if (buf.fifo.size() > cfg_.bufferBlocks) {
            const BlockId victim = buf.fifo.front();
            buf.fifo.erase(buf.fifo.begin());
            auto it = buf.present.find(victim);
            if (it != buf.present.end() && --it->second == 0)
                buf.present.erase(it);
        }
    }

    void
    replay(const HistoryPos &pos, TsPrefetcherStats &stats, Buffer &buf)
    {
        const History &h = history_[pos.cpu];
        if (h.head - pos.pos > cfg_.historyEntries)
            return;
        stats.streamLookups++;
        for (std::uint32_t k = 1; k <= cfg_.replayDepth; ++k) {
            const std::uint64_t next = pos.pos + k;
            if (next >= h.head)
                break;
            const BlockId blk = h.ring[static_cast<std::size_t>(
                next % cfg_.historyEntries)];
            insertPrefetch(buf, blk, stats);
        }
    }

    void
    demandCheck(Buffer &buf, BlockId blk, TsPrefetcherStats &stats)
    {
        auto hit = buf.present.find(blk);
        if (hit != buf.present.end()) {
            stats.covered++;
            stats.useful += hit->second;
            for (auto it = buf.fifo.begin(); it != buf.fifo.end();) {
                if (*it == blk)
                    it = buf.fifo.erase(it);
                else
                    ++it;
            }
            buf.present.erase(hit);
        }
    }

    TsPrefetcherStats
    evaluate(const MissTrace &trace)
    {
        TsPrefetcherStats stats;
        const unsigned ncpu = std::max(1u, trace.numCpus);
        history_.assign(ncpu, History{});
        for (auto &h : history_)
            h.ring.assign(cfg_.historyEntries, 0);
        index_.clear();
        std::vector<Buffer> buffers(ncpu);
        for (const MissRecord &m : trace.misses) {
            const unsigned cpu = m.cpu < ncpu ? m.cpu : 0;
            Buffer &buf = buffers[cpu];
            stats.misses++;
            demandCheck(buf, m.block, stats);
            auto found = index_.find(m.block);
            if (found != index_.end() &&
                (cfg_.crossCpu || found->second.cpu == cpu))
                replay(found->second, stats, buf);
            append(cpu, m.block);
        }
        return stats;
    }

    TsPrefetcherStats
    evaluateHybrid(const MissTrace &trace, unsigned stride_degree)
    {
        TsPrefetcherStats stats;
        const unsigned ncpu = std::max(1u, trace.numCpus);
        history_.assign(ncpu, History{});
        for (auto &h : history_)
            h.ring.assign(cfg_.historyEntries, 0);
        index_.clear();
        std::vector<Buffer> buffers(ncpu);
        StrideDetector stride;
        std::vector<std::int64_t> last(ncpu, -1);
        for (const MissRecord &m : trace.misses) {
            const unsigned cpu = m.cpu < ncpu ? m.cpu : 0;
            Buffer &buf = buffers[cpu];
            stats.misses++;
            demandCheck(buf, m.block, stats);
            auto found = index_.find(m.block);
            if (found != index_.end() &&
                (cfg_.crossCpu || found->second.cpu == cpu))
                replay(found->second, stats, buf);
            const bool strided = stride.observe(m.cpu, m.block);
            if (strided && last[cpu] >= 0) {
                const std::int64_t delta =
                    static_cast<std::int64_t>(m.block) - last[cpu];
                if (delta != 0) {
                    for (unsigned k = 1; k <= stride_degree; ++k)
                        insertPrefetch(
                            buf,
                            static_cast<BlockId>(
                                static_cast<std::int64_t>(m.block) +
                                delta * static_cast<std::int64_t>(k)),
                            stats);
                }
            }
            last[cpu] = static_cast<std::int64_t>(m.block);
            append(cpu, m.block);
        }
        return stats;
    }

    TsPrefetcherConfig cfg_;
    std::vector<History> history_;
    std::unordered_map<BlockId, HistoryPos> index_;
};

// ---------------------------------------------------------------------------
// Trace generators
// ---------------------------------------------------------------------------

MissTrace
traceOf(const std::vector<BlockId> &blocks, unsigned ncpu = 1)
{
    MissTrace t;
    t.numCpus = ncpu;
    for (std::size_t i = 0; i < blocks.size(); ++i)
        t.misses.push_back(MissRecord{
            i, blocks[i], static_cast<CpuId>(i % ncpu), 0, 0});
    return t;
}

/** A fixed-seed mix of repeated motifs, strided runs and fresh noise —
 *  rich enough to exercise replay, wrap, cross-CPU and stride paths. */
MissTrace
synthTrace(std::uint64_t seed, unsigned ncpu, std::size_t n = 20000)
{
    Rng rng(seed);
    std::vector<std::vector<BlockId>> motifs;
    for (int i = 0; i < 6; ++i) {
        std::vector<BlockId> m;
        const std::size_t len = 8 + rng.below(48);
        for (std::size_t j = 0; j < len; ++j)
            m.push_back(rng.below(1 << 20));
        motifs.push_back(std::move(m));
    }
    std::vector<BlockId> blocks;
    BlockId fresh = 1 << 24;
    while (blocks.size() < n) {
        const std::uint64_t pick = rng.below(10);
        if (pick < 4) {
            const auto &m = motifs[rng.below(motifs.size())];
            blocks.insert(blocks.end(), m.begin(), m.end());
        } else if (pick < 6) {
            const BlockId base = rng.below(1 << 22);
            const BlockId step = 1 + rng.below(4);
            for (BlockId k = 0; k < 24; ++k)
                blocks.push_back(base + k * step);
        } else {
            for (int k = 0; k < 12; ++k)
                blocks.push_back(fresh++);
        }
    }
    return traceOf(blocks, ncpu);
}

void
expectStatsEq(const TsPrefetcherStats &a, const TsPrefetcherStats &b)
{
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.covered, b.covered);
    EXPECT_EQ(a.issued, b.issued);
    EXPECT_EQ(a.useful, b.useful);
    EXPECT_EQ(a.streamLookups, b.streamLookups);
}

// ---------------------------------------------------------------------------
// Differential suite: new API vs frozen reference, exact equality.
// ---------------------------------------------------------------------------

TEST(PrefetchPolicyDiff, FixedDepthMatchesReferenceAcrossDepths)
{
    for (const std::uint64_t seed : {3u, 17u}) {
        for (const unsigned ncpu : {1u, 4u}) {
            const MissTrace t = synthTrace(seed, ncpu);
            for (const std::uint32_t depth : {1u, 4u, 8u, 16u, 32u}) {
                TsPrefetcherConfig cfg;
                cfg.replayDepth = depth;
                RefPrefetcher ref(cfg);
                FixedDepthPolicy policy(cfg);
                SCOPED_TRACE("seed " + std::to_string(seed) + " ncpu " +
                             std::to_string(ncpu) + " depth " +
                             std::to_string(depth));
                expectStatsEq(
                    evaluatePolicy(t, policy, cfg.bufferBlocks),
                    ref.evaluate(t));
            }
        }
    }
}

TEST(PrefetchPolicyDiff, FixedDepthMatchesReferenceOnTinyRing)
{
    // History wrap: the ring-validity check must behave identically.
    TsPrefetcherConfig cfg;
    cfg.historyEntries = 128;
    const MissTrace t = synthTrace(7, 2, 5000);
    RefPrefetcher ref(cfg);
    FixedDepthPolicy policy(cfg);
    expectStatsEq(evaluatePolicy(t, policy, cfg.bufferBlocks),
                  ref.evaluate(t));
}

TEST(PrefetchPolicyDiff, FixedDepthMatchesReferenceWithoutCrossCpu)
{
    TsPrefetcherConfig cfg;
    cfg.crossCpu = false;
    const MissTrace t = synthTrace(11, 4);
    RefPrefetcher ref(cfg);
    FixedDepthPolicy policy(cfg);
    expectStatsEq(evaluatePolicy(t, policy, cfg.bufferBlocks),
                  ref.evaluate(t));
}

TEST(PrefetchPolicyDiff, HybridMatchesReferenceEvaluateHybrid)
{
    for (const std::uint64_t seed : {5u, 29u}) {
        for (const unsigned ncpu : {1u, 4u}) {
            const MissTrace t = synthTrace(seed, ncpu);
            TsPrefetcherConfig cfg;
            RefPrefetcher ref(cfg);
            auto hybrid = HybridPolicy::temporalPlusStride(cfg, 2);
            SCOPED_TRACE("seed " + std::to_string(seed) + " ncpu " +
                         std::to_string(ncpu));
            expectStatsEq(
                evaluatePolicy(t, *hybrid, cfg.bufferBlocks),
                ref.evaluateHybrid(t, 2));
        }
    }
}

// ---------------------------------------------------------------------------
// Behaviour of the temporal-streaming prefetcher (TsPrefetcherConfig)
// through evaluatePolicy(): fixed-depth replay and the temporal+stride
// hybrid.
// ---------------------------------------------------------------------------

TsPrefetcherStats
fixedStats(const MissTrace &t, const TsPrefetcherConfig &cfg = {})
{
    FixedDepthPolicy policy(cfg);
    return evaluatePolicy(t, policy, cfg.bufferBlocks);
}

TsPrefetcherStats
hybridStats(const MissTrace &t, const TsPrefetcherConfig &cfg = {})
{
    auto policy = HybridPolicy::temporalPlusStride(cfg, 2);
    return evaluatePolicy(t, *policy, cfg.bufferBlocks);
}

TEST(TsPrefetcher, EmptyTrace)
{
    const auto st = fixedStats(MissTrace{});
    EXPECT_EQ(st.misses, 0u);
    EXPECT_EQ(st.coverage(), 0.0);
    EXPECT_EQ(st.accuracy(), 0.0);
}

TEST(TsPrefetcher, UniqueMissesAreNeverCovered)
{
    std::vector<BlockId> blocks;
    for (BlockId b = 0; b < 1000; ++b)
        blocks.push_back(b * 1009);
    EXPECT_EQ(fixedStats(traceOf(blocks)).covered, 0u);
}

TEST(TsPrefetcher, RepeatedStreamGetsCovered)
{
    // The motif repeats 5 times; from the second occurrence on, the
    // replay should cover most of its misses.
    std::vector<BlockId> motif;
    for (BlockId b = 0; b < 32; ++b)
        motif.push_back(5000 + b * 7);
    std::vector<BlockId> blocks;
    BlockId fresh = 0;
    for (int rep = 0; rep < 5; ++rep) {
        blocks.insert(blocks.end(), motif.begin(), motif.end());
        for (int i = 0; i < 20; ++i)
            blocks.push_back(900000 + fresh++);
    }
    const auto st = fixedStats(traceOf(blocks));
    // 4 recurrences x ~31 coverable misses each, less ramp-up.
    EXPECT_GT(st.coverage(), 0.3);
    EXPECT_GT(st.accuracy(), 0.5);
}

TEST(TsPrefetcher, DeeperReplayCoversLongerStreams)
{
    std::vector<BlockId> motif;
    for (BlockId b = 0; b < 64; ++b)
        motif.push_back(7000 + b * 3);
    std::vector<BlockId> blocks;
    BlockId fresh = 0;
    for (int rep = 0; rep < 4; ++rep) {
        blocks.insert(blocks.end(), motif.begin(), motif.end());
        for (int i = 0; i < 30; ++i)
            blocks.push_back(800000 + fresh++);
    }

    auto statsAt = [&](std::uint32_t depth) {
        TsPrefetcherConfig cfg;
        cfg.replayDepth = depth;
        return fixedStats(traceOf(blocks), cfg);
    };
    // Depth-1 replay still covers by chaining (each covered miss
    // looks up the stream again), so coverage is monotone rather than
    // strictly increasing; deeper replay must issue further ahead.
    const auto s1 = statsAt(1);
    const auto s16 = statsAt(16);
    EXPECT_GE(s16.coverage(), s1.coverage());
    EXPECT_GT(s16.issued, s1.issued);
}

TEST(TsPrefetcher, CrossCpuRecurrenceRequiresCrossCpuLookup)
{
    // Motif on cpu 0, then replayed on cpu 1.
    std::vector<BlockId> motif;
    for (BlockId b = 0; b < 24; ++b)
        motif.push_back(4000 + b);

    MissTrace t;
    t.numCpus = 2;
    std::uint64_t seq = 0;
    for (auto b : motif)
        t.misses.push_back(MissRecord{seq++, b, 0, 0, 0});
    for (auto b : motif)
        t.misses.push_back(MissRecord{seq++, b, 1, 0, 0});

    TsPrefetcherConfig on;
    on.crossCpu = true;
    TsPrefetcherConfig off;
    off.crossCpu = false;
    const auto covOn = fixedStats(t, on).coverage();
    const auto covOff = fixedStats(t, off).coverage();
    EXPECT_GT(covOn, 0.3);
    EXPECT_LT(covOff, covOn);
}

TEST(TsPrefetcher, BufferCapacityBoundsOutstandingPrefetches)
{
    TsPrefetcherConfig cfg;
    cfg.bufferBlocks = 4;
    cfg.replayDepth = 32;
    std::vector<BlockId> motif;
    for (BlockId b = 0; b < 64; ++b)
        motif.push_back(b + 100);
    std::vector<BlockId> blocks = motif;
    blocks.insert(blocks.end(), motif.begin(), motif.end());
    const auto st = fixedStats(traceOf(blocks), cfg);
    // With a 4-entry buffer, deep replay displaces most of its own
    // prefetches: accuracy suffers.
    EXPECT_LT(st.accuracy(), 0.6);
}

TEST(TsPrefetcher, HistoryWrapInvalidatesStalePositions)
{
    TsPrefetcherConfig cfg;
    cfg.historyEntries = 128; // tiny ring
    std::vector<BlockId> blocks;
    blocks.push_back(42);
    for (BlockId b = 0; b < 500; ++b)
        blocks.push_back(100000 + b); // flushes the ring
    blocks.push_back(42);             // stale index entry
    const auto st = fixedStats(traceOf(blocks), cfg);
    // Must not crash or replay garbage; the stale lookup is skipped
    // (or harmlessly replays recent entries if re-indexed).
    EXPECT_EQ(st.covered, 0u);
}

TEST(TsPrefetcher, HybridCoversStridedNonRepetitiveMisses)
{
    // A long fresh sequential sweep: pure temporal streaming covers
    // nothing (no repetition), the hybrid's stride engine covers
    // almost everything.
    std::vector<BlockId> sweep;
    for (BlockId b = 0; b < 2000; ++b)
        sweep.push_back(100000 + b);
    const MissTrace t = traceOf(sweep);
    EXPECT_EQ(fixedStats(t).covered, 0u);
    EXPECT_GT(hybridStats(t).coverage(), 0.8);
}

TEST(TsPrefetcher, HybridKeepsTemporalCoverage)
{
    // A pointer-chase motif (non-strided) repeated: the hybrid must
    // not lose the temporal engine's coverage.
    Rng rng(23);
    std::vector<BlockId> motif;
    for (int i = 0; i < 40; ++i)
        motif.push_back(rng.below(1 << 20));
    std::vector<BlockId> blocks;
    BlockId fresh = 1 << 24;
    for (int rep = 0; rep < 6; ++rep) {
        blocks.insert(blocks.end(), motif.begin(), motif.end());
        for (int i = 0; i < 25; ++i)
            blocks.push_back(fresh++ * 97);
    }
    const MissTrace t = traceOf(blocks);
    const double tcov = fixedStats(t).coverage();
    const double hcov = hybridStats(t).coverage();
    EXPECT_GT(tcov, 0.3);
    EXPECT_GE(hcov, tcov * 0.9);
}

TEST(TsPrefetcher, CoverageTracksRepetitionQualitatively)
{
    Rng rng(17);
    auto makeTrace = [&](double repeatFrac) {
        std::vector<BlockId> motif;
        for (int i = 0; i < 40; ++i)
            motif.push_back(rng.below(1 << 16));
        std::vector<BlockId> blocks;
        BlockId fresh = 1 << 20;
        while (blocks.size() < 20000) {
            if (rng.chance(repeatFrac))
                blocks.insert(blocks.end(), motif.begin(), motif.end());
            else
                blocks.push_back(fresh++);
        }
        return traceOf(blocks);
    };
    const double covHigh = fixedStats(makeTrace(0.5)).coverage();
    const double covLow = fixedStats(makeTrace(0.05)).coverage();
    EXPECT_GT(covHigh, covLow);
}

// ---------------------------------------------------------------------------
// Adaptive depth
// ---------------------------------------------------------------------------

TEST(AdaptiveDepth, AccurateStreamRaisesDepth)
{
    // One long motif repeated back-to-back: replays are near-perfectly
    // accurate, so the per-stream depth must climb off the floor.
    std::vector<BlockId> blocks;
    for (int rep = 0; rep < 60; ++rep)
        for (BlockId b = 0; b < 64; ++b)
            blocks.push_back(1000 + b);
    AdaptiveDepthConfig acfg;
    acfg.minDepth = 1;
    AdaptiveDepthPolicy policy(TsPrefetcherConfig{}, acfg);
    evaluatePolicy(traceOf(blocks), policy);
    EXPECT_GT(policy.depthOf(0), acfg.minDepth);
}

TEST(AdaptiveDepth, UselessPrefetchesThrottleDepth)
{
    // Every block appears exactly twice, far apart, with the successor
    // context never repeating: replays issue but nothing is useful, so
    // the depth must fall to (or stay at) the floor.
    Rng rng(41);
    std::vector<BlockId> first;
    for (int i = 0; i < 4000; ++i)
        first.push_back(rng.below(1 << 30));
    std::vector<BlockId> blocks = first;
    std::vector<BlockId> second = first;
    // Recur each block in a shuffled order: lookups hit, replays are
    // garbage.
    for (std::size_t i = second.size(); i > 1; --i)
        std::swap(second[i - 1], second[rng.below(i)]);
    blocks.insert(blocks.end(), second.begin(), second.end());
    AdaptiveDepthConfig acfg;
    acfg.minDepth = 1;
    AdaptiveDepthPolicy policy(TsPrefetcherConfig{}, acfg);
    const TsPrefetcherStats st = evaluatePolicy(traceOf(blocks), policy);
    EXPECT_GT(st.issued, 0u);
    EXPECT_EQ(policy.depthOf(0), acfg.minDepth);
}

TEST(AdaptiveDepth, DepthStaysWithinBounds)
{
    AdaptiveDepthConfig acfg;
    acfg.minDepth = 2;
    acfg.maxDepth = 8;
    AdaptiveDepthPolicy policy(TsPrefetcherConfig{}, acfg);
    const MissTrace t = synthTrace(19, 2);
    evaluatePolicy(t, policy);
    for (unsigned c = 0; c < 2; ++c) {
        EXPECT_GE(policy.depthOf(c), acfg.minDepth);
        EXPECT_LE(policy.depthOf(c), acfg.maxDepth);
    }
}

// ---------------------------------------------------------------------------
// Storage accounting
// ---------------------------------------------------------------------------

TEST(PrefetchStorage, FixedChargesHistoryRings)
{
    TsPrefetcherConfig cfg;
    cfg.historyEntries = 1 << 14;
    FixedDepthPolicy policy(cfg);
    policy.reset(4);
    EXPECT_EQ(policy.storageBytes(),
              4ull * (1ull << 14) * sizeof(BlockId));
}

TEST(PrefetchStorage, StrideChargesTrackers)
{
    StridePolicyConfig cfg;
    StridePolicy policy(cfg);
    policy.reset(4);
    EXPECT_EQ(policy.storageBytes(),
              4ull * cfg.stride.trackers * 24ull);
}

TEST(PrefetchStorage, HybridSumsItsParts)
{
    TsPrefetcherConfig cfg;
    auto hybrid = HybridPolicy::temporalPlusStride(cfg, 2);
    hybrid->reset(2);
    FixedDepthPolicy fixed(cfg);
    fixed.reset(2);
    StridePolicy stride;
    stride.reset(2);
    EXPECT_EQ(hybrid->storageBytes(),
              fixed.storageBytes() + stride.storageBytes());
}

TEST(PrefetchStorage, BudgetAxisMovesFixedStorage)
{
    PrefetchPolicyParams small, large;
    small.ts.historyEntries = 1 << 12;
    large.ts.historyEntries = 1 << 18;
    auto a = makePrefetchPolicy("fixed", small);
    auto b = makePrefetchPolicy("fixed", large);
    a->reset(1);
    b->reset(1);
    EXPECT_EQ(b->storageBytes(), a->storageBytes() * (1ull << 6));
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(PrefetchRegistry, NamesAndConstruction)
{
    const auto &names = prefetchPolicyNames();
    ASSERT_EQ(names.size(), 4u);
    EXPECT_EQ(names[0], "fixed");
    EXPECT_EQ(names[1], "adaptive");
    EXPECT_EQ(names[2], "stride");
    EXPECT_EQ(names[3], "hybrid");
    for (const std::string &n : names) {
        auto p = makePrefetchPolicy(n);
        ASSERT_NE(p, nullptr) << n;
        EXPECT_EQ(p->name(), n);
    }
    EXPECT_EQ(makePrefetchPolicy("nosuch"), nullptr);
    EXPECT_EQ(makePrefetchPolicy(""), nullptr);
}

TEST(PrefetchRegistry, ParamsReachThePolicy)
{
    PrefetchPolicyParams params;
    params.ts.historyEntries = 1 << 12;
    auto p = makePrefetchPolicy("adaptive", params);
    p->reset(2);
    EXPECT_EQ(p->storageBytes(), 2ull * (1ull << 12) * sizeof(BlockId));
}

// ---------------------------------------------------------------------------
// Prefetcher-in-the-loop
// ---------------------------------------------------------------------------

TEST(PrefetchLoop, CoveredMissesVanishFromTheTrace)
{
    auto cfg = ExperimentConfig::quick(WorkloadKind::KvStore,
                                       SystemContext::SingleChip);
    const ExperimentResult base = runExperiment(cfg);
    EXPECT_FALSE(base.prefetchEnabled);

    cfg.prefetchLoop.enabled = true;
    cfg.prefetchLoop.policy = "fixed";
    const ExperimentResult loop = runExperiment(cfg);
    ASSERT_TRUE(loop.prefetchEnabled);
    EXPECT_GT(loop.prefetch.issued, 0u);
    EXPECT_GT(loop.prefetchCoveredTraced, 0u);

    // Covering never alters cache state, so the underlying miss
    // sequence is the baseline's; the recorded trace is exactly the
    // uncovered subsequence.
    ASSERT_EQ(base.offChip.misses.size(),
              loop.offChip.misses.size() + loop.prefetchCoveredTraced);
    std::size_t j = 0;
    for (const MissRecord &m : base.offChip.misses) {
        if (j == loop.offChip.misses.size())
            break;
        const MissRecord &l = loop.offChip.misses[j];
        if (m.block == l.block && m.cpu == l.cpu && m.cls == l.cls &&
            m.fn == l.fn)
            ++j;
    }
    EXPECT_EQ(j, loop.offChip.misses.size())
        << "loop trace is not a subsequence of the baseline";

    // Kept records renumber contiguously from zero.
    for (std::size_t i = 0; i < loop.offChip.misses.size(); ++i)
        EXPECT_EQ(loop.offChip.misses[i].seq, i);
}

TEST(PrefetchLoop, ConfigHashGatesOnEnabled)
{
    auto cfg = ExperimentConfig::quick(WorkloadKind::KvStore,
                                       SystemContext::SingleChip);
    const std::uint64_t baseHash = configHash(cfg);

    // Loop knobs are inert while disabled: default caches stay valid.
    auto inert = cfg;
    inert.prefetchLoop.policy = "adaptive";
    inert.prefetchLoop.ts.replayDepth = 32;
    EXPECT_EQ(configHash(inert), baseHash);

    auto on = cfg;
    on.prefetchLoop.enabled = true;
    EXPECT_NE(configHash(on), baseHash);

    auto onAdaptive = on;
    onAdaptive.prefetchLoop.policy = "adaptive";
    EXPECT_NE(configHash(onAdaptive), configHash(on));

    auto onDeep = on;
    onDeep.prefetchLoop.ts.replayDepth = 32;
    EXPECT_NE(configHash(onDeep), configHash(on));
}

TEST(PrefetchLoop, EngineStatsMatchOfflineShape)
{
    // The loop engine's stats carry the same invariants the offline
    // harness guarantees: useful <= issued, covered <= misses.
    auto cfg = ExperimentConfig::quick(WorkloadKind::Oltp,
                                       SystemContext::MultiChip);
    cfg.prefetchLoop.enabled = true;
    cfg.prefetchLoop.policy = "hybrid";
    const ExperimentResult res = runExperiment(cfg);
    ASSERT_TRUE(res.prefetchEnabled);
    EXPECT_LE(res.prefetch.useful, res.prefetch.issued);
    EXPECT_LE(res.prefetch.covered, res.prefetch.misses);
    EXPECT_LE(res.prefetchCoveredTraced, res.prefetch.covered);
    EXPECT_GT(res.prefetch.misses, 0u);
}

} // namespace
} // namespace tstream
