/**
 * @file
 * google-benchmark microbenchmarks of the analysis substrate: SEQUITUR
 * grammar construction, cache-hierarchy simulation (per-block and
 * batched engine runs, and whole quick-budget record cells), stride
 * detection, the full stream-analysis pipeline, offline prefetch-policy
 * scoring, and the scenario-subsystem hot paths (KV slab/LRU, broker
 * append/replay). BENCH_baseline.json at the repo root records these
 * series; `tstream-bench compare` gates regressions against it
 * (docs/BENCHMARKING.md).
 */

#include <benchmark/benchmark.h>

#include "core/prefetch_policy.hh"
#include "core/sequitur.hh"
#include "core/stream_analysis.hh"
#include "core/stride.hh"
#include "kernel/kernel.hh"
#include "kv/kvstore.hh"
#include "mem/multichip.hh"
#include "mem/singlechip.hh"
#include "mq/broker.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "util/rng.hh"

namespace tstream
{
namespace
{

std::vector<std::uint64_t>
makeInput(std::size_t n, std::uint64_t alphabet, double repeat_frac)
{
    Rng rng(99);
    // A mix of random symbols and a recurring motif, roughly like a
    // miss trace with temporal streams.
    std::vector<std::uint64_t> motif(32);
    for (auto &v : motif)
        v = rng.below(alphabet);
    std::vector<std::uint64_t> out;
    out.reserve(n);
    while (out.size() < n) {
        if (rng.chance(repeat_frac)) {
            for (auto v : motif)
                out.push_back(v);
        } else {
            out.push_back(rng.below(alphabet));
        }
    }
    out.resize(n);
    return out;
}

void
BM_SequiturAppend(benchmark::State &state)
{
    const auto input = makeInput(
        static_cast<std::size_t>(state.range(0)), 4096, 0.5);
    for (auto _ : state) {
        Sequitur g;
        g.appendAll(input);
        benchmark::DoNotOptimize(g.ruleCount());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_SequiturAppend)->Arg(10000)->Arg(100000)->Arg(1000000);

// The 4096-symbol alphabet above keeps the digram table in cache; over
// 2^20 symbols it outgrows the caches, as on real miss traces, so this
// series shows the symbol and digram-slot footprint.
void
BM_SequiturAppendLargeAlphabet(benchmark::State &state)
{
    const auto input = makeInput(1000000, 1 << 20, 0.5);
    for (auto _ : state) {
        Sequitur g;
        g.appendAll(input);
        benchmark::DoNotOptimize(g.ruleCount());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_SequiturAppendLargeAlphabet)
    ->Name("BM_SequiturAppend/large_alphabet")
    ->Unit(benchmark::kMillisecond);

void
BM_MultiChipAccess(benchmark::State &state)
{
    MultiChipSystem sys;
    sys.setTracing(true);
    Rng rng(7);
    for (auto _ : state) {
        Access a;
        a.addr = rng.below(1 << 28) * kBlockSize;
        a.size = 64;
        a.cpu = static_cast<CpuId>(rng.below(16));
        a.type = rng.chance(0.3) ? AccessType::Write : AccessType::Read;
        sys.accessBlock(a);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MultiChipAccess);

void
BM_SingleChipAccess(benchmark::State &state)
{
    SingleChipSystem sys;
    sys.setTracing(true);
    Rng rng(7);
    for (auto _ : state) {
        Access a;
        a.addr = rng.below(1 << 26) * kBlockSize;
        a.size = 64;
        a.cpu = static_cast<CpuId>(rng.below(4));
        a.type = rng.chance(0.3) ? AccessType::Write : AccessType::Read;
        sys.accessBlock(a);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SingleChipAccess);

void
BM_RecordCellQuick(benchmark::State &state, WorkloadKind workload,
                   SystemContext context)
{
    // One whole `record` cell at the quick-grid budgets: workload and
    // kernel emulation driving the memory model end to end, the
    // access mix the BM_*ChipAccess series (uniform random blocks, no
    // page locality) leave out.
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.context = context;
    cfg.warmupInstructions = kQuickBudgets.warmupInstructions;
    cfg.measureInstructions = kQuickBudgets.measureInstructions;
    cfg.scale = kQuickBudgets.scale;
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        const ExperimentResult r = runExperiment(cfg);
        benchmark::DoNotOptimize(r.offChip.misses.data());
        instructions += r.instructions;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
}
BENCHMARK_CAPTURE(BM_RecordCellQuick, dss_q1_single_chip,
                  WorkloadKind::DssQ1, SystemContext::SingleChip)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RecordCellQuick, oltp_multi_chip, WorkloadKind::Oltp,
                  SystemContext::MultiChip)
    ->Unit(benchmark::kMillisecond);

void
BM_EngineAccessRuns(benchmark::State &state)
{
    // The engine's batched path: runs of same-CPU sequential reads (a
    // request parse / value stream shape) flushed through
    // MemorySystem::accessRun with one virtual dispatch per run,
    // versus the per-block dispatch BM_*ChipAccess measures.
    Engine eng(std::make_unique<SingleChipSystem>(), 7);
    Rng rng(7);
    for (auto _ : state) {
        const auto cpu = static_cast<CpuId>(rng.below(4));
        const Addr base = rng.below(1 << 26) * kBlockSize;
        for (unsigned i = 0; i < 16; ++i)
            eng.read(cpu, base + i * kBlockSize, 64, 0);
    }
    eng.flushAccesses();
    benchmark::DoNotOptimize(eng.totalInstructions());
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_EngineAccessRuns);

void
BM_KvStoreGetSet(benchmark::State &state)
{
    // The PR 4 scenario hot path: hash-index walk, slab value
    // traffic, LRU recycling — a 90/10 get/set mix over a uniform
    // key population, like the KV workload's serve loop.
    Engine eng(std::make_unique<SingleChipSystem>(), 17);
    Kernel kern(eng);
    SysCtx ctx(eng, kern, 0, nullptr);
    KvConfig cfg;
    cfg.rescale(0.25);
    KvStore store(cfg, eng.registry(), /*pid=*/440);
    Rng rng(5);
    for (auto _ : state) {
        const std::uint64_t key = rng.below(cfg.keys);
        if (rng.chance(0.9)) {
            if (store.get(ctx, key) == 0)
                store.set(ctx, key, store.valueBlocks(key));
        } else {
            store.set(ctx, key, store.valueBlocks(key));
        }
    }
    benchmark::DoNotOptimize(store.hits());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvStoreGetSet);

void
BM_BrokerPublishReplay(benchmark::State &state)
{
    // Broker append + cursor replay: producer appends across topics
    // (rolling into recycled segments, trimming retention), one
    // consumer replays topic 0 in batches.
    Engine eng(std::make_unique<SingleChipSystem>(), 23);
    Kernel kern(eng);
    SysCtx ctx(eng, kern, 0, nullptr);
    MqConfig cfg;
    cfg.rescale(0.25);
    Broker broker(cfg, eng.registry(), /*pid=*/441);
    const std::size_t cur = broker.subscribe(0);
    Rng rng(6);
    for (auto _ : state) {
        const auto topic =
            static_cast<std::uint32_t>(rng.below(cfg.topics));
        broker.publish(ctx, topic,
                       256 + static_cast<std::uint32_t>(
                                 rng.below(1024)));
        broker.consume(ctx, cur, 4096);
    }
    benchmark::DoNotOptimize(broker.delivered());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BrokerPublishReplay);

void
BM_StrideDetector(benchmark::State &state)
{
    Rng rng(3);
    StrideDetector det;
    std::uint64_t base = 0;
    for (auto _ : state) {
        base += rng.chance(0.7) ? 1 : rng.below(1000);
        benchmark::DoNotOptimize(
            det.observe(static_cast<CpuId>(rng.below(4)), base));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StrideDetector);

void
BM_FullStreamAnalysis(benchmark::State &state)
{
    // Synthesize a plausible trace and time the whole analysis.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const auto blocks = makeInput(n, 1 << 20, 0.4);
    MissTrace trace;
    trace.numCpus = 4;
    Rng rng(11);
    for (std::size_t i = 0; i < n; ++i) {
        trace.misses.push_back(MissRecord{
            i, blocks[i], static_cast<CpuId>(rng.below(4)), 0, 0});
    }
    trace.instructions = n * 100;
    for (auto _ : state) {
        StreamStats st = analyzeStreams(trace);
        benchmark::DoNotOptimize(st.grammarRules);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FullStreamAnalysis)->Arg(100000)->Arg(500000);

/** A seeded 16-CPU trace of @p n misses with temporal streams. */
MissTrace
makePrefetchTrace(std::size_t n)
{
    const auto blocks = makeInput(n, 1 << 20, 0.4);
    MissTrace trace;
    trace.numCpus = 16;
    Rng rng(13);
    for (std::size_t i = 0; i < n; ++i)
        trace.misses.push_back(MissRecord{
            i, blocks[i], static_cast<CpuId>(rng.below(16)), 0, 0});
    return trace;
}

void
BM_EvaluatePolicy(benchmark::State &state, const char *policy,
                  unsigned depth)
{
    // Offline scoring of one policy over a seeded 16-CPU trace with
    // temporal streams: the per-miss buffer check, train and drain
    // step of the policy harness.
    const std::size_t n = 200000;
    const MissTrace trace = makePrefetchTrace(n);
    PrefetchPolicyParams params;
    params.ts.replayDepth = depth;
    auto p = makePrefetchPolicy(policy, params);
    for (auto _ : state) {
        const TsPrefetcherStats st =
            evaluatePolicy(trace, *p, params.ts.bufferBlocks);
        benchmark::DoNotOptimize(st.covered);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_EvaluatePolicy, fixed_d8, "fixed", 8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EvaluatePolicy, hybrid, "hybrid", 8)
    ->Unit(benchmark::kMillisecond);

void
BM_EvaluatePolicies(benchmark::State &state)
{
    // ext_prefetcher's default row in one pass over the same trace as
    // BM_EvaluatePolicy: fixed at depths 1/4/8/16/32 plus hybrid@8.
    const std::size_t n = 200000;
    const MissTrace trace = makePrefetchTrace(n);
    std::vector<PolicyConfig> configs;
    for (unsigned d : {1u, 4u, 8u, 16u, 32u}) {
        PolicyConfig c;
        c.name = "fixed";
        c.params.ts.replayDepth = d;
        configs.push_back(c);
    }
    configs.push_back(PolicyConfig{"hybrid", {}});
    for (auto _ : state) {
        const std::vector<PolicyScore> scores =
            evaluatePolicies(trace, configs);
        benchmark::DoNotOptimize(scores.front().stats.covered);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EvaluatePolicies)->Name("BM_EvaluatePolicies/ext_row")
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace tstream

BENCHMARK_MAIN();
