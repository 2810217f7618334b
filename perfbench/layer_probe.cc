/**
 * @file
 * Layer probe for the repo benchmark (perfbench/run.py).
 *
 * Replays one benchmark workload's cells through libtstream's public
 * layer functions and times each call from here, outside the library:
 * the trace cache (traceCacheLoad / traceCacheStore), simulation
 * (runExperiment), stream analysis (analyzeStreams), module
 * attribution (profileModules), prefetch scoring (evaluatePolicy), the
 * report layer (writeBenchDoc / readBenchDocs / benchDocsEquivalent)
 * and a standalone SEQUITUR pass. It mirrors what `tstream-bench run`
 * does for the same workload: the same bench order, the same grids
 * (cells and configHash), the same cache file layout, cells on a
 * work pool of 3 threads (the benchmark's `--jobs 3`), and
 * ext_prefetcher's serial scoring after its pool drains. It does not
 * read the in-program telemetry.
 *
 *   layer_probe run --workload W [--seed N] [--spans 0|1]
 *                   --ref REPORT.json [--tmp DIR] --out OUT.json
 *   layer_probe compare REFERENCE.json REPORT.json
 *
 * `run` uses the cache directory named by TSTREAM_TRACE_CACHE, like
 * the benches, and REPORT.json is the workload's reference report.
 * With --spans 0 it runs the same pipeline without reading the clock
 * around layer calls and skips the report layer, the configHash check
 * and the SEQUITUR pass. `compare` counts the cells of REPORT.json
 * that do not check-equal their cell in REFERENCE.json.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/module_profile.hh"
#include "core/prefetch_policy.hh"
#include "core/sequitur.hh"
#include "core/stream_analysis.hh"
#include "sim/bench_report.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "util/work_pool.hh"

using namespace tstream;

namespace
{

using Clock = std::chrono::steady_clock;

/** Pool threads per bench, as `tstream-bench run --jobs 3`. */
constexpr unsigned kJobs = 3;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * Rises of the process peak RSS (high-water mark), handed out without
 * double counting: each timed call takes, when it ends, the rise since
 * the previous call ended, so concurrent cells never claim the same
 * megabytes and the rises sum to the probe's own peak growth.
 */
class PeakRss
{
  public:
    double
    takeRiseMb()
    {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        const double now = static_cast<double>(ru.ru_maxrss) / 1024.0;
        std::lock_guard<std::mutex> lk(mu_);
        const double rise = std::max(0.0, now - seen_);
        seen_ = std::max(seen_, now);
        return rise;
    }

  private:
    std::mutex mu_;
    double seen_ = 0.0;
};

PeakRss gPeakRss;

// ---- the workloads' grids -------------------------------------------------

const std::vector<WorkloadKind> kAll = {
    WorkloadKind::Apache,  WorkloadKind::Zeus,   WorkloadKind::Oltp,
    WorkloadKind::DssQ1,   WorkloadKind::DssQ2,  WorkloadKind::DssQ17,
    WorkloadKind::KvStore, WorkloadKind::Broker, WorkloadKind::PhasedMix,
};

/** One bench binary as `tstream-bench run` drives it. */
struct BenchSpec
{
    std::string binary;
    std::vector<Cell> grid;
    bool analyze = true;     ///< DriverOptions::analyzeStreams
    bool filterIntra = true; ///< DriverOptions::filterIntra
    bool prefetch = false;   ///< ext_prefetcher's post-pool scoring
};

/** ablation_l2_sweep's grid (bench/ablation_l2_sweep.cc). */
std::vector<Cell>
l2SweepGrid(const BenchBudgets &b)
{
    std::vector<Cell> grid;
    for (WorkloadKind w : {WorkloadKind::Oltp, WorkloadKind::KvStore}) {
        for (std::uint64_t mb : {1, 2, 4, 8, 16}) {
            Cell c;
            c.index = grid.size();
            c.cfg.workload = w;
            c.cfg.context = SystemContext::MultiChip;
            c.cfg.warmupInstructions = b.warmup;
            c.cfg.measureInstructions = b.measure;
            c.cfg.scale = b.scale;
            c.cfg.multiChip.l2 = CacheConfig{mb * 1024 * 1024, 16};
            c.id = std::string(workloadName(w)) + "/multi-chip/l2=" +
                   std::to_string(mb) + "MB";
            grid.push_back(std::move(c));
        }
    }
    return grid;
}

/**
 * The benches of workload @p name in `tstream-bench run` order, with
 * every cell's seed set to @p seed. Empty for an unknown workload.
 */
std::vector<BenchSpec>
workloadBenches(const std::string &name, std::uint64_t seed)
{
    std::vector<BenchSpec> out;
    BenchBudgets b;
    if (name == "quick-cold" || name == "quick-warm") {
        b = {kQuickBudgets.warmupInstructions,
             kQuickBudgets.measureInstructions, kQuickBudgets.scale};
        auto add = [&](const char *bin, std::vector<Cell> grid,
                       bool analyze = true, bool filter = true,
                       bool prefetch = false) {
            out.push_back({bin, std::move(grid), analyze, filter,
                           prefetch});
        };
        add("fig1_miss_classification", standardGrid(kAll, b), false,
            false);
        add("fig2_stream_fraction", standardGrid(kAll, b));
        add("fig3_stride_breakdown", standardGrid(kAll, b));
        add("fig4_length_reuse", standardGrid(kAll, b));
        add("table3_web_origins",
            standardGrid({WorkloadKind::Apache, WorkloadKind::Zeus}, b));
        add("table4_oltp_origins",
            standardGrid({WorkloadKind::Oltp}, b));
        add("table5_dss_origins",
            standardGrid({WorkloadKind::DssQ1, WorkloadKind::DssQ2,
                          WorkloadKind::DssQ17},
                         b));
        add("table6_scenario_origins",
            standardGrid({WorkloadKind::KvStore, WorkloadKind::Broker,
                          WorkloadKind::PhasedMix},
                         b));
        add("ablation_stream_detector",
            standardGrid({WorkloadKind::Oltp, WorkloadKind::Apache,
                          WorkloadKind::KvStore},
                         b));
        add("ablation_l2_sweep", l2SweepGrid(b));
        add("ext_prefetcher", standardGrid(kAll, b), true, true, true);
    } else if (name == "paper-fig2-cold") {
        out.push_back({"fig2_stream_fraction", standardGrid(kAll, b)});
    }
    for (BenchSpec &s : out)
        for (Cell &c : s.grid)
            c.cfg.seed = seed;
    return out;
}

// ---- per-layer accumulators -----------------------------------------------

void
addStats(TsPrefetcherStats &dst, const TsPrefetcherStats &src)
{
    dst.misses += src.misses;
    dst.covered += src.covered;
    dst.issued += src.issued;
    dst.useful += src.useful;
}

struct Layers
{
    std::uint64_t cells = 0, failedCells = 0;

    std::uint64_t simCalls = 0, simInstructions = 0, simMisses = 0;
    double simBusy = 0, simRssRise = 0;

    std::uint64_t cacheHits = 0, cacheMisses = 0, cacheStores = 0;
    double loadS = 0, storeS = 0;
    std::uint64_t loadedRecords = 0;

    std::uint64_t analysisCalls = 0, analysisNonEmpty = 0;
    std::uint64_t analysisMisses = 0, analysisRules = 0;
    double analysisBusy = 0, analysisRssRise = 0;

    std::uint64_t moduleCalls = 0;
    double moduleBusy = 0;

    std::uint64_t prefetchCalls = 0;
    double fixedBusy = 0, hybridBusy = 0;
    TsPrefetcherStats fixedD8, hybrid;

    double poolBusy = 0, poolIdle = 0;
    std::vector<double> queueWaits;

    void
    add(const Layers &o)
    {
        cells += o.cells;
        failedCells += o.failedCells;
        simCalls += o.simCalls;
        simInstructions += o.simInstructions;
        simMisses += o.simMisses;
        simBusy += o.simBusy;
        simRssRise += o.simRssRise;
        cacheHits += o.cacheHits;
        cacheMisses += o.cacheMisses;
        cacheStores += o.cacheStores;
        loadS += o.loadS;
        storeS += o.storeS;
        loadedRecords += o.loadedRecords;
        analysisCalls += o.analysisCalls;
        analysisNonEmpty += o.analysisNonEmpty;
        analysisMisses += o.analysisMisses;
        analysisBusy += o.analysisBusy;
        analysisRssRise += o.analysisRssRise;
        moduleCalls += o.moduleCalls;
        moduleBusy += o.moduleBusy;
        prefetchCalls += o.prefetchCalls;
        fixedBusy += o.fixedBusy;
        hybridBusy += o.hybridBusy;
        addStats(fixedD8, o.fixedD8);
        addStats(hybrid, o.hybrid);
        poolBusy += o.poolBusy;
        poolIdle += o.poolIdle;
        queueWaits.insert(queueWaits.end(), o.queueWaits.begin(),
                          o.queueWaits.end());
    }
};

/** Spans taken by timed(), without and with a peak-RSS read. */
std::atomic<std::uint64_t> gSpans{0}, gRssSpans{0};

/**
 * Times one layer call when spans are on: adds the call's duration to
 * @p busy and, when @p rss is given, the rise of the process peak RSS
 * not yet handed to an earlier call. With spans off it only makes the
 * call.
 */
template <typename F>
auto
timed(bool spans, double &busy, double *rss, F &&f)
{
    if (!spans)
        return f();
    const auto t0 = Clock::now();
    auto r = f();
    busy += secondsBetween(t0, Clock::now());
    if (rss) {
        *rss += gPeakRss.takeRiseMb();
        gRssSpans.fetch_add(1, std::memory_order_relaxed);
    } else {
        gSpans.fetch_add(1, std::memory_order_relaxed);
    }
    return r;
}

/** Cost of one timed() span around an empty call, with or without RSS. */
double
spanCostS(bool withRss)
{
    constexpr int kSpans = 20000;
    double busy = 0, rss = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i)
        timed(true, busy, withRss ? &rss : nullptr, [] { return 0; });
    return secondsBetween(t0, Clock::now()) / kSpans;
}

/** One distinct analyzed trace: where it lives and its rule count. */
struct DistinctTrace
{
    ExperimentConfig cfg;
    TraceKind kind = TraceKind::MultiChip;
    std::uint64_t grammarRules = 0; ///< analyzeStreams' rule count
    bool rulesAgree = true;         ///< every analysis saw the same count
};

/** Distinct analyzed traces keyed on (configHash, trace kind). */
struct DistinctTraces
{
    std::mutex mu;
    std::map<std::pair<std::uint64_t, int>, DistinctTrace> byKey;

    void
    note(const ExperimentConfig &cfg, TraceKind kind,
         std::uint64_t rules)
    {
        const auto key =
            std::make_pair(configHash(cfg), static_cast<int>(kind));
        std::lock_guard<std::mutex> lk(mu);
        auto [it, fresh] = byKey.try_emplace(key);
        if (fresh)
            it->second = {cfg, kind, rules, true};
        else if (it->second.grammarRules != rules)
            it->second.rulesAgree = false;
    }
};

/**
 * analyzeStreams' grammar input (per-CPU mode): each CPU's block
 * sequence with blocks interned densely in first-seen order and a
 * unique sentinel after every CPU section.
 */
std::vector<std::uint32_t>
projectPerCpu(const MissTrace &trace)
{
    const unsigned ncpu = std::max(1u, trace.numCpus);
    std::vector<std::vector<std::uint32_t>> byCpu(ncpu);
    for (std::uint32_t i = 0; i < trace.misses.size(); ++i)
        if (trace.misses[i].cpu < ncpu)
            byCpu[trace.misses[i].cpu].push_back(i);
    std::unordered_map<BlockId, std::uint32_t> intern;
    std::vector<std::uint32_t> out;
    out.reserve(trace.misses.size() + ncpu);
    std::uint32_t next = 0;
    for (unsigned c = 0; c < ncpu; ++c) {
        for (std::uint32_t mi : byCpu[c]) {
            auto [it, fresh] =
                intern.try_emplace(trace.misses[mi].block, next);
            if (fresh)
                ++next;
            out.push_back(it->second);
        }
        out.push_back(next++);
    }
    return out;
}

struct ProbeOptions
{
    std::string workload;
    std::uint64_t seed = 42;
    bool spans = true;
    std::string ref;
    std::string tmp = ".";
    std::string out;
};

/** Everything one `run` pass measured. */
struct Pass
{
    Layers L;
    double pipelineWall = 0;
    std::uint64_t spans = 0, rssSpans = 0;
    double spanCost = 0, rssSpanCost = 0;
    std::uint64_t traceBytes = 0, traceRecords = 0;
    std::uint64_t seqSymbols = 0, seqRules = 0, seqTraces = 0;
    std::uint64_t seqRuleMismatches = 0;
    double seqBusy = 0;
    double reportWrite = 0, reportCheck = 0;
    std::uint64_t reportBytes = 0, reportDocs = 0;
    std::uint64_t reportMismatches = 0;
    std::uint64_t hashCells = 0, hashMismatches = 0;
};

/** Run one cell of @p spec; returns its per-cell layer counts. */
Layers
runOneCell(const BenchSpec &spec, const Cell &cell, bool spans,
           DistinctTraces &distinct,
           std::vector<MissTrace> *keep)
{
    Layers L;
    L.cells = 1;
    ExperimentResult res;
    std::optional<ExperimentResult> cached = timed(
        spans, L.loadS, nullptr, [&] { return traceCacheLoad(cell.cfg); });
    if (cached) {
        res = std::move(*cached);
        ++L.cacheHits;
        L.loadedRecords +=
            res.offChip.misses.size() + res.intraChip.misses.size();
    } else {
        ++L.cacheMisses;
        res = timed(spans, L.simBusy, &L.simRssRise,
                    [&] { return runExperiment(cell.cfg); });
        ++L.simCalls;
        L.simInstructions += res.instructions;
        L.simMisses +=
            res.offChip.misses.size() + res.intraChip.misses.size();
        timed(spans, L.storeS, nullptr, [&] {
            traceCacheStore(cell.cfg, res);
            return 0;
        });
        ++L.cacheStores;
    }

    std::vector<std::pair<MissTrace, TraceKind>> runs;
    if (cell.cfg.context == SystemContext::MultiChip) {
        runs.emplace_back(std::move(res.offChip), TraceKind::MultiChip);
    } else {
        runs.emplace_back(std::move(res.offChip), TraceKind::SingleChip);
        runs.emplace_back(spec.filterIntra ? res.intraChipOnChip()
                                           : std::move(res.intraChip),
                          TraceKind::IntraChip);
    }

    for (auto &[trace, kind] : runs) {
        if (spec.analyze) {
            const StreamStats st =
                timed(spans, L.analysisBusy, &L.analysisRssRise,
                      [&] { return analyzeStreams(trace); });
            ++L.analysisCalls;
            L.analysisMisses += trace.misses.size();
            if (!trace.misses.empty())
                ++L.analysisNonEmpty;
            timed(spans, L.moduleBusy, nullptr, [&] {
                return profileModules(trace, st, res.registry);
            });
            ++L.moduleCalls;
            distinct.note(cell.cfg, kind, st.grammarRules);
        }
        if (keep)
            keep->push_back(std::move(trace));
    }
    return L;
}

/** ext_prefetcher's row scoring: fixed@{1,4,8,16,32} + hybrid@8. */
void
scorePrefetch(const MissTrace &trace, bool spans, Layers &L)
{
    for (unsigned d : {1u, 4u, 8u, 16u, 32u}) {
        PrefetchPolicyParams params;
        params.ts.replayDepth = d;
        auto policy = makePrefetchPolicy("fixed", params);
        const TsPrefetcherStats st =
            timed(spans, L.fixedBusy, nullptr, [&] {
                return evaluatePolicy(trace, *policy,
                                      params.ts.bufferBlocks);
            });
        ++L.prefetchCalls;
        if (d == 8)
            addStats(L.fixedD8, st);
    }
    PrefetchPolicyParams params;
    params.ts.replayDepth = 8;
    auto policy = makePrefetchPolicy("hybrid", params);
    const TsPrefetcherStats hs = timed(spans, L.hybridBusy, nullptr, [&] {
        return evaluatePolicy(trace, *policy, params.ts.bufferBlocks);
    });
    ++L.prefetchCalls;
    addStats(L.hybrid, hs);
}

/** Bytes and records of every trace file in the cache directory. */
void
cacheTraceTotals(std::uint64_t &bytes, std::uint64_t &records)
{
    bytes = records = 0;
    const char *dir = std::getenv("TSTREAM_TRACE_CACHE");
    if (!dir || !*dir)
        return;
    std::error_code ec;
    std::vector<std::filesystem::path> files;
    for (const auto &e : std::filesystem::directory_iterator(dir, ec))
        if (e.path().extension() == ".tst")
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    for (const auto &f : files) {
        bytes += std::filesystem::file_size(f, ec);
        if (auto t = loadTrace(f.string()))
            records += t->misses.size();
    }
}

/** The report layer, driven with the reference report's documents. */
bool
probeReports(const std::vector<BenchDoc> &docs, const std::string &tmp,
             Pass &P)
{
    std::string err;
    for (const BenchDoc &doc : docs) {
        const std::string path = tmp + "/probe." + doc.bench + ".json";
        auto t0 = Clock::now();
        if (!writeBenchDoc(doc, path, err)) {
            std::fprintf(stderr, "layer_probe: %s\n", err.c_str());
            return false;
        }
        P.reportWrite += secondsBetween(t0, Clock::now());
        std::error_code ec;
        P.reportBytes += std::filesystem::file_size(path, ec);
        t0 = Clock::now();
        std::vector<BenchDoc> back;
        std::string why;
        const bool same = readBenchDocs(path, back, err) &&
                          back.size() == 1 &&
                          benchDocsEquivalent(doc, back[0], why);
        P.reportCheck += secondsBetween(t0, Clock::now());
        if (!same)
            ++P.reportMismatches;
        ++P.reportDocs;
        std::filesystem::remove(path, ec);
    }
    return true;
}

/** Compare the grid's configHash at seed 42 with the reference. */
void
checkHashes(const std::vector<BenchDoc> &docs, const std::string &workload,
            Pass &P)
{
    for (const BenchSpec &spec : workloadBenches(workload, 42)) {
        const BenchDoc *doc = nullptr;
        for (const BenchDoc &d : docs)
            if (d.bench == spec.binary)
                doc = &d;
        for (const Cell &c : spec.grid) {
            ++P.hashCells;
            bool ok = false;
            if (doc)
                for (const BenchCell &bc : doc->cells)
                    if (bc.index == c.index)
                        ok = bc.id == c.id &&
                             bc.configHash == configHash(c.cfg);
            if (!ok)
                ++P.hashMismatches;
        }
        if (doc && doc->cells.size() != spec.grid.size())
            ++P.hashMismatches;
    }
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

void
writeJson(const ProbeOptions &o, const Pass &P)
{
    std::FILE *f = std::fopen(o.out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "layer_probe: cannot write %s\n",
                     o.out.c_str());
        std::exit(1);
    }
    const Layers &L = P.L;
    std::fprintf(f, "{\n");
    bool first = true;
    auto num = [&](const char *key, double v) {
        std::fprintf(f, "%s  \"%s\": %.17g", first ? "" : ",\n", key, v);
        first = false;
    };
    auto cnt = [&](const char *key, std::uint64_t v) {
        std::fprintf(f, "%s  \"%s\": %" PRIu64, first ? "" : ",\n", key,
                     v);
        first = false;
    };
    cnt("seed", o.seed);
    cnt("spans", o.spans ? 1 : 0);
    num("pipeline_wall_s", P.pipelineWall);
    // Spans counted times their measured cost: CPU time summed over the
    // pool threads, so at most this much wall time.
    const double overhead = static_cast<double>(P.spans) * P.spanCost +
                            static_cast<double>(P.rssSpans) * P.rssSpanCost;
    cnt("probe.spans", P.spans + P.rssSpans);
    num("probe.span_ns",
        ratio(overhead * 1e9, static_cast<double>(P.spans + P.rssSpans)));
    num("probe.trace_overhead_s", overhead);
    cnt("cells", L.cells);
    cnt("failed_cells", L.failedCells);
    cnt("sim.calls", L.simCalls);
    num("sim.busy_s", L.simBusy);
    cnt("sim.instructions", L.simInstructions);
    cnt("sim.misses", L.simMisses);
    num("sim.minstr_per_s",
        ratio(static_cast<double>(L.simInstructions) / 1e6, L.simBusy));
    num("sim.ns_per_miss",
        ratio(L.simBusy * 1e9, static_cast<double>(L.simMisses)));
    num("sim.rss_rise_mb", L.simRssRise);
    cnt("cache.hits", L.cacheHits);
    cnt("cache.misses", L.cacheMisses);
    cnt("cache.stores", L.cacheStores);
    num("cache.hit_ratio",
        ratio(static_cast<double>(L.cacheHits),
              static_cast<double>(L.cacheHits + L.cacheMisses)));
    num("trace.store_s", L.storeS);
    num("trace.load_s", L.loadS);
    cnt("trace.bytes", P.traceBytes);
    cnt("trace.records", P.traceRecords);
    num("trace.bytes_per_miss",
        ratio(static_cast<double>(P.traceBytes),
              static_cast<double>(P.traceRecords)));
    num("trace.load_mrec_per_s",
        ratio(static_cast<double>(L.loadedRecords) / 1e6, L.loadS));
    cnt("analysis.calls", L.analysisCalls);
    cnt("analysis.nonempty_calls", L.analysisNonEmpty);
    num("analysis.busy_s", L.analysisBusy);
    num("analysis.ns_per_miss",
        ratio(L.analysisBusy * 1e9,
              static_cast<double>(L.analysisMisses)));
    cnt("analysis.grammar_rules", L.analysisRules);
    num("analysis.rss_rise_mb", L.analysisRssRise);
    num("sequitur.busy_s", P.seqBusy);
    num("sequitur.ns_per_symbol",
        ratio(P.seqBusy * 1e9, static_cast<double>(P.seqSymbols)));
    cnt("sequitur.rules", P.seqRules);
    cnt("sequitur.traces", P.seqTraces);
    cnt("sequitur.rule_mismatches", P.seqRuleMismatches);
    cnt("modules.calls", L.moduleCalls);
    num("modules.busy_s", L.moduleBusy);
    cnt("prefetch.calls", L.prefetchCalls);
    num("prefetch.fixed.busy_s", L.fixedBusy);
    num("prefetch.hybrid.busy_s", L.hybridBusy);
    num("prefetch.fixed_d8.accuracy", L.fixedD8.accuracy());
    num("prefetch.fixed_d8.coverage", L.fixedD8.coverage());
    num("prefetch.hybrid.coverage", L.hybrid.coverage());
    num("report.write_s", P.reportWrite);
    num("report.check_equal_s", P.reportCheck);
    cnt("report.bytes", P.reportBytes);
    cnt("report.docs", P.reportDocs);
    cnt("report.mismatches", P.reportMismatches);
    num("pool.busy_s", L.poolBusy);
    num("pool.idle_s", L.poolIdle);
    num("pool.queue_wait_p50_s", quantile(L.queueWaits, 0.5));
    num("pool.queue_wait_p90_s", quantile(L.queueWaits, 0.9));
    cnt("pool.queue_wait_samples", L.queueWaits.size());
    cnt("hash.cells", P.hashCells);
    cnt("hash.mismatches", P.hashMismatches);
    std::fprintf(f, "\n}\n");
    std::fclose(f);
}

/**
 * Standalone SEQUITUR over every distinct analyzed trace, reloaded
 * from the trace cache after the pipeline so that projecting it costs
 * the pipeline nothing. Its rule count must equal what analyzeStreams
 * reported for the same trace.
 */
void
sequiturPass(DistinctTraces &distinct, Pass &P)
{
    for (const auto &[key, d] : distinct.byKey) {
        P.L.analysisRules += d.grammarRules;
        ++P.seqTraces;
        const std::string stem = traceCacheStem(d.cfg);
        auto loaded = loadTrace(
            stem + (d.kind == TraceKind::IntraChip ? ".l1.tst" : ".off.tst"));
        if (!loaded) {
            ++P.seqRuleMismatches;
            continue;
        }
        MissTrace trace = std::move(*loaded);
        if (d.kind == TraceKind::IntraChip) {
            ExperimentResult r;
            r.intraChip = std::move(trace);
            trace = r.intraChipOnChip();
        }
        const std::vector<std::uint32_t> symbols = projectPerCpu(trace);
        Sequitur g;
        const auto t0 = Clock::now();
        for (std::uint32_t s : symbols)
            g.append(s);
        P.seqBusy += secondsBetween(t0, Clock::now());
        const std::uint64_t rules = trace.misses.empty() ? 0 : g.ruleCount();
        P.seqSymbols += symbols.size();
        P.seqRules += rules;
        if (rules != d.grammarRules || !d.rulesAgree)
            ++P.seqRuleMismatches;
    }
}

int
runProbe(const ProbeOptions &o)
{
    const std::vector<BenchSpec> benches =
        workloadBenches(o.workload, o.seed);
    if (benches.empty()) {
        std::fprintf(stderr, "layer_probe: unknown workload '%s'\n",
                     o.workload.c_str());
        return 2;
    }

    std::vector<BenchDoc> refDocs;
    std::string err;
    if (!readBenchDocs(o.ref, refDocs, err)) {
        std::fprintf(stderr, "layer_probe: %s\n", err.c_str());
        return 1;
    }

    Pass P;
    DistinctTraces distinct;

    const auto wall0 = Clock::now();
    for (const BenchSpec &spec : benches) {
        std::mutex mu;
        Layers benchL;
        std::vector<std::vector<MissTrace>> keep(
            spec.prefetch ? spec.grid.size() : 0);
        const auto pool0 = Clock::now();
        {
            WorkPool pool(kJobs);
            for (std::size_t i = 0; i < spec.grid.size(); ++i) {
                const auto submitted = Clock::now();
                pool.submit([&, i, submitted] {
                    const auto start = Clock::now();
                    Layers L;
                    try {
                        L = runOneCell(spec, spec.grid[i], o.spans,
                                       distinct,
                                       spec.prefetch ? &keep[i] : nullptr);
                    } catch (const std::exception &e) {
                        std::fprintf(stderr,
                                     "layer_probe: %s %s: %s\n",
                                     spec.binary.c_str(),
                                     spec.grid[i].id.c_str(), e.what());
                        L = Layers{};
                        L.cells = 1;
                        L.failedCells = 1;
                    }
                    const auto end = Clock::now();
                    std::lock_guard<std::mutex> lk(mu);
                    benchL.add(L);
                    benchL.poolBusy += secondsBetween(start, end);
                    benchL.queueWaits.push_back(
                        secondsBetween(submitted, start));
                });
            }
            pool.wait();
        }
        const double poolWall = secondsBetween(pool0, Clock::now());
        benchL.poolIdle = static_cast<double>(kJobs) * poolWall -
                          benchL.poolBusy;
        // ext_prefetcher builds its rows serially after the pool.
        for (const std::vector<MissTrace> &traces : keep)
            for (const MissTrace &t : traces)
                scorePrefetch(t, o.spans, benchL);

        P.L.add(benchL);
    }
    P.pipelineWall = secondsBetween(wall0, Clock::now());

    cacheTraceTotals(P.traceBytes, P.traceRecords);

    if (o.spans) {
        P.spans = gSpans.load();
        P.rssSpans = gRssSpans.load();
        P.spanCost = spanCostS(false);
        P.rssSpanCost = spanCostS(true);
        sequiturPass(distinct, P);
        if (!probeReports(refDocs, o.tmp, P))
            return 1;
        checkHashes(refDocs, o.workload, P);
    }
    writeJson(o, P);
    return 0;
}

/** Count cells of @p outPath that do not check-equal @p refPath. */
int
compareReports(const std::string &refPath, const std::string &outPath)
{
    std::vector<BenchDoc> ref, got;
    std::string err;
    if (!readBenchDocs(refPath, ref, err)) {
        std::fprintf(stderr, "layer_probe: %s\n", err.c_str());
        return 2;
    }
    std::size_t cells = 0, mismatched = 0, failed = 0;
    if (!readBenchDocs(outPath, got, err))
        got.clear();
    for (const BenchDoc &r : ref) {
        const BenchDoc *g = nullptr;
        for (const BenchDoc &d : got)
            if (d.bench == r.bench)
                g = &d;
        for (const BenchCell &rc : r.cells) {
            ++cells;
            const BenchCell *gc = nullptr;
            if (g)
                for (const BenchCell &c : g->cells)
                    if (c.index == rc.index)
                        gc = &c;
            if (!gc) {
                ++failed;
                continue;
            }
            if (gc->failed) {
                ++failed;
                continue;
            }
            BenchDoc a = r, b = *g;
            a.cells = {rc};
            b.cells = {*gc};
            std::string why;
            if (!benchDocsEquivalent(a, b, why))
                ++mismatched;
        }
    }
    std::printf("cells=%zu mismatched=%zu failed=%zu\n", cells,
                mismatched, failed);
    return 0;
}

[[noreturn]] void
usage(const char *msg)
{
    if (msg)
        std::fprintf(stderr, "layer_probe: %s\n", msg);
    std::fprintf(stderr,
                 "usage: layer_probe run --workload W [--seed N] "
                 "[--spans 0|1]\n"
                 "                  --ref REPORT.json [--tmp DIR] "
                 "--out OUT.json\n"
                 "       layer_probe compare REFERENCE.json "
                 "REPORT.json\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(nullptr);
    const std::string cmd = argv[1];
    if (cmd == "compare") {
        if (argc != 4)
            usage("compare takes two reports");
        return compareReports(argv[2], argv[3]);
    }
    if (cmd != "run")
        usage("unknown subcommand");

    ProbeOptions o;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *v = argv[++i];
        if (arg == "--workload")
            o.workload = v;
        else if (arg == "--seed")
            o.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--spans")
            o.spans = std::strcmp(v, "0") != 0;
        else if (arg == "--ref")
            o.ref = v;
        else if (arg == "--tmp")
            o.tmp = v;
        else if (arg == "--out")
            o.out = v;
        else
            usage(("unknown flag " + arg).c_str());
    }
    if (o.workload.empty() || o.ref.empty() || o.out.empty())
        usage("run needs --workload, --ref and --out");
    return runProbe(o);
}
