/**
 * @file
 * Tests for the sharded cell-level experiment driver (sim/driver.hh)
 * and its work-stealing pool (util/work_pool.hh): deterministic grid
 * enumeration, disjoint-exact-cover sharding for any N, bounded pool
 * concurrency, strict bench argument parsing, and cell execution with
 * result ordering independent of the job count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <thread>

#include "obs/telemetry.hh"
#include "run_capture.hh"
#include "sim/driver.hh"
#include "util/work_pool.hh"

namespace tstream
{
namespace
{

const std::vector<WorkloadKind> kTwoWorkloads = {WorkloadKind::Oltp,
                                                 WorkloadKind::Apache};

BenchBudgets
tinyBudgets()
{
    BenchBudgets b;
    b.warmup = 100'000;
    b.measure = 300'000;
    b.scale = 0.05;
    return b;
}

TEST(DriverGridTest, EnumerationIsDeterministic)
{
    const auto a = standardGrid(kTwoWorkloads, tinyBudgets());
    const auto b = standardGrid(kTwoWorkloads, tinyBudgets());
    ASSERT_EQ(a.size(), 4u); // 2 workloads x 2 contexts
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, i);
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(configHash(a[i].cfg), configHash(b[i].cfg));
    }
    // Workload-major, multi-chip before single-chip.
    EXPECT_EQ(a[0].id, "DB2-OLTP/multi-chip");
    EXPECT_EQ(a[1].id, "DB2-OLTP/single-chip");
    EXPECT_EQ(a[2].id, "Apache/multi-chip");
    EXPECT_EQ(a[3].id, "Apache/single-chip");
}

TEST(DriverGridTest, GridCellsCarryBudgets)
{
    const BenchBudgets budgets = tinyBudgets();
    for (const Cell &c : standardGrid(kTwoWorkloads, budgets)) {
        EXPECT_EQ(c.cfg.warmupInstructions, budgets.warmup);
        EXPECT_EQ(c.cfg.measureInstructions, budgets.measure);
        EXPECT_DOUBLE_EQ(c.cfg.scale, budgets.scale);
    }
}

TEST(DriverShardTest, ShardsAreDisjointExactCoverForAnyN)
{
    const auto grid =
        standardGrid({WorkloadKind::Apache, WorkloadKind::Zeus,
                      WorkloadKind::Oltp, WorkloadKind::DssQ1,
                      WorkloadKind::DssQ2, WorkloadKind::DssQ17},
                     tinyBudgets());
    for (unsigned n = 1; n <= 13; ++n) {
        std::multiset<std::size_t> covered;
        for (unsigned k = 0; k < n; ++k) {
            const auto mine = shardCells(grid, ShardSpec{k, n});
            // Deterministic grid order within the shard.
            for (std::size_t i = 1; i < mine.size(); ++i)
                EXPECT_LT(mine[i - 1].index, mine[i].index);
            for (const Cell &c : mine)
                covered.insert(c.index);
        }
        // Exact cover: every cell exactly once across the N shards.
        ASSERT_EQ(covered.size(), grid.size()) << "N=" << n;
        for (std::size_t i = 0; i < grid.size(); ++i)
            EXPECT_EQ(covered.count(i), 1u) << "N=" << n;
    }
}

TEST(DriverShardTest, ParseShardSpec)
{
    ShardSpec s;
    EXPECT_TRUE(parseShardSpec("0/1", s));
    EXPECT_EQ(s.index, 0u);
    EXPECT_EQ(s.count, 1u);
    EXPECT_TRUE(parseShardSpec("3/8", s));
    EXPECT_EQ(s.index, 3u);
    EXPECT_EQ(s.count, 8u);

    EXPECT_FALSE(parseShardSpec("", s));
    EXPECT_FALSE(parseShardSpec("3", s));
    EXPECT_FALSE(parseShardSpec("/2", s));
    EXPECT_FALSE(parseShardSpec("2/", s));
    EXPECT_FALSE(parseShardSpec("2/2", s));  // k must be < N
    EXPECT_FALSE(parseShardSpec("0/0", s));
    EXPECT_FALSE(parseShardSpec("a/b", s));
    EXPECT_FALSE(parseShardSpec("1/2x", s));
}

TEST(WorkPoolTest, RunsEverySubmittedTask)
{
    WorkPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
    // wait() after completion is a no-op, and the pool can be reused.
    pool.wait();
    pool.submit([&] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 101);
}

TEST(WorkPoolTest, ConcurrencyIsBoundedByJobs)
{
    constexpr unsigned kJobs = 3;
    WorkPool pool(kJobs);
    std::atomic<int> current{0};
    std::atomic<int> maxSeen{0};
    std::atomic<int> ran{0};
    for (int i = 0; i < 48; ++i)
        pool.submit([&] {
            const int now = current.fetch_add(1) + 1;
            int prev = maxSeen.load();
            while (now > prev && !maxSeen.compare_exchange_weak(prev, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            current.fetch_sub(1);
            ran.fetch_add(1);
        });
    pool.wait();
    EXPECT_EQ(ran.load(), 48);
    EXPECT_LE(maxSeen.load(), static_cast<int>(kJobs));
    EXPECT_GE(maxSeen.load(), 1);
}

TEST(WorkPoolTest, StealsFromBusyNeighbours)
{
    // 2 workers, round-robin submission puts tasks 0,2,4.. on queue 0
    // and 1,3,5.. on queue 1; a long task on one queue must not stop
    // the other worker from stealing the rest.
    WorkPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        ran.fetch_add(1);
    });
    for (int i = 0; i < 20; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    const auto t0 = std::chrono::steady_clock::now();
    pool.wait();
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_EQ(ran.load(), 21);
    // All 20 short tasks fit comfortably inside the long task's 50 ms
    // if stealing works; give a wide margin for slow CI machines.
    EXPECT_LT(ms, 2000.0);
}

TEST(WorkPoolTest, DefaultJobsHonoursEnvironment)
{
    ::setenv("TSTREAM_JOBS", "5", 1);
    EXPECT_EQ(WorkPool::defaultJobs(), 5u);
    ::setenv("TSTREAM_JOBS", "not-a-number", 1);
    EXPECT_GE(WorkPool::defaultJobs(), 1u);
    ::unsetenv("TSTREAM_JOBS");
    EXPECT_GE(WorkPool::defaultJobs(), 1u);
}

TEST(BenchArgsTest, ParsesSupportedFlags)
{
    const char *argv[] = {"bench",      "--quick", "--jobs", "3",
                          "--shard",    "1/4",     "--json", "out.json"};
    const BenchOptions opts = parseBenchArgs(
        8, const_cast<char **>(argv), "bench_under_test");
    EXPECT_TRUE(opts.quick);
    EXPECT_EQ(opts.budgets.warmup, kQuickBudgets.warmupInstructions);
    EXPECT_EQ(opts.budgets.measure, kQuickBudgets.measureInstructions);
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.shard.index, 1u);
    EXPECT_EQ(opts.shard.count, 4u);
    EXPECT_EQ(opts.jsonPath, "out.json");
}

TEST(BenchArgsTest, DefaultsToPaperBudgets)
{
    const char *argv[] = {"bench"};
    const BenchOptions opts =
        parseBenchArgs(1, const_cast<char **>(argv), "bench");
    EXPECT_FALSE(opts.quick);
    EXPECT_EQ(opts.budgets.warmup, kPaperBudgets.warmupInstructions);
    EXPECT_EQ(opts.shard.count, 1u);
}

TEST(BenchArgsDeathTest, RejectsUnknownFlags)
{
    // A typo must not silently fall back to paper-scale budgets.
    const char *argv[] = {"bench", "--qiuck"};
    EXPECT_EXIT(
        parseBenchArgs(2, const_cast<char **>(argv), "bench"),
        testing::ExitedWithCode(2), "unknown option: --qiuck");
}

TEST(BenchArgsDeathTest, RejectsBadShard)
{
    const char *argv[] = {"bench", "--shard", "4/4"};
    EXPECT_EXIT(parseBenchArgs(3, const_cast<char **>(argv), "bench"),
                testing::ExitedWithCode(2), "--shard wants k/N");
}

TEST(BenchArgsDeathTest, RejectsMissingValue)
{
    const char *argv[] = {"bench", "--jobs"};
    EXPECT_EXIT(parseBenchArgs(2, const_cast<char **>(argv), "bench"),
                testing::ExitedWithCode(2), "missing value");
}

// ---- claiming / retry flags -------------------------------------------------

class ClaimArgsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::unsetenv("TSTREAM_TRACE_CACHE");
        ::unsetenv("TSTREAM_CLAIM_SESSION");
        ::unsetenv("TSTREAM_CLAIM_TTL_MS");
        ::unsetenv("TSTREAM_HEARTBEAT_MS");
        ::unsetenv("TSTREAM_CELL_TIMEOUT_MS");
        ::unsetenv("TSTREAM_CELL_RETRIES");
        ::unsetenv("TSTREAM_SHARD");
        ::unsetenv("TSTREAM_QUICK");
    }

    void
    TearDown() override
    {
        SetUp(); // same scrub on the way out
    }
};

using ClaimArgsDeathTest = ClaimArgsTest;

TEST_F(ClaimArgsTest, ParsesClaimAndRetryFlags)
{
    ::setenv("TSTREAM_TRACE_CACHE", "/tmp/tstream-cache", 1);
    const char *argv[] = {"bench",        "--claim-session", "sweep1",
                          "--claim-ttl",  "5000",            "--heartbeat",
                          "250",          "--cell-timeout",  "2000",
                          "--cell-retries", "5"};
    const BenchOptions opts = parseBenchArgs(
        11, const_cast<char **>(argv), "bench_under_test");
    EXPECT_EQ(opts.claimSession, "sweep1");
    EXPECT_EQ(opts.claimTtlMs, 5000);
    EXPECT_EQ(opts.heartbeatMs, 250);
    EXPECT_EQ(opts.cellTimeoutMs, 2000);
    EXPECT_EQ(opts.cellRetries, 5u);
    EXPECT_EQ(opts.claimDir(),
              "/tmp/tstream-cache/claims/sweep1/bench_under_test");

    // The driver options carry the whole claiming + retry surface.
    const DriverOptions d = opts.driver();
    EXPECT_TRUE(d.claim.enabled());
    EXPECT_EQ(d.claim.session, "sweep1");
    EXPECT_EQ(d.claim.dir, opts.claimDir());
    EXPECT_EQ(d.claim.ttlMs, 5000);
    EXPECT_EQ(d.claim.heartbeatMs, 250);
    EXPECT_EQ(d.retry.maxAttempts, 5u);
    EXPECT_EQ(d.retry.timeoutMs, 2000);
}

TEST_F(ClaimArgsTest, ClaimEnvFallbacks)
{
    ::setenv("TSTREAM_TRACE_CACHE", "/tmp/tstream-cache", 1);
    ::setenv("TSTREAM_CLAIM_SESSION", "env-sweep", 1);
    ::setenv("TSTREAM_CLAIM_TTL_MS", "7000", 1);
    ::setenv("TSTREAM_HEARTBEAT_MS", "0", 1);
    ::setenv("TSTREAM_CELL_TIMEOUT_MS", "0", 1);
    ::setenv("TSTREAM_CELL_RETRIES", "2", 1);
    const char *argv[] = {"bench"};
    const BenchOptions opts =
        parseBenchArgs(1, const_cast<char **>(argv), "bench");
    EXPECT_EQ(opts.claimSession, "env-sweep");
    EXPECT_EQ(opts.claimTtlMs, 7000);
    EXPECT_EQ(opts.heartbeatMs, 0);
    EXPECT_EQ(opts.cellTimeoutMs, 0);
    EXPECT_EQ(opts.cellRetries, 2u);
}

TEST_F(ClaimArgsTest, ClaimingDisabledByDefault)
{
    const char *argv[] = {"bench"};
    const BenchOptions opts =
        parseBenchArgs(1, const_cast<char **>(argv), "bench");
    EXPECT_TRUE(opts.claimSession.empty());
    EXPECT_EQ(opts.claimDir(), "");
    EXPECT_FALSE(opts.driver().claim.enabled());
    EXPECT_EQ(opts.cellRetries, 3u);
    EXPECT_EQ(opts.cellTimeoutMs, 0);
}

TEST_F(ClaimArgsDeathTest, ClaimSessionNeedsTraceCache)
{
    const char *argv[] = {"bench", "--claim-session", "s"};
    EXPECT_EXIT(parseBenchArgs(3, const_cast<char **>(argv), "bench"),
                testing::ExitedWithCode(2),
                "--claim-session needs TSTREAM_TRACE_CACHE");
}

TEST_F(ClaimArgsDeathTest, ClaimSessionExcludesShard)
{
    ::setenv("TSTREAM_TRACE_CACHE", "/tmp/tstream-cache", 1);
    const char *argv[] = {"bench", "--claim-session", "s", "--shard",
                          "0/2"};
    EXPECT_EXIT(parseBenchArgs(5, const_cast<char **>(argv), "bench"),
                testing::ExitedWithCode(2),
                "--claim-session and --shard are mutually exclusive");
}

TEST_F(ClaimArgsDeathTest, ClaimSessionExcludesResume)
{
    ::setenv("TSTREAM_TRACE_CACHE", "/tmp/tstream-cache", 1);
    const char *argv[] = {"bench", "--claim-session", "s", "--resume",
                          "--json", "out.json"};
    EXPECT_EXIT(parseBenchArgs(6, const_cast<char **>(argv), "bench"),
                testing::ExitedWithCode(2),
                "--claim-session and --resume are mutually exclusive");
}

TEST_F(ClaimArgsDeathTest, RejectsNonNumericKnobs)
{
    const char *ttl[] = {"bench", "--claim-ttl", "0"};
    EXPECT_EXIT(parseBenchArgs(3, const_cast<char **>(ttl), "bench"),
                testing::ExitedWithCode(2),
                "--claim-ttl wants a positive integer");

    const char *retries[] = {"bench", "--cell-retries", "-1"};
    EXPECT_EXIT(
        parseBenchArgs(3, const_cast<char **>(retries), "bench"),
        testing::ExitedWithCode(2),
        "--cell-retries wants a positive integer");

    const char *timeout[] = {"bench", "--cell-timeout", "2s"};
    EXPECT_EXIT(
        parseBenchArgs(3, const_cast<char **>(timeout), "bench"),
        testing::ExitedWithCode(2),
        "--cell-timeout wants a non-negative integer");

    // Bad *environment* values die too — a typo in a fleet wrapper
    // must not silently fall back to defaults.
    ::setenv("TSTREAM_CELL_RETRIES", "many", 1);
    const char *plain[] = {"bench"};
    EXPECT_EXIT(parseBenchArgs(1, const_cast<char **>(plain), "bench"),
                testing::ExitedWithCode(2),
                "TSTREAM_CELL_RETRIES wants a positive integer");
}

void
expectSameRuns(const std::vector<RunOutput> &a,
               const std::vector<RunOutput> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t r = 0; r < a.size(); ++r) {
        const MissTrace &x = a[r].trace;
        const MissTrace &y = b[r].trace;
        ASSERT_EQ(x.misses.size(), y.misses.size());
        for (std::size_t i = 0; i < x.misses.size(); ++i) {
            EXPECT_EQ(x.misses[i].block, y.misses[i].block);
            EXPECT_EQ(x.misses[i].cpu, y.misses[i].cpu);
            EXPECT_EQ(x.misses[i].cls, y.misses[i].cls);
        }
    }
}

class DriverRunTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Keep these tests hermetic from any user-level cache.
        ::unsetenv("TSTREAM_TRACE_CACHE");
        ::unsetenv("TSTREAM_SHARD");
        ::unsetenv("TSTREAM_QUICK");
    }
};

TEST_F(DriverRunTest, ExecutesCellsInGridOrder)
{
    const auto grid = standardGrid(kTwoWorkloads, tinyBudgets());
    DriverOptions opts;
    opts.jobs = 2;
    RunCapture capture;
    const auto results = runCells(grid, opts, capture.builder());
    ASSERT_EQ(results.size(), grid.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].index, grid[i].index);
        EXPECT_EQ(results[i].id, grid[i].id);
        EXPECT_EQ(results[i].configHash, configHash(grid[i].cfg));
        EXPECT_GT(results[i].instructions, 0u);
        EXPECT_FALSE(results[i].cacheHit);
        // Multi-chip cells yield one trace, single-chip cells two.
        const bool single =
            grid[i].cfg.context == SystemContext::SingleChip;
        const auto &runs = capture.runs(grid[i].index);
        ASSERT_EQ(runs.size(), single ? 2u : 1u);
        EXPECT_EQ(runs[0].kind,
                  single ? TraceKind::SingleChip : TraceKind::MultiChip);
        if (single) {
            EXPECT_EQ(runs[1].kind, TraceKind::IntraChip);
        }
        for (const RunOutput &r : runs) {
            EXPECT_FALSE(r.trace.misses.empty());
            EXPECT_GT(r.streams.totalMisses, 0u);
        }
    }
}

TEST_F(DriverRunTest, ShardedRunsPartitionTheGrid)
{
    const auto grid = standardGrid(kTwoWorkloads, tinyBudgets());
    DriverOptions opts;
    opts.jobs = 2;
    opts.analyzeStreams = false; // keep the test fast

    std::vector<std::string> ids;
    for (unsigned k = 0; k < 2; ++k) {
        opts.shard = ShardSpec{k, 2};
        for (const BenchCell &res : runCells(grid, opts, {}))
            ids.push_back(res.id);
    }
    ASSERT_EQ(ids.size(), grid.size());
    std::set<std::string> unique(ids.begin(), ids.end());
    EXPECT_EQ(unique.size(), grid.size());
}

TEST_F(DriverRunTest, AnalysisTogglesPerRun)
{
    auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    grid.resize(1); // multi-chip cell only
    DriverOptions opts;
    opts.jobs = 1;
    opts.analyzeStreams = false;
    RunCapture capture;
    const auto results = runCells(grid, opts, capture.builder());
    ASSERT_EQ(results.size(), 1u);
    const auto &runs = capture.runs(0);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].streams.totalMisses, 0u);
    EXPECT_EQ(runs[0].modules.total, 0u);
}

TEST_F(DriverRunTest, TraceCacheCreatesMissingDirectoryAndHits)
{
    // Intentionally not created: traceCacheStore must mkdir -p it.
    // (remove_all first so a rerun does not inherit stale cells)
    const std::string root =
        testing::TempDir() + "/tstream_cache_test";
    std::filesystem::remove_all(root);
    const std::string cacheDir = root + "/nested/dir";
    ::setenv("TSTREAM_TRACE_CACHE", cacheDir.c_str(), 1);

    auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    DriverOptions opts;
    opts.jobs = 1;
    opts.analyzeStreams = false;

    RunCapture simulated, cached;
    const auto first = runCells(grid, opts, simulated.builder());
    ASSERT_EQ(first.size(), 2u);
    EXPECT_FALSE(first[0].cacheHit);
    EXPECT_FALSE(first[1].cacheHit);

    const auto second = runCells(grid, opts, cached.builder());
    ::unsetenv("TSTREAM_TRACE_CACHE");
    ASSERT_EQ(second.size(), 2u);
    EXPECT_TRUE(second[0].cacheHit);
    EXPECT_TRUE(second[1].cacheHit);

    // A cached cell reproduces the simulated one exactly.
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(second[c].instructions, first[c].instructions);
        expectSameRuns(simulated.runs(c), cached.runs(c));
    }
}

TEST_F(DriverRunTest, CorruptCacheEntryIsCountedAndRewritten)
{
    const std::string cacheDir =
        testing::TempDir() + "/tstream_corrupt_cache_test";
    std::filesystem::remove_all(cacheDir);
    ::setenv("TSTREAM_TRACE_CACHE", cacheDir.c_str(), 1);

    auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    grid.resize(1); // multi-chip cell only
    DriverOptions opts;
    opts.jobs = 1;
    opts.analyzeStreams = false;

    RunCapture fresh, rerun;
    const auto first = runCells(grid, opts, fresh.builder());
    ASSERT_EQ(first.size(), 1u);
    ASSERT_FALSE(first[0].cacheHit);

    // Cut the stored off-chip trace in half: the entry exists but no
    // longer loads.
    const std::string off = traceCacheStem(grid[0].cfg) + ".off.tst";
    const auto full = std::filesystem::file_size(off);
    std::filesystem::resize_file(off, full / 2);

    telemetry::enable(""); // in-memory counters, no exit artifacts
    telemetry::reset();
    const auto second = runCells(grid, opts, rerun.builder());
    const std::uint64_t corrupt =
        telemetry::counterValue("trace_cache.corrupt");
    const std::uint64_t misses =
        telemetry::counterValue("trace_cache.misses");
    telemetry::disable();

    EXPECT_EQ(corrupt, 1u);
    EXPECT_EQ(misses, 1u);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_FALSE(second[0].cacheHit);
    EXPECT_EQ(second[0].instructions, first[0].instructions);
    expectSameRuns(fresh.runs(0), rerun.runs(0));

    // The re-simulated cell was stored again in full.
    EXPECT_EQ(std::filesystem::file_size(off), full);
    EXPECT_TRUE(traceCacheLoad(grid[0].cfg).has_value());
    ::unsetenv("TSTREAM_TRACE_CACHE");
}

TEST_F(DriverRunTest, BuilderRunsInsideTheCell)
{
    auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    grid.resize(1);
    DriverOptions opts;
    opts.jobs = 1;
    opts.analyzeStreams = false;

    const auto slept = runCells(
        grid, opts, [](const Cell &, const std::vector<RunOutput> &) {
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
            return std::vector<BenchRow>{};
        });
    ASSERT_EQ(slept.size(), 1u);
    // The builder's time is part of the cell's wall time.
    EXPECT_GE(slept[0].wallSeconds, 0.3);
}

TEST_F(DriverRunTest, BuilderRowsLandInTheirCell)
{
    const auto grid = standardGrid(kTwoWorkloads, tinyBudgets());
    DriverOptions opts;
    opts.jobs = 3;
    opts.analyzeStreams = false;
    const auto cells = runCells(
        grid, opts,
        [](const Cell &cell, const std::vector<RunOutput> &runs) {
            BenchRow row;
            row.table = "t";
            row.text = cell.id;
            row.metrics = {{"runs", static_cast<double>(runs.size())}};
            return std::vector<BenchRow>{row};
        });
    ASSERT_EQ(cells.size(), grid.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        ASSERT_EQ(cells[i].rows.size(), 1u);
        EXPECT_EQ(cells[i].rows[0].text, grid[i].id);
        const bool single =
            grid[i].cfg.context == SystemContext::SingleChip;
        EXPECT_EQ(cells[i].rows[0].metrics[0].second, single ? 2.0 : 1.0);
    }
}

} // namespace
} // namespace tstream
