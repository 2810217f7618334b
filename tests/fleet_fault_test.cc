/**
 * @file
 * Fault-injection tests for the dynamic-claiming driver path
 * (sim/driver.hh + util/claim_file.hh): a worker process SIGKILLed
 * mid-cell (after winning its first claim, via
 * TSTREAM_CLAIM_DIE_AFTER) leaves a stale claim that a surviving
 * worker reclaims after the TTL so the sweep still completes and
 * matches an unsharded run; a throwing cell hook exercises
 * retry-then-success; exhausted retries become a structured failure
 * row; the row builder runs inside the cell attempt, once per
 * successful cell and never for a failed one.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>

#include "run_capture.hh"
#include "sim/driver.hh"

namespace tstream
{
namespace
{

BenchBudgets
tinyBudgets()
{
    BenchBudgets b;
    b.warmup = 100'000;
    b.measure = 300'000;
    b.scale = 0.05;
    return b;
}

std::string
freshClaimDir(const std::string &tag)
{
    const std::string dir = testing::TempDir() + "/tstream_fleet_" +
                            tag + "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
}

class FleetFaultTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Hermetic from user-level caches and any leaked fault knobs.
        ::unsetenv("TSTREAM_TRACE_CACHE");
        ::unsetenv("TSTREAM_CLAIM_DIE_AFTER");
        ::unsetenv("TSTREAM_SHARD");
        ::unsetenv("TSTREAM_QUICK");
        ::unsetenv("TSTREAM_JOBS");
    }
};

DriverOptions
claimingOptions(const std::string &dir, std::int64_t ttlMs,
                const std::string &owner)
{
    DriverOptions opts;
    opts.jobs = 1;
    opts.analyzeStreams = false; // keep the fault tests fast
    opts.claim.session = "fault-test";
    opts.claim.dir = dir;
    opts.claim.ttlMs = ttlMs;
    opts.claim.owner = owner;
    return opts;
}

/** Rows that depend on the analyzed traces, for plain-vs-claim
 *  comparisons of whole report cells. */
std::vector<BenchRow>
missRows(const Cell &cell, const std::vector<RunOutput> &runs)
{
    std::vector<BenchRow> rows;
    for (const RunOutput &r : runs) {
        BenchRow row;
        row.table = "misses";
        row.trace = std::string(traceKindName(r.kind));
        row.text = cell.id;
        row.metrics = {
            {"misses", static_cast<double>(r.trace.misses.size())},
            {"mpki", r.trace.mpki()},
        };
        rows.push_back(std::move(row));
    }
    return rows;
}

void
expectSameCell(const BenchCell &a, const BenchCell &b)
{
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.context, b.context);
    EXPECT_EQ(a.configHash, b.configHash);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.failed, b.failed);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (std::size_t r = 0; r < a.rows.size(); ++r) {
        EXPECT_EQ(a.rows[r].table, b.rows[r].table);
        EXPECT_EQ(a.rows[r].trace, b.rows[r].trace);
        EXPECT_EQ(a.rows[r].text, b.rows[r].text);
        EXPECT_EQ(a.rows[r].metrics, b.rows[r].metrics);
    }
}

TEST_F(FleetFaultTest, SingleClaimingWorkerEqualsPlainRun)
{
    const auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    ASSERT_EQ(grid.size(), 2u);

    DriverOptions plain;
    plain.jobs = 1;
    plain.analyzeStreams = false;
    RunCapture plainRuns, claimRuns;
    const auto expect = runCells(grid, plain, plainRuns.builder());

    const auto got = runCells(
        grid, claimingOptions(freshClaimDir("solo"), 30'000, "solo"),
        claimRuns.builder());
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].index, expect[i].index);
        EXPECT_EQ(got[i].id, expect[i].id);
        EXPECT_FALSE(got[i].failed);
        EXPECT_EQ(got[i].instructions, expect[i].instructions);
        const auto &gotRuns = claimRuns.runs(got[i].index);
        const auto &expectRuns = plainRuns.runs(expect[i].index);
        ASSERT_EQ(gotRuns.size(), expectRuns.size());
        for (std::size_t r = 0; r < gotRuns.size(); ++r)
            EXPECT_EQ(gotRuns[r].trace.misses.size(),
                      expectRuns[r].trace.misses.size());
    }
}

TEST_F(FleetFaultTest, PlainAndClaimPathsYieldIdenticalCells)
{
    const auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());

    DriverOptions plain;
    plain.jobs = 2;
    plain.analyzeStreams = false;
    const auto expect = runCells(grid, plain, missRows);

    DriverOptions claim =
        claimingOptions(freshClaimDir("same"), 30'000, "same");
    claim.jobs = 2;
    const auto got = runCells(grid, claim, missRows);

    ASSERT_EQ(got.size(), grid.size());
    ASSERT_EQ(expect.size(), grid.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(grid[i].id);
        EXPECT_FALSE(got[i].rows.empty());
        expectSameCell(got[i], expect[i]);
    }
}

TEST_F(FleetFaultTest, KilledWorkerCellIsReclaimedAndSweepCompletes)
{
    const auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    const std::string dir = freshClaimDir("kill");

    // Worker A: dies by SIGKILL right after winning its first claim,
    // before running the cell — the deterministic "power cord" fault.
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ::setenv("TSTREAM_CLAIM_DIE_AFTER", "1", 1);
        (void)runCells(grid, claimingOptions(dir, 30'000, "worker-a"),
                       {});
        ::_exit(0); // unreachable when the fault fires
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Worker B: a short TTL lets it steal the orphaned claim quickly.
    const auto got =
        runCells(grid, claimingOptions(dir, 300, "worker-b"), {});

    // The survivor drained the whole grid, including the dead
    // worker's cell, and the results match an unsharded run.
    ASSERT_EQ(got.size(), grid.size());
    DriverOptions plain;
    plain.jobs = 1;
    plain.analyzeStreams = false;
    const auto expect = runCells(grid, plain, {});
    std::set<std::size_t> covered;
    for (std::size_t i = 0; i < got.size(); ++i) {
        covered.insert(got[i].index);
        EXPECT_FALSE(got[i].failed) << got[i].failureCause;
        EXPECT_EQ(got[i].id, expect[i].id);
        EXPECT_EQ(got[i].instructions, expect[i].instructions);
    }
    EXPECT_EQ(covered.size(), grid.size());
}

TEST_F(FleetFaultTest, ThrowingHookRetriesThenSucceeds)
{
    auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    grid.resize(1); // multi-chip cell only

    DriverOptions opts;
    opts.jobs = 1;
    opts.analyzeStreams = false;
    opts.retry.maxAttempts = 3;
    opts.retry.backoffBaseMs = 1; // keep the retry sleep negligible
    opts.testCellHook = [](const Cell &, unsigned attempt) {
        if (attempt == 1)
            throw std::runtime_error("injected transient fault");
    };

    RunCapture capture;
    const auto results = runCells(grid, opts, capture.builder());
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_EQ(results[0].attempts, 2u);
    EXPECT_FALSE(capture.runs(0).empty());
    // The failed first attempt never reached the builder.
    EXPECT_EQ(capture.calls(0), 1u);
}

TEST_F(FleetFaultTest, ExhaustedRetriesBecomeFailureRow)
{
    auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    grid.resize(1);

    DriverOptions opts;
    opts.jobs = 1;
    opts.analyzeStreams = false;
    opts.retry.maxAttempts = 2;
    opts.retry.backoffBaseMs = 1;
    opts.testCellHook = [](const Cell &, unsigned) {
        throw std::runtime_error("persistent fault");
    };

    RunCapture capture;
    const auto results = runCells(grid, opts, capture.builder());
    ASSERT_EQ(results.size(), 1u);
    const BenchCell &cell = results[0];
    EXPECT_TRUE(cell.failed);
    EXPECT_EQ(cell.attempts, 2u);
    EXPECT_EQ(cell.failureCause, "exception: persistent fault");
    EXPECT_GE(cell.wallSeconds, 0.0);
    // The failure is a report cell with no table rows, and the
    // builder never ran for it.
    EXPECT_TRUE(cell.rows.empty());
    EXPECT_EQ(cell.id, grid[0].id);
    EXPECT_EQ(cell.configHash, configHash(grid[0].cfg));
    EXPECT_EQ(capture.calls(0), 0u);
}

TEST_F(FleetFaultTest, ThrowingBuilderBecomesFailureRow)
{
    auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    grid.resize(1);

    DriverOptions opts;
    opts.jobs = 1;
    opts.analyzeStreams = false;
    opts.retry.maxAttempts = 2;
    opts.retry.backoffBaseMs = 1;
    unsigned calls = 0; // jobs = 1 and no timeout: one thread at a time
    const auto results = runCells(
        grid, opts, [&calls](const Cell &, const std::vector<RunOutput> &)
            -> std::vector<BenchRow> {
            ++calls;
            throw std::runtime_error("bad row");
        });
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].failed);
    EXPECT_EQ(results[0].attempts, 2u);
    EXPECT_EQ(results[0].failureCause, "exception: bad row");
    EXPECT_TRUE(results[0].rows.empty());
    EXPECT_EQ(calls, 2u); // one call per attempt
}

TEST_F(FleetFaultTest, FailureUnderClaimingIsMarkedDoneNotRetriedForever)
{
    auto grid = standardGrid({WorkloadKind::Oltp}, tinyBudgets());
    grid.resize(1);
    const std::string dir = freshClaimDir("claimfail");

    DriverOptions opts = claimingOptions(dir, 30'000, "worker-a");
    opts.retry.maxAttempts = 1;
    opts.testCellHook = [](const Cell &, unsigned) {
        throw std::runtime_error("doomed cell");
    };
    const auto first = runCells(grid, opts, {});
    ASSERT_EQ(first.size(), 1u);
    EXPECT_TRUE(first[0].failed);

    // A second worker joining the same session sees the done marker
    // and does not re-run (or hang on) the failed cell.
    DriverOptions again = claimingOptions(dir, 30'000, "worker-b");
    const auto second = runCells(grid, again, {});
    EXPECT_TRUE(second.empty());
}

} // namespace
} // namespace tstream
