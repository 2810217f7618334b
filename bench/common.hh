/**
 * @file
 * Shared glue for the per-figure/per-table bench binaries, now thin
 * wrappers over the cell-level experiment driver (sim/driver.hh):
 * the driver enumerates the (workload x context x budget) grid as
 * independent cells, executes them on a bounded work-stealing pool
 * (--jobs / TSTREAM_JOBS), shards deterministically across processes
 * (--shard k/N / TSTREAM_SHARD), and reuses saved traces via
 * TSTREAM_TRACE_CACHE. Every bench prints its table from BenchRow
 * records and can emit the same rows as a versioned JSON report with
 * --json (sim/bench_report.hh); docs/BENCHMARKING.md is the guide.
 */

#ifndef TSTREAM_BENCH_COMMON_HH
#define TSTREAM_BENCH_COMMON_HH

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "sim/bench_report.hh"
#include "sim/driver.hh"
#include "util/work_pool.hh"

namespace tstream::bench
{

/** The paper's six applications in its figure order (Tables 3-5 keep
 *  exactly these rows). */
inline const std::vector<WorkloadKind> kPaperWorkloads = {
    WorkloadKind::Apache, WorkloadKind::Zeus,   WorkloadKind::Oltp,
    WorkloadKind::DssQ1,  WorkloadKind::DssQ2,  WorkloadKind::DssQ17,
};

/** The post-paper scenario suite (key-value store, message broker,
 *  phased mix — see src/kv, src/mq, sim/phased_workload.hh). */
inline const std::vector<WorkloadKind> kScenarioWorkloads = {
    WorkloadKind::KvStore,
    WorkloadKind::Broker,
    WorkloadKind::PhasedMix,
};

/** The full suite the figure benches sweep: paper six + scenarios
 *  (built by concatenation so the three lists cannot drift). */
inline const std::vector<WorkloadKind> kAllWorkloads = [] {
    std::vector<WorkloadKind> all = kPaperWorkloads;
    all.insert(all.end(), kScenarioWorkloads.begin(),
               kScenarioWorkloads.end());
    return all;
}();

/** printf into a std::string (for building BenchRow::text). */
inline std::string
strprintf(const char *fmt, ...)
{
    char buf[512];
    std::va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

/** Horizontal rule for table output. */
inline void
rule(char c = '-')
{
    for (int i = 0; i < 78; ++i)
        std::putchar(c);
    std::putchar('\n');
}

/**
 * Print every row of @p cells whose table tag is @p table, in cell
 * order — the printed line is exactly BenchRow::text, which is also
 * what lands in the JSON report, so the two are bit-identical.
 */
inline void
printTable(const std::vector<BenchCell> &cells, const char *table)
{
    for (const BenchCell &c : cells)
        for (const BenchRow &r : c.rows)
            if (r.table == table)
                std::printf("%s\n", r.text.c_str());
}

/**
 * Execute @p grid for one bench and build its report cells: the cells
 * this shard owns are run on the driver pool, except — under
 * `--resume` — those already present in the existing `--json` report,
 * whose stored rows are reused verbatim (the simulator is
 * deterministic, so a stored cell equals a re-run one). A resume
 * mismatch (schema version, budgets, grid size, or a cell's config
 * hash) aborts with an error instead of mixing configurations. Under
 * `--claim-session` the claim protocol decides which cells this
 * worker runs (the parser excludes --shard and --resume there). The
 * driver calls @p build on each executed cell's analyzed runs inside
 * the cell attempt; a cell that exhausted its retries comes back as a
 * failure row with no table rows. Cells come back in grid order.
 */
inline std::vector<BenchCell>
runBenchCells(const std::vector<Cell> &grid, const BenchOptions &opts,
              const DriverOptions &dopts, const RowBuilder &build)
{
    std::vector<BenchCell> prior;
    if (opts.resume) {
        std::string err;
        std::vector<BenchCell> all;
        if (!loadResumeCells(opts.jsonPath, opts.benchName, opts.quick,
                             opts.budgets, grid, all, err)) {
            std::fprintf(stderr, "%s: --resume: %s\n",
                         opts.benchName.c_str(), err.c_str());
            std::exit(1);
        }
        // Keep only the cells this shard owns, so a resumed shard run
        // emits exactly what a fresh shard run would.
        for (BenchCell &c : all)
            if (dopts.shard.owns(c.index))
                prior.push_back(std::move(c));
        if (!prior.empty())
            std::fprintf(stderr,
                         "[bench] --resume: reusing %zu cell(s) "
                         "from %s\n",
                         prior.size(), opts.jsonPath.c_str());
    }

    std::vector<bool> have(grid.size(), false);
    for (const BenchCell &c : prior)
        have[c.index] = true;
    std::vector<Cell> todo;
    for (const Cell &c : grid)
        if (!have[c.index])
            todo.push_back(c);

    std::vector<BenchCell> cells = runCells(todo, dopts, build);
    cells.insert(cells.end(), std::make_move_iterator(prior.begin()),
                 std::make_move_iterator(prior.end()));
    std::sort(cells.begin(), cells.end(),
              [](const BenchCell &a, const BenchCell &b) {
                  return a.index < b.index;
              });
    return cells;
}

/**
 * Write the bench's JSON report when --json was given. Returns the
 * process exit status (non-zero when the write failed).
 */
inline int
emitReport(const BenchOptions &opts, const char *benchName,
           std::size_t gridCells, std::vector<BenchCell> cells)
{
    if (opts.jsonPath.empty())
        return 0;
    BenchDoc doc;
    doc.bench = benchName;
    doc.quick = opts.quick;
    doc.budgets = opts.budgets;
    doc.gridCells = gridCells;
    doc.shard = opts.shard;
    doc.jobs = opts.jobs != 0 ? opts.jobs : WorkPool::defaultJobs();
    doc.cells = std::move(cells);
    std::string err;
    if (!writeBenchDoc(doc, opts.jsonPath, err)) {
        std::fprintf(stderr, "%s: %s\n", benchName, err.c_str());
        return 1;
    }
    std::fprintf(stderr, "[bench] wrote %s (%zu cells)\n",
                 opts.jsonPath.c_str(), doc.cells.size());
    return 0;
}

} // namespace tstream::bench

#endif // TSTREAM_BENCH_COMMON_HH
