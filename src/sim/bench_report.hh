/**
 * @file
 * Versioned machine-readable bench reports — the `--json` output of
 * every figure/table bench and the interchange format of the
 * tstream-bench front-end.
 *
 * One *bench document* (schema "tstream-bench/v3") describes one
 * bench binary's (possibly sharded or fleet) run: the budgets, the
 * total grid size, and one entry per executed cell carrying the cell
 * id, its configHash() provenance, wall/sim time, and the bench's
 * rows — each row holds both the exact printed table line (`text`)
 * and the named numeric metrics behind it, so a JSON report is
 * bit-identical to the printed table and still machine-comparable. A
 * cell whose execution exhausted its retries is recorded as a
 * *failure row*: `failed.cause` + `attempts`, with no table rows —
 * the sweep keeps going and the failure travels through merge and
 * check-equal instead of disappearing. Shard/worker documents of the
 * same bench merge into the unsharded document (exact cover of the
 * grid is verified; a *failed* cell covers its index, a *missing*
 * cell is still an error — the two are never conflated); equivalence
 * ignores non-deterministic fields (wall time, cache hits, jobs,
 * shard) so "merged fleet run equals unsharded run" is a checkable
 * invariant. Several bench documents bundle into a *combined report*
 * (schema "tstream-bench-report/v3").
 *
 * v1 -> v2 (scenario-subsystem PR): the nine-workload grid, the
 * origins benches' self-contained `origins_block` rows, and the
 * l2-sweep per-workload label changed the *row* content without any
 * field-level change, so the version was bumped to keep `--resume`
 * (which reuses stored rows verbatim) from silently mixing row
 * shapes across binaries.
 *
 * v2 -> v3 (fleet PR): cells gained `attempts` and the optional
 * `failed` object, and a cell with a failure row deliberately has no
 * table rows — a v2 consumer would misread such a cell as "ran fine,
 * produced nothing", so the version was bumped. Old reports are
 * rejected with a schema error; re-run the bench to regenerate.
 *
 * Field-by-field schema documentation: docs/BENCHMARKING.md.
 */

#ifndef TSTREAM_SIM_BENCH_REPORT_HH
#define TSTREAM_SIM_BENCH_REPORT_HH

#include <string>
#include <vector>

#include "sim/driver.hh"
#include "trace/query.hh"
#include "util/json.hh"

namespace tstream
{

inline constexpr std::string_view kBenchDocSchema = "tstream-bench/v3";
inline constexpr std::string_view kBenchReportSchema =
    "tstream-bench-report/v3";
inline constexpr std::string_view kQueryDocSchema = "tstream-query/v1";

/** One bench binary's (possibly sharded) run. */
struct BenchDoc
{
    std::string bench; ///< binary name, e.g. "fig2_stream_fraction"
    bool quick = false;
    BenchBudgets budgets;
    std::size_t gridCells = 0; ///< total grid size (cover check)
    ShardSpec shard;
    unsigned jobs = 0;
    std::vector<BenchCell> cells; ///< ascending by index
};

/**
 * `--resume` support: load the reusable cells of the prior report at
 * @p path for @p benchName over the current @p grid. A missing file
 * succeeds with no cells (first run). An existing file must match
 * exactly — schema version (readBenchDocs rejects others), bench
 * name, quick flag, budgets, grid size, and every stored cell's id
 * and configHash() against the current grid — otherwise the load
 * fails with a description in @p err rather than silently mixing
 * results from different configurations. On success @p out holds the
 * stored cells in ascending grid order.
 */
bool loadResumeCells(const std::string &path,
                     const std::string &benchName, bool quick,
                     const BenchBudgets &budgets,
                     const std::vector<Cell> &grid,
                     std::vector<BenchCell> &out, std::string &err);

json::Value benchDocToJson(const BenchDoc &doc);

/** Parse one bench document; false + @p err on schema mismatch. */
bool benchDocFromJson(const json::Value &v, BenchDoc &out,
                      std::string &err);

/** Serialize @p doc to @p path (pretty JSON). */
bool writeBenchDoc(const BenchDoc &doc, const std::string &path,
                   std::string &err);

/** A combined report bundling several bench documents. */
json::Value combinedReportToJson(const std::vector<BenchDoc> &docs);

/**
 * Read bench documents from @p path: accepts a single bench document
 * or a combined report (appends every contained document).
 */
bool readBenchDocs(const std::string &path, std::vector<BenchDoc> &out,
                   std::string &err);

/**
 * Merge shard/worker documents of one bench into the unsharded
 * document: headers (bench, quick, budgets, grid size) must agree and
 * the union must cover every grid index exactly. A *failed* cell
 * covers its index (the failure row is carried into the merged
 * document); a *missing* cell is an error naming the absent indexes —
 * the two are distinct outcomes and neither is dropped silently.
 * Duplicate cells: a successful copy beats a failed one (another
 * worker recovered the cell), two successful copies must be
 * equivalent, and of two failed copies the first is kept (causes may
 * legitimately differ between workers).
 */
bool mergeBenchDocs(const std::vector<BenchDoc> &docs, BenchDoc &out,
                    std::string &err);

/**
 * Deterministic-content equivalence: bench, quick, budgets, grid
 * size, and every cell's (index, id, workload, context, configHash,
 * instructions, rows) must match exactly; wallSeconds, cacheHit,
 * attempts, jobs and shard are execution details and ignored. A cell
 * present on one side only, a cell that failed on either side, and a
 * metric mismatch each produce a distinct diagnostic in @p why naming
 * the cell — a failure row is never silently "equal" to anything.
 */
bool benchDocsEquivalent(const BenchDoc &a, const BenchDoc &b,
                         std::string &why);

/**
 * Subset equivalence for restricted-grid runs (`--workload FILE`
 * narrows a bench to the configured workload): every cell of @p sub
 * must have a cell with the same id in @p full whose deterministic
 * content (workload, context, configHash, instructions, rows)
 * matches; @p full may hold additional cells, and grid size / cell
 * indexes are ignored since the restricted grid renumbers from zero.
 * Bench name, quick flag and budgets must still agree. Backs
 * `tstream-bench check-equal --subset`.
 */
bool benchDocIsSubset(const BenchDoc &sub, const BenchDoc &full,
                      std::string &why);

// ---------------------------------------------------------------------------
// Query documents — the `--json` output of `tstream-trace query`
// (schema "tstream-query/v1"). Rows share the bench rows' JSON shape
// ({table, trace, label, text, metrics}), so the fig2-equality e2e
// chain can compare a query's `streams` row against a live bench row
// value-for-value through the same serializer.
// ---------------------------------------------------------------------------

json::Value queryDocToJson(const QueryDoc &doc);

/** Serialize @p doc to @p path (pretty JSON). */
bool writeQueryDoc(const QueryDoc &doc, const std::string &path,
                   std::string &err);

// ---------------------------------------------------------------------------
// Perf-series comparison — the primitive behind `tstream-bench
// compare` and the CI perf-regression gate (docs/BENCHMARKING.md).
// ---------------------------------------------------------------------------

/** One named perf measurement. Time in nanoseconds; lower is better. */
struct PerfSample
{
    std::string name;
    double timeNs = 0.0;
};

/**
 * Load the perf series of the report at @p path. Two formats are
 * recognized:
 *
 *  - Google Benchmark JSON (`--benchmark_out_format=json`): one
 *    sample per "iteration" entry (aggregates are skipped), named by
 *    `name`, valued by `cpu_time` normalized to ns via `time_unit`.
 *    Repeated names (repetitions) keep the fastest run.
 *  - tstream-bench documents / combined reports: one sample per
 *    cell, named "<bench>/<cell id>", valued by `wall_seconds`.
 *
 * Anything else (including structurally broken reports) fails with a
 * description in @p err.
 */
bool loadPerfSeries(const std::string &path,
                    std::vector<PerfSample> &out, std::string &err);

/** One row of a perf comparison. */
struct PerfDelta
{
    enum class Status : std::uint8_t
    {
        Ok,        ///< within threshold in both directions
        Improved,  ///< faster than 1/maxRegress
        Regressed, ///< slower than maxRegress — gate failure
        Missing,   ///< in the baseline but not the current report
        Fresh,     ///< in the current report only — not gated
    };

    std::string name;
    double baseNs = 0.0;
    double currentNs = 0.0;
    double ratio = 0.0; ///< current / base (0 when either is absent)
    Status status = Status::Ok;
};

/** Gate parameters for comparePerfSeries(). */
struct PerfGateOptions
{
    /**
     * A series regresses when current/base is strictly greater than
     * this ratio (ratio == threshold still passes).
     */
    double maxRegress = 1.25;

    /**
     * Gate only these series (exact names). Empty = every baseline
     * series is gated. A named series absent from the baseline is
     * reported Missing, so a typo cannot silently disable the gate.
     */
    std::vector<std::string> series;
};

/** Result of a perf comparison. */
struct PerfComparison
{
    std::vector<PerfDelta> rows; ///< baseline order, then Fresh rows
    std::size_t regressed = 0;
    std::size_t missing = 0;
    std::size_t fresh = 0;
    bool pass = true; ///< no gated series Regressed or Missing
};

/**
 * Compare @p current against @p base: every (gated) baseline series
 * must be present and within opts.maxRegress; series only in
 * @p current are reported Fresh and never fail the gate.
 */
PerfComparison comparePerfSeries(const std::vector<PerfSample> &base,
                                 const std::vector<PerfSample> &current,
                                 const PerfGateOptions &opts);

// ---------------------------------------------------------------------------
// Perf trend — `tstream-bench trend`: one series' trajectory across an
// ordered sequence of archived reports (e.g. BENCH_perf.json artifacts
// from successive commits).
// ---------------------------------------------------------------------------

/** One series across the report sequence. */
struct TrendSeries
{
    std::string name;
    /** Aligned with TrendTable::labels; 0 = absent from that report. */
    std::vector<double> timesNs;
    /** last present value / first present value; 0 with <2 points. */
    double lastVsFirst = 0.0;
};

/** The trend of every (filtered) series across the inputs. */
struct TrendTable
{
    std::vector<std::string> labels; ///< one per input report, in order
    std::vector<TrendSeries> rows;   ///< first-appearance order
};

/**
 * Align the per-report sample sets of an ordered sequence of reports
 * (@p labels names them, typically file paths or commit ids) into one
 * table. @p filter restricts to exact series names (empty = all).
 * Pure over already-loaded samples so it unit-tests without files;
 * `tstream-bench trend` feeds it one loadPerfSeries() result per
 * report and optionally gates lastVsFirst against --max-regress.
 */
TrendTable computeTrend(const std::vector<std::string> &labels,
                        const std::vector<std::vector<PerfSample>> &series,
                        const std::vector<std::string> &filter);

} // namespace tstream

#endif // TSTREAM_SIM_BENCH_REPORT_HH
