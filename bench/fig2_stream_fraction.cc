/**
 * @file
 * Regenerates the paper's Figure 2: fraction of misses in temporal
 * streams (Non-repetitive / New stream / Recurring stream) for every
 * workload in all three contexts.
 *
 * Expected shape (paper Section 4.2): 35-90% of misses occur in
 * temporal streams; web applications around 75-85%; OLTP multi-chip
 * highly repetitive but single-chip only about half; DSS the lowest.
 */

#include "common.hh"

#include "core/figures.hh"

using namespace tstream;
using namespace tstream::bench;

namespace
{

std::vector<BenchRow>
buildRows(const Cell &, const std::vector<RunOutput> &runs)
{
    std::vector<BenchRow> rows;
    for (const RunOutput &r : runs) {
        BenchRow row;
        row.table = "streams";
        row.trace = std::string(traceKindName(r.kind));
        row.metrics = fig2Metrics(r.streams);
        const auto &m = row.metrics;
        row.text = strprintf(
            "%-10s %-12s %9.1f%% %9.1f%% %11.1f%% %9.1f%%",
            std::string(workloadName(r.workload)).c_str(),
            row.trace.c_str(), m[0].second, m[1].second, m[2].second,
            m[3].second);
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts =
        parseBenchArgs(argc, argv, "fig2_stream_fraction");
    const auto grid = benchGrid(kAllWorkloads, opts);
    const auto cells = runBenchCells(
        grid, opts, opts.driver(), buildRows);

    std::printf("Figure 2: fraction of misses in temporal streams\n");
    rule();
    std::printf("%-10s %-12s %10s %10s %12s %10s\n", "app", "context",
                "non-rep", "new", "recurring", "in-streams");
    rule();
    printTable(cells, "streams");

    std::printf("\nPaper shape check: 35-90%% of misses in streams; web "
                "~75-85%%; OLTP single-chip\nmarkedly less repetitive "
                "than multi-chip; DSS lowest.\n");
    return emitReport(opts, "fig2_stream_fraction", grid.size(),
                      std::move(cells));
}
