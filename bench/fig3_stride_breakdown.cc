/**
 * @file
 * Regenerates the paper's Figure 3: joint breakdown of strided and
 * repetitive miss sequences.
 *
 * Expected shape (paper Section 4.3): DSS is heavily strided
 * (especially single-chip, where page-sized copies dominate); the
 * other applications are mostly non-strided; strided patterns and
 * temporal streams are largely disjoint.
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
        row.table = "strides";
        row.trace = std::string(traceKindName(r.kind));
        row.metrics = fig3Metrics(r.streams);
        const auto &m = row.metrics;
        row.text = strprintf(
            "%-10s %-12s %9.1f%% %9.1f%% %9.1f%% %9.1f%% %7.1f%%",
            std::string(workloadName(r.workload)).c_str(),
            row.trace.c_str(), m[0].second, m[1].second, m[2].second,
            m[3].second, m[4].second);
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts =
        parseBenchArgs(argc, argv, "fig3_stride_breakdown");
    const auto grid = benchGrid(kAllWorkloads, opts);
    const auto cells = runBenchCells(
        grid, opts, opts.driver(), buildRows);

    std::printf("Figure 3: strides and temporal streams\n");
    rule();
    std::printf("%-10s %-12s %10s %10s %10s %10s %8s\n", "app",
                "context", "rep+str", "rep+nonstr", "nonrep+str",
                "nonrep+ns", "strided");
    rule();
    printTable(cells, "strides");

    std::printf("\nPaper shape check: DSS most strided; web/OLTP mostly "
                "non-strided; the\nstrided-and-repetitive overlap is "
                "small outside DSS.\n");
    return emitReport(opts, "fig3_stride_breakdown", grid.size(),
                      std::move(cells));
}
