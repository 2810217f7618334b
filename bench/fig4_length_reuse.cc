/**
 * @file
 * Regenerates the paper's Figure 4: temporal stream length CDF (left)
 * and reuse distance PDF (right).
 *
 * Expected shape (paper Sections 4.4-4.5): median stream length about
 * eight to ten misses with a heavy tail into the thousands; DSS shows
 * a step near 64 blocks (4 KB page copies); multi-chip (coherence)
 * reuse distances concentrate below ~2x10^5 misses while single-chip
 * (replacement) mass sits between 10^4 and 10^7; DSS peaks just under
 * 10^4 from bulk copies.
 */

#include <iterator>

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
        const std::string head =
            strprintf("%-10s %-12s",
                      std::string(workloadName(r.workload)).c_str(),
                      std::string(traceKindName(r.kind)).c_str());
        BenchRow len;
        len.table = "length_cdf";
        len.trace = std::string(traceKindName(r.kind));
        len.metrics = fig4LengthMetrics(r.streams);
        len.text = head;
        for (std::size_t i = 0; i < std::size(kFig4LengthPoints); ++i)
            len.text += strprintf(" %6.1f%%", len.metrics[i].second);
        len.text += strprintf(" %6.0f", len.metrics.back().second);
        rows.push_back(std::move(len));

        BenchRow reuse;
        reuse.table = "reuse_pdf";
        reuse.trace = std::string(traceKindName(r.kind));
        reuse.metrics = fig4ReuseMetrics(r.streams);
        reuse.text = head;
        for (const auto &[name, pct] : reuse.metrics)
            reuse.text += strprintf("  %6.1f%%", pct);
        rows.push_back(std::move(reuse));
    }
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts =
        parseBenchArgs(argc, argv, "fig4_length_reuse");
    const auto grid = benchGrid(kAllWorkloads, opts);
    const auto cells = runBenchCells(
        grid, opts, opts.driver(), buildRows);

    std::printf("Figure 4 (left): cumulative stream-length "
                "distribution, weighted by contribution\n");
    rule();
    std::printf("%-10s %-12s", "app", "context");
    for (auto p : kFig4LengthPoints)
        std::printf(" <=%-5llu", static_cast<unsigned long long>(p));
    std::printf(" median\n");
    rule();
    printTable(cells, "length_cdf");

    std::printf("\nFigure 4 (right): reuse-distance distribution "
                "(weight = stream length),\nper-decade shares\n");
    rule();
    std::printf("%-10s %-12s", "app", "context");
    for (int d = 0; d < kFig4ReuseDecades; ++d)
        std::printf("  1e%d-1e%d", d, d + 1);
    std::printf("\n");
    rule();
    printTable(cells, "reuse_pdf");

    std::printf("\nPaper shape check: median length ~8-10; heavy tail; "
                "DSS step near 64-block\n(page) streams; multi-chip "
                "reuse distances shorter than single-chip.\n");
    return emitReport(opts, "fig4_length_reuse", grid.size(),
                      std::move(cells));
}
