/**
 * @file
 * Regenerates the paper's Figure 1: miss classification.
 *
 * Left: off-chip read misses per 1000 instructions, split into
 * Compulsory / I-O Coherence / Replacement / Coherence, for every
 * workload in the multi-chip and single-chip contexts.
 *
 * Right: intra-chip (L1) misses per 1000 instructions, split into
 * Coherence:Peer-L1 / Coherence:L2 / Replacement:L2 / Off-chip.
 *
 * Expected shape (paper Section 4.1): coherence dominates multi-chip
 * web/OLTP; the single-chip context has no processor coherence
 * off-chip and is replacement/I-O dominated; DSS is compulsory-heavy
 * everywhere; one third to one half of on-chip L1 traffic is
 * coherence.
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
        const std::string wl(workloadName(r.workload));
        const std::string kind(traceKindName(r.kind));
        BenchRow row;
        row.trace = kind;
        if (r.kind != TraceKind::IntraChip) {
            row.table = "offchip";
            row.metrics = fig1OffChipMetrics(r.trace);
            const auto &m = row.metrics;
            row.text = strprintf(
                "%-10s %-12s %8.2f %9.1f%% %5.1f%% %7.1f%% %9.1f%% "
                "%10zu",
                wl.c_str(), kind.c_str(), m[0].second, m[1].second,
                m[2].second, m[3].second, m[4].second,
                r.trace.misses.size());
        } else {
            row.table = "intra";
            row.metrics = fig1IntraMetrics(r.trace);
            const auto &m = row.metrics;
            row.text = strprintf(
                "%-10s %8.2f %8.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%",
                wl.c_str(), m[0].second, m[1].second, m[2].second,
                m[3].second, m[4].second, m[5].second);
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts =
        parseBenchArgs(argc, argv, "fig1_miss_classification");
    const auto grid = benchGrid(kAllWorkloads, opts);
    // Figure 1 needs neither stream analysis nor intra filtering (the
    // right panel includes the Off-chip bar).
    const auto cells = runBenchCells(
        grid, opts,
        opts.driver(/*analyze_streams=*/false, /*filter_intra=*/false),
        buildRows);

    std::printf("Figure 1 (left): off-chip read misses per 1000 "
                "instructions\n");
    rule();
    std::printf("%-10s %-12s %8s %10s %6s %8s %10s %10s\n", "app",
                "context", "MPKI", "Compulsory", "I/O", "Repl",
                "Coherence", "misses");
    rule();
    printTable(cells, "offchip");

    std::printf("\nFigure 1 (right): intra-chip (L1) read misses per "
                "1000 instructions\n");
    rule();
    std::printf("%-10s %8s %9s %8s %8s %8s %8s\n", "app", "MPKI",
                "Peer-L1", "Coh:L2", "Repl:L2", "Off-chip", "coh-shr");
    rule();
    printTable(cells, "intra");

    std::printf("\nPaper shape check: multi-chip web/OLTP coherence-"
                "dominated; single-chip has no\nprocessor coherence "
                "off-chip; DSS compulsory-dominated; on-chip traffic "
                "has a\nsubstantial coherence component.\n");
    return emitReport(opts, "fig1_miss_classification", grid.size(),
                      std::move(cells));
}
