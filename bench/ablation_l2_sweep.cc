/**
 * @file
 * Ablation B: L2 capacity vs reuse distance (the paper's Section 4.5
 * "soft lower bound" argument).
 *
 * A replacement miss implies the block was evicted, so blocks
 * re-referenced more often than roughly one L2-capacity's worth of
 * misses cannot miss again: the replacement-miss reuse-distance
 * distribution should shift right as the L2 grows. Coherence misses
 * have no such bound. This bench sweeps the multi-chip L2 size for
 * OLTP and reports the reuse-distance mass per decade plus the
 * replacement/coherence split.
 *
 * The sweep is a custom cell grid (one cell per L2 size, same
 * workload/context/budgets), so it shards and caches like any other
 * bench: configHash() covers the cache geometry, so each L2 point is
 * its own trace-cache entry.
 */

#include "common.hh"

#include "core/figures.hh"

using namespace tstream;
using namespace tstream::bench;

namespace
{

const std::uint64_t kL2SizesMb[] = {1, 2, 4, 8, 16};

/** Swept workloads: the paper's OLTP plus the scenario KV store
 *  (whose LRU churn makes the capacity argument visible too). */
const WorkloadKind kSweepWorkloads[] = {WorkloadKind::Oltp,
                                        WorkloadKind::KvStore};

std::vector<Cell>
l2SweepGrid(const BenchBudgets &budgets)
{
    std::vector<Cell> grid;
    for (const WorkloadKind w : kSweepWorkloads) {
        for (const std::uint64_t mb : kL2SizesMb) {
            Cell c;
            c.index = grid.size();
            c.cfg.workload = w;
            c.cfg.context = SystemContext::MultiChip;
            c.cfg.warmupInstructions = budgets.warmup;
            c.cfg.measureInstructions = budgets.measure;
            c.cfg.scale = budgets.scale;
            c.cfg.multiChip.l2 = CacheConfig{mb * 1024 * 1024, 16};
            c.id = strprintf("%s/multi-chip/l2=%lluMB",
                             std::string(workloadName(w)).c_str(),
                             static_cast<unsigned long long>(mb));
            grid.push_back(std::move(c));
        }
    }
    return grid;
}

std::vector<BenchRow>
buildRows(const Cell &cell, const std::vector<RunOutput> &runs)
{
    // The swept size comes from the cell's own config, not from grid
    // index arithmetic, so reordering the sweep loops cannot mislabel
    // rows.
    const std::uint64_t mb =
        cell.cfg.multiChip.l2.sizeBytes / (1024 * 1024);
    const RunOutput &r = runs.front();
    const FigureMetrics cls = fig1OffChipMetrics(r.trace);

    BenchRow row;
    row.table = "l2_sweep";
    row.trace = strprintf("%lluMB",
                          static_cast<unsigned long long>(mb));
    row.label = std::string(workloadName(r.workload));
    row.text = strprintf("%-10s %3lluMB %9.2f %7.1f%% %7.1f%%",
                         row.label.c_str(),
                         static_cast<unsigned long long>(mb),
                         cls[kFig1Mpki].second,
                         cls[kFig1Replacement].second,
                         cls[kFig1Coherence].second);
    row.metrics = {
        {"l2_mb", static_cast<double>(mb)},
        cls[kFig1Mpki],
        cls[kFig1Replacement],
        cls[kFig1Coherence],
    };
    for (const auto &decade : fig4ReuseMetrics(r.streams)) {
        row.text += strprintf("  %6.1f%%", decade.second);
        row.metrics.push_back(decade);
    }
    return {std::move(row)};
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts =
        parseBenchArgs(argc, argv, "ablation_l2_sweep");
    benchRejectWorkloadOverrides(opts); // fixed (app, L2-size) grid
    const auto grid = l2SweepGrid(opts.budgets);
    const auto cells = runBenchCells(
        grid, opts, opts.driver(), buildRows);

    std::printf("Ablation B: L2 size sweep (OLTP + KVstore, "
                "multi-chip)\n");
    rule();
    std::printf("%-10s %-5s %8s %8s %8s", "app", "L2", "mpki", "repl",
                "coh");
    for (int d = 0; d < kFig4ReuseDecades; ++d)
        std::printf("  1e%d-1e%d", d, d + 1);
    std::printf("\n");
    rule();
    printTable(cells, "l2_sweep");

    std::printf("\nReading: larger L2s suppress short-reuse replacement "
                "misses, pushing the\nreplacement reuse-distance mass "
                "right, while coherence reuse distances are\ncapacity-"
                "independent — the paper's storage-sizing argument.\n");
    return emitReport(opts, "ablation_l2_sweep", grid.size(),
                      std::move(cells));
}
