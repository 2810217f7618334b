/**
 * @file
 * Shared driver for the Tables 3/4/5 benches: run one workload class
 * across the three contexts on the cell driver and print the
 * per-category origin table. JSON rows carry one entry per category
 * (label = category name) plus the overall row, each with the exact
 * printed line and the two percentage columns as metrics.
 */

#ifndef TSTREAM_BENCH_TABLE_ORIGINS_COMMON_HH
#define TSTREAM_BENCH_TABLE_ORIGINS_COMMON_HH

#include "common.hh"

namespace tstream::bench
{

/** Print one paper-style origins table for @p workloads. */
inline int
runOriginsTable(const char *benchName, const char *title,
                const std::vector<WorkloadKind> &workloads, bool web_rows,
                bool db_rows, int argc, char **argv,
                bool scenario_rows = false)
{
    const BenchOptions opts = parseBenchArgs(argc, argv, benchName);
    const auto grid = benchGrid(workloads, opts);

    // The printed blocks need the table header lines around each row
    // group, so the per-cell rows carry a "header" row first whose
    // text is the block heading, followed by one row per category.
    auto build = [=](const Cell &, const std::vector<RunOutput> &runs) {
        std::vector<BenchRow> rows;
        for (const RunOutput &r : runs) {
            for (Category c : moduleTableCategories(web_rows, db_rows,
                                                    scenario_rows)) {
                BenchRow row;
                row.table = "origins";
                row.trace = std::string(traceKindName(r.kind));
                row.label = std::string(categoryName(c));
                row.text = renderModuleRow(r.modules, c);
                row.metrics = {
                    {"pct_misses", r.modules.pctMisses(c)},
                    {"pct_in_streams", r.modules.pctInStreams(c)},
                };
                rows.push_back(std::move(row));
            }
            BenchRow overall;
            overall.table = "origins";
            overall.trace = std::string(traceKindName(r.kind));
            overall.label = "overall";
            overall.text = renderModuleOverallRow(r.modules);
            overall.metrics = {
                {"overall_pct_in_streams",
                 r.modules.overallPctInStreams()},
            };
            rows.push_back(std::move(overall));

            BenchRow block;
            block.table = "origins_block";
            block.trace = std::string(traceKindName(r.kind));
            block.text = strprintf(
                "%s / %s  (%zu misses)",
                std::string(workloadName(r.workload)).c_str(),
                std::string(traceKindName(r.kind)).c_str(),
                r.trace.misses.size());
            block.text += "\n" + renderModuleTable(r.modules, web_rows,
                                                   db_rows,
                                                   scenario_rows);
            while (!block.text.empty() && block.text.back() == '\n')
                block.text.pop_back();
            rows.push_back(std::move(block));
        }
        return rows;
    };

    const auto cells = runBenchCells(grid, opts, opts.driver(), build);

    std::printf("%s\n", title);
    for (const BenchCell &cell : cells)
        for (const BenchRow &row : cell.rows)
            if (row.table == "origins_block") {
                rule();
                std::printf("%s\n", row.text.c_str());
            }
    return emitReport(opts, benchName, grid.size(), std::move(cells));
}

} // namespace tstream::bench

#endif // TSTREAM_BENCH_TABLE_ORIGINS_COMMON_HH
