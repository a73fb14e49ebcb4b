/**
 * @file
 * Regenerates Figure 7: execution-time speedup over the baseline
 * (no-atomic) binary for the `atomic`, `no-atomic + aggressive
 * inlining`, and `atomic + aggressive inlining` configurations,
 * plus the jython forced-monomorphic grey bar. All runs use the
 * same Table 1 hardware; differences come from code quality alone.
 */

#include <cstdio>

#include "bench_common.hh"
#include "support/statistics.hh"
#include "support/table.hh"

using namespace aregion;
using namespace aregion::bench;

int
main(int argc, char **argv)
{
    BenchReport report("fig7_speedup", argc, argv);
    const std::vector<std::string> configs{
        "atomic", "no-atomic+aggr-inline", "atomic+aggr-inline"};

    TextTable table({"bench", "atomic", "(paper)",
                     "no-atomic+aggr", "(paper)", "atomic+aggr",
                     "(paper)"});
    std::map<std::string, std::vector<double>> averages;

    std::printf("Figure 7: %% speedup over baseline (no-atomic) "
                "binary\n");
    std::printf("(paper values in parentheses; same hardware, "
                "different compilers)\n\n");

    // All workload × configuration cells run through the parallel
    // driver; the table below is assembled serially in suite order,
    // so output is identical whatever AREGION_JOBS is.
    const std::vector<WorkloadRuns> suite_runs = runSuite(
        buildPrograms(suitePointers()),
        [](const wl::Workload &w) {
            return paperConfigs(w.name == "jython");
        },
        {hw::TimingConfig::baseline()})[0];

    for (const WorkloadRuns &runs : suite_runs) {
        const std::string &name = runs.workload;
        const bool grey = name == "jython";
        const auto &base = runs.byConfig.at("no-atomic");
        std::vector<std::string> row{name};
        for (const auto &config : configs) {
            const double measured =
                speedupPct(base, runs.byConfig.at(config));
            const double paper =
                paperFigure7().at(name).at(config);
            row.push_back(TextTable::fmt(measured, 1) + "%");
            row.push_back("(" + TextTable::fmt(paper, 0) + "%)");
            averages[config].push_back(measured);
        }
        table.addRow(std::move(row));
        if (grey) {
            const double forced = speedupPct(
                base, runs.byConfig.at("atomic+forced-mono"));
            table.addRow({"jython*", TextTable::fmt(forced, 1) + "%",
                          "(10%)", "-", "-", "-", "-"});
        }
    }

    std::vector<std::string> avg_row{"average"};
    const std::map<std::string, double> paper_avg{
        {"atomic", 10.2}, {"no-atomic+aggr-inline", 7.5},
        {"atomic+aggr-inline", 25.3}};
    for (const auto &config : configs) {
        avg_row.push_back(
            TextTable::fmt(mean(averages[config]), 1) + "%");
        avg_row.push_back("(" +
                          TextTable::fmt(paper_avg.at(config), 1) +
                          "%)");
    }
    table.addRow(std::move(avg_row));

    std::printf("%s\n", table.render().c_str());
    std::printf("jython* = atomic with the forced-monomorphic "
                "partial-inlining fix (the grey bar).\n");
    report.addTable("fig7", table);
    return report.finish();
}
