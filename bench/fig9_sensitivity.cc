/**
 * @file
 * Regenerates Figure 9: sensitivity of the atomic+aggressive-inline
 * configuration to the hardware implementation of the atomic
 * primitives. All runs use the same code on three machines:
 * the non-stalling checkpoint substrate, a 20-cycle pipeline stall
 * at every aregion_begin, and a single-in-flight-region decode
 * stall. The paper's finding: both degraded implementations erase
 * nearly all of the benefit, except for antlr (sparse region use).
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
    BenchReport report("fig9_sensitivity", argc, argv);
    // Paper Figure 9 (eyeballed; % speedup over baseline binary).
    const std::map<std::string, std::vector<double>> paper{
        {"antlr", {22, 18, 15}},  {"bloat", {32, 5, -5}},
        {"fop", {5, 0, -2}},      {"hsqldb", {56, 10, 2}},
        {"jython", {35, 3, -8}},  {"pmd", {2, -6, -10}},
        {"xalan", {25, 2, -10}},
    };

    std::printf("Figure 9: sensitivity to the hardware atomic "
                "primitive implementation\n");
    std::printf("(%% speedup of atomic+aggr-inline code over the "
                "baseline binary; paper in parens)\n\n");

    TextTable table({"bench", "chkpt", "(p)", "+20-cycle", "(p)",
                     "single-inflight", "(p)"});
    const std::vector<hw::TimingConfig> machines{
        hw::TimingConfig::baseline(), hw::TimingConfig::stallBegin(),
        hw::TimingConfig::singleInflight()};

    // Grid: workload × {baseline, atomic+aggr-inline}; each cell's
    // one machine run feeds all three timing models.
    const auto by_machine = runSuite(
        buildPrograms(suitePointers()),
        {core::CompilerConfig::baseline(),
         core::CompilerConfig::atomicAggressiveInline()},
        machines);

    std::map<int, std::vector<double>> averages;
    for (size_t wi = 0; wi < by_machine[0].size(); ++wi) {
        const std::string &name = by_machine[0][wi].workload;
        std::vector<std::string> row{name};
        for (size_t m = 0; m < machines.size(); ++m) {
            const WorkloadRuns &runs = by_machine[m][wi];
            const double measured =
                speedupPct(runs.byConfig.at("no-atomic"),
                           runs.byConfig.at("atomic+aggr-inline"));
            row.push_back(TextTable::fmt(measured, 1) + "%");
            row.push_back("(" +
                          TextTable::fmt(
                              paper.at(name)[m], 0) + "%)");
            averages[static_cast<int>(m)].push_back(measured);
        }
        table.addRow(std::move(row));
    }
    std::vector<std::string> avg{"average"};
    for (size_t m = 0; m < machines.size(); ++m) {
        avg.push_back(TextTable::fmt(
            mean(averages[static_cast<int>(m)]), 1) + "%");
        avg.push_back("(-)");
    }
    table.addRow(std::move(avg));
    std::printf("%s\n", table.render().c_str());
    std::printf("Both degraded primitives must erase most of the "
                "benefit (the paper's Section 6.3 finding).\n");
    report.addTable("fig9", table);
    return report.finish();
}
