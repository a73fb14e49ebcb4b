/**
 * @file
 * Ablation: the region size target R (= LOOPPATHTHRESHOLD; the
 * paper sets both to 200 HIR operations, Section 4). Sweeping R
 * shows the trade-off the paper's Equation 1 balances: small
 * regions waste begin/end overhead and forgo cross-iteration
 * redundancy; oversized regions risk footprint overflow and amplify
 * abort cost.
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
    BenchReport report("ablation_region_size", argc, argv);
    std::printf("Ablation: region size target R "
                "(atomic+aggr-inline, xalan + hsqldb + jython)\n\n");
    TextTable table({"R", "avg speedup", "avg region size",
                     "abort%", "overflow aborts"});
    // Grid: one baseline cell per workload (the baseline does not
    // depend on R, so it runs once instead of once per sweep point)
    // plus a cell per (R, workload); all through the parallel driver.
    const std::vector<double> sweep{25.0, 50.0, 100.0,
                                    200.0, 400.0, 800.0};
    const std::vector<BuiltWorkload> built =
        buildPrograms(suitePointers({"xalan", "hsqldb", "jython"}));
    std::vector<Cell> cells;
    for (size_t wi = 0; wi < built.size(); ++wi) {
        rt::ExperimentConfig base;
        base.compiler = core::CompilerConfig::baseline();
        cells.push_back({wi, std::move(base)});
    }
    for (const double r : sweep) {
        for (size_t wi = 0; wi < built.size(); ++wi) {
            rt::ExperimentConfig config;
            config.compiler =
                core::CompilerConfig::atomicAggressiveInline();
            config.compiler.region.targetSize = r;
            config.compiler.region.loopPathThreshold = r;
            cells.push_back({wi, std::move(config)});
        }
    }
    const auto slots = runCells(built, cells);

    for (size_t ri = 0; ri < sweep.size(); ++ri) {
        std::vector<double> speedups;
        double sizes = 0;
        double aborts = 0;
        uint64_t overflows = 0;
        int n = 0;
        for (size_t wi = 0; wi < built.size(); ++wi) {
            const rt::RunMetrics &mb = slots[wi][0];
            const rt::RunMetrics &m =
                slots[built.size() * (1 + ri) + wi][0];
            speedups.push_back(speedupPct(mb, m));
            sizes += m.avgRegionSize;
            aborts += m.abortPct;
            for (const auto &[key, stats] : m.machine.regions) {
                overflows += stats.abortsByCause[
                    static_cast<int>(hw::AbortCause::Overflow)];
            }
            ++n;
        }
        table.addRow({TextTable::fmt(sweep[ri], 0),
                      TextTable::fmt(mean(speedups), 1) + "%",
                      TextTable::fmt(sizes / n, 0),
                      TextTable::pct(aborts / n, 2),
                      std::to_string(overflows)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("The paper picks R = 200 as large enough for "
                "optimization scope without\nsacrificing the "
                "best-effort footprint bound.\n");
    report.addTable("ablation_region_size", table);
    return report.finish();
}
