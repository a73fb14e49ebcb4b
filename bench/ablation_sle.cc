/**
 * @file
 * Ablation: speculative lock elision on/off inside the atomic
 * configuration, isolating how much of each benchmark's win comes
 * from eliding monitor pairs (the paper attributes much of antlr's
 * and xalan's benefit to monitor-overhead elimination).
 */

#include <cstdio>

#include "bench_common.hh"
#include "support/table.hh"

using namespace aregion;
using namespace aregion::bench;

int
main(int argc, char **argv)
{
    BenchReport report("ablation_sle", argc, argv);
    std::printf("Ablation: speculative lock elision (atomic+aggr "
                "configuration)\n\n");
    TextTable table({"bench", "speedup w/o SLE", "speedup w/ SLE",
                     "CAS fast-path acquisitions w/o -> w/"});
    // Grid: baseline / SLE-off / SLE-on per workload, run through
    // the parallel driver; rows assembled serially in suite order.
    const std::vector<BuiltWorkload> built =
        buildPrograms(suitePointers());
    std::vector<Cell> cells;
    for (size_t wi = 0; wi < built.size(); ++wi) {
        rt::ExperimentConfig base;
        base.compiler = core::CompilerConfig::baseline();
        cells.push_back({wi, std::move(base)});

        rt::ExperimentConfig off;
        off.compiler = core::CompilerConfig::atomicAggressiveInline();
        off.compiler.sle = false;
        cells.push_back({wi, std::move(off)});

        rt::ExperimentConfig on;
        on.compiler = core::CompilerConfig::atomicAggressiveInline();
        cells.push_back({wi, std::move(on)});
    }
    const auto slots = runCells(built, cells);

    size_t slot = 0;
    for (const BuiltWorkload &b : built) {
        const rt::RunMetrics &mb = slots[slot++][0];
        const rt::RunMetrics &moff = slots[slot++][0];
        const rt::RunMetrics &mon = slots[slot++][0];
        table.addRow({b.workload->name,
                      TextTable::fmt(speedupPct(mb, moff), 1) + "%",
                      TextTable::fmt(speedupPct(mb, mon), 1) + "%",
                      std::to_string(moff.monitorFastEnters) +
                          " -> " +
                          std::to_string(mon.monitorFastEnters)});
    }
    std::printf("%s\n", table.render().c_str());
    report.addTable("ablation_sle", table);
    return report.finish();
}
