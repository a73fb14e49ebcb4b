/**
 * @file
 * Ablation (paper Section 6.4): eliding GC safepoint polls inside
 * atomic regions. The paper attempted this and was blocked by a
 * register-allocator interaction; on this substrate the
 * transformation is clean (timer interrupts abort in-flight regions,
 * bounding preemption latency), so the ablation shows the benefit
 * the authors were reaching for.
 */

#include <cstdio>

#include "bench_common.hh"
#include "support/table.hh"

using namespace aregion;
using namespace aregion::bench;

int
main(int argc, char **argv)
{
    BenchReport report("ablation_safepoint", argc, argv);
    std::printf("Ablation: safepoint elision inside regions "
                "(Section 6.4)\n\n");
    TextTable table({"bench", "speedup w/o elision",
                     "speedup w/ elision"});
    // Grid: baseline / elision-off / elision-on per workload, fanned
    // across the parallel driver.
    const std::vector<BuiltWorkload> built = buildPrograms(
        suitePointers({"xalan", "hsqldb", "jython", "bloat"}));
    std::vector<Cell> cells;
    for (size_t wi = 0; wi < built.size(); ++wi) {
        rt::ExperimentConfig base;
        base.compiler = core::CompilerConfig::baseline();
        cells.push_back({wi, std::move(base)});

        rt::ExperimentConfig off;
        off.compiler = core::CompilerConfig::atomicAggressiveInline();
        cells.push_back({wi, off});

        rt::ExperimentConfig on = off;
        on.compiler.elideSafepointsInRegions = true;
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
                      TextTable::fmt(speedupPct(mb, mon), 1) + "%"});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Preemption stays bounded: timer interrupts abort "
                "in-flight regions, and the\nnon-speculative "
                "version keeps its polls.\n");
    report.addTable("ablation_safepoint", table);
    return report.finish();
}
