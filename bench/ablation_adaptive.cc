/**
 * @file
 * Ablation (paper Section 7): adaptive recompilation. pmd's
 * measurement input violates rules far more often than its
 * profiling input, so the compiler's asserts fire and the atomic
 * configuration loses performance. With the adaptive controller
 * enabled, the runtime maps abort PCs back to the offending cold
 * branches, recompiles them as real branches, and recovers.
 */

#include <cstdio>

#include "bench_common.hh"
#include "support/table.hh"

using namespace aregion;
using namespace aregion::bench;

int
main(int argc, char **argv)
{
    BenchReport report("ablation_adaptive", argc, argv);
    std::printf("Ablation: adaptive recompilation on abort-heavy "
                "workloads (Section 7)\n\n");
    TextTable table({"bench", "mode", "speedup", "abort%",
                     "recompiled"});
    // Grid: per workload a baseline cell plus static/adaptive atomic
    // cells; all nine run through the parallel driver.
    const std::vector<BuiltWorkload> built =
        buildPrograms(suitePointers({"pmd", "bloat", "hsqldb"}));
    std::vector<Cell> cells;
    for (size_t wi = 0; wi < built.size(); ++wi) {
        rt::ExperimentConfig base;
        base.compiler = core::CompilerConfig::baseline();
        cells.push_back({wi, std::move(base)});
        for (bool adaptive : {false, true}) {
            rt::ExperimentConfig config;
            config.compiler =
                core::CompilerConfig::atomicAggressiveInline();
            if (adaptive)
                config.resilience =
                    rt::ResiliencePolicy::recompileOnce(config.controller);
            cells.push_back({wi, std::move(config)});
        }
    }
    const auto slots = runCells(built, cells);

    size_t slot = 0;
    for (const BuiltWorkload &b : built) {
        const rt::RunMetrics &mb = slots[slot++][0];
        for (bool adaptive : {false, true}) {
            const rt::RunMetrics &m = slots[slot++][0];
            table.addRow({b.workload->name,
                          adaptive ? "adaptive" : "static",
                          TextTable::fmt(speedupPct(mb, m), 1) + "%",
                          TextTable::pct(m.abortPct, 2),
                          m.recompiled ? "yes" : "no"});
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Expected: adaptive recompilation removes the "
                "drifted asserts, cutting the\nabort rate and "
                "recovering (or improving) the speedup.\n");
    report.addTable("ablation_adaptive", table);
    return report.finish();
}
