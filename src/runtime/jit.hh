/**
 * @file
 * The staged execution pipeline (the paper's Section 5 methodology):
 *
 *   1. first-pass profiling run in the interpreter,
 *   2. profile-driven optimizing compilation (baseline or atomic),
 *   3. one functional machine run of the compiled module, its uop
 *      trace fanned out to every requested timing model of context 0
 *      (none: functional only),
 *   4. optional recompile rounds on abort feedback (Section 7's
 *      adaptive recompile is one round), re-running stage 3,
 *   5. marker-delimited sample metrics, weighted per phase, once per
 *      timing model.
 *
 * Stage 1 is profileProgram(); stages 2-5 are runFromProfile(), so a
 * driver profiles each workload once and shares the profile
 * read-only across every compiler configuration it measures. Stage 3
 * follows the paper's method of one functional simulation driving
 * separate trace-driven timing simulators. runExperiment() chains
 * the two stages for one timing config.
 *
 * Profile and measurement inputs may differ (the profile variant of
 * a workload), reproducing profile-drift effects such as pmd's.
 */

#ifndef AREGION_RUNTIME_JIT_HH
#define AREGION_RUNTIME_JIT_HH

#include <string>
#include <vector>

#include "core/adaptive.hh"
#include "core/compiler.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "hw/timing.hh"
#include "runtime/resilience.hh"
#include "vm/program.hh"

namespace aregion::runtime {

/** Everything one experiment run needs. */
struct ExperimentConfig
{
    core::CompilerConfig compiler;
    hw::HwConfig hw;
    hw::TimingConfig timing;    ///< runExperiment only

    /** Maps abort telemetry to warm-override sites for recompiles. */
    core::AdaptiveController controller;

    /** Stage 4's recompile rounds (none by default) and storm
     *  filter; see ResiliencePolicy::recompileOnce / stormGuard. */
    ResiliencePolicy resilience;
};

/** Metrics for one marker-delimited sample. */
struct SampleMetrics
{
    int64_t beginMarker = 0;
    int64_t endMarker = 0;
    double weight = 1.0;
    uint64_t cycles = 0;
    uint64_t uops = 0;
};

/** Results of one experiment run. */
struct RunMetrics
{
    bool completed = false;

    /** Timing fields (cycles, weightedCycles, mispredicts,
     *  serializations, l1Misses, SampleMetrics::cycles) read 0 on a
     *  functional-only run; every other field is functional. */
    uint64_t cycles = 0;            ///< whole traced execution
    uint64_t retiredUops = 0;
    uint64_t executedUops = 0;

    /** Weighted by sample (falls back to whole-run when the workload
     *  defines no samples). */
    double weightedCycles = 0;
    double weightedUops = 0;

    /** Region behaviour (Table 3 ingredients). */
    double coverage = 0;            ///< region uops / retired uops
    int uniqueRegions = 0;
    double avgRegionSize = 0;
    double abortPct = 0;            ///< aborts / region entries
    double abortsPer1kUops = 0;
    uint64_t regionEntries = 0;
    uint64_t regionAborts = 0;

    uint64_t mispredicts = 0;
    uint64_t serializations = 0;
    uint64_t l1Misses = 0;
    uint64_t monitorFastEnters = 0;
    bool recompiled = false;        ///< stage 4 recompiled the module

    uint64_t outputChecksum = 0;
    std::vector<SampleMetrics> samples;

    hw::MachineResult machine;      ///< full detail for benches
};

/** Sample definition supplied by a workload. */
struct SampleSpec
{
    int64_t beginMarker;
    int64_t endMarker;
    double weight;
};

/** Stage 1: the interpreter profiling run of `profile_prog`
 *  (publishes the `profile.*` telemetry). */
vm::Profile profileProgram(const vm::Program &profile_prog);

/**
 * Stages 2-5 from an existing profile. The compiled module (and any
 * recompile of it) runs once on the functional machine, its
 * trace feeding one hw::TimingModel per entry of `timings`.
 * `config.timing` is not read.
 *
 * @return one RunMetrics per timing config, in order; with no timing
 *         configs, one functional-only RunMetrics (samples are then
 *         delimited by the machine's marker hits alone).
 */
std::vector<RunMetrics>
runFromProfile(const vm::Profile &profile,
               const vm::Program &measure_prog,
               const ExperimentConfig &config,
               const std::vector<hw::TimingConfig> &timings,
               const std::vector<SampleSpec> &samples = {});

/**
 * Run the full pipeline under `config.timing`: profileProgram, then
 * runFromProfile with that one timing config.
 *
 * @param profile_prog program used for the profiling run
 * @param measure_prog program measured (usually the same; differs
 *                     for drift workloads)
 * @param samples      marker-delimited samples (may be empty)
 */
RunMetrics runExperiment(const vm::Program &profile_prog,
                         const vm::Program &measure_prog,
                         const ExperimentConfig &config,
                         const std::vector<SampleSpec> &samples = {});

} // namespace aregion::runtime

#endif // AREGION_RUNTIME_JIT_HH
