#include "runtime/jit.hh"

#include <algorithm>

#include "support/logging.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"
#include "vm/interpreter.hh"

namespace aregion::runtime {

namespace {

/** hw runtime stats -> core adaptive telemetry. */
core::AbortTelemetry
toTelemetry(const hw::MachineResult &res)
{
    core::AbortTelemetry telemetry;
    for (const auto &[key, stats] : res.regions) {
        core::RegionTelemetry t;
        t.entries = stats.entries;
        t.commits = stats.commits;
        t.abortsByAssert = stats.abortsByAssert;
        t.implicitAborts = stats.totalAborts();
        for (const auto &[id, count] : stats.abortsByAssert)
            t.implicitAborts -= count;
        telemetry[key] = t;
    }
    return telemetry;
}

/** Forwards the machine's trace to several timing models, so one
 *  functional run drives every machine configuration a caller reads.
 *  Each model sees exactly the event sequence it would see alone. */
class FanOutSink : public hw::TraceSink
{
  public:
    explicit FanOutSink(std::vector<hw::TimingModel> &models_)
        : models(models_)
    {
    }

    void
    uop(const hw::TraceUop &u) override
    {
        for (hw::TimingModel &m : models)
            m.uop(u);
    }

    void
    uopBatch(const hw::TraceUop *u, size_t n) override
    {
        for (hw::TimingModel &m : models)
            m.uopBatch(u, n);
    }

    void
    abortFlush(const hw::AbortEvent &event) override
    {
        for (hw::TimingModel &m : models)
            m.abortFlush(event);
    }

    void
    marker(int64_t id) override
    {
        for (hw::TimingModel &m : models)
            m.marker(id);
    }

  private:
    std::vector<hw::TimingModel> &models;
};

/** What one timing model measured over a machine run. */
struct TimingRun
{
    uint64_t cycles = 0;
    uint64_t mispredicts = 0;
    uint64_t serializations = 0;
    uint64_t l1Misses = 0;
    std::vector<std::pair<int64_t, uint64_t>> markerCycles;
};

struct MachineRun
{
    hw::MachineResult result;
    std::vector<TimingRun> timings;     ///< one per timing config
};

MachineRun
executeCompiled(const core::Compiled &compiled,
                const vm::Program &measure_prog,
                const std::vector<hw::TimingConfig> &timings,
                const hw::HwConfig &hw_config)
{
    telemetry::ScopedSpan span("jit.machine");
    telemetry::ScopedTimerUs timer(
        telemetry::Registry::global().counter(
            telemetry::keys::kJitMachineUs));
    vm::Heap layout_heap(measure_prog, 1 << 16);
    const hw::MachineProgram mp = hw::lowerModule(
        compiled.mod, hw::LayoutInfo::fromHeap(layout_heap));
    std::vector<hw::TimingModel> models;
    models.reserve(timings.size());
    for (const hw::TimingConfig &tc : timings)
        models.emplace_back(tc);
    FanOutSink fan_out(models);
    hw::TraceSink *sink = nullptr;
    if (models.size() == 1)
        sink = &models.front();
    else if (models.size() > 1)
        sink = &fan_out;
    hw::Machine machine(mp, hw_config, sink);
    MachineRun run;
    run.result = machine.run();
    for (hw::TimingModel &timing : models) {
        timing.publishTelemetry();
        TimingRun t;
        t.cycles = timing.cycles();
        t.mispredicts = timing.mispredicts + timing.indirectMispredicts;
        t.serializations = timing.serializations;
        t.l1Misses = timing.l1Misses();
        t.markerCycles = std::move(timing.markerCycles);
        run.timings.push_back(std::move(t));
    }
    return run;
}

/** Functional metrics of a finished run (stage 5, timing-free). */
RunMetrics
functionalMetrics(const hw::MachineResult &res)
{
    RunMetrics metrics;
    metrics.completed = res.completed;
    metrics.machine = res;
    metrics.retiredUops = res.retiredUops;
    metrics.executedUops = res.executedUops;
    metrics.monitorFastEnters = res.monitorFastEnters;
    metrics.outputChecksum = res.outputChecksum();

    metrics.regionEntries = res.regionEntries;
    metrics.regionAborts = res.regionAborts;
    if (res.retiredUops > 0) {
        metrics.coverage =
            static_cast<double>(res.regionUopsRetired) /
            static_cast<double>(res.retiredUops);
        metrics.abortsPer1kUops =
            1000.0 * static_cast<double>(res.regionAborts) /
            static_cast<double>(res.retiredUops);
    }
    if (res.regionEntries > 0) {
        metrics.abortPct = static_cast<double>(res.regionAborts) /
                           static_cast<double>(res.regionEntries);
    }
    double size_sum = 0;
    uint64_t size_count = 0;
    for (const auto &[key, stats] : res.regions) {
        if (stats.entries > 0)
            metrics.uniqueRegions++;
        size_sum += stats.dynamicSize.mean() *
                    static_cast<double>(stats.dynamicSize.count());
        size_count += stats.dynamicSize.count();
    }
    metrics.avgRegionSize =
        size_count ? size_sum / static_cast<double>(size_count) : 0;
    return metrics;
}

/** Marker-delimited samples into `metrics`. With a timing run, a
 *  sample needs both marker cycles as well as both marker uops; the
 *  machine reports every traced marker to the sink, so both runs
 *  keep the same samples and functional-only runs lose no uops. */
void
addSamples(RunMetrics &metrics, const hw::MachineResult &res,
           const TimingRun *timing,
           const std::vector<SampleSpec> &samples)
{
    auto marker_uops = [&](int64_t id) -> std::optional<uint64_t> {
        for (const auto &hit : res.markers) {
            if (hit.id == id)
                return hit.retiredUops;
        }
        return std::nullopt;
    };
    auto marker_cycles = [&](int64_t id) -> std::optional<uint64_t> {
        for (const auto &[mid, cyc] : timing->markerCycles) {
            if (mid == id)
                return cyc;
        }
        return std::nullopt;
    };
    double weight_total = 0;
    double weighted_cycles = 0;
    double weighted_uops = 0;
    for (const SampleSpec &spec : samples) {
        const auto u0 = marker_uops(spec.beginMarker);
        const auto u1 = marker_uops(spec.endMarker);
        if (!u0 || !u1)
            continue;
        SampleMetrics sample;
        sample.beginMarker = spec.beginMarker;
        sample.endMarker = spec.endMarker;
        sample.weight = spec.weight;
        sample.uops = *u1 - *u0;
        if (timing) {
            const auto c0 = marker_cycles(spec.beginMarker);
            const auto c1 = marker_cycles(spec.endMarker);
            if (!c0 || !c1)
                continue;
            sample.cycles = *c1 - *c0;
        }
        metrics.samples.push_back(sample);
        weight_total += spec.weight;
        weighted_cycles += spec.weight *
                           static_cast<double>(sample.cycles);
        weighted_uops += spec.weight *
                         static_cast<double>(sample.uops);
    }
    if (weight_total > 0) {
        metrics.weightedCycles = weighted_cycles / weight_total;
        metrics.weightedUops = weighted_uops / weight_total;
    } else {
        metrics.weightedCycles = static_cast<double>(metrics.cycles);
        metrics.weightedUops =
            static_cast<double>(metrics.retiredUops);
    }
}

} // namespace

vm::Profile
profileProgram(const vm::Program &profile_prog)
{
    vm::Profile profile(profile_prog);
    {
        telemetry::ScopedSpan span("jit.profile");
        telemetry::ScopedTimerUs timer(
            telemetry::Registry::global().counter(
                telemetry::keys::kJitProfileUs));
        vm::Interpreter interp(profile_prog, &profile);
        const auto res = interp.run();
        AREGION_ASSERT(res.completed || res.trap.has_value(),
                       "profiling run hit the step budget");
    }
    profile.publishTelemetry();
    return profile;
}

std::vector<RunMetrics>
runFromProfile(const vm::Profile &profile,
               const vm::Program &measure_prog,
               const ExperimentConfig &config,
               const std::vector<hw::TimingConfig> &timings,
               const std::vector<SampleSpec> &samples)
{
    namespace keys = telemetry::keys;
    auto &registry = telemetry::Registry::global();
    registry.add(keys::kJitRuns, 1);
    telemetry::ScopedSpan run_span("jit.run");

    // Stage 2: optimizing compilation (compileProgram owns the
    // jit.compile span and the kJitCompileUs counter).
    core::Compiled compiled =
        core::compileProgram(measure_prog, profile, config.compiler);

    // Stage 3: one machine run feeding every timing model. A
    // recompiling policy arms the machine's livelock guard for every
    // run, including the first, unless the experiment already
    // configured one.
    const ResiliencePolicy &policy = config.resilience;
    hw::HwConfig hw_eff = config.hw;
    if (policy.rounds > 0 && policy.livelockBound > 0 &&
        hw_eff.maxConsecutiveAborts == 0) {
        hw_eff.maxConsecutiveAborts = policy.livelockBound;
    }
    MachineRun run =
        executeCompiled(compiled, measure_prog, timings, hw_eff);

    // Stage 4: recompile on abort feedback in bounded rounds
    // (docs/RESILIENCE.md). Decisions read only the functional
    // result, so they do not depend on the attached timing models.
    bool recompiled = false;
    if (policy.rounds > 0 && run.result.completed) {
        telemetry::ScopedSpan span("jit.resilience");
        ResilienceTracker tracker(policy);
        // Starts from the caller's overrides and blacklist: the
        // rounds only ever add to them.
        core::CompilerConfig updated = config.compiler;
        auto &overrides = updated.region.warmOverrides;
        const int rounds = std::min(policy.rounds, tracker.roundCap());
        for (int round = 0; round < rounds; ++round) {
            const auto storms = tracker.stormingRegions(run.result);
            if (storms.empty())
                break;
            const auto computed = config.controller.computeOverrides(
                compiled.mod, toTelemetry(run.result));
            const size_t before = overrides.size();
            overrides.insert(computed.begin(), computed.end());
            if (!tracker.decide(storms, overrides.size() > before)
                     .recompile)
                continue;   // backing off this round
            updated.region.blacklistMethods.insert(
                tracker.blacklisted().begin(),
                tracker.blacklisted().end());
            compiled = core::compileProgram(measure_prog, profile,
                                            updated);
            run = executeCompiled(compiled, measure_prog, timings,
                                  hw_eff);
            recompiled = true;
            registry.add(keys::kJitRecompiles, 1);
        }
        tracker.publishTelemetry();
    }
    // Register the recompile counter even when it stays zero so the
    // exported schema is stable.
    registry.counter(keys::kJitRecompiles);

    // Stage 5: metrics, one set per timing model.
    RunMetrics functional = functionalMetrics(run.result);
    functional.recompiled = recompiled;
    std::vector<RunMetrics> out;
    if (run.timings.empty()) {
        addSamples(functional, run.result, nullptr, samples);
        out.push_back(std::move(functional));
        return out;
    }
    for (const TimingRun &t : run.timings) {
        RunMetrics metrics = functional;
        metrics.cycles = t.cycles;
        metrics.mispredicts = t.mispredicts;
        metrics.serializations = t.serializations;
        metrics.l1Misses = t.l1Misses;
        addSamples(metrics, run.result, &t, samples);
        out.push_back(std::move(metrics));
    }
    return out;
}

RunMetrics
runExperiment(const vm::Program &profile_prog,
              const vm::Program &measure_prog,
              const ExperimentConfig &config,
              const std::vector<SampleSpec> &samples)
{
    const vm::Profile profile = profileProgram(profile_prog);
    return std::move(runFromProfile(profile, measure_prog, config,
                                    {config.timing}, samples)
                         .front());
}

} // namespace aregion::runtime
