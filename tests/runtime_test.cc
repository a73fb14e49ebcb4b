/**
 * @file
 * Runtime pipeline and sampling tests.
 */

#include <gtest/gtest.h>

#include "programs.hh"
#include "runtime/jit.hh"
#include "runtime/sampling.hh"
#include "support/parallel.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace {

using namespace aregion;
using namespace aregion::test;
namespace rt = aregion::runtime;
namespace core = aregion::core;
namespace hw = aregion::hw;

TEST(Jit, PipelineProducesConsistentMetrics)
{
    const Program prog = addElementProgram(2000, 256);
    rt::ExperimentConfig config;
    config.compiler = core::CompilerConfig::atomic();
    const auto metrics = rt::runExperiment(prog, prog, config);
    ASSERT_TRUE(metrics.completed);
    EXPECT_GT(metrics.cycles, 0u);
    EXPECT_GT(metrics.retiredUops, 0u);
    EXPECT_GE(metrics.executedUops, metrics.retiredUops);
    EXPECT_GT(metrics.coverage, 0.0);
    EXPECT_LE(metrics.coverage, 1.0);
    EXPECT_GT(metrics.uniqueRegions, 0);
    EXPECT_GT(metrics.avgRegionSize, 0.0);
}

TEST(Jit, ChecksumStableAcrossConfigs)
{
    const Program prog = addElementProgram(1500, 256);
    uint64_t checksum = 0;
    for (int i = 0; i < 4; ++i) {
        rt::ExperimentConfig config;
        switch (i) {
          case 0:
            config.compiler = core::CompilerConfig::baseline();
            break;
          case 1:
            config.compiler = core::CompilerConfig::atomic();
            break;
          case 2:
            config.compiler =
                core::CompilerConfig::baselineAggressiveInline();
            break;
          case 3:
            config.compiler =
                core::CompilerConfig::atomicAggressiveInline();
            break;
        }
        const auto metrics = rt::runExperiment(prog, prog, config);
        ASSERT_TRUE(metrics.completed);
        if (i == 0)
            checksum = metrics.outputChecksum;
        else
            EXPECT_EQ(metrics.outputChecksum, checksum);
    }
}

TEST(Jit, AdaptiveRecompileReducesAborts)
{
    // A drifting program (cold branch at profile time, warm at
    // measurement): adaptive recompilation must fire and cut aborts.
    ProgramBuilder pb;
    const MethodId mm = pb.declareMethod("main", 0);
    auto mb = pb.define(mm);
    const Reg i = mb.constant(0);
    const Reg n = mb.constant(8000);
    const Reg one = mb.constant(1);
    const Reg k = mb.constant(30);      // 3.3% "cold" path
    const Reg sum = mb.constant(0);
    const Label loop = mb.newLabel();
    const Label rare = mb.newLabel();
    const Label next = mb.newLabel();
    const Label done = mb.newLabel();
    mb.bind(loop);
    mb.branchCmp(Bc::CmpGe, i, n, done);
    const Reg rem = mb.binop(Bc::Rem, i, k);
    const Reg zero = mb.constant(0);
    const Reg hit = mb.cmp(Bc::CmpEq, rem, zero);
    mb.branchIf(hit, rare);
    mb.binopTo(Bc::Add, sum, sum, i);
    mb.jump(next);
    mb.bind(rare);
    mb.binopTo(Bc::Add, sum, sum, one);
    mb.jump(next);
    mb.bind(next);
    mb.binopTo(Bc::Add, i, i, one);
    mb.safepoint();
    mb.jump(loop);
    mb.bind(done);
    mb.print(sum);
    mb.retVoid();
    mb.finish();
    pb.setMain(mm);
    const Program measure = pb.build();
    verifyOrDie(measure);

    // Profile variant: same code, rare path at 1/300 (cold).
    ProgramBuilder pb2;
    const MethodId mm2 = pb2.declareMethod("main", 0);
    auto m2 = pb2.define(mm2);
    {
        const Reg i2 = m2.constant(0);
        const Reg n2 = m2.constant(8000);
        const Reg one2 = m2.constant(1);
        const Reg k2 = m2.constant(300);
        const Reg sum2 = m2.constant(0);
        const Label loop2 = m2.newLabel();
        const Label rare2 = m2.newLabel();
        const Label next2 = m2.newLabel();
        const Label done2 = m2.newLabel();
        m2.bind(loop2);
        m2.branchCmp(Bc::CmpGe, i2, n2, done2);
        const Reg rem2 = m2.binop(Bc::Rem, i2, k2);
        const Reg zero2 = m2.constant(0);
        const Reg hit2 = m2.cmp(Bc::CmpEq, rem2, zero2);
        m2.branchIf(hit2, rare2);
        m2.binopTo(Bc::Add, sum2, sum2, i2);
        m2.jump(next2);
        m2.bind(rare2);
        m2.binopTo(Bc::Add, sum2, sum2, one2);
        m2.jump(next2);
        m2.bind(next2);
        m2.binopTo(Bc::Add, i2, i2, one2);
        m2.safepoint();
        m2.jump(loop2);
        m2.bind(done2);
        m2.print(sum2);
        m2.retVoid();
        m2.finish();
    }
    pb2.setMain(mm2);
    const Program profile_prog = pb2.build();
    verifyOrDie(profile_prog);

    rt::ExperimentConfig no_adapt;
    no_adapt.compiler = core::CompilerConfig::atomic();
    const auto before = rt::runExperiment(profile_prog, measure,
                                          no_adapt);
    ASSERT_TRUE(before.completed);
    ASSERT_GT(before.regionAborts, 50u)
        << "premise: drift causes aborts";

    rt::ExperimentConfig adapt = no_adapt;
    adapt.resilience = rt::ResiliencePolicy::recompileOnce(adapt.controller);
    const auto after = rt::runExperiment(profile_prog, measure, adapt);
    ASSERT_TRUE(after.completed);
    EXPECT_TRUE(after.recompiled);
    EXPECT_LT(after.regionAborts, before.regionAborts / 4);
    EXPECT_LT(after.cycles, before.cycles);
    EXPECT_EQ(after.outputChecksum, before.outputChecksum);
}

/** A multi-sample suite workload under one experiment config. */
struct StagedCase
{
    const char *workload;
    rt::ExperimentConfig config;
};

/** fop (two samples) plain, and pmd (four samples, drifting
 *  profile) with its asserts repaired by adaptive recompilation. */
std::vector<StagedCase>
stagedCases()
{
    rt::ExperimentConfig plain;
    plain.compiler = core::CompilerConfig::atomicAggressiveInline();
    rt::ExperimentConfig adaptive = plain;
    adaptive.resilience =
        rt::ResiliencePolicy::recompileOnce(adaptive.controller);
    return {{"fop", plain}, {"pmd", adaptive}};
}

TEST(Jit, FanOutMatchesOneRunPerTimingConfig)
{
    const std::vector<hw::TimingConfig> timings{
        hw::TimingConfig::baseline(), hw::TimingConfig::stallBegin(),
        hw::TimingConfig::twoWideHalf()};
    for (const StagedCase &c : stagedCases()) {
        SCOPED_TRACE(c.workload);
        const auto &w = aregion::workloads::workloadByName(c.workload);
        const Program profile_prog = w.build(true);
        const Program measure = w.build(false);
        const vm::Profile profile = rt::profileProgram(profile_prog);
        const std::vector<rt::RunMetrics> fanned = rt::runFromProfile(
            profile, measure, c.config, timings, w.samples);
        ASSERT_EQ(fanned.size(), timings.size());
        for (size_t t = 0; t < timings.size(); ++t) {
            SCOPED_TRACE(timings[t].name);
            rt::ExperimentConfig single = c.config;
            single.timing = timings[t];
            const rt::RunMetrics want = rt::runExperiment(
                profile_prog, measure, single, w.samples);
            const rt::RunMetrics &got = fanned[t];
            ASSERT_TRUE(want.completed);
            EXPECT_EQ(got.recompiled, want.recompiled);
            EXPECT_EQ(got.cycles, want.cycles);
            EXPECT_EQ(got.weightedCycles, want.weightedCycles);
            EXPECT_EQ(got.mispredicts, want.mispredicts);
            EXPECT_EQ(got.serializations, want.serializations);
            EXPECT_EQ(got.l1Misses, want.l1Misses);
            ASSERT_EQ(got.samples.size(), w.samples.size());
            ASSERT_EQ(got.samples.size(), want.samples.size());
            for (size_t s = 0; s < got.samples.size(); ++s) {
                EXPECT_EQ(got.samples[s].beginMarker,
                          want.samples[s].beginMarker);
                EXPECT_EQ(got.samples[s].cycles, want.samples[s].cycles);
                EXPECT_EQ(got.samples[s].uops, want.samples[s].uops);
            }
        }
        // The three machines must actually disagree, or the fan-out
        // could be feeding one model's numbers to all of them.
        EXPECT_NE(fanned[0].cycles, fanned[1].cycles);
        EXPECT_NE(fanned[0].cycles, fanned[2].cycles);
        EXPECT_EQ(fanned[0].recompiled, c.config.resilience.rounds > 0);
    }
}

TEST(Jit, FunctionalOnlyRunMatchesTimedRun)
{
    for (const StagedCase &c : stagedCases()) {
        SCOPED_TRACE(c.workload);
        const auto &w = aregion::workloads::workloadByName(c.workload);
        const Program profile_prog = w.build(true);
        const Program measure = w.build(false);
        const vm::Profile profile = rt::profileProgram(profile_prog);
        // Both runs share the one profile read-only from two grid
        // workers, as the bench grids do.
        std::vector<std::vector<rt::RunMetrics>> runs(2);
        aregion::parallel::runGrid(2, [&](size_t i) {
            const std::vector<hw::TimingConfig> timings =
                i == 0 ? std::vector<hw::TimingConfig>{}
                       : std::vector<hw::TimingConfig>{
                             hw::TimingConfig::baseline()};
            runs[i] = rt::runFromProfile(profile, measure, c.config,
                                         timings, w.samples);
        });
        ASSERT_EQ(runs[0].size(), 1u);
        ASSERT_EQ(runs[1].size(), 1u);
        const rt::RunMetrics &fn = runs[0][0];
        const rt::RunMetrics &timed = runs[1][0];
        ASSERT_TRUE(fn.completed);
        EXPECT_EQ(fn.recompiled, timed.recompiled);
        EXPECT_EQ(fn.retiredUops, timed.retiredUops);
        EXPECT_EQ(fn.executedUops, timed.executedUops);
        EXPECT_EQ(fn.weightedUops, timed.weightedUops);
        EXPECT_EQ(fn.coverage, timed.coverage);
        EXPECT_EQ(fn.uniqueRegions, timed.uniqueRegions);
        EXPECT_EQ(fn.avgRegionSize, timed.avgRegionSize);
        EXPECT_EQ(fn.abortPct, timed.abortPct);
        EXPECT_EQ(fn.abortsPer1kUops, timed.abortsPer1kUops);
        EXPECT_EQ(fn.regionEntries, timed.regionEntries);
        EXPECT_EQ(fn.regionAborts, timed.regionAborts);
        EXPECT_EQ(fn.monitorFastEnters, timed.monitorFastEnters);
        EXPECT_EQ(fn.outputChecksum, timed.outputChecksum);
        ASSERT_EQ(fn.samples.size(), w.samples.size());
        ASSERT_EQ(fn.samples.size(), timed.samples.size());
        for (size_t s = 0; s < fn.samples.size(); ++s) {
            EXPECT_EQ(fn.samples[s].uops, timed.samples[s].uops);
            EXPECT_EQ(fn.samples[s].cycles, 0u);
        }
        EXPECT_EQ(fn.cycles, 0u);
        EXPECT_EQ(fn.weightedCycles, 0.0);
        EXPECT_GT(timed.cycles, 0u);
    }
}

TEST(Sampling, ClassifiesTwoPhaseTrace)
{
    // 30 intervals of method A-heavy, then 30 of method B-heavy.
    std::vector<vm::MethodId> trace;
    for (int i = 0; i < 30 * 100; ++i)
        trace.push_back(i % 10 == 0 ? 2 : 0);
    for (int i = 0; i < 30 * 100; ++i)
        trace.push_back(i % 10 == 0 ? 3 : 1);
    const auto phases = rt::classifyPhases(trace, 4, 100, 4);
    EXPECT_GE(phases.numPhases, 2);
    // The first and last intervals land in different phases.
    EXPECT_NE(phases.intervalPhase.front(),
              phases.intervalPhase.back());
    // Weights sum to ~1.
    double total = 0;
    for (double w : phases.phaseWeight)
        total += w;
    EXPECT_NEAR(total, 1.0, 1e-9);
    // Marker methods are the infrequent ones (2 and 3, not 0/1).
    for (vm::MethodId m : phases.markerMethod)
        EXPECT_TRUE(m == 2 || m == 3);
}

TEST(Sampling, SinglePhaseCollapses)
{
    std::vector<vm::MethodId> trace(5000, 1);
    const auto phases = rt::classifyPhases(trace, 2, 500, 4);
    EXPECT_EQ(phases.numPhases, 1);
    EXPECT_NEAR(phases.phaseWeight[0], 1.0, 1e-9);
}

TEST(Sampling, InterpreterInvocationLogFeedsClassifier)
{
    const Program prog = fibProgram();
    Profile profile(prog);
    Interpreter interp(prog, &profile);
    interp.logInvocations = true;
    ASSERT_TRUE(interp.run().completed);
    ASSERT_FALSE(interp.invocationLog.empty());
    const auto phases = rt::classifyPhases(
        interp.invocationLog, prog.numMethods(), 64, 4);
    EXPECT_GE(phases.numPhases, 1);
}

} // namespace
