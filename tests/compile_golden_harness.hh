/**
 * @file
 * Shared inputs for the compile-output golden net: the seven paper
 * workloads under the four Figure 7/8 compiler configurations, and
 * the compile service's random-program pool. Each compile is
 * condensed to service::codeChecksum (an FNV-1a hash over the printed
 * IR of every function), so any change in the optimizer's output —
 * an instruction, a block order, a profile count — moves it.
 *
 * Used by tests/core_compile_golden_test.cc (compares against
 * checked-in values), tests/core_compile_alloc_test.cc (counts heap
 * allocations per compile) and tools/golden_gen --compile (prints a
 * fresh table after an *intentional* optimizer change).
 */

#ifndef AREGION_TESTS_COMPILE_GOLDEN_HARNESS_HH
#define AREGION_TESTS_COMPILE_GOLDEN_HARNESS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/compiler.hh"
#include "runtime/service/code_cache.hh"
#include "testing/random_program.hh"
#include "vm/interpreter.hh"
#include "workloads/workload.hh"

namespace aregion::test {

/** The four Figure 7/8 configurations, in bench_common.hh order. */
inline std::vector<core::CompilerConfig>
compileGoldenConfigs()
{
    return {core::CompilerConfig::baseline(),
            core::CompilerConfig::atomic(),
            core::CompilerConfig::baselineAggressiveInline(),
            core::CompilerConfig::atomicAggressiveInline()};
}

/** Number of service-pool programs the golden pins. */
constexpr int kCompileGoldenPool = 64;

/** A program with the profile of its own run, ready to compile. */
struct ProfiledProgram
{
    std::unique_ptr<vm::Program> program;
    std::unique_ptr<vm::Profile> profile;
};

/** Profile a workload on its profiling input; the returned program
 *  is the measurement input, as the experiment runner compiles it. */
inline ProfiledProgram
profileWorkload(const workloads::Workload &w)
{
    const vm::Program profile_prog = w.build(true);
    ProfiledProgram out;
    out.program = std::make_unique<vm::Program>(w.build(false));
    out.profile = std::make_unique<vm::Profile>(profile_prog);
    vm::Interpreter interp(profile_prog, out.profile.get());
    interp.run();
    return out;
}

/** Pool program `index` of the compile service benchmark (pool seed
 *  1: generator seed 1000003 + index, legacy object features),
 *  profiled on its own run. */
inline ProfiledProgram
profilePoolProgram(int index)
{
    aregion::testing::RandomProgramGen gen(
        1000003ULL + static_cast<uint64_t>(index),
        aregion::testing::kLegacyObjects);
    ProfiledProgram out;
    out.program = std::make_unique<vm::Program>(
        aregion::testing::renderProgram(gen.generate()));
    out.profile = std::make_unique<vm::Profile>(*out.program);
    vm::Interpreter interp(*out.program, out.profile.get());
    interp.run();
    return out;
}

/** Compile and condense to the code checksum. */
inline uint64_t
compiledChecksum(const ProfiledProgram &p,
                 const core::CompilerConfig &config)
{
    return runtime::service::codeChecksum(
        core::compileProgram(*p.program, *p.profile, config));
}

} // namespace aregion::test

#endif // AREGION_TESTS_COMPILE_GOLDEN_HARNESS_HH
