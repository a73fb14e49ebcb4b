/**
 * @file
 * Heap allocations per compile: the compile layer's deterministic
 * work counter. This executable replaces the global operator new
 * with a counting one, so it stays out of every other test binary.
 *
 * The count does not depend on host speed or optimization level,
 * only on what the pipeline asks of the allocator, so it pins the
 * per-compile analysis scratch (ir/scratch.hh): an analysis that
 * goes back to building its own containers on every call moves it by
 * thousands. docs/PERFORMANCE.md records the counts before and after
 * the scratch; the bounds below leave about 10% headroom over the
 * counts measured when they were committed.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "compile_golden_harness.hh"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_bytes{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// Every other form routes through the counting operator new, so no
// allocation escapes the count, and no block reaches a release
// function of another allocator (a sanitizer runtime provides the
// forms a program leaves out, and reports the mix as a mismatch).
void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return ::operator new(size);
    } catch (...) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return ::operator new(size, tag);
}

// The operator new forms above hand out malloc memory, so free() is
// the matching release; GCC cannot see that pairing and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace {

using namespace aregion;

struct AllocCount
{
    uint64_t allocs = 0;
    uint64_t bytes = 0;
};

/** The pass verifier (AREGION_VERIFY_PASSES, a debug aid the
 *  sanitizer legs turn on) allocates on its own; the count is of the
 *  compile alone. The setting is read once per process, at the first
 *  pipeline run, so each test clears it before compiling. */
void
withoutPassVerifier()
{
    ::unsetenv("AREGION_VERIFY_PASSES");
}

/** Allocations made by one compile plus its code checksum (what a
 *  compile service worker does per miss). */
AllocCount
countCompile(const test::ProfiledProgram &p,
             const core::CompilerConfig &config)
{
    const uint64_t a0 = g_allocs.load();
    const uint64_t b0 = g_bytes.load();
    test::compiledChecksum(p, config);
    return {g_allocs.load() - a0, g_bytes.load() - b0};
}

// Upper bounds, committed with the counts they guard. Measured with
// the per-compile scratch: xalan atomic 3,862 allocations, service
// pool mean 5,436; before it, 26,522 and 23,122.
constexpr uint64_t kXalanAtomicMaxAllocs = 4250;
constexpr uint64_t kPoolMeanMaxAllocs = 6000;

TEST(CompileAllocations, XalanAtomicCompileStaysUnderBound)
{
    withoutPassVerifier();
    const test::ProfiledProgram p =
        test::profileWorkload(workloads::workloadByName("xalan"));
    const core::CompilerConfig config = core::CompilerConfig::atomic();
    countCompile(p, config);   // first use registers telemetry keys
    const AllocCount n = countCompile(p, config);
    std::printf("xalan atomic compile: %llu allocations, %llu bytes\n",
                static_cast<unsigned long long>(n.allocs),
                static_cast<unsigned long long>(n.bytes));
    EXPECT_LE(n.allocs, kXalanAtomicMaxAllocs);
    // Deterministic: a second compile allocates exactly as often.
    EXPECT_EQ(countCompile(p, config).allocs, n.allocs);
}

TEST(CompileAllocations, ServicePoolMeanStaysUnderBound)
{
    withoutPassVerifier();
    const core::CompilerConfig config = core::CompilerConfig::atomic();
    AllocCount total;
    for (int i = 0; i < test::kCompileGoldenPool; ++i) {
        const test::ProfiledProgram p = test::profilePoolProgram(i);
        const AllocCount n = countCompile(p, config);
        total.allocs += n.allocs;
        total.bytes += n.bytes;
    }
    const uint64_t mean = total.allocs / test::kCompileGoldenPool;
    std::printf("service pool compile: %llu allocations, %llu bytes "
                "(mean of %d)\n",
                static_cast<unsigned long long>(mean),
                static_cast<unsigned long long>(
                    total.bytes / test::kCompileGoldenPool),
                test::kCompileGoldenPool);
    EXPECT_LE(mean, kPoolMeanMaxAllocs);
}

} // namespace
