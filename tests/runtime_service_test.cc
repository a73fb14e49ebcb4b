/**
 * @file
 * Compile-service tests (runtime/service/): content-addressed cache
 * behaviour (determinism, LRU eviction under a byte budget), the
 * sharded queue (in-flight dedup, bounded-depth rejection, hot-tenant
 * isolation), and the admission state machine driven by real
 * machine.conflict abort storms (Healthy -> Cooling -> Blacklisted ->
 * non-speculative compiles that still produce correct output).
 *
 * Suite names contain "Service" so tools/check_sanitizers.sh can
 * select them for the tsan leg.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "programs.hh"
#include "runtime/service/service.hh"
#include "support/failpoint.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"
#include "testing/random_program.hh"
#include "vm/interpreter.hh"

namespace {

using namespace aregion;
namespace svc = aregion::runtime::service;
namespace fp = aregion::failpoint;
namespace keys = aregion::telemetry::keys;

/** A compile input: immutable program + trained profile. */
struct Method
{
    std::shared_ptr<const vm::Program> program;
    std::shared_ptr<const vm::Profile> profile;
    uint64_t interpChecksum = 0;
};

Method
fromProgram(vm::Program &&prog)
{
    Method m;
    auto owned = std::make_shared<vm::Program>(std::move(prog));
    auto profile = std::make_shared<vm::Profile>(*owned);
    vm::Interpreter interp(*owned, profile.get());
    const vm::InterpResult r = interp.run();
    EXPECT_TRUE(r.completed);
    m.interpChecksum = interp.outputChecksum();
    m.program = std::move(owned);
    m.profile = std::move(profile);
    return m;
}

/** Distinct terminating programs from the fuzzing generator. */
Method
randomMethod(uint64_t seed)
{
    aregion::testing::RandomProgramGen gen(
        seed, aregion::testing::kLegacyScalar);
    return fromProgram(
        aregion::testing::renderProgram(gen.generate()));
}

svc::CompileRequest
requestFor(const Method &m, int tenant,
           const core::CompilerConfig &config, bool recompile = false)
{
    svc::CompileRequest rq;
    rq.tenant = tenant;
    rq.method = "m";
    rq.program = m.program;
    rq.profile = m.profile;
    rq.config = config;
    rq.recompile = recompile;
    return rq;
}

/** Execute compiled code on the machine (the jit.cc stage-3 flow). */
hw::MachineResult
runOnMachine(const core::Compiled &compiled, const vm::Program &prog)
{
    vm::Heap layout_heap(prog, 1 << 16);
    const hw::MachineProgram mp = hw::lowerModule(
        compiled.mod, hw::LayoutInfo::fromHeap(layout_heap));
    hw::Machine machine(mp, hw::HwConfig{});
    return machine.run();
}

/** Fake cache entry of a given size (cache unit tests only). */
std::shared_ptr<const svc::CachedCode>
fakeEntry(uint64_t key, size_t bytes)
{
    auto code = std::make_shared<svc::CachedCode>();
    code->key = key;
    code->sizeBytes = bytes;
    return code;
}

class ServiceTest : public ::testing::Test
{
  protected:
    void SetUp() override { fp::Registry::global().disarmAll(); }
    void TearDown() override { fp::Registry::global().disarmAll(); }
};

// ---------------------------------------------------------------
// Content addressing.
// ---------------------------------------------------------------

TEST_F(ServiceTest, CacheKeyReflectsEveryInput)
{
    const Method a = randomMethod(1);
    const Method b = randomMethod(2);
    const core::CompilerConfig atomic = core::CompilerConfig::atomic();
    const core::CompilerConfig baseline =
        core::CompilerConfig::baseline();

    const uint64_t key_a =
        svc::cacheKey(*a.program, *a.profile, atomic);
    // Deterministic: same inputs, same key.
    EXPECT_EQ(key_a, svc::cacheKey(*a.program, *a.profile, atomic));
    // Different bytecode -> different key.
    EXPECT_NE(key_a, svc::cacheKey(*b.program, *b.profile, atomic));
    // Different compiler config -> different key.
    EXPECT_NE(key_a,
              svc::cacheKey(*a.program, *a.profile, baseline));
    // Different profile -> different key (profiles drive region
    // formation, so they are part of the content address).
    EXPECT_NE(key_a,
              svc::cacheKey(*a.program, *b.profile, atomic));
}

// ---------------------------------------------------------------
// CodeCache unit behaviour.
// ---------------------------------------------------------------

TEST_F(ServiceTest, CacheEvictsLruUnderByteBudget)
{
    svc::CodeCache cache(1000);
    cache.insert(fakeEntry(1, 400));
    cache.insert(fakeEntry(2, 400));
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.bytes(), 800u);

    // Touch 1 so 2 becomes the LRU victim.
    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_EQ(cache.insert(fakeEntry(3, 400)), 1u);
    EXPECT_EQ(cache.peek(2), nullptr);
    EXPECT_NE(cache.peek(1), nullptr);
    EXPECT_NE(cache.peek(3), nullptr);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_LE(cache.bytes(), cache.byteBudget());

    EXPECT_EQ(cache.lookup(2), nullptr);    // counted miss
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(ServiceTest, CacheKeepsOversizedNewestEntry)
{
    svc::CodeCache cache(100);
    // An entry larger than the whole budget still serves its
    // requesters; only the next insert displaces it.
    EXPECT_EQ(cache.insert(fakeEntry(1, 400)), 0u);
    EXPECT_NE(cache.peek(1), nullptr);
    EXPECT_EQ(cache.insert(fakeEntry(2, 400)), 1u);
    EXPECT_EQ(cache.peek(1), nullptr);
    EXPECT_NE(cache.peek(2), nullptr);
}

TEST_F(ServiceTest, CacheInvalidateDropsEntry)
{
    svc::CodeCache cache(1 << 20);
    cache.insert(fakeEntry(7, 100));
    cache.invalidate(7);
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.bytes(), 0u);
    cache.invalidate(7);    // idempotent on absent keys
}

// ---------------------------------------------------------------
// Service: determinism, dedup, bounded queues.
// ---------------------------------------------------------------

TEST_F(ServiceTest, ServiceCompileMatchesDirectCompile)
{
    const Method m = randomMethod(3);
    const core::CompilerConfig config = core::CompilerConfig::atomic();
    svc::CompileService service(svc::ServiceConfig{});

    const svc::CompileResponse first =
        service.submitSync(requestFor(m, 0, config));
    ASSERT_EQ(first.status, svc::CompileStatus::Compiled);
    ASSERT_NE(first.code, nullptr);

    // Oracle: cached code is byte-identical (printed-IR checksum) to
    // a direct compileProgram of the same inputs.
    const core::Compiled direct =
        core::compileProgram(*m.program, *m.profile, config);
    EXPECT_EQ(first.code->codeChecksum, svc::codeChecksum(direct));

    // Replay from any tenant hits the shared entry.
    const svc::CompileResponse second =
        service.submitSync(requestFor(m, 9, config));
    EXPECT_EQ(second.status, svc::CompileStatus::CacheHit);
    EXPECT_EQ(second.code.get(), first.code.get());
    EXPECT_EQ(service.cache().hits(), 1u);
    EXPECT_EQ(service.stats().compiles, 1u);
}

TEST_F(ServiceTest, ServiceRecompileInvalidatesAndRebuilds)
{
    const Method m = randomMethod(4);
    const core::CompilerConfig config = core::CompilerConfig::atomic();
    svc::CompileService service(svc::ServiceConfig{});

    const svc::CompileResponse first =
        service.submitSync(requestFor(m, 0, config));
    ASSERT_EQ(first.status, svc::CompileStatus::Compiled);
    const svc::CompileResponse again = service.submitSync(
        requestFor(m, 0, config, /*recompile=*/true));
    EXPECT_EQ(again.status, svc::CompileStatus::Compiled);
    EXPECT_EQ(again.code->codeChecksum, first.code->codeChecksum);
    EXPECT_EQ(service.stats().compiles, 2u);
}

TEST_F(ServiceTest, ServiceCoalescesIdenticalInFlightRequests)
{
    const Method m = randomMethod(5);
    const core::CompilerConfig config = core::CompilerConfig::atomic();
    svc::ServiceConfig cfg;
    cfg.shards = 1;
    svc::CompileService service(cfg);

    // Freeze the worker so all five requests pile onto one job.
    service.pauseWorkers();
    std::vector<std::future<svc::CompileResponse>> futures;
    for (int tenant = 0; tenant < 5; ++tenant)
        futures.push_back(
            service.submit(requestFor(m, tenant, config)));
    EXPECT_EQ(service.stats().coalesced, 4u);
    service.resumeWorkers();

    int compiled = 0, coalesced = 0;
    uint64_t checksum = 0;
    for (auto &f : futures) {
        const svc::CompileResponse r = f.get();
        ASSERT_NE(r.code, nullptr);
        if (checksum == 0)
            checksum = r.code->codeChecksum;
        EXPECT_EQ(r.code->codeChecksum, checksum);
        if (r.status == svc::CompileStatus::Compiled)
            compiled++;
        else if (r.status == svc::CompileStatus::Coalesced)
            coalesced++;
    }
    EXPECT_EQ(compiled, 1);
    EXPECT_EQ(coalesced, 4);
    EXPECT_EQ(service.stats().compiles, 1u);
}

TEST_F(ServiceTest, ServiceBoundedQueueRejectsWhenFull)
{
    const core::CompilerConfig config = core::CompilerConfig::atomic();
    svc::ServiceConfig cfg;
    cfg.shards = 1;
    cfg.shardQueueDepth = 2;
    svc::CompileService service(cfg);

    service.pauseWorkers();
    std::vector<std::future<svc::CompileResponse>> accepted;
    accepted.push_back(
        service.submit(requestFor(randomMethod(10), 0, config)));
    accepted.push_back(
        service.submit(requestFor(randomMethod(11), 1, config)));
    // Third distinct key: the only shard's queue is full.
    const svc::CompileResponse rejected = service
        .submit(requestFor(randomMethod(12), 2, config))
        .get();
    EXPECT_EQ(rejected.status,
              svc::CompileStatus::RejectedQueueFull);
    EXPECT_EQ(rejected.code, nullptr);
    EXPECT_EQ(service.admission().queueRejections(), 1u);

    service.resumeWorkers();
    for (auto &f : accepted)
        EXPECT_EQ(f.get().status, svc::CompileStatus::Compiled);
}

TEST_F(ServiceTest, ServiceIsolatesHotTenantBySkewedPendingCap)
{
    const core::CompilerConfig config = core::CompilerConfig::atomic();
    constexpr int kHotMethods = 12;
    constexpr int kColdTenants = 8;
    constexpr size_t kPendingCap = 4;

    std::vector<Method> hot_methods, cold_methods;
    for (int i = 0; i < kHotMethods; ++i)
        hot_methods.push_back(randomMethod(100 + i));
    for (int i = 0; i < kColdTenants; ++i)
        cold_methods.push_back(randomMethod(200 + i));

    svc::ServiceConfig cfg;
    cfg.shards = 4;
    cfg.admission.maxPendingPerTenant = kPendingCap;
    svc::CompileService service(cfg);
    service.pauseWorkers();

    // The hot tenant floods distinct methods; only kPendingCap may
    // be in flight, the rest bounce without touching any queue.
    std::vector<std::future<svc::CompileResponse>> hot;
    int hot_rejected = 0;
    for (const Method &m : hot_methods)
        hot.push_back(service.submit(requestFor(m, 0, config)));

    // Cold tenants arrive after the flood and must all be admitted.
    std::vector<std::future<svc::CompileResponse>> cold;
    for (int t = 0; t < kColdTenants; ++t)
        cold.push_back(service.submit(
            requestFor(cold_methods[t], 1 + t, config)));

    service.resumeWorkers();
    for (auto &f : hot) {
        const svc::CompileResponse r = f.get();
        if (r.status == svc::CompileStatus::RejectedQueueFull)
            hot_rejected++;
        else
            EXPECT_EQ(r.status, svc::CompileStatus::Compiled);
    }
    EXPECT_EQ(hot_rejected,
              kHotMethods - static_cast<int>(kPendingCap));
    for (auto &f : cold)
        EXPECT_EQ(f.get().status, svc::CompileStatus::Compiled);

    // The admitted work spread across shards (keys are hashes, so
    // with 12 distinct methods a single-shard pileup would indicate
    // a broken shard map).
    const svc::ServiceStats stats = service.stats();
    int shards_used = 0;
    for (const auto &s : stats.shards)
        shards_used += s.compiles > 0 ? 1 : 0;
    EXPECT_GE(shards_used, 2);
    EXPECT_EQ(stats.compiles,
              static_cast<uint64_t>(kPendingCap) + kColdTenants);
}

TEST_F(ServiceTest, ServiceShutdownCompletesQueuedJobs)
{
    const core::CompilerConfig config = core::CompilerConfig::atomic();
    svc::ServiceConfig cfg;
    cfg.shards = 1;
    svc::CompileService service(cfg);
    service.pauseWorkers();
    auto f1 = service.submit(requestFor(randomMethod(20), 0, config));
    auto f2 = service.submit(requestFor(randomMethod(21), 1, config));
    service.stop();
    for (auto *f : {&f1, &f2}) {
        const svc::CompileResponse r = f->get();
        // A worker may have grabbed the front job between pause and
        // stop; queued-but-unstarted jobs must resolve as Shutdown.
        EXPECT_TRUE(r.status == svc::CompileStatus::Shutdown ||
                    r.status == svc::CompileStatus::Compiled);
        if (r.status == svc::CompileStatus::Shutdown) {
            EXPECT_EQ(r.code, nullptr);
        }
    }
}

TEST_F(ServiceTest, ServiceStopsPromptlyWhenBuiltBackToBack)
{
    // stop() and resumeWorkers() store their flag and then notify; a
    // worker between its wait-predicate check and its block must not
    // miss that notify, or join() hangs. Start/stop cycles with no
    // work queued keep workers racing exactly that window.
    const unsigned hw = std::thread::hardware_concurrency();
    svc::ServiceConfig cfg;
    cfg.shards = static_cast<int>(std::clamp(hw, 2u, 5u) - 1);
    for (int i = 0; i < 500; ++i) {
        svc::CompileService service(cfg);
        if (i % 2) {
            service.pauseWorkers();
            service.resumeWorkers();
        }
        service.stop();
    }
    SUCCEED();
}

TEST_F(ServiceTest, ServicePublishTelemetryIsDeltaBased)
{
    const Method m = randomMethod(6);
    const core::CompilerConfig config = core::CompilerConfig::atomic();
    svc::CompileService service(svc::ServiceConfig{});
    service.submitSync(requestFor(m, 0, config));
    service.submitSync(requestFor(m, 0, config));

    auto &reg = telemetry::Registry::global();
    const uint64_t base_compiles =
        reg.counterValue(keys::kServiceCompiles);
    const uint64_t base_hits =
        reg.counterValue(keys::kServiceCacheHits);
    service.publishTelemetry();
    service.publishTelemetry();     // second call must add nothing
    EXPECT_EQ(reg.counterValue(keys::kServiceCompiles),
              base_compiles + 1);
    EXPECT_EQ(reg.counterValue(keys::kServiceCacheHits),
              base_hits + 1);
    EXPECT_EQ(reg.gaugeValue(keys::kServiceCacheEntries), 1.0);
}

/**
 * Gate 3 (ISSUE 9 satellite): per-tenant compile-time quota. A
 * tenant whose wall-clock compile spend reaches the per-round budget
 * has further submits rejected — even for cached keys — until the
 * next report round, and other tenants are unaffected. Spend is
 * charged via noteCompileTime directly because a trivial program can
 * legitimately compile in 0 µs, which would make a wall-clock-driven
 * test flaky.
 */
TEST_F(ServiceTest, ServiceQuotaBoundsPerTenantCompileSpend)
{
    const Method a = randomMethod(21);
    const Method b = randomMethod(22);
    const core::CompilerConfig config = core::CompilerConfig::atomic();
    svc::ServiceConfig cfg;
    cfg.admission.compileUsQuotaPerRound = 1;
    svc::CompileService service(cfg);

    // Spend starts at zero, so the first submit is admitted.
    const svc::CompileResponse first =
        service.submitSync(requestFor(a, 0, config));
    ASSERT_EQ(first.status, svc::CompileStatus::Compiled);
    service.admission().noteCompileTime(0, 5);  // exhausts the budget

    const svc::CompileResponse over =
        service.submitSync(requestFor(b, 0, config));
    EXPECT_EQ(over.status, svc::CompileStatus::RejectedQuota);
    EXPECT_STREQ(svc::statusName(over.status), "rejected_quota");
    EXPECT_EQ(over.code, nullptr);
    EXPECT_EQ(service.admission().quotaRejections(), 1u);

    // The budget is per tenant: tenant 1 compiles the same method.
    const svc::CompileResponse other =
        service.submitSync(requestFor(b, 1, config));
    EXPECT_EQ(other.status, svc::CompileStatus::Compiled);

    // A report round advances the clock and re-admits the tenant
    // (the content-addressed entry tenant 1 built serves the hit).
    hw::MachineResult ok;
    ok.completed = true;
    service.reportExecution(0, first.key, ok);
    const svc::CompileResponse after =
        service.submitSync(requestFor(b, 0, config));
    EXPECT_EQ(after.status, svc::CompileStatus::CacheHit);

    // The rejection reaches the `service.rejected.quota` counter.
    auto &reg = telemetry::Registry::global();
    const uint64_t base =
        reg.counterValue(keys::kServiceRejectedQuota);
    service.publishTelemetry();
    EXPECT_EQ(reg.counterValue(keys::kServiceRejectedQuota),
              base + 1);
}

// ---------------------------------------------------------------
// Admission under a machine.conflict abort storm.
// ---------------------------------------------------------------

TEST_F(ServiceTest, ServiceAdmissionRidesOutConflictStorm)
{
    // A region-forming workload (the paper's addElement loop),
    // shrunk for test time.
    Method m = fromProgram(test::addElementProgram(600, 64));
    const core::CompilerConfig config = core::CompilerConfig::atomic();
    svc::CompileService service(svc::ServiceConfig{});

    const svc::CompileResponse spec =
        service.submitSync(requestFor(m, 0, config));
    ASSERT_EQ(spec.status, svc::CompileStatus::Compiled);
    ASSERT_GT(spec.code->compiled.stats.regions.regionsFormed, 0);

    // Force a conflict abort storm: nearly every aregion_end aborts.
    auto &fps = fp::Registry::global();
    fps.setSeed(7);
    ASSERT_GE(fps.configure("machine.conflict:p0.9"), 0);
    const hw::MachineResult stormy =
        runOnMachine(spec.code->compiled, *m.program);
    fps.disarmAll();

    // Aborted regions fall back to the non-speculative path, so the
    // run still completes with correct output (the paper's
    // correctness story) — it is just slow and abort-ridden.
    EXPECT_TRUE(stormy.completed);
    EXPECT_EQ(stormy.outputChecksum(), m.interpChecksum);
    ASSERT_GE(stormy.regionEntries, 16u);
    ASSERT_GE(static_cast<double>(stormy.regionAborts),
              0.5 * static_cast<double>(stormy.regionEntries));

    // Strike 1: the report trips storm detection -> Cooling, and a
    // recompile during the cooldown bounces.
    EXPECT_TRUE(service.admission().reportExecution(0, spec.key,
                                                    stormy));
    EXPECT_EQ(service.admission().state(0, spec.key),
              svc::AdmissionState::Cooling);
    const svc::CompileResponse backoff = service.submitSync(
        requestFor(m, 0, config, /*recompile=*/true));
    EXPECT_EQ(backoff.status, svc::CompileStatus::RejectedBackoff);
    EXPECT_EQ(service.admission().backoffRejections(), 1u);

    // Strikes 2..4 exhaust the budget (maxRecompiles = 3).
    for (int s = 0; s < 3; ++s)
        service.reportExecution(0, spec.key, stormy);
    EXPECT_EQ(service.admission().state(0, spec.key),
              svc::AdmissionState::Blacklisted);

    // Blacklisted: compiles are accepted but non-speculative, and
    // the result runs clean (no regions to storm).
    const svc::CompileResponse nonspec =
        service.submitSync(requestFor(m, 0, config));
    ASSERT_EQ(nonspec.status, svc::CompileStatus::CompiledNonSpec);
    EXPECT_TRUE(nonspec.code->nonSpeculative);
    EXPECT_EQ(nonspec.code->compiled.stats.regions.regionsFormed, 0);
    const hw::MachineResult calm =
        runOnMachine(nonspec.code->compiled, *m.program);
    EXPECT_TRUE(calm.completed);
    EXPECT_EQ(calm.regionEntries, 0u);
    EXPECT_EQ(calm.outputChecksum(), m.interpChecksum);

    // Cross-tenant isolation: another tenant still gets the shared
    // speculative entry for the same content key.
    const svc::CompileResponse other =
        service.submitSync(requestFor(m, 1, config));
    EXPECT_EQ(other.status, svc::CompileStatus::CacheHit);
    EXPECT_FALSE(other.code->nonSpeculative);
}

} // namespace
