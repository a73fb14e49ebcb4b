/**
 * @file
 * compile_service mode: an open-loop generator submitting to one
 * runtime::service::CompileService on a schedule fixed from the seed
 * before the run starts.
 *
 * Traffic shape:
 *  - methods come from a fixed random-program pool (the generator
 *    bench_service uses) that is larger than the code-cache byte
 *    budget, so hits, coalesced requests, misses and evictions all
 *    keep occurring;
 *  - method popularity is Zipf-skewed over a seeded permutation of
 *    the pool, tenants are uniform;
 *  - a few percent of events are reportExecution() calls: healthy
 *    ones, and abort storms each followed by a recompile request
 *    once the storm's admission cooldown (counted in report rounds,
 *    tracked by the generator) has passed, so no request should be
 *    refused.
 * Two phases: the nominal rate (service.p50_ms / service.p99_ms) and
 * a peak rate closer to saturation; both were set from a sweep of the
 * arrival rate (`--rate`, see README.md). The schedule runs without
 * pauses. cpu_s is the CPU time the service (every thread but the
 * generator's) spends on the schedule.
 * Latency is timed from each request's due time; refused requests
 * count as failed and as infinitely late. At the end every cached key
 * passes the cached-vs-direct compileProgram checksum oracle.
 */

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <thread>

#include "common.hh"
#include "core/compiler.hh"
#include "runtime/service/service.hh"
#include "spans.hh"
#include "support/parallel.hh"
#include "support/random.hh"
#include "support/telemetry.hh"
#include "testing/random_program.hh"
#include "vm/interpreter.hh"

namespace perfbench {

namespace core = aregion::core;
namespace svc = aregion::runtime::service;
namespace vm = aregion::vm;

namespace {

constexpr size_t kPoolMethods = 512;
constexpr uint64_t kPoolSeed = 1;       ///< fixed: references cover it
constexpr int kTenants = 16;
constexpr size_t kCacheBytes = 2u << 20;    ///< ~100 of 512 methods
constexpr double kZipfExponent = 1.0;
// Rates from the sweeps in README.md: the p99 doubles between 1800 and
// 2400 events/s and the service saturates at 3600-4500/s on a fast
// host, but while the host runs slow the backlog already grows at
// 1800/s, 40 s runs at 2400/s had requests refused, and a traced run
// at 1500/s reached 218 requests in flight.
constexpr double kNominalRate = 900;    ///< events per second
constexpr double kPeakRate = 1200;
constexpr double kNominalShare = 0.75;  ///< of the run's seconds
constexpr double kReportShare = 0.04;   ///< healthy execution reports
constexpr double kStormShare = 0.01;    ///< abort-storm reports
constexpr int kPoolBuilds = 7;          ///< per hardware thread
constexpr uint64_t kBacklogSampleNs = 100'000'000;
constexpr size_t kP99Chunk = 2000;      ///< requests per p99 sample

struct PooledMethod
{
    std::shared_ptr<const vm::Program> program;
    std::shared_ptr<const vm::Profile> profile;
    uint64_t key = 0;       ///< CompileService::keyFor, speculative
};

std::vector<PooledMethod>
buildPool()
{
    std::vector<PooledMethod> pool(kPoolMethods);
    const core::CompilerConfig config = core::CompilerConfig::atomic();
    for (size_t i = 0; i < pool.size(); ++i) {
        aregion::testing::RandomProgramGen gen(
            kPoolSeed * 1000003ULL + i, aregion::testing::kLegacyObjects);
        auto prog = std::make_shared<vm::Program>(
            aregion::testing::renderProgram(gen.generate()));
        auto profile = std::make_shared<vm::Profile>(*prog);
        vm::Interpreter interp(*prog, profile.get());
        interp.run();
        svc::CompileRequest rq;
        rq.program = prog;
        rq.profile = profile;
        rq.config = config;
        pool[i] = {std::move(prog), std::move(profile),
                   svc::CompileService::keyFor(rq)};
    }
    return pool;
}

svc::ServiceConfig
serviceConfig()
{
    // One worker per shard, and one hardware thread left for the
    // generator, so the process never has more than nproc busy
    // threads.
    svc::ServiceConfig cfg;
    const int jobs = static_cast<int>(aregion::parallel::configuredJobs());
    cfg.shards = std::clamp(jobs - 1, 1, 3);
    cfg.workersPerShard = 1;
    cfg.cacheBytes = kCacheBytes;
    return cfg;
}

enum class Kind : uint8_t { Request, Recompile, Report, Storm };

struct Event
{
    uint64_t dueNs = 0;     ///< offset from the run's start
    Kind kind = Kind::Request;
    uint8_t phase = 0;      ///< 0 nominal, 1 peak
    int tenant = 0;
    int method = 0;
};

/**
 * The whole schedule, generated before the run. The generator keeps
 * its own copy of the admission clock (one round per report) and of
 * each (tenant, method)'s strikes, so a recompile is only scheduled
 * once the service will accept it.
 */
std::vector<Event>
makeSchedule(uint64_t seed, double seconds, double sweep_rate)
{
    aregion::Rng rng(seed * 0x2545f4914f6cdd1dULL + 17);
    std::vector<size_t> by_rank(kPoolMethods);
    for (size_t i = 0; i < by_rank.size(); ++i)
        by_rank[i] = i;
    for (size_t i = by_rank.size(); i > 1; --i)
        std::swap(by_rank[i - 1], by_rank[rng.below(i)]);
    std::vector<double> cdf(kPoolMethods);
    double acc = 0;
    for (size_t k = 0; k < cdf.size(); ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
        cdf[k] = acc;
    }
    auto pick_method = [&] {
        const double u = rng.toDouble() * acc;
        const size_t rank = static_cast<size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        return static_cast<int>(by_rank[std::min(rank, cdf.size() - 1)]);
    };

    const aregion::runtime::ResiliencePolicy storm_policy;
    const uint64_t base_cooldown = svc::AdmissionPolicy{}.baseCooldownRounds;
    struct PairState
    {
        int strikes = 0;
        bool pending = false;
    };
    std::map<std::pair<int, int>, PairState> pairs;
    struct Pending
    {
        uint64_t readyRound;
        int tenant;
        int method;
    };
    std::vector<Pending> pending;
    uint64_t round = 0;

    std::vector<Event> events;
    // A sweep runs one phase at `sweep_rate` for the whole run.
    const double phase_end[2] = {
        sweep_rate > 0 ? seconds : seconds * kNominalShare, seconds};
    const double rate[2] = {sweep_rate > 0 ? sweep_rate : kNominalRate,
                            kPeakRate};
    double t = 0;
    for (uint8_t phase = 0; phase < 2; ++phase) {
        for (;;) {
            t += -std::log(1.0 - rng.toDouble()) / rate[phase];
            if (t >= phase_end[phase])
                break;
            Event ev;
            ev.dueNs = static_cast<uint64_t>(t * 1e9);
            ev.phase = phase;
            auto ready = std::find_if(
                pending.begin(), pending.end(),
                [&](const Pending &p) { return p.readyRound <= round; });
            if (ready != pending.end()) {
                ev.kind = Kind::Recompile;
                ev.tenant = ready->tenant;
                ev.method = ready->method;
                pairs[{ev.tenant, ev.method}].pending = false;
                pending.erase(ready);
                events.push_back(ev);
                continue;
            }
            ev.tenant = static_cast<int>(rng.below(kTenants));
            ev.method = pick_method();
            const double u = rng.toDouble();
            PairState &ps = pairs[{ev.tenant, ev.method}];
            if (u < kStormShare && !ps.pending) {
                ev.kind = Kind::Storm;
                round++;
                ps.strikes++;
                // Past maxRecompiles the pair is blacklisted and its
                // recompiles are admitted (non-speculatively) at once.
                const uint64_t cooldown =
                    ps.strikes > storm_policy.maxRecompiles
                        ? 0
                        : base_cooldown << (ps.strikes - 1);
                ps.pending = true;
                pending.push_back({round + cooldown, ev.tenant, ev.method});
            } else if (u < kStormShare + kReportShare) {
                ev.kind = Kind::Report;
                round++;
            } else {
                ev.kind = Kind::Request;
            }
            events.push_back(ev);
        }
        t = phase_end[phase];
    }
    return events;
}

aregion::hw::MachineResult
executionReport(bool storm)
{
    aregion::hw::MachineResult mr;
    mr.regionEntries = 64;
    mr.regionAborts = storm ? 48 : 0;   // 0.75 >= stormAbortRate 0.5
    mr.completed = true;
    return mr;
}

/**
 * Requests in flight (due but not yet answered), sampled every
 * kBacklogSampleNs from `start` until the last response. A backlog
 * that keeps growing means the rate is past saturation.
 */
std::vector<uint64_t>
backlogSamples(const std::vector<uint64_t> &due_ns,
               const std::vector<uint64_t> &done_ns, uint64_t start,
               uint64_t end)
{
    std::vector<std::pair<uint64_t, int>> steps;
    for (size_t i = 0; i < due_ns.size(); ++i) {
        if (done_ns[i] == 0)
            continue;   // an execution report: nothing to answer
        steps.push_back({due_ns[i], +1});
        steps.push_back({done_ns[i], -1});
    }
    std::sort(steps.begin(), steps.end());
    std::vector<uint64_t> samples;
    int64_t in_flight = 0;
    size_t k = 0;
    for (uint64_t t = start + kBacklogSampleNs; t <= end;
         t += kBacklogSampleNs) {
        for (; k < steps.size() && steps[k].first <= t; ++k)
            in_flight += steps[k].second;
        samples.push_back(static_cast<uint64_t>(in_flight));
    }
    return samples;
}

/**
 * p99 of each run of kP99Chunk consecutive requests (at least 20
 * samples beyond it), then the median over the runs. A host stall of
 * a fraction of a second lands in one or two runs instead of moving
 * the whole phase's tail.
 */
double
medianChunkP99(const std::vector<double> &latencies)
{
    const size_t chunks = std::max<size_t>(1, latencies.size() / kP99Chunk);
    const size_t per = latencies.size() / chunks;
    std::vector<double> p99s;
    for (size_t c = 0; c < chunks; ++c) {
        const auto from = latencies.begin() +
                          static_cast<std::ptrdiff_t>(c * per);
        p99s.push_back(quantile(
            std::vector<double>(from, from + static_cast<std::ptrdiff_t>(per)),
            0.99));
    }
    return median(p99s);
}

/** Sleep until shortly before `due_ns`, then spin: a plain sleep
 *  wakes tens of microseconds late, which would swamp the latency of
 *  a cache hit. */
void
waitUntil(uint64_t due_ns)
{
    constexpr uint64_t kSpinNs = 200'000;
    if (due_ns > nowNs() + kSpinNs) {
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(due_ns - kSpinNs)));
    }
    while (nowNs() < due_ns) {
    }
}

bool
refused(svc::CompileStatus status)
{
    return status == svc::CompileStatus::RejectedQueueFull ||
           status == svc::CompileStatus::RejectedBackoff ||
           status == svc::CompileStatus::RejectedQuota ||
           status == svc::CompileStatus::Shutdown;
}

core::CompilerConfig
effectiveConfig(bool non_speculative)
{
    core::CompilerConfig cfg = core::CompilerConfig::atomic();
    if (non_speculative) {
        cfg.atomicRegions = false;
        cfg.name += "+nonspec";
    }
    return cfg;
}

} // namespace

void
runService(const Options &opts, Result &out)
{
    SpanRecorder rec(opts.trace);
    const std::vector<Event> schedule =
        makeSchedule(opts.seed, opts.seconds, opts.rate);

    // Set-up, timed before the schedule starts: building the profiled
    // pool, plus constructing the service. The service is built once,
    // because stopping a service whose workers have not yet parked can
    // lose the stop wake-up (CompileService::stop notifies without
    // holding the shard lock) and hang the join.
    std::vector<PooledMethod> pool;
    const double pool_s =
        timeSetup(kPoolBuilds, [&] { pool = buildPool(); });
    const uint64_t c0 = nowNs();
    svc::CompileService service(serviceConfig());
    const double construct_s = static_cast<double>(nowNs() - c0) / 1e9;

    const core::CompilerConfig config = core::CompilerConfig::atomic();
    std::vector<std::future<svc::CompileResponse>> futures(schedule.size());
    std::vector<uint64_t> submit_ns(schedule.size(), 0);
    std::vector<uint64_t> due_ns(schedule.size(), 0);
    std::vector<uint64_t> done_ns(schedule.size(), 0);
    std::vector<double> late_ms, keyfor_us;
    late_ms.reserve(schedule.size());

    // Responses are harvested in schedule order as they complete, so
    // the code they reference is released (evicted artifacts must
    // not stay resident through the run). Latency from due = submit
    // lateness + the service's own submit-to-response latency.
    std::vector<double> due_ms[2];
    std::vector<double> hit_us, miss_ms_compiled, miss_ms_coalesced;
    std::map<uint64_t, std::pair<int, bool>> seen_keys;
    uint64_t submits = 0, hits = 0, coalesced = 0, rejected = 0;
    const uint64_t start = nowNs();
    const uint64_t process_cpu0 = cpuNs(CLOCK_PROCESS_CPUTIME_ID);
    const uint64_t generator_cpu0 = cpuNs(CLOCK_THREAD_CPUTIME_ID);
    uint64_t last_done = start;
    size_t harvested = 0;
    auto harvest = [&](size_t limit, bool block) {
        for (; harvested < limit; ++harvested) {
            const size_t i = harvested;
            if (!futures[i].valid())
                continue;
            if (!block && futures[i].wait_for(std::chrono::seconds(0)) !=
                              std::future_status::ready)
                return;
            const Event &ev = schedule[i];
            const svc::CompileResponse resp = futures[i].get();
            const uint64_t done = submit_ns[i] + resp.latencyUs * 1000;
            done_ns[i] = done;
            last_done = std::max(last_done, done);
            submits++;
            rec.add("service.request", submit_ns[i], done,
                    static_cast<int64_t>(i));
            if (refused(resp.status) || !resp.code) {
                rejected++;
                out.fail("request " + std::to_string(i) + " (tenant " +
                             std::to_string(ev.tenant) + ", m" +
                             std::to_string(ev.method) + ") refused: " +
                             svc::statusName(resp.status),
                         /*wrong_output=*/false);
                due_ms[ev.phase].push_back(INFINITY);
                continue;
            }
            due_ms[ev.phase].push_back(
                static_cast<double>(done - due_ns[i]) / 1e6);
            seen_keys[resp.key] = {ev.method, resp.code->nonSpeculative};
            switch (resp.status) {
              case svc::CompileStatus::CacheHit:
                hits++;
                hit_us.push_back(static_cast<double>(resp.latencyUs));
                break;
              case svc::CompileStatus::Coalesced:
                coalesced++;
                miss_ms_coalesced.push_back(
                    static_cast<double>(resp.latencyUs) / 1e3);
                break;
              default:
                miss_ms_compiled.push_back(
                    static_cast<double>(resp.latencyUs) / 1e3);
                break;
            }
        }
    };

    for (size_t i = 0; i < schedule.size(); ++i) {
        const Event &ev = schedule[i];
        const uint64_t due = start + ev.dueNs;
        due_ns[i] = due;
        harvest(i, false);
        waitUntil(due);
        const uint64_t now = nowNs();
        late_ms.push_back(static_cast<double>(now - std::min(now, due)) / 1e6);
        ScopedSpan event_span(rec, "generator.event",
                              static_cast<int64_t>(i));
        const PooledMethod &m = pool[static_cast<size_t>(ev.method)];
        if (ev.kind == Kind::Report || ev.kind == Kind::Storm) {
            ScopedSpan s(rec, "service.reportExecution",
                         static_cast<int64_t>(i));
            service.reportExecution(ev.tenant, m.key,
                                    executionReport(ev.kind == Kind::Storm));
            continue;
        }
        svc::CompileRequest rq;
        rq.tenant = ev.tenant;
        rq.method = "m" + std::to_string(ev.method);
        rq.program = m.program;
        rq.profile = m.profile;
        rq.config = config;
        rq.recompile = ev.kind == Kind::Recompile;
        if (opts.trace) {
            ScopedSpan s(rec, "service.keyFor", static_cast<int64_t>(i));
            const uint64_t k0 = nowNs();
            svc::CompileService::keyFor(rq);
            keyfor_us.push_back(static_cast<double>(nowNs() - k0) / 1e3);
        }
        ScopedSpan s(rec, "service.submit", static_cast<int64_t>(i));
        submit_ns[i] = nowNs();
        futures[i] = service.submit(std::move(rq));
    }
    harvest(schedule.size(), true);
    const uint64_t generator_cpu =
        cpuNs(CLOCK_THREAD_CPUTIME_ID) - generator_cpu0;
    const uint64_t process_cpu =
        cpuNs(CLOCK_PROCESS_CPUTIME_ID) - process_cpu0;
    const double service_cpu_s =
        static_cast<double>(process_cpu - std::min(process_cpu,
                                                   generator_cpu)) /
        1e9;
    out.attempted += submits;
    const double wall_s = static_cast<double>(last_done - start) / 1e9;
    const std::vector<uint64_t> backlog =
        backlogSamples(due_ns, done_ns, start, last_done);

    // Oracle: every key still cached equals a direct compile.
    std::vector<uint64_t> &checked = out.outputs["oracle"];
    for (const auto &[key, who] : seen_keys) {
        const auto cached = service.cache().peek(key);
        if (!cached)
            continue;   // evicted since; nothing cached to check
        const PooledMethod &m = pool[static_cast<size_t>(who.first)];
        const core::Compiled direct = core::compileProgram(
            *m.program, *m.profile, effectiveConfig(cached->nonSpeculative));
        const uint64_t sum = svc::codeChecksum(direct);
        checked.push_back(static_cast<uint64_t>(who.first));
        checked.push_back(cached->nonSpeculative ? 1 : 0);
        checked.push_back(sum);
        if (sum != cached->codeChecksum)
            out.fail("oracle: cached code for m" +
                     std::to_string(who.first) +
                     " differs from a direct compile");
    }
    if (checked.empty())
        out.fail("oracle: no cached key left to check");

    // The oracle's direct compiles above leave the workers parked
    // long before this stop (see the set-up comment).
    service.publishTelemetry();
    const svc::ServiceStats stats = service.stats();
    const uint64_t evictions = service.cache().evictions();
    service.stop();

    auto &m = out.metrics;
    if (opts.rate > 0) {
        // A sweep point: throughput, tail latency and the backlog
        // over time at one rate.
        m["sweep.answered_per_s"] = static_cast<double>(submits) / wall_s;
        m["sweep.p99_ms"] = quantile(due_ms[0], 0.99);
        m["sweep.late_ms.p99"] = quantile(late_ms, 0.99);
        m["sweep.hit_share"] =
            submits ? static_cast<double>(hits) /
                          static_cast<double>(submits)
                    : 0.0;
        m["sweep.compile_ms.mean"] =
            aregion::telemetry::Registry::global()
                .histogram("service.compile_us")
                .mean() /
            1e3;
        out.outputs["backlog"] = backlog;
        return;
    }
    if (!opts.trace) {
        m["setup_s"] = pool_s + construct_s;
        m["wall_s"] = wall_s;
        m["cpu_s"] = service_cpu_s;
        return;
    }
    auto &registry = aregion::telemetry::Registry::global();
    const aregion::Histogram &compile_us =
        registry.histogram("service.compile_us");
    const aregion::Histogram &depth =
        registry.histogram("service.queue.depth");
    m["service.hit_share"] =
        submits ? static_cast<double>(hits) / static_cast<double>(submits)
                : 0.0;
    m["service.hit_us.p50"] = median(hit_us);
    m["service.miss_ms.compiled.p50"] = quantile(miss_ms_compiled, 0.50);
    m["service.miss_ms.compiled.p99"] = quantile(miss_ms_compiled, 0.99);
    m["service.miss_ms.coalesced.p50"] = quantile(miss_ms_coalesced, 0.50);
    m["service.miss_ms.coalesced.p99"] = quantile(miss_ms_coalesced, 0.99);
    m["service.keyfor_us.p50"] = median(keyfor_us);
    m["service.compile_ms.mean"] = compile_us.mean() / 1e3;
    m["service.compile_ms.p95"] =
        static_cast<double>(compile_us.percentile(0.95)) / 1e3;
    m["service.queue.depth.p95"] =
        static_cast<double>(depth.percentile(0.95));
    m["service.evictions"] = static_cast<double>(evictions);
    m["service.compiles"] = static_cast<double>(stats.compiles);
    m["service.coalesced"] = static_cast<double>(coalesced);
    m["service.rejected"] = static_cast<double>(rejected);
    m["service.p50_ms"] = quantile(due_ms[0], 0.50);
    m["service.p99_ms"] = medianChunkP99(due_ms[0]);
    m["service.p99_ms.whole_phase"] = quantile(due_ms[0], 0.99);
    m["service.peak_p99_ms"] = quantile(due_ms[1], 0.99);
    // The backlog's largest sample over the peak phase.
    const size_t peak_from = static_cast<size_t>(
        opts.seconds * kNominalShare * 1e9 / kBacklogSampleNs);
    m["service.peak_backlog.max"] =
        backlog.size() > peak_from
            ? static_cast<double>(*std::max_element(
                  backlog.begin() + static_cast<std::ptrdiff_t>(peak_from),
                  backlog.end()))
            : 0.0;
    m["generator.late_ms.p99"] = quantile(late_ms, 0.99);
    if (!opts.outDir.empty()) {
        if (!rec.writeChromeTrace(opts.outDir +
                                  "/compile_service.trace.json") ||
            !rec.writeSelfTimeTable(opts.outDir +
                                    "/compile_service.selftime.txt"))
            out.fail("cannot write the trace files under " + opts.outDir);
    }
}

void
runServiceRefs(const Options &, Result &out)
{
    const std::vector<PooledMethod> pool = buildPool();
    std::vector<uint64_t> &sums = out.outputs["checksums"];
    for (const PooledMethod &m : pool) {
        out.attempted++;
        sums.push_back(svc::codeChecksum(core::compileProgram(
            *m.program, *m.profile, effectiveConfig(false))));
    }
}

} // namespace perfbench
