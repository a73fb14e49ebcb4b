#include "runtime/service/service.hh"

#include <algorithm>
#include <chrono>

#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"

namespace aregion::runtime::service {

namespace {

/** Salt mixed into the content address of blacklisted compiles so a
 *  tenant's forced non-speculative build never aliases the shared
 *  speculative entry other tenants keep hitting. */
constexpr uint64_t kNonSpecSalt = 0x6e6f6e2d73706563ULL; // "non-spec"

} // namespace

const char *
statusName(CompileStatus status)
{
    switch (status) {
      case CompileStatus::CacheHit: return "cache_hit";
      case CompileStatus::Compiled: return "compiled";
      case CompileStatus::Coalesced: return "coalesced";
      case CompileStatus::CompiledNonSpec: return "compiled_nonspec";
      case CompileStatus::RejectedQueueFull: return "rejected_queue_full";
      case CompileStatus::RejectedBackoff: return "rejected_backoff";
      case CompileStatus::RejectedQuota: return "rejected_quota";
      case CompileStatus::Shutdown: return "shutdown";
    }
    return "?";
}

CompileService::CompileService(const ServiceConfig &cfg)
    : config(cfg), codeCache(cfg.cacheBytes),
      admissionCtl(cfg.admission)
{
    const int nshards = cfg.shards > 0 ? cfg.shards : 1;
    int per_shard = cfg.workersPerShard > 0 ? cfg.workersPerShard : 1;
    // Clamp the pool the same way parallel::runGrid does: never more
    // threads than the configured job budget allows, but always at
    // least one worker per shard so no queue can deadlock.
    const size_t budget = parallel::configuredJobs();
    while (per_shard > 1 &&
           static_cast<size_t>(nshards) * per_shard > budget) {
        per_shard--;
    }
    shards.reserve(static_cast<size_t>(nshards));
    for (int s = 0; s < nshards; ++s)
        shards.push_back(std::make_unique<Shard>());
    for (auto &shard : shards) {
        Shard *sp = shard.get();
        for (int w = 0; w < per_shard; ++w) {
            shard->workers.emplace_back(
                [this, sp] { workerLoop(*sp); });
        }
    }
    totalWorkers = nshards * per_shard;
}

CompileService::~CompileService() { stop(); }

uint64_t
CompileService::keyFor(const CompileRequest &request)
{
    AREGION_ASSERT(request.program && request.profile,
                   "CompileRequest needs program + profile");
    return cacheKey(*request.program, *request.profile,
                    request.config);
}

uint64_t
CompileService::nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::future<CompileResponse>
CompileService::submit(CompileRequest request)
{
    const uint64_t submit_ns = nowNs();
    const uint64_t base_key = keyFor(request);
    const bool speculative =
        admissionCtl.speculationAllowed(request.tenant, base_key);
    const uint64_t key =
        speculative ? base_key : base_key ^ kNonSpecSalt;

    std::promise<CompileResponse> reject_promise;
    std::future<CompileResponse> reject_future;

    size_t pending = 0;
    {
        std::lock_guard<std::mutex> lock(stateMu);
        requestCount++;
        tenantStats[request.tenant].requests++;
        pending = pendingByTenant[request.tenant];
    }

    auto reject = [&](CompileStatus status) {
        {
            std::lock_guard<std::mutex> lock(stateMu);
            tenantStats[request.tenant].rejected++;
        }
        reject_future = reject_promise.get_future();
        CompileResponse resp;
        resp.status = status;
        resp.key = key;
        resp.shard = shardOf(key);
        resp.latencyUs = (nowNs() - submit_ns) / 1000;
        reject_promise.set_value(resp);
        return std::move(reject_future);
    };

    // Admission gate 1 + 2: tenant pending cap and storm cooldown.
    // The *base* key is the admission identity — blacklisting must
    // follow the method, not the salted cache slot.
    switch (admissionCtl.admit(request.tenant, base_key, pending,
                               request.recompile)) {
      case Admit::RejectQueueFull:
        return reject(CompileStatus::RejectedQueueFull);
      case Admit::RejectBackoff:
        return reject(CompileStatus::RejectedBackoff);
      case Admit::RejectQuota:
        return reject(CompileStatus::RejectedQuota);
      case Admit::Accept:
        break;
    }

    if (request.recompile)
        codeCache.invalidate(key);

    Shard &shard = *shards[static_cast<size_t>(shardOf(key))];
    std::unique_lock<std::mutex> lock(shard.mu);

    Waiter waiter;
    waiter.tenant = request.tenant;
    waiter.submitNs = submit_ns;
    auto future = waiter.promise.get_future();

    if (auto it = shard.inFlight.find(key);
        it != shard.inFlight.end()) {
        // Identical job already queued or compiling: coalesce.
        it->second->waiters.push_back(std::move(waiter));
        lock.unlock();
        std::lock_guard<std::mutex> state(stateMu);
        coalescedCount++;
        pendingByTenant[request.tenant]++;
        return future;
    }

    // The cache probe happens under the shard lock so a key is
    // always visible in (cache union inFlight) once first enqueued
    // — compileJob inserts into the cache before dropping the job
    // from inFlight. That invariant is what makes compiles-per-key
    // deterministic (exactly one) under any request interleaving.
    // The cache mutex is a leaf: never held while taking shard.mu.
    if (auto code = codeCache.lookup(key)) {
        lock.unlock();
        {
            std::lock_guard<std::mutex> state(stateMu);
            tenantStats[request.tenant].hits++;
        }
        CompileResponse resp;
        resp.status = CompileStatus::CacheHit;
        resp.code = code;
        resp.key = key;
        resp.shard = shardOf(key);
        resp.latencyUs = (nowNs() - submit_ns) / 1000;
        {
            std::lock_guard<std::mutex> hist(histMu);
            requestUsHist.add(
                static_cast<int64_t>(resp.latencyUs));
        }
        waiter.promise.set_value(resp);
        return future;
    }

    if (shard.queue.size() >= config.shardQueueDepth) {
        lock.unlock();
        admissionCtl.noteQueueFull();
        return reject(CompileStatus::RejectedQueueFull);
    }

    waiter.originator = true;
    auto job = std::make_unique<Job>();
    job->request = std::move(request);
    job->key = key;
    job->forceNonSpec = !speculative;
    const int tenant = job->request.tenant;
    job->waiters.push_back(std::move(waiter));
    shard.inFlight[key] = job.get();
    shard.queue.push_back(std::move(job));
    shard.maxDepth = std::max<uint64_t>(shard.maxDepth,
                                        shard.queue.size());
    const auto depth = static_cast<int64_t>(shard.queue.size());
    lock.unlock();
    shard.cv.notify_one();
    {
        std::lock_guard<std::mutex> state(stateMu);
        pendingByTenant[tenant]++;
    }
    {
        std::lock_guard<std::mutex> hist(histMu);
        queueDepthHist.add(depth);
    }
    return future;
}

CompileResponse
CompileService::submitSync(CompileRequest request)
{
    return submit(std::move(request)).get();
}

void
CompileService::reportExecution(int tenant, uint64_t key,
                                const hw::MachineResult &result)
{
    admissionCtl.reportExecution(tenant, key, result);
}

void
CompileService::workerLoop(Shard &shard)
{
    for (;;) {
        std::unique_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(shard.mu);
            shard.cv.wait(lock, [&] {
                return stopping.load() ||
                       (!paused.load() && !shard.queue.empty());
            });
            if (stopping.load())
                return;
            job = std::move(shard.queue.front());
            shard.queue.pop_front();
        }
        compileJob(shard, std::move(job));
    }
}

void
CompileService::compileJob(Shard &shard, std::unique_ptr<Job> job)
{
    const CompileRequest &rq = job->request;
    core::CompilerConfig eff = rq.config;
    if (job->forceNonSpec) {
        eff.atomicRegions = false;
        eff.name += "+nonspec";
    }

    const uint64_t t0 = nowNs();
    auto code = std::make_shared<CachedCode>();
    code->key = job->key;
    code->program = rq.program;
    code->compiled =
        core::compileProgram(*rq.program, *rq.profile, eff);
    code->codeChecksum = codeChecksum(code->compiled);
    code->sizeBytes = estimateCodeBytes(code->compiled);
    code->nonSpeculative = job->forceNonSpec;
    const uint64_t compile_us = (nowNs() - t0) / 1000;
    admissionCtl.noteCompileTime(rq.tenant, compile_us);

    codeCache.insert(code);

    std::vector<Waiter> waiters;
    {
        // After this block no submit() can attach to the job: the
        // cache holds the key, and inFlight no longer does.
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.compiles++;
        shard.inFlight.erase(job->key);
        waiters = std::move(job->waiters);
    }
    {
        std::lock_guard<std::mutex> state(stateMu);
        compileCount++;
        if (job->forceNonSpec)
            compileNonSpecCount++;
    }
    {
        std::lock_guard<std::mutex> hist(histMu);
        compileUsHist.add(static_cast<int64_t>(compile_us));
    }
    const CompileStatus status = job->forceNonSpec
                                     ? CompileStatus::CompiledNonSpec
                                     : CompileStatus::Compiled;
    completeWaiters(std::move(waiters), status, code, job->key,
                    shardOf(job->key));
}

void
CompileService::completeWaiters(
    std::vector<Waiter> &&waiters, CompileStatus originator_status,
    const std::shared_ptr<const CachedCode> &code, uint64_t key,
    int shard_id)
{
    const uint64_t now = nowNs();
    for (Waiter &w : waiters) {
        CompileResponse resp;
        resp.status = w.originator ? originator_status
                                   : CompileStatus::Coalesced;
        resp.code = code;
        resp.key = key;
        resp.shard = shard_id;
        resp.latencyUs = (now - w.submitNs) / 1000;
        {
            std::lock_guard<std::mutex> state(stateMu);
            auto it = pendingByTenant.find(w.tenant);
            if (it != pendingByTenant.end() && it->second > 0)
                it->second--;
        }
        if (code) {
            std::lock_guard<std::mutex> hist(histMu);
            requestUsHist.add(static_cast<int64_t>(resp.latencyUs));
        }
        w.promise.set_value(resp);
    }
}

void
CompileService::stop()
{
    bool expected = false;
    if (!stopping.compare_exchange_strong(expected, true)) {
        return;
    }
    wakeWorkers();
    for (auto &shard : shards) {
        for (std::thread &t : shard->workers) {
            if (t.joinable())
                t.join();
        }
    }
    // Complete whatever never ran.
    for (auto &shard : shards) {
        std::deque<std::unique_ptr<Job>> leftovers;
        {
            std::lock_guard<std::mutex> lock(shard->mu);
            leftovers.swap(shard->queue);
            shard->inFlight.clear();
        }
        for (auto &job : leftovers) {
            completeWaiters(std::move(job->waiters),
                            CompileStatus::Shutdown, nullptr,
                            job->key, shardOf(job->key));
        }
    }
}

void
CompileService::pauseWorkers()
{
    paused.store(true);
}

void
CompileService::resumeWorkers()
{
    paused.store(false);
    wakeWorkers();
}

void
CompileService::wakeWorkers()
{
    // Taking each shard's lock between the flag store and the notify
    // closes the lost wake-up: a worker that has evaluated its wait
    // predicate (still false) holds the lock until it blocks, so the
    // notify cannot land in that gap.
    for (auto &shard : shards) {
        { std::lock_guard<std::mutex> lock(shard->mu); }
        shard->cv.notify_all();
    }
}

ServiceStats
CompileService::stats() const
{
    ServiceStats out;
    for (const auto &shard : shards) {
        std::lock_guard<std::mutex> lock(shard->mu);
        ServiceStats::Shard s;
        s.compiles = shard->compiles;
        s.maxDepth = shard->maxDepth;
        out.shards.push_back(s);
    }
    std::lock_guard<std::mutex> lock(stateMu);
    out.tenants = tenantStats;
    out.requests = requestCount;
    out.compiles = compileCount;
    out.compilesNonSpec = compileNonSpecCount;
    out.coalesced = coalescedCount;
    return out;
}

void
CompileService::publishTelemetry()
{
    namespace keys = telemetry::keys;
    auto &reg = telemetry::Registry::global();
    codeCache.publishTelemetry();
    admissionCtl.publishTelemetry();
    {
        std::lock_guard<std::mutex> lock(stateMu);
        auto delta = [&](const char *key, uint64_t total,
                         uint64_t &published) {
            reg.add(key, total - published);
            published = total;
        };
        delta(keys::kServiceRequests, requestCount,
              publishedRequests);
        delta(keys::kServiceCompiles, compileCount,
              publishedCompiles);
        delta(keys::kServiceCompilesNonSpec, compileNonSpecCount,
              publishedNonSpec);
        delta(keys::kServiceCacheDedup, coalescedCount,
              publishedCoalesced);
    }
    {
        std::lock_guard<std::mutex> hist(histMu);
        reg.merge(keys::kServiceQueueDepth, queueDepthHist);
        reg.merge(keys::kServiceCompileUs, compileUsHist);
        reg.merge(keys::kServiceRequestUs, requestUsHist);
        queueDepthHist = Histogram();
        compileUsHist = Histogram();
        requestUsHist = Histogram();
    }
    reg.set(keys::kServiceShards,
            static_cast<double>(shards.size()));
    reg.set(keys::kServiceWorkers,
            static_cast<double>(totalWorkers));
}

} // namespace aregion::runtime::service
