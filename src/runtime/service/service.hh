/**
 * @file
 * JIT-compile-as-a-service: a long-running, sharded, cache-backed
 * compile server (ROADMAP item 2 — the millions-of-users scenario).
 *
 * Shape (full contract in docs/SERVICE.md):
 *
 *   client ──submit()──> [admission] ──> [code cache] ──hit──> reply
 *                                           │ miss
 *                                           ▼
 *                            shard = key mod numShards
 *                                           │
 *                      bounded per-shard queue (reject when full)
 *                                           │
 *                        persistent worker threads per shard
 *                                           │
 *                         compileProgram (deterministic)
 *                                           │
 *                        cache insert + LRU eviction, reply
 *
 * Properties the rest of the repo relies on:
 *
 *  - Determinism: compileProgram is a pure function of
 *    (program, profile, config), so for a fixed request set the
 *    compiled code and its checksums are identical at any shard /
 *    worker / AREGION_JOBS setting; only latencies and the hit-vs-
 *    coalesced split of concurrently racing requests vary. Golden
 *    tests and the fuzzer can therefore drive the service path and
 *    compare code checksums against direct compileProgram calls.
 *  - In-flight deduplication: requests for a key already queued or
 *    compiling attach to that job instead of compiling again
 *    (`service.cache.dedup`); every attached requester gets the same
 *    immutable CachedCode.
 *  - Admission control (admission.hh): per-tenant pending caps,
 *    bounded shard queues, and storm-driven backoff/blacklisting so
 *    one aborting tenant cannot starve the pool.
 *
 * Worker pool: shards × workersPerShard persistent threads, clamped
 * to parallel::configuredJobs() (AREGION_JOBS) the same way the grid
 * driver clamps its pool — the service is the long-running sibling
 * of parallel::runGrid's bounded fan-out.
 */

#ifndef AREGION_RUNTIME_SERVICE_SERVICE_HH
#define AREGION_RUNTIME_SERVICE_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/service/admission.hh"
#include "runtime/service/code_cache.hh"
#include "support/statistics.hh"

namespace aregion::runtime::service {

struct ServiceConfig
{
    /** Queue shards; method keys map to shards by key mod shards. */
    int shards = 4;

    /** Persistent workers per shard (total clamped to
     *  parallel::configuredJobs(), at least one per shard). */
    int workersPerShard = 1;

    /** Bounded per-shard queue depth; submits beyond it are
     *  rejected (`service.rejected.queue_full`). */
    size_t shardQueueDepth = 64;

    /** Code-cache byte budget (code_cache.hh capacity model). */
    size_t cacheBytes = 16u << 20;

    AdmissionPolicy admission;
};

/** One compile request. Program and profile are shared immutable
 *  inputs; the returned CachedCode keeps them alive. */
struct CompileRequest
{
    int tenant = 0;
    std::string method;     ///< tenant-visible name, diagnostics only
    std::shared_ptr<const vm::Program> program;
    std::shared_ptr<const vm::Profile> profile;
    core::CompilerConfig config;

    /** Invalidate any cached entry and rebuild — what a client's
     *  resilience loop sends after an abort storm. Subject to the
     *  admission cooldown (admission.hh). */
    bool recompile = false;
};

enum class CompileStatus {
    CacheHit,           ///< served from the content-addressed cache
    Compiled,           ///< this request caused the compilation
    Coalesced,          ///< attached to an in-flight identical job
    CompiledNonSpec,    ///< blacklisted: compiled without regions
    RejectedQueueFull,  ///< shard queue or tenant pending cap hit
    RejectedBackoff,    ///< recompile refused during storm cooldown
    RejectedQuota,      ///< tenant's round compile budget exhausted
    Shutdown,           ///< service stopped before the job ran
};

const char *statusName(CompileStatus status);

struct CompileResponse
{
    CompileStatus status = CompileStatus::Shutdown;
    std::shared_ptr<const CachedCode> code;  ///< null iff rejected
    uint64_t key = 0;
    int shard = -1;
    /** Wall-clock µs from submit() to response completion. */
    uint64_t latencyUs = 0;
};

/** Point-in-time service statistics (per-shard and per-tenant views
 *  the global telemetry keys intentionally do not enumerate). */
struct ServiceStats
{
    struct Shard
    {
        uint64_t compiles = 0;
        uint64_t maxDepth = 0;      ///< high-water queue depth
    };
    struct Tenant
    {
        uint64_t requests = 0;
        uint64_t hits = 0;
        uint64_t rejected = 0;
    };
    std::vector<Shard> shards;
    std::map<int, Tenant> tenants;
    uint64_t requests = 0;
    uint64_t compiles = 0;
    uint64_t compilesNonSpec = 0;
    uint64_t coalesced = 0;
};

class CompileService
{
  public:
    explicit CompileService(const ServiceConfig &config);
    ~CompileService();    ///< stop() + join

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /** The content address submit() will use for this request. */
    static uint64_t keyFor(const CompileRequest &request);

    /**
     * Asynchronous submit. Rejections and cache hits complete the
     * future immediately on the calling thread; misses complete on a
     * shard worker. Safe from any thread.
     */
    std::future<CompileResponse> submit(CompileRequest request);

    /** submit() + get(), for tests and simple clients. */
    CompileResponse submitSync(CompileRequest request);

    /** Client feedback: an execution result for code obtained under
     *  `key` (drives storm admission; see admission.hh). */
    void reportExecution(int tenant, uint64_t key,
                         const hw::MachineResult &result);

    /** Drain queues and join workers; queued-but-unstarted jobs
     *  complete with CompileStatus::Shutdown. Idempotent. */
    void stop();

    /** Hold workers before their next dequeue — lets tests build a
     *  deterministic queue state. resumeWorkers() releases them. */
    void pauseWorkers();
    void resumeWorkers();

    const CodeCache &cache() const { return codeCache; }
    AdmissionController &admission() { return admissionCtl; }
    int shardCount() const { return static_cast<int>(shards.size()); }
    int workerCount() const { return totalWorkers; }
    int shardOf(uint64_t key) const
    {
        return static_cast<int>(key % shards.size());
    }

    ServiceStats stats() const;

    /** Mirror service + cache + admission counters into the global
     *  `service.*` telemetry family. */
    void publishTelemetry();

  private:
    struct Waiter
    {
        std::promise<CompileResponse> promise;
        int tenant = 0;
        uint64_t submitNs = 0;
        bool originator = false;    ///< caused the compile vs coalesced
    };

    struct Job
    {
        CompileRequest request;
        uint64_t key = 0;
        bool forceNonSpec = false;
        /** Every requester attached to this job. */
        std::vector<Waiter> waiters;
    };

    struct Shard
    {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<std::unique_ptr<Job>> queue;
        /** Key of the job a worker is currently compiling (0 when
         *  idle); late arrivals for it coalesce here. */
        std::map<uint64_t, Job *> inFlight;
        uint64_t compiles = 0;
        uint64_t maxDepth = 0;
        std::vector<std::thread> workers;
    };

    void workerLoop(Shard &shard);
    /** notify_all every shard after a stopping/paused store. */
    void wakeWorkers();
    void compileJob(Shard &shard, std::unique_ptr<Job> job);
    void completeWaiters(std::vector<Waiter> &&waiters,
                         CompileStatus originator_status,
                         const std::shared_ptr<const CachedCode> &code,
                         uint64_t key, int shard_id);
    static uint64_t nowNs();

    ServiceConfig config;
    CodeCache codeCache;
    AdmissionController admissionCtl;
    std::vector<std::unique_ptr<Shard>> shards;
    int totalWorkers = 0;

    mutable std::mutex stateMu;         ///< tenants + counters
    std::map<int, uint64_t> pendingByTenant;
    std::map<int, ServiceStats::Tenant> tenantStats;
    uint64_t requestCount = 0;
    uint64_t compileCount = 0;
    uint64_t compileNonSpecCount = 0;
    uint64_t coalescedCount = 0;
    uint64_t publishedRequests = 0;
    uint64_t publishedCompiles = 0;
    uint64_t publishedNonSpec = 0;
    uint64_t publishedCoalesced = 0;

    /** Event-time histogram samples, merged into the registry (and
     *  reset) by publishTelemetry — histogram slots are not safe for
     *  concurrent writers (support/telemetry.hh). */
    std::mutex histMu;
    Histogram queueDepthHist;
    Histogram compileUsHist;
    Histogram requestUsHist;

    std::atomic<bool> stopping{false};
    std::atomic<bool> paused{false};
};

} // namespace aregion::runtime::service

#endif // AREGION_RUNTIME_SERVICE_SERVICE_HH
