/**
 * @file
 * Multi-tenant admission control for the compile service.
 *
 * Three independent gates, all consulted at submit time
 * (docs/SERVICE.md documents the full state machine):
 *
 *  1. Queue admission: a tenant may not hold more than
 *     `maxPendingPerTenant` requests in flight, so one hot tenant
 *     cannot monopolize every shard queue (the Swivel-style
 *     isolation concern). Rejections count
 *     `service.rejected.queue_full` — note the shard's own bounded
 *     depth also rejects under that key.
 *
 *  2. Storm admission: clients report execution results back via
 *     reportExecution(). A (tenant, method) whose replayed abort
 *     telemetry crosses the resilience storm threshold
 *     (ResiliencePolicy::stormAbortRate over at least minEntries
 *     region entries — the same knobs the in-process
 *     runtime/resilience loop uses) takes a strike:
 *
 *        Healthy --storm--> Cooling(strike n, cooldown 2^(n-1)·base)
 *        Cooling --cooldown elapsed--> Healthy (strikes retained)
 *        Cooling --strike > maxRecompiles--> Blacklisted (terminal)
 *
 *     While Cooling, *recompile* requests for that (tenant, method)
 *     are rejected (`service.rejected.backoff`) — plain requests
 *     still serve from cache, because serving stale speculative code
 *     is safe (aborts fall back to the non-speculative path; the
 *     paper's correctness story). Once Blacklisted, compiles are
 *     accepted but forced non-speculative: the service strips
 *     atomicRegions from the effective config, exactly what
 *     RegionConfig::blacklistMethods does inside one process.
 *
 *  3. Compile-time quota: workers report each job's wall-clock
 *     compile time back via noteCompileTime(). A tenant whose spend
 *     inside the current report round reaches
 *     `compileUsQuotaPerRound` has further submits rejected
 *     (`service.rejected.quota`) until the round advances, so one
 *     tenant flooding expensive compiles cannot monopolize worker
 *     wall-clock even while staying under its pending cap. Off by
 *     default (quota 0 disables the gate and its telemetry key).
 *
 * Cooldowns tick in "report rounds": every reportExecution() call
 * advances the global round counter, mirroring the controller-round
 * clock of runtime::ResilienceTracker.
 *
 * Thread-safe; decisions are pure functions of the report history,
 * so a fixed request/report sequence replays deterministically.
 */

#ifndef AREGION_RUNTIME_SERVICE_ADMISSION_HH
#define AREGION_RUNTIME_SERVICE_ADMISSION_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>

#include "hw/machine.hh"
#include "runtime/resilience.hh"

namespace aregion::runtime::service {

/** Admission knobs. Storm thresholds are deliberately the shared
 *  ResiliencePolicy type: the service is the multi-tenant face of
 *  the same backoff/blacklist policy (docs/RESILIENCE.md). */
struct AdmissionPolicy
{
    /** Max requests one tenant may have queued or compiling. */
    size_t maxPendingPerTenant = 64;

    /** Storm detection + strike budget. `storm.maxRecompiles` is the
     *  strike count after which a (tenant, method) is blacklisted;
     *  `storm.stormAbortRate` / `storm.minEntries` decide whether a
     *  reported execution counts as a storm. `storm.rounds` is
     *  ignored — constructing the controller opts in. */
    ResiliencePolicy storm;

    /** Cooldown after the first strike, in report rounds; doubles
     *  per strike (exponential backoff across the queue boundary). */
    uint64_t baseCooldownRounds = 2;

    /** Per-tenant wall-clock compile budget (µs) per report round;
     *  0 disables the quota gate entirely. */
    uint64_t compileUsQuotaPerRound = 0;
};

/** Per-(tenant, method) admission state. */
enum class AdmissionState { Healthy, Cooling, Blacklisted };

/** Submit-time verdicts. */
enum class Admit {
    Accept,
    RejectQueueFull,    ///< tenant pending cap hit
    RejectBackoff,      ///< recompile during a cooling window
    RejectQuota,        ///< round compile-time budget exhausted
};

class AdmissionController
{
  public:
    explicit AdmissionController(const AdmissionPolicy &p)
        : policy(p)
    {}

    /**
     * Gate one request. `pending` is the tenant's current in-flight
     * count (tracked by the service); `recompile` marks requests
     * that want to invalidate and rebuild cached code.
     */
    Admit admit(int tenant, uint64_t method_key, size_t pending,
                bool recompile);

    /** Record a shard-queue overflow rejection (the service's own
     *  bounded queue fired; counts with the tenant-cap rejections
     *  under `service.rejected.queue_full`). */
    void noteQueueFull();

    /** Charge one finished compile's wall-clock cost against the
     *  tenant's budget for the current report round. No-op when the
     *  quota gate is disabled. */
    void noteCompileTime(int tenant, uint64_t compile_us);

    /**
     * Feed back one execution of this tenant's compiled method.
     * Returns true when the result scored a storm strike. Also
     * advances the global cooldown round.
     */
    bool reportExecution(int tenant, uint64_t method_key,
                         const hw::MachineResult &result);

    /** False once (tenant, method) is blacklisted — the service
     *  compiles it non-speculative from then on. */
    bool speculationAllowed(int tenant, uint64_t method_key) const;

    AdmissionState state(int tenant, uint64_t method_key) const;

    uint64_t stormReports() const;
    uint64_t blacklistedCount() const;
    uint64_t backoffRejections() const;
    uint64_t queueRejections() const;
    uint64_t quotaRejections() const;

    /** Mirror counters into `service.admission.*` /
     *  `service.rejected.*`. */
    void publishTelemetry() const;

  private:
    struct MethodState
    {
        int strikes = 0;
        /** Round at which the current cooldown expires. */
        uint64_t coolUntilRound = 0;
        bool blacklisted = false;
    };

    /** Per-tenant compile-time spend inside one report round. */
    struct TenantQuota
    {
        uint64_t spendUs = 0;
        uint64_t windowRound = 0;   ///< round the spend belongs to
    };

    using Key = std::pair<int, uint64_t>;

    AdmissionPolicy policy;
    mutable std::mutex mu;
    std::map<Key, MethodState> methods;
    std::map<int, TenantQuota> tenantSpend;
    uint64_t round = 0;             ///< report-round clock
    uint64_t stormCount = 0;
    uint64_t blacklistCount = 0;
    uint64_t backoffRejectCount = 0;
    uint64_t queueRejectCount = 0;
    uint64_t quotaRejectCount = 0;
    mutable uint64_t publishedStorms = 0;
    mutable uint64_t publishedBlacklists = 0;
    mutable uint64_t publishedBackoffRejects = 0;
    mutable uint64_t publishedQueueRejects = 0;
    mutable uint64_t publishedQuotaRejects = 0;
};

} // namespace aregion::runtime::service

#endif // AREGION_RUNTIME_SERVICE_ADMISSION_HH
