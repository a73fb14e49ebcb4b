/**
 * @file
 * Policy of the runtime's one recompile loop (runFromProfile, stage 4).
 *
 * The paper's Section 7 controller assumes profile drift: a cold
 * edge turned warm, the assert fires, and one recompile with warm
 * overrides repairs the region (one round: recompileOnce). Under
 * fault injection (or a genuine environment shift) a region can
 * abort persistently with *no* attributable assert site — the
 * controller has nothing to override and a naive retry loop
 * recompiles forever. stormGuard() bounds that loop:
 *
 *   - storm detection: a region whose abort rate stays above
 *     ResiliencePolicy::stormAbortRate across at least minEntries
 *     entries is storming;
 *   - exponential backoff: each remediation attempt for a region
 *     doubles the cooldown (in controller rounds) before the next
 *     attempt may spend recompile budget;
 *   - blacklisting: after maxRecompiles failed attempts the region's
 *     method is compiled permanently non-speculative
 *     (RegionConfig::blacklistMethods) so the program keeps making
 *     progress;
 *   - livelock guard: livelockBound maps onto
 *     HwConfig::maxConsecutiveAborts so the machine itself stops
 *     re-entering a hopeless region between controller rounds.
 *
 * Nothing recompiles by default (rounds = 0): the benchmarks'
 * figures are byte-identical with the policy left alone. Telemetry
 * lands under `runtime.resilience.*` (docs/TELEMETRY.md).
 */

#ifndef AREGION_RUNTIME_RESILIENCE_HH
#define AREGION_RUNTIME_RESILIENCE_HH

#include <climits>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/adaptive.hh"
#include "hw/machine.hh"

namespace aregion::runtime {

/** Policy knobs; defaults are conservative and the whole layer is
 *  opt-in. */
struct ResiliencePolicy
{
    /** Recompile rounds after the first machine run; 0 never
     *  recompiles. At most ResilienceTracker::roundCap() rounds run,
     *  whatever the value. */
    int rounds = 0;

    /** Aborts / entries above which a region counts as storming
     *  (well past the adaptive controller's repair threshold). */
    double stormAbortRate = 0.5;

    /** Regions with fewer entries carry too little evidence. */
    uint64_t minEntries = 16;

    /** Remediation attempts per region before its method is
     *  blacklisted (compiled without regions). */
    int maxRecompiles = 3;

    /** Mapped onto HwConfig::maxConsecutiveAborts for every machine
     *  run when rounds > 0, unless the experiment already set one.
     *  0 leaves the hardware config untouched. */
    uint64_t livelockBound = 64;

    /** Section 7's adaptive recompile: one round whose storm filter
     *  is the controller's own repair threshold, no livelock guard. */
    static ResiliencePolicy
    recompileOnce(const core::AdaptiveController &controller)
    {
        return {.rounds = 1,
                .stormAbortRate = controller.abortRateThreshold,
                .minEntries = controller.minEntries,
                .livelockBound = 0};
    }

    /** Abort-storm resilience: the defaults above, bounded only by
     *  ResilienceTracker::roundCap(). */
    static ResiliencePolicy stormGuard() { return {.rounds = INT_MAX}; }
};

/**
 * Per-experiment storm bookkeeping. The runtime drives it in rounds:
 * detect storms on the latest MachineResult and ask decide() whether
 * the evidence warrants spending a recompile.
 */
class ResilienceTracker
{
  public:
    explicit ResilienceTracker(const ResiliencePolicy &p)
        : policy(p)
    {}

    /** Regions (methodId, regionId) currently storming, excluding
     *  methods already blacklisted. */
    std::set<std::pair<int, int>>
    stormingRegions(const hw::MachineResult &res) const;

    struct Decision
    {
        bool recompile = false;      ///< worth rebuilding the module
        bool blacklistGrew = false;  ///< a method was just condemned
    };

    /**
     * Advance one controller round. For each storming region:
     * in-cooldown regions are skipped (a backoff); regions over the
     * attempt budget condemn their method; otherwise the attempt
     * counter advances and — when the adaptive controller produced
     * new override sites — a recompile is requested. Attempts with
     * nothing new to try still count (they double the cooldown), so
     * an unfixable storm converges on the blacklist.
     */
    Decision decide(const std::set<std::pair<int, int>> &storms,
                    bool new_overrides);

    const std::set<int> &blacklisted() const { return blacklistSet; }

    /** Upper bound on controller rounds: the full backoff schedule
     *  plus one action per budgeted attempt, with slack. */
    int roundCap() const;

    uint64_t backoffs() const { return backoffCount; }

    /** Mirror the counters into `runtime.resilience.*`. */
    void publishTelemetry() const;

  private:
    struct RegionState
    {
        int attempts = 0;
        uint64_t cooldown = 0;      ///< rounds until next attempt
    };

    ResiliencePolicy policy;
    std::map<std::pair<int, int>, RegionState> state;
    std::set<int> blacklistSet;
    uint64_t stormCount = 0;        ///< (round, region) observations
    uint64_t backoffCount = 0;
};

/** Knobs for the contention governor (all deterministic). */
struct ContentionPolicy
{
    /** First-conflict backoff, in scheduler steps; doubles per
     *  consecutive conflict abort on the same context. */
    uint64_t baseStall = 8;

    /** Cap on the exponential growth. */
    uint64_t maxStall = 1024;

    /** Seed for the deterministic jitter mixed into every stall so
     *  symmetric contexts desynchronize instead of re-colliding. */
    uint64_t seed = 0;

    /** Fairness guard: a context that committed nothing while the
     *  machine as a whole committed this many regions is starving
     *  and gets backoff immunity until its next commit. */
    uint64_t fairnessWindow = 64;

    /** Livelock guard: this many conflict aborts machine-wide with
     *  zero intervening commits means the contexts are killing each
     *  other; backoffs switch to id-staggered stalls until any
     *  region commits. */
    uint64_t livelockWindow = 32;
};

/**
 * Contention-aware backoff: the software half of surviving genuine
 * conflict aborts (paper Section 5.2's SLE under contention). The
 * machine consults it after every abort (hw::ContentionControl);
 * conflict aborts draw an exponentially growing, jittered,
 * per-context stall, while a starvation guard exempts contexts that
 * keep losing and a livelock breaker staggers mutually-aborting
 * contexts by id. All decisions are pure functions of the policy
 * seed and the abort/commit history, so runs replay exactly.
 */
class ContentionGovernor : public hw::ContentionControl
{
  public:
    explicit ContentionGovernor(const ContentionPolicy &p)
        : policy(p)
    {}

    uint64_t onAbort(int ctx_id, hw::AbortCause cause) override;
    void onCommit(int ctx_id) override;

    uint64_t backoffSteps() const { return backoffStepsTotal; }
    uint64_t starvationBoosts() const { return starvationCount; }
    uint64_t livelockBreaks() const { return livelockCount; }

    /** Mirror the counters into `runtime.resilience.*`. */
    void publishTelemetry() const;

  private:
    struct CtxState
    {
        uint64_t conflictStreak = 0;
        uint64_t abortDraws = 0;    ///< jitter stream index
        /** Machine-wide commit count at this context's last own
         *  commit (for the starvation window). */
        uint64_t commitsAtOwnCommit = 0;
        bool starving = false;
    };

    CtxState &slot(int ctx_id);

    ContentionPolicy policy;
    std::vector<CtxState> ctxs;
    uint64_t totalCommits = 0;
    uint64_t conflictsSinceCommit = 0;
    bool staggered = false;         ///< livelock breaker engaged
    uint64_t backoffStepsTotal = 0;
    uint64_t starvationCount = 0;
    uint64_t livelockCount = 0;
};

} // namespace aregion::runtime

#endif // AREGION_RUNTIME_RESILIENCE_HH
