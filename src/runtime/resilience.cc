#include "runtime/resilience.hh"

#include <algorithm>

#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"

namespace aregion::runtime {

std::set<std::pair<int, int>>
ResilienceTracker::stormingRegions(const hw::MachineResult &res) const
{
    std::set<std::pair<int, int>> storms;
    for (const auto &[key, stats] : res.regions) {
        if (blacklistSet.count(key.first))
            continue;
        if (stats.entries < policy.minEntries)
            continue;
        const double rate =
            static_cast<double>(stats.totalAborts()) /
            static_cast<double>(stats.entries);
        if (rate >= policy.stormAbortRate)
            storms.insert(key);
    }
    return storms;
}

ResilienceTracker::Decision
ResilienceTracker::decide(const std::set<std::pair<int, int>> &storms,
                          bool new_overrides)
{
    Decision decision;
    stormCount += storms.size();
    for (const auto &key : storms) {
        RegionState &rs = state[key];
        if (rs.cooldown > 0) {
            // Backing off: this region already burnt an attempt
            // recently; let the cooldown elapse before another.
            rs.cooldown--;
            backoffCount++;
            continue;
        }
        if (rs.attempts >= policy.maxRecompiles) {
            // Budget exhausted: give up on speculation for the whole
            // method. A blacklist change always warrants a rebuild.
            if (blacklistSet.insert(key.first).second)
                decision.blacklistGrew = true;
            continue;
        }
        rs.attempts++;
        // Double the wait before the next attempt on this region:
        // 2 rounds after the first, 4 after the second, ...
        rs.cooldown = 1ull << rs.attempts;
        if (new_overrides) {
            // The adaptive controller found fresh override sites —
            // recompiling has a real chance of curing the storm.
            decision.recompile = true;
        } else {
            // Nothing new to try; the attempt still counts (it moves
            // the region toward the blacklist) but rebuilding an
            // identical module would be wasted work.
            backoffCount++;
        }
    }
    if (decision.blacklistGrew)
        decision.recompile = true;
    return decision;
}

int
ResilienceTracker::roundCap() const
{
    // Full backoff schedule 2 + 4 + ... + 2^(maxRecompiles) plus one
    // action round per attempt, the blacklist round, and slack. The
    // shift is clamped so absurd budgets cannot overflow.
    const int shift = std::min(policy.maxRecompiles + 1, 16);
    return (1 << shift) + policy.maxRecompiles + 4;
}

void
ResilienceTracker::publishTelemetry() const
{
    namespace keys = telemetry::keys;
    auto &reg = telemetry::Registry::global();
    reg.add(keys::kResilienceStorms, stormCount);
    reg.add(keys::kResilienceBackoffs, backoffCount);
    reg.add(keys::kResilienceBlacklisted, blacklistSet.size());
}

namespace {

// splitmix64 finalizer (the codebase's one mixer family; see
// support/failpoint.cc): stateless (seed, ctx, draw) -> jitter.
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

ContentionGovernor::CtxState &
ContentionGovernor::slot(int ctx_id)
{
    const auto idx = static_cast<size_t>(ctx_id);
    if (idx >= ctxs.size())
        ctxs.resize(idx + 1);
    return ctxs[idx];
}

uint64_t
ContentionGovernor::onAbort(int ctx_id, hw::AbortCause cause)
{
    // Only conflicts are contention; capacity/interrupt/explicit
    // aborts have their own remediation (ResilienceTracker) and must
    // not trip backoff.
    if (cause != hw::AbortCause::Conflict)
        return 0;

    CtxState &cs = slot(ctx_id);
    cs.conflictStreak++;
    cs.abortDraws++;

    if (++conflictsSinceCommit == policy.livelockWindow && !staggered) {
        // Mutual-abort livelock: everyone keeps killing everyone and
        // nothing commits. Stagger stalls by context id so the
        // lowest id wins the next race outright; any commit clears
        // the mode.
        staggered = true;
        livelockCount++;
    }

    // Starvation guard: a context the rest of the machine has lapped
    // `fairnessWindow` times retries immediately — backing off the
    // perpetual loser only entrenches the unfairness.
    if (totalCommits - cs.commitsAtOwnCommit >= policy.fairnessWindow) {
        if (!cs.starving) {
            cs.starving = true;
            starvationCount++;
        }
        return 0;
    }

    uint64_t stall;
    if (staggered) {
        stall = policy.baseStall * static_cast<uint64_t>(ctx_id);
    } else {
        const uint64_t shift =
            cs.conflictStreak > 0 ? cs.conflictStreak - 1 : 0;
        stall = shift >= 63 ? policy.maxStall
                            : std::min(policy.maxStall,
                                       policy.baseStall << shift);
        // Jitter in [0, stall): symmetric contexts with identical
        // streaks must not re-collide in lockstep.
        if (stall > 0) {
            stall += mix(policy.seed ^
                         (static_cast<uint64_t>(ctx_id) << 32) ^
                         cs.abortDraws) %
                     stall;
        }
    }
    backoffStepsTotal += stall;
    return stall;
}

void
ContentionGovernor::onCommit(int ctx_id)
{
    CtxState &cs = slot(ctx_id);
    totalCommits++;
    cs.conflictStreak = 0;
    cs.commitsAtOwnCommit = totalCommits;
    cs.starving = false;
    conflictsSinceCommit = 0;
    staggered = false;
}

void
ContentionGovernor::publishTelemetry() const
{
    namespace keys = telemetry::keys;
    auto &reg = telemetry::Registry::global();
    reg.add(keys::kResilienceBackoffSteps, backoffStepsTotal);
    reg.add(keys::kResilienceStarvationBoosts, starvationCount);
    reg.add(keys::kResilienceLivelockBreaks, livelockCount);
}

} // namespace aregion::runtime
