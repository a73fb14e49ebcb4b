/**
 * @file
 * contention mode: the three shared-heap workloads at 2/4/8/16/32
 * contexts over many governor seeds, through
 * workloads::contention::runContentionCell with the rollback and
 * bisimulation oracles attached as shipped, fanned out with
 * parallel::runGrid.
 *
 * Workload seed s runs governor seeds kSeedsPerUnit * s + 1 ...
 * kSeedsPerUnit * (s + 1), so two workload seeds never share a cell.
 * The per-cell counts of the default and the held-out workload seed
 * are committed references. One unit is one runGrid over the seed's
 * cells; units repeat for the run's duration and every repetition
 * must reproduce the first one's counts exactly.
 */

#include <tuple>

#include "common.hh"
#include "spans.hh"
#include "support/parallel.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"
#include "workloads/contention/contention.hh"

namespace perfbench {

namespace ct = aregion::workloads::contention;
namespace vm = aregion::vm;

namespace {

constexpr uint64_t kSeedsPerUnit = 48;
constexpr int kSetupBuilds = 25;    ///< per hardware thread
const std::vector<int> kLevels{2, 4, 8, 16, 32};

/** The per-cell counts that must repeat exactly (reference order). */
std::vector<uint64_t>
cellCounts(const ct::CellResult &r)
{
    return {r.regionEntries,       r.regionCommits,
            r.totalAborts,         r.conflictAborts,
            r.allContextUops,      r.backoffSteps,
            r.starvationBoosts,    r.livelockBreaks,
            r.oracleCommitChecks,  r.oracleConflictHeapChecks,
            r.bisimChecks,         r.bisimReplayedUops};
}

using ProgramKey = std::tuple<std::string, int, bool>;

/**
 * The per-(workload, contexts) programs, built once before the timed
 * part; each suite entry is re-exposed with a build() that copies
 * the prebuilt program instead of generating it again.
 */
struct PreparedSuite
{
    std::map<ProgramKey, vm::Program> programs;
    std::vector<ct::ContentionWorkload> workloads;
};

void
prepare(PreparedSuite &suite)
{
    suite.programs.clear();
    suite.workloads.clear();
    for (const ct::ContentionWorkload &w : ct::contentionSuite()) {
        for (const int level : kLevels) {
            for (const bool profile_variant : {true, false}) {
                suite.programs.emplace(
                    ProgramKey{w.name, level, profile_variant},
                    w.build(level, profile_variant));
            }
        }
        ct::ContentionWorkload copy = w;
        const std::map<ProgramKey, vm::Program> *programs =
            &suite.programs;
        copy.build = [programs, name = w.name](int contexts,
                                               bool profile_variant) {
            return programs->at(ProgramKey{name, contexts,
                                           profile_variant});
        };
        suite.workloads.push_back(std::move(copy));
    }
}

/** The governor seeds of one workload seed. */
std::vector<uint64_t>
governorSeeds(uint64_t workload_seed)
{
    std::vector<uint64_t> seeds;
    for (uint64_t i = 1; i <= kSeedsPerUnit; ++i)
        seeds.push_back(kSeedsPerUnit * workload_seed + i);
    return seeds;
}

void
run(const Options &opts, Result &out, const std::vector<uint64_t> &seeds,
    bool single_unit)
{
    SpanRecorder rec(opts.trace);
    // Set-up, timed before the timed part. The run uses the last build.
    PreparedSuite suite;
    const double setup_s = timeSetup(kSetupBuilds, [&] { prepare(suite); });

    std::vector<ct::GridCell> cells;
    for (const uint64_t seed : seeds) {
        for (const int level : kLevels) {
            for (const ct::ContentionWorkload &w : suite.workloads) {
                ct::ContentionRunConfig cfg;
                cfg.contexts = level;
                cfg.seed = seed;
                cells.push_back({&w, cfg});
            }
        }
    }

    auto &registry = aregion::telemetry::Registry::global();
    const uint64_t compile_us0 =
        registry.counterValue(aregion::telemetry::keys::kJitCompileUs);

    std::vector<ct::CellResult> first;
    std::vector<double> unit_s, unit_cpu_s;
    std::map<std::string, std::vector<double>> cell_ms_by_workload;
    uint64_t cell_ns_total = 0, uops_total = 0;
    const uint64_t start = nowNs();
    for (int unit = 0;; ++unit) {
        std::vector<ct::CellResult> results(cells.size());
        std::vector<uint64_t> ns(cells.size());
        const uint64_t u0 = nowNs();
        const uint64_t cpu0 = cpuNs(CLOCK_PROCESS_CPUTIME_ID);
        {
            ScopedSpan unit_span(rec, "contention.unit", unit);
            aregion::parallel::runGrid(cells.size(), [&](size_t i) {
                ScopedSpan s(rec, "contention.cell",
                             static_cast<int64_t>(i));
                const uint64_t c0 = nowNs();
                results[i] = ct::runContentionCell(*cells[i].workload,
                                                   cells[i].cfg);
                ns[i] = nowNs() - c0;
            });
        }
        unit_s.push_back(static_cast<double>(nowNs() - u0) / 1e9);
        unit_cpu_s.push_back(
            static_cast<double>(cpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu0) /
            1e9);

        for (size_t i = 0; i < cells.size(); ++i) {
            const ct::CellResult &r = results[i];
            out.attempted++;
            cell_ms_by_workload[r.workload].push_back(
                static_cast<double>(ns[i]) / 1e6);
            cell_ns_total += ns[i];
            uops_total += r.allContextUops;
            const std::string where =
                r.workload + "@" + std::to_string(r.contexts) +
                " seed " + std::to_string(r.seed);
            if (!r.completed || !r.outputMatches || !r.problems.empty()) {
                out.fail(where + ": " +
                         (r.problems.empty() ? std::string("not completed")
                                             : r.problems.front()));
            } else if (!first.empty() &&
                       cellCounts(r) != cellCounts(first[i])) {
                out.fail(where + ": counts differ from the run's first "
                                 "repetition");
            }
        }
        if (first.empty())
            first = std::move(results);
        if (single_unit ||
            static_cast<double>(nowNs() - start) / 1e9 >= opts.seconds)
            break;
    }

    // Per-cell counts of the first repetition, checked against
    // refs/contention.json by run.py.
    std::vector<uint64_t> &counted = out.outputs["cells"];
    std::vector<uint64_t> &workload_index = out.outputs["workload_index"];
    uint64_t entries = 0, commits = 0, conflicts = 0, bisim_uops = 0,
             checks = 0, backoff = 0, livelock = 0;
    for (const ct::CellResult &r : first) {
        size_t wi = 0;
        while (ct::contentionSuite()[wi].name != r.workload)
            ++wi;
        workload_index.push_back(wi);
        counted.push_back(r.seed);
        counted.push_back(static_cast<uint64_t>(r.contexts));
        const std::vector<uint64_t> counts = cellCounts(r);
        counted.insert(counted.end(), counts.begin(), counts.end());
        entries += r.regionEntries;
        commits += r.regionCommits;
        conflicts += r.conflictAborts;
        bisim_uops += r.bisimReplayedUops;
        checks += r.oracleCommitChecks + r.oracleConflictHeapChecks +
                  r.bisimChecks;
        backoff += r.backoffSteps;
        livelock += r.livelockBreaks;
    }
    auto &m = out.metrics;
    if (!opts.trace) {
        m["setup_s"] = setup_s;
        m["wall_s"] = median(unit_s);
        m["cpu_s"] = median(unit_cpu_s);
        return;
    }
    const uint64_t compile_us =
        registry.counterValue(aregion::telemetry::keys::kJitCompileUs) -
        compile_us0;
    m["contention.ns_per_uop"] =
        uops_total ? static_cast<double>(cell_ns_total) /
                         static_cast<double>(uops_total)
                   : 0.0;
    for (const auto &[name, samples] : cell_ms_by_workload)
        m["contention.cell_ms.p50." + name] = median(samples);
    m["contention.compile_share"] =
        cell_ns_total ? 1e3 * static_cast<double>(compile_us) /
                            static_cast<double>(cell_ns_total)
                      : 0.0;
    m["machine.abort.conflict"] = static_cast<double>(conflicts);
    m["oracle.bisim.uops"] = static_cast<double>(bisim_uops);
    m["contention.oracle_checks"] = static_cast<double>(checks);
    m["runtime.resilience.backoff_steps"] = static_cast<double>(backoff);
    m["runtime.resilience.livelock_breaks"] =
        static_cast<double>(livelock);
    m["commit_share"] = entries ? static_cast<double>(commits) /
                                      static_cast<double>(entries)
                                : 0.0;
    if (!opts.outDir.empty()) {
        if (!rec.writeChromeTrace(opts.outDir + "/contention.trace.json") ||
            !rec.writeSelfTimeTable(opts.outDir +
                                    "/contention.selftime.txt"))
            out.fail("cannot write the trace files under " + opts.outDir);
    }
}

} // namespace

void
runContention(const Options &opts, Result &out)
{
    run(opts, out, governorSeeds(opts.seed), false);
}

void
runContentionRefs(const Options &opts, Result &out)
{
    run(opts, out, governorSeeds(opts.seed), true);
}

} // namespace perfbench
