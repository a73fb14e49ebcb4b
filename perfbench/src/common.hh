/**
 * @file
 * Shared pieces of the benchmark binary: the command-line options
 * run.py passes, the flat JSON result every mode prints, and the
 * small statistics the modes report.
 */

#ifndef AREGION_PERFBENCH_COMMON_HH
#define AREGION_PERFBENCH_COMMON_HH

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/** Options shared by every mode (run.py sets them all). */
struct Options
{
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    double rate = 0;        ///< service: one phase at this rate (sweep)
    std::string outDir;     ///< where traces and tables go
};

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** CPU time of a clock: CLOCK_PROCESS_CPUTIME_ID (every thread of
 *  the process) or CLOCK_THREAD_CPUTIME_ID (the calling thread). */
inline uint64_t
cpuNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
           static_cast<uint64_t>(ts.tv_nsec);
}

/** Linear-interpolation quantile (Python's statistics "inclusive"
 *  method); 0 for an empty sample. Infinite samples sort last. */
double quantile(std::vector<double> values, double q);

double median(const std::vector<double> &values);

/**
 * Set-up time in seconds: `fn` runs `builds` times on each hardware
 * thread the process may use, pinned to it; the result is the mean
 * over the threads of each one's median. On a shared 4-vCPU VM the
 * same single-threaded build ran at 120-140 us on two vCPUs and
 * 190-215 us on the other two, steadily, so one process's set-up
 * time depended on where it landed.
 */
template <typename Fn>
double
timeSetup(int builds, Fn &&fn)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof allowed, &allowed);
    std::vector<double> medians;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        std::thread pinned([&] {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            // Unpinned, the timing is still valid, just not per-thread.
            pthread_setaffinity_np(pthread_self(), sizeof one, &one);
            std::vector<double> seconds;
            for (int r = 0; r < builds; ++r) {
                const uint64_t t0 = nowNs();
                fn();
                seconds.push_back(static_cast<double>(nowNs() - t0) / 1e9);
            }
            medians.push_back(median(seconds));
        });
        pinned.join();
    }
    double sum = 0;
    for (const double m : medians)
        sum += m;
    return medians.empty() ? 0.0 : sum / static_cast<double>(medians.size());
}

/**
 * What a mode prints as its last stdout line: named metrics, the
 * attempted/failed tally, problem descriptions, and free-form
 * integer lists (reference-checked outputs) for run.py.
 */
struct Result
{
    std::map<std::string, double> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatches = 0;    ///< failures that are wrong outputs
    std::vector<std::string> problems;
    std::map<std::string, std::vector<uint64_t>> outputs;

    /** A failed operation; `wrong_output` marks an output that
     *  differs from its reference (not just a refused request). */
    void
    fail(const std::string &what, bool wrong_output = true)
    {
        failed++;
        if (wrong_output)
            mismatches++;
        problems.push_back(what);
    }

    std::string toJson() const;
};

void runViewsSetup(const Options &opts, Result &out);
void runViewsTrace(const Options &opts, Result &out);
void runService(const Options &opts, Result &out);

/** Direct-compile checksums of the whole pool: the reference
 *  capture for compile_service. */
void runServiceRefs(const Options &opts, Result &out);
void runContention(const Options &opts, Result &out);

/** One unit of the seed's cells: the reference capture for
 *  contention. */
void runContentionRefs(const Options &opts, Result &out);

} // namespace perfbench

#endif // AREGION_PERFBENCH_COMMON_HH
