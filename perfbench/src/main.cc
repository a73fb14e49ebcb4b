/**
 * @file
 * Benchmark binary: one executable, one mode per benchmark stage.
 * run.py (in the directory above) builds it and calls it; every mode
 * prints its result as one JSON object on the last stdout line.
 *
 *   perfbench <mode> [--seed n] [--seconds s] [--trace 0|1]
 *                    [--rate r] [--out dir]
 *
 * Modes:
 *   views-setup      time Workload::build of the paper suite's programs
 *   views-trace      the traced Figure 7 cells (per-layer split)
 *   service          open-loop load on one CompileService; with
 *                    --rate r, one phase at r events/s (rate sweep)
 *   service-refs     direct-compile checksums of the pool (references)
 *   contention       the contention grid over governor seeds
 *   contention-refs  one unit of the seed's cells (references)
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hh"
#include "support/telemetry.hh"

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    if (std::isinf(values[hi]) || lo == hi)
        return values[hi];
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

std::string
Result::toJson() const
{
    using aregion::telemetry::jsonQuote;
    std::ostringstream os;
    os.precision(17);
    os << "{\"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"mismatches\": " << mismatches << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : metrics) {
        os << (first ? "" : ", ") << jsonQuote(name) << ": ";
        if (std::isfinite(value))
            os << value;
        else
            os << "null";
        first = false;
    }
    os << "}, \"problems\": [";
    for (size_t i = 0; i < problems.size(); ++i)
        os << (i ? ", " : "") << jsonQuote(problems[i]);
    os << "], \"outputs\": {";
    first = true;
    for (const auto &[name, values] : outputs) {
        os << (first ? "" : ", ") << jsonQuote(name) << ": [";
        for (size_t i = 0; i < values.size(); ++i)
            os << (i ? ", " : "") << values[i];
        os << "]";
        first = false;
    }
    os << "}}";
    return os.str();
}

} // namespace perfbench

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench <mode> [--seed n] "
                 "[--seconds s] [--trace 0|1] [--rate r] [--out dir]\n"
                 "modes: views-setup views-trace service service-refs "
                 "contention contention-refs\n",
                 why);
    std::exit(2);
}

uint64_t
parseUnsigned(const std::string &flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        usage((flag + ": not a non-negative integer").c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    const std::string mode = argv[1];
    perfbench::Options opts;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        if (arg == "--seed") {
            opts.seed = parseUnsigned(arg, value);
        } else if (arg == "--seconds") {
            opts.seconds = static_cast<double>(parseUnsigned(arg, value));
        } else if (arg == "--trace") {
            opts.trace = parseUnsigned(arg, value) != 0;
        } else if (arg == "--rate") {
            opts.rate = static_cast<double>(parseUnsigned(arg, value));
        } else if (arg == "--out") {
            opts.outDir = value;
        } else {
            usage(("unknown flag " + arg).c_str());
        }
    }

    perfbench::Result result;
    if (mode == "views-setup")
        perfbench::runViewsSetup(opts, result);
    else if (mode == "views-trace")
        perfbench::runViewsTrace(opts, result);
    else if (mode == "service")
        perfbench::runService(opts, result);
    else if (mode == "service-refs")
        perfbench::runServiceRefs(opts, result);
    else if (mode == "contention")
        perfbench::runContention(opts, result);
    else if (mode == "contention-refs")
        perfbench::runContentionRefs(opts, result);
    else
        usage(("unknown mode " + mode).c_str());
    std::cout << result.toJson() << std::endl;
    return result.mismatches ? 1 : 0;
}
