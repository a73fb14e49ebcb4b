/**
 * @file
 * paper_views modes. The six view binaries themselves run as
 * subprocesses of run.py; this file holds the two in-process parts:
 *
 *  - views-setup: times Workload::build of the suite's 14 programs
 *    (profile + measurement input per analog).
 *  - views-trace: the Figure 7 grid (7 analogs x paperConfigs() plus
 *    jython's grey bar, 29 cells) run serially through the staged
 *    calls vm::Interpreter::run -> core::compileProgram ->
 *    hw::lowerModule -> hw::Machine::run, with a forwarding
 *    TraceSink that times every call into hw::TimingModel. Each
 *    cell is also run functional-only (no sink) and through
 *    runtime::runExperiment; the staged cycles, retired uops and
 *    output checksum must equal runExperiment's.
 */

#include <cmath>

#include "bench_common.hh"
#include "common.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "hw/timing.hh"
#include "spans.hh"
#include "vm/interpreter.hh"

namespace perfbench {

namespace bench = aregion::bench;
namespace core = aregion::core;
namespace hw = aregion::hw;
namespace rt = aregion::runtime;
namespace vm = aregion::vm;

namespace {

constexpr int kSetupBuilds = 51;   ///< per hardware thread

/** Forwards every trace call to the timing model and times it as a
 *  child span of the machine span that is open on this thread. */
class TimedSink : public hw::TraceSink
{
  public:
    TimedSink(hw::TimingModel &model, SpanRecorder &rec)
        : inner(model), recorder(rec)
    {
    }

    void
    uop(const hw::TraceUop &u) override
    {
        ScopedSpan s(recorder, "hw.timing");
        inner.uop(u);
    }

    void
    uopBatch(const hw::TraceUop *u, size_t n) override
    {
        ScopedSpan s(recorder, "hw.timing");
        inner.uopBatch(u, n);
    }

    void
    abortFlush(const hw::AbortEvent &event) override
    {
        ScopedSpan s(recorder, "hw.timing");
        inner.abortFlush(event);
    }

    void
    marker(int64_t id) override
    {
        ScopedSpan s(recorder, "hw.timing");
        inner.marker(id);
    }

  private:
    hw::TimingModel &inner;
    SpanRecorder &recorder;
};

/** One Figure 7 cell. */
struct Cell
{
    size_t workload;
    core::CompilerConfig compiler;
};

} // namespace

void
runViewsSetup(const Options &, Result &out)
{
    out.metrics["setup_s"] = timeSetup(kSetupBuilds, [] {
        bench::buildPrograms(bench::suitePointers());
    });
}

void
runViewsTrace(const Options &opts, Result &out)
{
    SpanRecorder rec(true);
    const std::vector<bench::BuiltWorkload> built =
        bench::buildPrograms(bench::suitePointers());
    std::vector<Cell> cells;
    for (size_t wi = 0; wi < built.size(); ++wi) {
        const bool grey = built[wi].workload->name == "jython";
        for (const core::CompilerConfig &cc : bench::paperConfigs(grey))
            cells.push_back({wi, cc});
    }

    uint64_t bytecodes = 0, instrs = 0, machine_uops = 0,
             timing_uops = 0, functional_uops = 0, cycles = 0,
             retired = 0, commits = 0, entries = 0;
    uint64_t functional_ns = 0, traced_ns = 0, untraced_ns = 0;
    std::map<std::string, std::map<std::string, rt::RunMetrics>> runs;

    for (size_t ci = 0; ci < cells.size(); ++ci) {
        const Cell &cell = cells[ci];
        const bench::BuiltWorkload &b = built[cell.workload];
        rt::ExperimentConfig config;
        config.compiler = cell.compiler;
        config.timing = hw::TimingConfig::baseline();
        const std::string where = b.workload->name + "/" +
                                  cell.compiler.name;
        out.attempted++;

        // Staged, traced.
        const uint64_t t0 = nowNs();
        hw::MachineProgram mp;
        hw::MachineResult staged;
        uint64_t staged_cycles = 0;
        {
            ScopedSpan cell_span(rec, "cell", static_cast<int64_t>(ci));
            vm::Profile profile(b.profile);
            {
                ScopedSpan s(rec, "vm.profile", static_cast<int64_t>(ci));
                vm::Interpreter interp(b.profile, &profile);
                bytecodes += interp.run().instructions;
            }
            core::Compiled compiled;
            {
                ScopedSpan s(rec, "compile", static_cast<int64_t>(ci));
                compiled = core::compileProgram(b.measure, profile,
                                                config.compiler);
                instrs += static_cast<uint64_t>(
                    compiled.stats.totalInstrs);
            }
            {
                ScopedSpan s(rec, "hw.codegen", static_cast<int64_t>(ci));
                vm::Heap layout_heap(b.measure, 1 << 16);
                mp = hw::lowerModule(
                    compiled.mod, hw::LayoutInfo::fromHeap(layout_heap));
            }
            {
                ScopedSpan s(rec, "hw.machine", static_cast<int64_t>(ci));
                hw::TimingModel timing(config.timing);
                TimedSink sink(timing, rec);
                hw::Machine machine(mp, config.hw, &sink);
                staged = machine.run();
                staged_cycles = timing.cycles();
                timing_uops += timing.uopCount;
            }
        }
        traced_ns += nowNs() - t0;
        machine_uops += staged.executedUops;

        // Functional only: the same machine program, no sink.
        {
            ScopedSpan s(rec, "hw.machine.functional_only",
                         static_cast<int64_t>(ci));
            const uint64_t f0 = nowNs();
            hw::Machine machine(mp, config.hw, nullptr);
            const hw::MachineResult functional = machine.run();
            functional_ns += nowNs() - f0;
            functional_uops += functional.executedUops;
            if (functional.executedUops != staged.executedUops ||
                functional.outputChecksum() != staged.outputChecksum())
                out.fail(where + ": functional-only run differs from "
                                 "the traced run");
        }

        // The views' own entry point on the same cell.
        rt::RunMetrics metrics;
        {
            ScopedSpan s(rec, "runtime.jit", static_cast<int64_t>(ci));
            const uint64_t u0 = nowNs();
            metrics = rt::runExperiment(b.profile, b.measure, config,
                                        b.workload->samples);
            untraced_ns += nowNs() - u0;
        }
        if (!staged.completed || !metrics.completed ||
            staged_cycles != metrics.cycles ||
            staged.retiredUops != metrics.retiredUops ||
            staged.outputChecksum() != metrics.outputChecksum) {
            out.fail(where + ": staged calls differ from runExperiment "
                             "(cycles " + std::to_string(staged_cycles) +
                     " vs " + std::to_string(metrics.cycles) +
                     ", retired " + std::to_string(staged.retiredUops) +
                     " vs " + std::to_string(metrics.retiredUops) + ")");
        }
        cycles += staged_cycles;
        retired += staged.retiredUops;
        commits += staged.regionCommits;
        entries += staged.regionEntries;
        out.outputs["fig7_cells"].push_back(staged_cycles);
        out.outputs["fig7_cells"].push_back(staged.retiredUops);
        out.outputs["fig7_cells"].push_back(staged.outputChecksum());
        runs[b.workload->name].emplace(cell.compiler.name,
                                       std::move(metrics));
    }

    // Figure 7 error against the published speedups: 7 analogs x 3
    // configurations plus jython's grey bar (paper: 10%).
    double err_sum = 0;
    int err_cells = 0;
    for (const auto &[name, by_config] : runs) {
        const rt::RunMetrics &base = by_config.at("no-atomic");
        for (const auto &[config, paper] : bench::paperFigure7().at(name)) {
            err_sum += std::fabs(
                bench::speedupPct(base, by_config.at(config)) - paper);
            err_cells++;
        }
        if (name == "jython") {
            err_sum += std::fabs(
                bench::speedupPct(base,
                                  by_config.at("atomic+forced-mono")) -
                10.0);
            err_cells++;
        }
    }

    const std::map<std::string, LayerTime> layers = rec.layerTimes();
    auto total = [&](const char *name) {
        auto it = layers.find(name);
        return it == layers.end() ? 0.0
                                  : static_cast<double>(it->second.totalNs);
    };
    auto self = [&](const char *name) {
        auto it = layers.find(name);
        return it == layers.end() ? 0.0
                                  : static_cast<double>(it->second.selfNs);
    };
    auto per = [](double num, uint64_t den) {
        return den ? num / static_cast<double>(den) : 0.0;
    };
    auto &m = out.metrics;
    m["vm.ns_per_bytecode"] = per(total("vm.profile"), bytecodes);
    m["compile.us_per_instr"] = per(total("compile") / 1e3, instrs);
    m["hw.codegen.lower_ms"] = total("hw.codegen") / 1e6;
    m["hw.machine.ns_per_uop"] = per(self("hw.machine"), machine_uops);
    m["hw.timing.ns_per_uop"] = per(total("hw.timing"), timing_uops);
    m["hw.timing.share"] =
        total("hw.machine") > 0 ? total("hw.timing") / total("hw.machine")
                                : 0.0;
    m["hw.machine.functional_only.ns_per_uop"] =
        per(static_cast<double>(functional_ns), functional_uops);
    m["trace.overhead_share"] =
        untraced_ns ? (static_cast<double>(traced_ns) -
                       static_cast<double>(untraced_ns)) /
                          static_cast<double>(untraced_ns)
                    : 0.0;
    m["fig7_err_pp"] = err_cells ? err_sum / err_cells : 0.0;
    m["timing.cycles"] = static_cast<double>(cycles);
    m["timing.ipc"] = cycles ? static_cast<double>(retired) /
                                   static_cast<double>(cycles)
                             : 0.0;
    m["machine.region.commits"] = static_cast<double>(commits);
    m["commit_share"] = entries ? static_cast<double>(commits) /
                                      static_cast<double>(entries)
                                : 0.0;

    if (!opts.outDir.empty()) {
        if (!rec.writeChromeTrace(opts.outDir + "/paper_views.trace.json") ||
            !rec.writeSelfTimeTable(opts.outDir +
                                    "/paper_views.selftime.txt"))
            out.fail("cannot write the trace files under " + opts.outDir);
    }
}

} // namespace perfbench
