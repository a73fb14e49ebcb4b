/**
 * @file
 * Telemetry registry tests: round-trip of counters/gauges/histograms,
 * byte-stable JSON export, zero-cost disabled tracing, agreement
 * between the machine-published `machine.abort.*` counters and
 * RegionRuntime::abortsByCause on a known aborting program, and the
 * runtime half of the docs enforcement triangle (registered keys ⊆
 * catalog ⊆ docs/TELEMETRY.md).
 */

#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "core/compiler.hh"
#include "hw/codegen.hh"
#include "hw/machine.hh"
#include "programs.hh"
#include "runtime/jit.hh"
#include "support/telemetry.hh"
#include "support/telemetry_keys.hh"
#include "vm/interpreter.hh"

namespace {

using namespace aregion;
using namespace aregion::test;
namespace core = aregion::core;
namespace hw = aregion::hw;
namespace rt = aregion::runtime;
namespace telemetry = aregion::telemetry;
namespace keys = aregion::telemetry::keys;

TEST(Registry, CounterGaugeHistogramRoundTrip)
{
    telemetry::Registry reg;
    auto &c = reg.counter("a.count");
    EXPECT_EQ(c, 0u);
    c += 3;
    reg.add("a.count", 2);
    EXPECT_EQ(reg.counterValue("a.count"), 5u);
    EXPECT_EQ(reg.counterValue("never.registered"), 0u);

    reg.set("a.gauge", 1.25);
    reg.set("a.gauge", 2.5);
    EXPECT_DOUBLE_EQ(reg.gaugeValue("a.gauge"), 2.5);

    Histogram &h = reg.histogram("a.hist");
    h.add(10);
    h.add(20, 3);
    EXPECT_EQ(reg.histogram("a.hist").count(), 4u);

    EXPECT_TRUE(reg.has("a.count"));
    EXPECT_TRUE(reg.has("a.gauge"));
    EXPECT_TRUE(reg.has("a.hist"));
    EXPECT_FALSE(reg.has("a.missing"));
    EXPECT_EQ(reg.keys().size(), 3u);
}

TEST(Registry, ResetZeroesInPlaceAndKeepsReferences)
{
    telemetry::Registry reg;
    auto &c = reg.counter("x");
    Histogram &h = reg.histogram("y");
    c = 42;
    h.add(7);
    reg.reset();
    // Values are zeroed but the slots (and cached references) stay.
    EXPECT_EQ(c, 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(reg.has("x"));
    EXPECT_TRUE(reg.has("y"));
    c = 9;                                  // ref still writes through
    EXPECT_EQ(reg.counterValue("x"), 9u);
}

TEST(Registry, JsonExportIsByteStable)
{
    telemetry::Registry reg;
    // Register deliberately out of order; std::map iteration sorts.
    reg.add("z.last", 1);
    reg.add("a.first", 2);
    reg.set("m.gauge", 0.5);
    reg.histogram("h.hist").add(3);

    const std::string once = reg.toJson();
    const std::string twice = reg.toJson();
    EXPECT_EQ(once, twice);
    EXPECT_LT(once.find("\"a.first\""), once.find("\"z.last\""));
    EXPECT_NE(once.find("\"counters\""), std::string::npos);
    EXPECT_NE(once.find("\"gauges\""), std::string::npos);
    EXPECT_NE(once.find("\"histograms\""), std::string::npos);
    EXPECT_NE(once.find("\"spans\""), std::string::npos);
}

TEST(Registry, EmptyHistogramExportsNullNotZero)
{
    telemetry::Registry reg;
    reg.histogram("h.empty");
    reg.histogram("h.full").add(4);

    // A registered-but-never-fed histogram must not masquerade as a
    // series whose minimum is 0.0; the JSON carries nulls and the
    // table says empty.
    const std::string json = reg.toJson();
    EXPECT_NE(json.find("\"h.empty\": {\"count\": 0, "
                        "\"mean\": null, \"min\": null, "
                        "\"max\": null, \"p95\": null}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"h.full\": {\"count\": 1"),
              std::string::npos);
    EXPECT_EQ(json.find("\"h.full\": {\"count\": 1, "
                        "\"mean\": null"),
              std::string::npos);

    const std::string table = reg.toTable();
    EXPECT_NE(table.find("n=0 (empty)"), std::string::npos) << table;
}

TEST(Tracing, DisabledSpansAreNoOps)
{
    telemetry::Registry reg;
    ASSERT_FALSE(reg.tracingEnabled());
    {
        telemetry::ScopedSpan outer("outer", reg);
        telemetry::ScopedSpan inner("inner", reg);
    }
    EXPECT_EQ(reg.spansRecorded(), 0u);
    EXPECT_TRUE(reg.spans().empty());
}

TEST(Tracing, EnabledSpansRecordNesting)
{
    telemetry::Registry reg;
    reg.enableTracing(16);
    {
        telemetry::ScopedSpan outer("outer", reg);
        { telemetry::ScopedSpan inner("inner", reg); }
    }
    reg.disableTracing();
    const auto spans = reg.spans();
    ASSERT_EQ(spans.size(), 2u);
    // Spans close inner-first.
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[0].depth, 1);
    EXPECT_EQ(spans[1].name, "outer");
    EXPECT_EQ(spans[1].depth, 0);
    EXPECT_LE(spans[0].beginUs, spans[0].endUs);
}

TEST(Tracing, RingBufferKeepsNewestSpans)
{
    telemetry::Registry reg;
    reg.enableTracing(4);
    for (int i = 0; i < 10; ++i)
        telemetry::ScopedSpan span("s", reg);
    EXPECT_EQ(reg.spansRecorded(), 10u);
    EXPECT_EQ(reg.spans().size(), 4u);
}

/** The machine-published abort counters must agree with the per-
 *  region cause registers on a program known to abort (interrupts
 *  every 1,000 cycles force Interrupt aborts; Section 3.2). */
TEST(MachineTelemetry, AbortCountersMatchRegionRuntime)
{
    auto &reg = telemetry::Registry::global();
    reg.reset();

    const Program prog = addElementProgram(2000, 256);
    Profile profile(prog);
    {
        Interpreter interp(prog, &profile);
        interp.run();
    }
    core::Compiled compiled = core::compileProgram(
        prog, profile, core::CompilerConfig::atomic());
    vm::Heap layout_heap(prog, 1 << 20);
    const hw::MachineProgram mp = hw::lowerModule(
        compiled.mod, hw::LayoutInfo::fromHeap(layout_heap));

    hw::HwConfig config;
    config.interruptPeriod = 1000;
    hw::Machine machine(mp, config);
    const auto res = machine.run();
    ASSERT_TRUE(res.completed);

    uint64_t by_cause[6] = {0, 0, 0, 0, 0, 0};
    uint64_t total = 0;
    for (const auto &[key, stats] : res.regions) {
        for (int c = 0; c < 6; ++c) {
            by_cause[c] += stats.abortsByCause[c];
            total += stats.abortsByCause[c];
        }
    }
    ASSERT_GT(by_cause[static_cast<int>(hw::AbortCause::Interrupt)],
              0u)
        << "expected interrupt aborts with a 1,000-cycle period";

    for (int c = 0; c < 6; ++c) {
        EXPECT_EQ(reg.counterValue(keys::kMachineAbortByCause[c]),
                  by_cause[c])
            << keys::kMachineAbortByCause[c];
        // Even never-fired causes are registered (schema at zero).
        EXPECT_TRUE(reg.has(keys::kMachineAbortByCause[c]));
    }
    EXPECT_EQ(reg.counterValue(keys::kMachineAbortTotal), total);
    EXPECT_EQ(reg.counterValue(keys::kMachineRegionCommits),
              res.regionCommits);
    EXPECT_EQ(reg.counterValue(keys::kMachineUopsRetired),
              res.retiredUops);
}

/** Regression: compileProgram itself owns the jit.compile_us
 *  aggregate. The bench harnesses call compileProgram directly
 *  (bypassing runExperiment), and the aggregate used to live in a
 *  runtime-layer wrapper — so BENCH_simulator.json exported
 *  jit.compile_us=0 next to non-zero per-pass timers. The aggregate
 *  must cover at least the sum of every per-pass timer it breaks
 *  down into. */
TEST(CompileTelemetry, AggregateCoversPerPassTimers)
{
    auto &reg = telemetry::Registry::global();
    reg.reset();

    const Program prog = addElementProgram(2000, 256);
    Profile profile(prog);
    {
        Interpreter interp(prog, &profile);
        interp.run();
    }
    core::Compiled compiled = core::compileProgram(
        prog, profile, core::CompilerConfig::atomic());
    ASSERT_GT(compiled.stats.totalInstrs, 0);

    const uint64_t total = reg.counterValue(keys::kJitCompileUs);
    uint64_t pass_sum = 0;
    for (const char *key :
         {keys::kJitTranslateUs, keys::kJitRegionUs,
          keys::kJitPassSsaUs, keys::kJitPassSimplifyCfgUs,
          keys::kJitPassSccpUs, keys::kJitPassGvnUs,
          keys::kJitPassDceUs, keys::kJitPassInlineUs,
          keys::kJitPassUnrollUs}) {
        pass_sum += reg.counterValue(key);
    }
    EXPECT_GT(total, 0u) << "direct compileProgram calls must feed "
                            "the jit.compile_us aggregate";
    EXPECT_GE(total, pass_sum)
        << "aggregate compile time cannot be less than the sum of "
           "the translate, region and per-pass timers it decomposes "
           "into";
}

/** Runtime half of the enforcement triangle: after a full pipeline
 *  run every registered key must be in the catalog, and the catalog
 *  must be documented (the docs half is also `ctest -R verify_docs`,
 *  which reports missing keys by name). */
TEST(Catalog, RuntimeKeysAreCataloguedAndDocumented)
{
    auto &reg = telemetry::Registry::global();
    reg.reset();

    const Program prog = addElementProgram(2000, 256);
    rt::ExperimentConfig config;
    config.compiler = core::CompilerConfig::atomic();
    const auto metrics = rt::runExperiment(prog, prog, config);
    ASSERT_TRUE(metrics.completed);

    const auto catalog = keys::catalog();
    const std::set<std::string> catalogued(catalog.begin(),
                                           catalog.end());
    for (const std::string &key : reg.keys()) {
        EXPECT_TRUE(catalogued.count(key))
            << "runtime key not in telemetry_keys.hh catalog: "
            << key;
    }
    // The acceptance-critical keys must actually register.
    EXPECT_TRUE(reg.has(keys::kRegionFormed));
    EXPECT_TRUE(reg.has(keys::kJitPassGvnUs));
    EXPECT_TRUE(reg.has(keys::kTimingCycles));

    std::ifstream docs(AREGION_SOURCE_DIR "/docs/TELEMETRY.md");
    ASSERT_TRUE(docs.good()) << "docs/TELEMETRY.md missing";
    std::ostringstream buf;
    buf << docs.rdbuf();
    const std::string text = buf.str();
    for (const std::string &key : catalog) {
        EXPECT_NE(text.find(key), std::string::npos)
            << "catalog key undocumented in docs/TELEMETRY.md: "
            << key;
    }
}

} // namespace
