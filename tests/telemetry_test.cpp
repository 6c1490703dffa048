// The telemetry subsystem's contracts: inert when disabled, correct
// counter/gauge/span recording when enabled, span nesting across the
// thread pool's task boundary, ring-buffer overflow accounting,
// byte-exact exporter output, and deterministic counters that are
// identical for jobs=1 and jobs=4 on the same benchmark.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "benchmarks/registry.hpp"
#include "repair/driver.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

using namespace rtlrepair;

namespace {

/** Every test starts from a clean, disabled registry and restores
 *  that state on exit (other suites must not see telemetry on). */
class TelemetryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        telemetry::setEnabled(false);
        telemetry::setEventCapacity(1 << 16);
        telemetry::reset();
    }

    void
    TearDown() override
    {
        telemetry::setEnabled(false);
        telemetry::setEventCapacity(1 << 16);
        telemetry::reset();
    }
};

uint64_t
counterValue(const std::string &name, telemetry::MetricKind kind)
{
    for (const auto &[n, v] : telemetry::counterValues(kind)) {
        if (n == name)
            return v;
    }
    return 0;
}

TEST_F(TelemetryTest, DisabledModeRecordsNothing)
{
    ASSERT_FALSE(telemetry::enabled());
    telemetry::Counter &c = telemetry::counter("test.disabled");
    telemetry::Gauge &g =
        telemetry::gauge("test.disabled_gauge",
                         telemetry::MetricKind::Deterministic);
    c.add(5);
    g.record(7);
    {
        telemetry::Span outer("outer");
        telemetry::Span inner("inner");
    }
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0u);
    EXPECT_TRUE(telemetry::events().empty());
    EXPECT_EQ(telemetry::eventsDropped(), 0u);
}

TEST_F(TelemetryTest, CountersAndGauges)
{
    telemetry::setEnabled(true);
    telemetry::Counter &c = telemetry::counter("test.counter");
    telemetry::Gauge &g = telemetry::gauge("test.gauge");
    c.add();
    c.add(9);
    g.record(4);
    g.record(10);
    g.record(6);  // below the high-water mark: ignored
    EXPECT_EQ(c.value(), 10u);
    EXPECT_EQ(g.value(), 10u);
    EXPECT_EQ(counterValue("test.counter",
                           telemetry::MetricKind::Deterministic),
              10u);
    telemetry::reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0u);
}

TEST_F(TelemetryTest, SpanNestingSingleThread)
{
    telemetry::setEnabled(true);
    {
        telemetry::Span outer("outer");
        uint64_t outer_id = telemetry::Span::currentId();
        EXPECT_NE(outer_id, 0u);
        {
            telemetry::Span inner("inner");
            EXPECT_NE(telemetry::Span::currentId(), outer_id);
        }
        EXPECT_EQ(telemetry::Span::currentId(), outer_id);
    }
    EXPECT_EQ(telemetry::Span::currentId(), 0u);

    auto evs = telemetry::events();
    ASSERT_EQ(evs.size(), 2u);  // inner finishes first
    EXPECT_EQ(evs[0].name, "inner");
    EXPECT_EQ(evs[1].name, "outer");
    EXPECT_EQ(evs[0].parent, evs[1].id);
    EXPECT_EQ(evs[1].parent, 0u);
}

TEST_F(TelemetryTest, SpanNestingAcrossPoolThreads)
{
    telemetry::setEnabled(true);
    {
        telemetry::Span task_span("submit-side");
        uint64_t parent = telemetry::Span::currentId();
        ThreadPool pool(2);
        auto fut = pool.submit([parent]() {
            telemetry::SpanParent adopt(parent);
            telemetry::Span span("pool-side");
        });
        // Plain get() (not waitCollect) so the submitting thread does
        // not help-run the job itself: the span must really record on
        // a worker thread.
        fut.get();
    }
    auto evs = telemetry::events();
    ASSERT_EQ(evs.size(), 2u);
    const telemetry::SpanEvent &pool_side = evs[0];
    const telemetry::SpanEvent &submit_side = evs[1];
    EXPECT_EQ(pool_side.name, "pool-side");
    EXPECT_EQ(submit_side.name, "submit-side");
    // The adopted parent stitches the cross-thread edge...
    EXPECT_EQ(pool_side.parent, submit_side.id);
    // ...even though the span really ran on a different thread.
    EXPECT_NE(pool_side.tid, submit_side.tid);
}

TEST_F(TelemetryTest, RingOverflowCountsDrops)
{
    telemetry::setEnabled(true);
    telemetry::setEventCapacity(4);
    for (int i = 0; i < 10; ++i)
        telemetry::Span span("s");
    EXPECT_EQ(telemetry::events().size(), 4u);
    EXPECT_EQ(telemetry::eventsDropped(), 6u);
    // Oldest events were overwritten: the survivors are the last 4.
    auto evs = telemetry::events();
    EXPECT_EQ(evs.front().id + 3, evs.back().id);
}

/** Fixed event list for the byte-exact exporter tests. */
void
emitGoldenEvents()
{
    telemetry::SpanEvent a;
    a.name = "repair";
    a.id = 1;
    a.parent = 0;
    a.tid = 1;
    a.start_us = 100;
    a.dur_us = 500;
    telemetry::SpanEvent b;
    b.name = "sat.solve";
    b.id = 2;
    b.parent = 1;
    b.tid = 2;
    b.start_us = 150;
    b.dur_us = 300;
    telemetry::debugEmit(a);
    telemetry::debugEmit(b);
}

TEST_F(TelemetryTest, NdjsonGolden)
{
    telemetry::setEnabled(true);
    emitGoldenEvents();
    telemetry::counter("golden.counter").add(3);
    std::ostringstream os;
    telemetry::writeNdjson(os);
    EXPECT_EQ(os.str(),
              "{\"type\":\"span\",\"name\":\"repair\",\"id\":1,"
              "\"parent\":0,\"tid\":1,\"ts_us\":100,\"dur_us\":500}\n"
              "{\"type\":\"span\",\"name\":\"sat.solve\",\"id\":2,"
              "\"parent\":1,\"tid\":2,\"ts_us\":150,\"dur_us\":300}\n"
              "{\"type\":\"counter\",\"name\":\"golden.counter\","
              "\"value\":3,\"deterministic\":true}\n");
}

TEST_F(TelemetryTest, PerfettoGolden)
{
    telemetry::setEnabled(true);
    emitGoldenEvents();
    std::ostringstream os;
    telemetry::writePerfetto(os);
    EXPECT_EQ(os.str(),
              "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
              "{\"name\":\"repair\",\"cat\":\"rtlrepair\",\"ph\":\"X\","
              "\"ts\":100,\"dur\":500,\"pid\":1,\"tid\":1,"
              "\"args\":{\"id\":1,\"parent\":0}},\n"
              "{\"name\":\"sat.solve\",\"cat\":\"rtlrepair\","
              "\"ph\":\"X\",\"ts\":150,\"dur\":300,\"pid\":1,"
              "\"tid\":2,\"args\":{\"id\":2,\"parent\":1}}\n"
              "]}\n");
}

TEST_F(TelemetryTest, MetricsJsonGolden)
{
    telemetry::setEnabled(true);
    emitGoldenEvents();
    telemetry::counter("golden.counter").add(3);
    telemetry::counter("golden.unstable",
                       telemetry::MetricKind::Unstable)
        .add(7);
    std::ostringstream os;
    telemetry::writeMetricsJson(os);
    EXPECT_EQ(os.str(),
              "{\n"
              "  \"schema\": \"rtlrepair-metrics-v1\",\n"
              "  \"counters\": {\n"
              "    \"golden.counter\": 3\n"
              "  },\n"
              "  \"counters_unstable\": {\n"
              "    \"golden.unstable\": 7\n"
              "  },\n"
              "  \"spans\": {\n"
              "    \"repair\": {\"count\": 1, \"total_us\": 500},\n"
              "    \"sat.solve\": {\"count\": 1, \"total_us\": 300}\n"
              "  },\n"
              "  \"events_dropped\": 0\n"
              "}\n");
}

/** End-to-end: running the repair driver with telemetry on populates
 *  spans and solver counters, and the deterministic group is
 *  identical for jobs=1 and jobs=4. */
TEST_F(TelemetryTest, DeterministicCountersAcrossJobs)
{
    const benchmarks::LoadedBenchmark &lb =
        benchmarks::load("counter_k1");
    auto run = [&](unsigned jobs) {
        telemetry::reset();
        repair::RepairConfig config;
        config.timeout_seconds = 60.0;
        config.x_policy = lb.def->x_policy;
        config.jobs = jobs;
        repair::RepairOutcome outcome = repair::repairDesign(
            *lb.buggy, lb.buggy_lib, lb.tb, config);
        EXPECT_EQ(outcome.status,
                  repair::RepairOutcome::Status::Repaired);
        return telemetry::counterValues(
            telemetry::MetricKind::Deterministic);
    };
    telemetry::setEnabled(true);
    auto serial = run(1);
    auto parallel = run(4);
    EXPECT_EQ(serial, parallel);
    // The run did real solver work and the counters saw it.
    EXPECT_GT(counterValue("sat.conflicts",
                           telemetry::MetricKind::Deterministic),
              0u);
    EXPECT_GT(counterValue("window.solves",
                           telemetry::MetricKind::Deterministic),
              0u);
    // Spans cover the pipeline stages.
    bool saw_repair = false, saw_solve = false, saw_window = false;
    for (const auto &e : telemetry::events()) {
        saw_repair |= e.name == "repair";
        saw_solve |= e.name == "sat.solve";
        saw_window |= e.name == "window.solve" ||
                      e.name.rfind("solve:", 0) == 0;
    }
    EXPECT_TRUE(saw_repair);
    EXPECT_TRUE(saw_solve);
    EXPECT_TRUE(saw_window);
}

/** Concrete simulation inside the engine is attributed: a traced
 *  counter_k1 repair records candidate/baseline replay (sim.replay)
 *  and prefix simulation (sim.prefix) spans nested under `repair`. */
TEST_F(TelemetryTest, SimulationSpansNestUnderRepair)
{
    const benchmarks::LoadedBenchmark &lb =
        benchmarks::load("counter_k1");
    telemetry::setEnabled(true);
    repair::RepairConfig config;
    config.timeout_seconds = 60.0;
    config.x_policy = lb.def->x_policy;
    repair::RepairOutcome outcome =
        repair::repairDesign(*lb.buggy, lb.buggy_lib, lb.tb, config);
    EXPECT_EQ(outcome.status, repair::RepairOutcome::Status::Repaired);

    std::vector<telemetry::SpanEvent> evs = telemetry::events();
    std::map<uint64_t, const telemetry::SpanEvent *> by_id;
    for (const auto &e : evs)
        by_id[e.id] = &e;
    auto under_repair = [&](const telemetry::SpanEvent &e) {
        for (uint64_t p = e.parent; p != 0;) {
            auto it = by_id.find(p);
            if (it == by_id.end())
                return false;
            if (it->second->name == "repair")
                return true;
            p = it->second->parent;
        }
        return false;
    };
    bool saw_replay = false, saw_prefix = false;
    for (const auto &e : evs) {
        saw_replay |= e.name == "sim.replay" && under_repair(e);
        saw_prefix |= e.name == "sim.prefix" && under_repair(e);
    }
    EXPECT_TRUE(saw_replay);
    EXPECT_TRUE(saw_prefix);
}

} // namespace
