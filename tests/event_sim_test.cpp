// Tests for the event-driven simulator: specifically the simulation
// semantics that differ from synthesis semantics.  The semantic cases
// are typed tests over both instantiations of sim::EventSim: the
// one-lane bv::Value simulator and the packed bv::PackedValue one,
// which runs with every lane driven the same way and must then agree
// lane for lane.
#include <gtest/gtest.h>

#include <type_traits>

#include "elaborate/elaborate.hpp"
#include "sim/event_sim.hpp"
#include "sim/interpreter.hpp"
#include "trace/stimulus.hpp"
#include "verilog/parser.hpp"

using namespace rtlrepair;
using bv::PackedValue;
using bv::Value;
using verilog::parse;

namespace {

/** Lanes of the packed instantiation: several, not a power of two. */
constexpr uint32_t kPackedLanes = 5;

/**
 * One simulator of the instantiation under test over a parsed design.
 * Inputs drive every lane alike; reads check that every lane agrees
 * and return lane 0.
 */
template <typename V>
class Harness
{
  public:
    static constexpr bool kPacked = std::is_same_v<V, PackedValue>;
    static constexpr uint32_t kLanes = kPacked ? kPackedLanes : 1;

    Harness(const char *source, const std::string &clock,
            bool reverse_order = false)
        : _file(parse(source)),
          _sim(_file.top(), {}, clock, kLanes, reverse_order)
    {
    }

    void
    set(const std::string &name, uint32_t width, uint64_t value)
    {
        Value v = Value::fromUint(width, value);
        if constexpr (kPacked)
            _sim.setInput(name, PackedValue::broadcast(v));
        else
            _sim.setInput(name, v);
    }

    Value
    get(const std::string &name) const
    {
        if constexpr (kPacked) {
            const PackedValue &p = _sim.get(name);
            for (uint32_t l = 1; l < kLanes; ++l)
                EXPECT_EQ(p.lane(l), p.lane(0)) << name << " lane " << l;
            return p.lane(0);
        } else {
            return _sim.get(name);
        }
    }

    /** Oscillation in lane 0, after checking every lane agrees. */
    bool
    unstable() const
    {
        uint64_t all = _sim.allLanes();
        uint64_t u = _sim.unstableLanes();
        EXPECT_TRUE(u == 0 || u == all) << "lanes disagree on stability";
        return u != 0;
    }

    sim::EventSim<V> &sim() { return _sim; }

  private:
    verilog::SourceFile _file;
    sim::EventSim<V> _sim;
};

template <typename V>
class EventSim : public ::testing::Test
{
};

using Instantiations = ::testing::Types<Value, PackedValue>;
TYPED_TEST_SUITE(EventSim, Instantiations);

TYPED_TEST(EventSim, CombinationalSettling)
{
    Harness<TypeParam> h(R"(
        module m (input a, input b, output y, output z);
            wire mid;
            assign mid = a & b;
            assign y = mid | a;
            assign z = ~y;
        endmodule
    )", "");
    h.set("a", 1, 1);
    h.set("b", 1, 0);
    h.sim().settleOnly();
    EXPECT_EQ(h.get("y").toUint64(), 1u);
    EXPECT_EQ(h.get("z").toUint64(), 0u);
}

TYPED_TEST(EventSim, RegistersClockAndReset)
{
    Harness<TypeParam> h(R"(
        module m (input clk, input rst, output reg [3:0] q);
            always @(posedge clk) begin
                if (rst) q <= 4'd0;
                else q <= q + 1;
            end
        endmodule
    )", "clk");
    EXPECT_TRUE(h.get("q").hasX()) << "registers power on as X";
    h.set("rst", 1, 1);
    h.sim().step();
    h.set("rst", 1, 0);
    h.sim().step();
    h.sim().step();
    EXPECT_EQ(h.get("q").toUint64(), 2u);
}

TYPED_TEST(EventSim, NonBlockingReadsStaleValues)
{
    // The classic two-register swap only works with <=.
    Harness<TypeParam> h(R"(
        module m (input clk, input load, output reg [3:0] a,
                  output reg [3:0] b);
            always @(posedge clk) begin
                if (load) begin
                    a <= 4'd1;
                    b <= 4'd2;
                end else begin
                    a <= b;
                    b <= a;
                end
            end
        endmodule
    )", "clk");
    h.set("load", 1, 1);
    h.sim().step();
    h.set("load", 1, 0);
    h.sim().step();
    EXPECT_EQ(h.get("a").toUint64(), 2u);
    EXPECT_EQ(h.get("b").toUint64(), 1u);
}

TYPED_TEST(EventSim, IncompleteSensitivityKeepsStaleValue)
{
    // Synthesis would treat this as full combinational logic; event
    // simulation must hold the stale value when b changes alone.
    Harness<TypeParam> h(R"(
        module m (input a, input b, output reg y);
            always @(a) y = a & b;
        endmodule
    )", "");
    h.set("a", 1, 1);
    h.set("b", 1, 1);
    h.sim().settleOnly();
    EXPECT_EQ(h.get("y").toUint64(), 1u);
    // b drops, but the process is not sensitive to b.
    h.set("b", 1, 0);
    h.sim().settleOnly();
    EXPECT_EQ(h.get("y").toUint64(), 1u) << "stale value held";
    // A change of a re-evaluates.
    h.set("a", 1, 0);
    h.sim().settleOnly();
    EXPECT_EQ(h.get("y").toUint64(), 0u);
}

TYPED_TEST(EventSim, DoubleEdgeSensitivityShiftsTwice)
{
    // The shift_k1 shape: posedge or negedge triggers twice per cycle
    // in simulation but synthesizes like a normal rising-edge FF.
    Harness<TypeParam> h(R"(
        module m (input clk, input rst, output reg [7:0] q);
            always @(posedge clk or negedge clk) begin
                if (rst) q <= 8'd1;
                else q <= {q[6:0], q[7]};
            end
        endmodule
    )", "clk");
    h.set("rst", 1, 1);
    h.sim().step();
    h.set("rst", 1, 0);
    h.sim().step();  // falling + rising edge: rotates twice
    EXPECT_EQ(h.get("q").toUint64(), 4u);
}

TYPED_TEST(EventSim, IfWithXConditionTakesElse)
{
    Harness<TypeParam> h(R"(
        module m (input go, output reg [1:0] y);
            reg flag;  // never assigned: stays X
            always @(*) begin
                if (flag) y = 2'd1;
                else y = 2'd2;
            end
        endmodule
    )", "");
    h.set("go", 1, 1);
    h.sim().settleOnly();
    EXPECT_EQ(h.get("y").toUint64(), 2u);
}

TYPED_TEST(EventSim, CaseZWildcards)
{
    Harness<TypeParam> h(R"(
        module m (input [3:0] s, output reg [1:0] y);
            always @(*) begin
                casez (s)
                    4'b1???: y = 2'd3;
                    4'b01??: y = 2'd2;
                    default: y = 2'd0;
                endcase
            end
        endmodule
    )", "");
    h.set("s", 4, 0b1010);
    h.sim().settleOnly();
    EXPECT_EQ(h.get("y").toUint64(), 3u);
    h.set("s", 4, 0b0110);
    h.sim().settleOnly();
    EXPECT_EQ(h.get("y").toUint64(), 2u);
    h.set("s", 4, 0b0010);
    h.sim().settleOnly();
    EXPECT_EQ(h.get("y").toUint64(), 0u);
}

TYPED_TEST(EventSim, OscillationIsDetected)
{
    // A 4-state fixpoint at X is *stable*; a concrete oscillation
    // needs a known seed first.
    Harness<TypeParam> h(R"(
        module m (input en, output y);
            wire p;
            assign p = en ? ~p : 1'b0;
            assign y = p;
        endmodule
    )", "");
    h.set("en", 1, 0);
    h.sim().settleOnly();
    EXPECT_FALSE(h.unstable());
    EXPECT_EQ(h.get("p").toUint64(), 0u);
    h.set("en", 1, 1);
    h.sim().settleOnly();
    EXPECT_TRUE(h.unstable());
}

TYPED_TEST(EventSim, ReverseOrderExposesRacyProcesses)
{
    // Two clocked processes with blocking writes race on the edge:
    // in declaration order b copies the *new* a, in reverse order the
    // old one.
    const char *src = R"(
        module m (input clk, input rst, output reg [3:0] a,
                  output reg [3:0] b);
            always @(posedge clk) if (rst) a = 4'd0; else a = b + 1;
            always @(posedge clk) if (rst) b = 4'd0; else b = a;
        endmodule
    )";
    for (bool reverse : {false, true}) {
        SCOPED_TRACE(reverse ? "reverse" : "forward");
        Harness<TypeParam> h(src, "clk", reverse);
        h.set("rst", 1, 1);
        h.sim().step();
        h.set("rst", 1, 0);
        h.sim().step();
        EXPECT_EQ(h.get("a").toUint64(), 1u);
        EXPECT_EQ(h.get("b").toUint64(), reverse ? 0u : 1u);
    }
}

/** Record @p stim on the instantiation under test (the packed one
 *  through the batch driver, every lane the same stimulus). */
template <typename V>
trace::IoTrace
recordOn(const verilog::Module &mod, const trace::InputSequence &stim)
{
    if constexpr (std::is_same_v<V, PackedValue>) {
        std::vector<const trace::InputSequence *> stims(kPackedLanes,
                                                        &stim);
        std::vector<trace::IoTrace> out =
            sim::recordTraceBatch(mod, {}, "clk", stims);
        for (const auto &io : out)
            EXPECT_EQ(io.toCsv(), out[0].toCsv());
        return out[0];
    } else {
        return sim::eventRecord(mod, {}, "clk", stim);
    }
}

/** Replay @p io on the instantiation under test. */
template <typename V>
sim::ReplayResult
replayOn(const verilog::Module &mod, const trace::IoTrace &io)
{
    if constexpr (std::is_same_v<V, PackedValue>) {
        std::vector<const trace::IoTrace *> traces(kPackedLanes, &io);
        std::vector<sim::ReplayResult> out =
            sim::replayTraceBatch(mod, {}, "clk", traces);
        for (const auto &r : out) {
            EXPECT_EQ(r.passed, out[0].passed);
            EXPECT_EQ(r.first_failure, out[0].first_failure);
        }
        return out[0];
    } else {
        return sim::eventReplay(mod, {}, "clk", io);
    }
}

TYPED_TEST(EventSim, RecordAndReplayAgree)
{
    auto file = parse(R"(
        module m (input clk, input rst, input [3:0] d,
                  output reg [3:0] q);
            always @(posedge clk) begin
                if (rst) q <= 4'd0;
                else q <= d;
            end
        endmodule
    )");
    trace::StimulusBuilder sb({{"rst", 1}, {"d", 4}});
    sb.set("rst", 1).set("d", 0).step(2);
    sb.set("rst", 0).set("d", 9).step(3);
    trace::IoTrace io = recordOn<TypeParam>(file.top(), sb.finish());
    EXPECT_EQ(io.length(), 5u);
    EXPECT_EQ(io.output_rows.back()[0].toUint64(), 9u);
    EXPECT_TRUE(replayOn<TypeParam>(file.top(), io).passed);

    io.output_rows[3][0] = Value::fromUint(4, 3);
    sim::ReplayResult bad = replayOn<TypeParam>(file.top(), io);
    EXPECT_FALSE(bad.passed);
    EXPECT_EQ(bad.first_failure, 3u);
    EXPECT_EQ(bad.failed_output, "q");
}

// A concatenated target whose parts are selects: each part is as wide
// as its select, and the non-blocking form queues each part like an
// ordinary select write.
const char *kConcatSelects = R"(
    module m (input clk, input rst, input [5:0] d,
              output [7:0] qa, output qb, output [7:0] qc,
              output qe);
        reg [7:0] a;
        reg b;
        reg [7:0] c;
        reg e;
        always @(posedge clk) begin
            if (rst) begin
                a <= 8'd0;
                b <= 1'b0;
            end else begin
                {a[3:0], b} <= d[4:0];
            end
        end
        always @(posedge clk) begin
            if (rst) begin
                c = 8'd0;
                e = 1'b0;
            end else begin
                {c[7], c[4:1], e} = d;
            end
        end
        assign qa = a;
        assign qb = b;
        assign qc = c;
        assign qe = e;
    endmodule
)";

trace::InputSequence
concatStimulus(uint64_t seed)
{
    trace::StimulusBuilder sb({{"rst", 1}, {"d", 6}});
    sb.set("rst", 1).set("d", 0).step(1);
    for (uint64_t i = 0; i < 8; ++i)
        sb.set("rst", 0).set("d", (seed * 7 + i * 13) & 63).step(1);
    return sb.finish();
}

TEST(EventSimConcatTarget, SelectPartsMatchInterpreter)
{
    auto file = parse(kConcatSelects);
    ir::TransitionSystem sys = elaborate::elaborate(file.top());
    trace::InputSequence stim = concatStimulus(1);
    trace::IoTrace ir_trace = sim::record(sys, stim);
    trace::IoTrace ev_trace =
        sim::eventRecord(file.top(), {}, "clk", stim);
    ASSERT_EQ(ev_trace.length(), ir_trace.length());
    EXPECT_EQ(ev_trace.toCsv(), ir_trace.toCsv());
    EXPECT_TRUE(sim::eventReplay(file.top(), {}, "clk", ir_trace).passed);

    sim::EventSimulator es(file.top(), {}, "clk");
    es.setInput("rst", Value::fromUint(1, 1));
    es.step();
    es.setInput("rst", Value::fromUint(1, 0));
    es.setInput("d", Value::fromUint(6, 0b110111));
    es.step();
    EXPECT_EQ(es.get("a").width(), 8u) << "a keeps its declared width";
    EXPECT_EQ(es.get("a").toUint64(), 0b00001011u);
    EXPECT_EQ(es.get("b").toUint64(), 1u);
    EXPECT_EQ(es.get("c").toUint64(), 0b10010110u);
    EXPECT_EQ(es.get("e").toUint64(), 1u);
}

TEST(EventSimConcatTarget, PackedLanesMatchOneLaneRuns)
{
    auto file = parse(kConcatSelects);
    constexpr uint32_t kLanes = 4;
    std::vector<trace::InputSequence> stims;
    for (uint64_t l = 0; l < kLanes; ++l)
        stims.push_back(concatStimulus(l + 2));

    // Driven directly, so a fallback to the one-lane simulator cannot
    // hide a divergence.
    sim::VecEventSimulator vec(file.top(), {}, "clk", kLanes);
    for (size_t cycle = 0; cycle < stims[0].length(); ++cycle) {
        for (size_t i = 0; i < stims[0].inputs.size(); ++i) {
            std::vector<Value> vals;
            for (const auto &s : stims)
                vals.push_back(s.rows[cycle][i]);
            vec.setInput(stims[0].inputs[i].name,
                         PackedValue::pack(vals, vals[0].width()));
        }
        vec.step();
    }
    for (uint32_t l = 0; l < kLanes; ++l) {
        SCOPED_TRACE("lane " + std::to_string(l));
        sim::EventSimulator one(file.top(), {}, "clk");
        for (size_t cycle = 0; cycle < stims[l].length(); ++cycle) {
            for (size_t i = 0; i < stims[l].inputs.size(); ++i) {
                one.setInput(stims[l].inputs[i].name,
                             stims[l].rows[cycle][i]);
            }
            one.step();
        }
        for (const char *name : {"a", "b", "c", "e"})
            EXPECT_EQ(vec.get(name).lane(l), one.get(name)) << name;
    }
    EXPECT_EQ(vec.unstableLanes(), 0u);
}

} // namespace
