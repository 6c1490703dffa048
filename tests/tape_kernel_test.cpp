// Property tests for the tape kernels: every operator NodeKind, run as
// a one-node tape on both layouts, against the bv::Value reference
// (itself checked against a naive per-bit model in
// bv_value_property_test).
//
// Operands are synthesis variables, so each of the 64 packed lanes
// gets operands of its own; lane L must equal the scalar result on
// lane L's operands.  Widths cover the word boundaries (1, 3, 63, 64,
// 65, 130); the packed layout runs every system whose nets are all at
// most 64 bits wide.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bv/packed_value.hpp"
#include "sim/interpreter.hpp"
#include "sim/vec_sim.hpp"
#include "util/rng.hpp"

using namespace rtlrepair;
using bv::Value;
using ir::NodeKind;

namespace {

const uint32_t kWidths[] = {1, 3, 63, 64, 65, 130};

/** One operator node over synthesis-variable operands. */
struct OneNode
{
    NodeKind kind;
    std::vector<uint32_t> operand_widths;
    uint32_t width;
    uint32_t msb = 0, lsb = 0;  ///< Slice bounds
};

ir::TransitionSystem
buildSystem(const OneNode &spec)
{
    ir::TransitionSystem sys;
    sys.name = ir::nodeKindName(spec.kind);
    ir::Node op;
    op.kind = spec.kind;
    op.width = spec.width;
    op.a = spec.msb;
    op.b = spec.lsb;
    for (size_t i = 0; i < spec.operand_widths.size(); ++i) {
        ir::Node leaf;
        leaf.kind = NodeKind::SynthVar;
        leaf.width = spec.operand_widths[i];
        leaf.index = static_cast<uint32_t>(i);
        auto ref = static_cast<ir::NodeRef>(sys.nodes.size());
        sys.nodes.push_back(leaf);
        ir::SynthVarInfo info;
        info.name = "v" + std::to_string(i);
        info.width = leaf.width;
        info.ref = ref;
        sys.synth_vars.push_back(info);
        op.args[i] = ref;
    }
    auto out = static_cast<ir::NodeRef>(sys.nodes.size());
    sys.nodes.push_back(op);
    sys.outputs.push_back(ir::OutputInfo{"y", out});
    sys.typeCheck();
    return sys;
}

/** Every operator at every width, with the shapes each one takes. */
std::vector<OneNode>
allSpecs(Rng &rng)
{
    std::vector<OneNode> out;
    const NodeKind same[] = {
        NodeKind::And, NodeKind::Or, NodeKind::Xor, NodeKind::Add,
        NodeKind::Sub, NodeKind::Mul, NodeKind::UDiv, NodeKind::URem,
        NodeKind::Shl, NodeKind::LShr, NodeKind::AShr};
    const NodeKind cmp[] = {NodeKind::Eq, NodeKind::Ult, NodeKind::Ule,
                            NodeKind::Slt, NodeKind::Sle};
    for (uint32_t w : kWidths) {
        out.push_back({NodeKind::Not, {w}, w});
        out.push_back({NodeKind::Neg, {w}, w});
        out.push_back({NodeKind::RedAnd, {w}, 1});
        out.push_back({NodeKind::RedOr, {w}, 1});
        out.push_back({NodeKind::RedXor, {w}, 1});
        for (NodeKind k : same)
            out.push_back({k, {w, w}, w});
        for (NodeKind k : cmp)
            out.push_back({k, {w, w}, 1});
        out.push_back({NodeKind::Ite, {1, w, w}, w});
        for (uint32_t low : {1u, w})
            out.push_back({NodeKind::Concat, {w, low}, w + low});
        for (uint32_t to : {w, w + 5, 130u}) {
            if (to < w)
                continue;
            out.push_back({NodeKind::ZExt, {w}, to});
            out.push_back({NodeKind::SExt, {w}, to});
        }
        for (int i = 0; i < 3; ++i) {
            auto lsb = static_cast<uint32_t>(rng.next() % w);
            auto msb = lsb + static_cast<uint32_t>(rng.next() % (w - lsb));
            out.push_back({NodeKind::Slice, {w}, msb - lsb + 1, msb, lsb});
        }
    }
    return out;
}

/**
 * A random operand: every fourth trial is fully known (so arithmetic
 * and comparisons see real values); the others carry one X bit, about
 * one X in eight bits, or one in two.  Small values make division by
 * zero, equal operands and in-range shift amounts common.
 */
Value
randomOperand(Rng &rng, uint32_t width, int trial)
{
    Value v = Value::random(width, rng);
    switch (rng.next() % 4) {
      case 0: v = Value::fromUint(width, rng.next() % 3); break;
      case 1: v = Value::fromUint(width, rng.next() % (width + 2)); break;
      default: break;
    }
    switch (trial % 4) {
      case 0: break;
      case 1: v.setBit(static_cast<uint32_t>(rng.next() % width), -1); break;
      default: {
        uint64_t one_in = trial % 4 == 2 ? 8 : 2;
        for (uint32_t i = 0; i < width; ++i) {
            if (rng.next() % one_in == 0)
                v.setBit(i, -1);
        }
      }
    }
    return v;
}

Value
reference(const ir::TransitionSystem &sys, const std::vector<Value> &ops)
{
    const ir::Node &n = sys.nodes.back();
    const Value *args[3] = {nullptr, nullptr, nullptr};
    for (size_t i = 0; i < ops.size(); ++i)
        args[i] = &ops[i];
    return ir::evalOp(n, args[0], args[1], args[2]);
}

} // namespace

TEST(TapeKernels, EveryOperatorMatchesValueOnBothLayouts)
{
    Rng rng(0x7a9e);
    size_t packed_systems = 0;
    for (const OneNode &spec : allSpecs(rng)) {
        ir::TransitionSystem sys = buildSystem(spec);
        auto tape = std::make_shared<const sim::Tape>(sys);
        sim::Interpreter scalar(tape);
        std::optional<sim::VecInterpreter> vec;
        if (tape->packable()) {
            vec.emplace(tape, bv::PackedValue::kLanes);
            ++packed_systems;
        }
        for (int trial = 0; trial < 8; ++trial) {
            std::vector<std::vector<Value>> lanes;
            for (uint32_t l = 0; l < bv::PackedValue::kLanes; ++l) {
                std::vector<Value> ops;
                for (uint32_t w : spec.operand_widths)
                    ops.push_back(randomOperand(rng, w, trial + int(l)));
                lanes.push_back(ops);
                if (vec) {
                    for (size_t i = 0; i < ops.size(); ++i)
                        vec->setSynthVar(i, l, ops[i]);
                }
            }
            if (vec)
                vec->evalCycle();
            for (uint32_t l = 0; l < bv::PackedValue::kLanes; ++l) {
                Value want = reference(sys, lanes[l]);
                for (size_t i = 0; i < lanes[l].size(); ++i)
                    scalar.setSynthVar(i, lanes[l][i]);
                scalar.evalCycle();
                ASSERT_EQ(scalar.output(0), want)
                    << sys.name << " w=" << spec.width << " lane " << l
                    << ": scalar tape " << scalar.output(0).toBinaryString()
                    << " vs Value " << want.toBinaryString();
                if (vec) {
                    ASSERT_EQ(vec->output(0).lane(l), want)
                        << sys.name << " w=" << spec.width << " lane " << l
                        << ": packed tape "
                        << vec->output(0).lane(l).toBinaryString()
                        << " vs Value " << want.toBinaryString();
                }
            }
        }
    }
    EXPECT_GT(packed_systems, 100u);
}

// The in-place output compares agree with Value::matches, including
// mismatched widths (both sides compare zero-extended).
TEST(TapeKernels, OutputMatchesAgreesWithValueMatches)
{
    Rng rng(0x3c1);
    for (uint32_t w : {1u, 3u, 63u, 64u}) {
        OneNode spec{NodeKind::Not, {w}, w};
        ir::TransitionSystem sys = buildSystem(spec);
        auto tape = std::make_shared<const sim::Tape>(sys);
        sim::Interpreter scalar(tape);
        sim::VecInterpreter vec(tape, bv::PackedValue::kLanes);
        for (int trial = 0; trial < 64; ++trial) {
            Value in = randomOperand(rng, w, trial);
            scalar.setSynthVar(0, in);
            for (uint32_t l = 0; l < bv::PackedValue::kLanes; ++l)
                vec.setSynthVar(0, l, in);
            scalar.evalCycle();
            vec.evalCycle();
            for (uint32_t ew : {w, w + 2, w > 1 ? w - 1 : 1u}) {
                Value expected = randomOperand(rng, ew, trial + 1);
                bool want = scalar.output(0).matches(expected);
                EXPECT_EQ(scalar.outputMatches(0, expected), want);
                EXPECT_EQ(vec.outputMatches(0, expected),
                          want ? ~0ull : 0ull);
            }
        }
    }
}
