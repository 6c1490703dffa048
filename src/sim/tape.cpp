#include "sim/tape.hpp"

#include <algorithm>
#include <type_traits>

#include "bv/kernels.hpp"
#include "util/logging.hpp"

namespace rtlrepair::sim {

using bv::PackedOps;
using bv::ScalarOps;
using bv::Value;
using ir::Node;
using ir::NodeKind;
using ir::NodeRef;

namespace {

bool
isLeaf(NodeKind kind)
{
    return ir::nodeArity(kind) == 0;
}

/** Width of the table entry a leaf node stands for. */
uint32_t
leafWidth(const ir::TransitionSystem &sys, const Node &n)
{
    switch (n.kind) {
      case NodeKind::Const: return sys.consts[n.index].width();
      case NodeKind::Input: return sys.inputs[n.index].width;
      case NodeKind::SynthVar: return sys.synth_vars[n.index].width;
      default: return sys.states[n.index].width;
    }
}

/** Write the scalar @p v into a @p K-layout slot of its width. */
template <typename K>
void
load(uint64_t *slot, const Value &v)
{
    if constexpr (std::is_same_v<K, PackedOps>)
        PackedOps::broadcast(slot, v.width(), v.span(), v.width());
    else
        std::copy(v.span(), v.span() + K::spanWords(v.width()), slot);
}

/** The cycle loop: one in-place kernel call per operator node. */
template <typename K, typename Op>
void
runOps(const std::vector<Op> &ops, uint64_t *m)
{
    for (const Op &op : ops) {
        uint64_t *r = m + op.out;
        const uint64_t *a = m + op.a0, *b = m + op.a1, *c = m + op.a2;
        switch (op.kind) {
          case NodeKind::Not: K::bitNot(r, a, op.width); break;
          case NodeKind::Neg: K::neg(r, a, op.width); break;
          case NodeKind::RedAnd: K::redAnd(r, a, op.w0); break;
          case NodeKind::RedOr: K::redOr(r, a, op.w0); break;
          case NodeKind::RedXor: K::redXor(r, a, op.w0); break;
          case NodeKind::And: K::bitAnd(r, a, b, op.width); break;
          case NodeKind::Or: K::bitOr(r, a, b, op.width); break;
          case NodeKind::Xor: K::bitXor(r, a, b, op.width); break;
          case NodeKind::Add: K::add(r, a, b, op.width); break;
          case NodeKind::Sub: K::sub(r, a, b, op.width); break;
          case NodeKind::Mul: K::mul(r, a, b, op.width); break;
          case NodeKind::UDiv: K::udiv(r, a, b, op.width); break;
          case NodeKind::URem: K::urem(r, a, b, op.width); break;
          case NodeKind::Shl: K::shl(r, a, op.width, b, op.w1); break;
          case NodeKind::LShr: K::lshr(r, a, op.width, b, op.w1); break;
          case NodeKind::AShr: K::ashr(r, a, op.width, b, op.w1); break;
          case NodeKind::Eq: K::eq(r, a, b, op.w0); break;
          case NodeKind::Ult: K::ult(r, a, b, op.w0); break;
          case NodeKind::Ule: K::ule(r, a, b, op.w0); break;
          case NodeKind::Slt: K::slt(r, a, b, op.w0); break;
          case NodeKind::Sle: K::sle(r, a, b, op.w0); break;
          case NodeKind::Concat: K::concat(r, a, op.w0, b, op.w1); break;
          case NodeKind::Slice:
            K::slice(r, a, op.w0, op.msb, op.lsb);
            break;
          case NodeKind::Ite: K::ite(r, a, b, c, op.width); break;
          case NodeKind::ZExt: K::zext(r, a, op.w0, op.width); break;
          case NodeKind::SExt: K::sext(r, a, op.w0, op.width); break;
          default: panic("leaf node on the tape");
        }
    }
}

} // namespace

Tape::Tape(const ir::TransitionSystem &sys)
    : _sys(sys),
      _packable(std::all_of(sys.nodes.begin(), sys.nodes.end(),
                            [](const Node &n) { return n.width <= 64; }))
{
    // Kernels index the arena raw, so the widths they trust are
    // checked here, once.
    sys.typeCheck();
    for (const Node &n : sys.nodes) {
        if (isLeaf(n.kind))
            check(leafWidth(sys, n) == n.width, "leaf width mismatch");
    }
    build<ScalarOps>(_plans[static_cast<int>(Layout::Scalar)]);
    if (_packable)
        build<PackedOps>(_plans[static_cast<int>(Layout::Packed)]);
}

template <typename K>
void
Tape::build(Plan &p) const
{
    const ir::TransitionSystem &sys = _sys;
    uint64_t words = 0;
    auto alloc = [&](uint32_t width) {
        uint64_t off = words;
        words += K::spanWords(width);
        return static_cast<uint32_t>(off);
    };
    for (const auto &in : sys.inputs)
        p.input_slot.push_back(alloc(in.width));
    for (const auto &var : sys.synth_vars)
        p.synth_slot.push_back(alloc(var.width));
    p.state_base = static_cast<uint32_t>(words);
    for (const auto &st : sys.states)
        p.state_slot.push_back(alloc(st.width));
    p.state_words = static_cast<uint32_t>(words - p.state_base);
    std::vector<uint32_t> const_slot;
    for (const Value &c : sys.consts)
        const_slot.push_back(alloc(c.width()));

    p.node_slot.resize(sys.nodes.size());
    for (NodeRef ref = 0; ref < sys.nodes.size(); ++ref) {
        const Node &n = sys.nodes[ref];
        switch (n.kind) {
          case NodeKind::Const:
            p.node_slot[ref] = const_slot[n.index];
            break;
          case NodeKind::Input:
            p.node_slot[ref] = p.input_slot[n.index];
            break;
          case NodeKind::SynthVar:
            p.node_slot[ref] = p.synth_slot[n.index];
            break;
          case NodeKind::State:
            p.node_slot[ref] = p.state_slot[n.index];
            break;
          default: p.node_slot[ref] = alloc(n.width); break;
        }
    }
    p.staging = static_cast<uint32_t>(words);
    words += p.state_words;
    if (words >= (1ull << 32))
        fatal("design too large for the simulation arena");

    for (NodeRef ref = 0; ref < sys.nodes.size(); ++ref) {
        const Node &n = sys.nodes[ref];
        if (isLeaf(n.kind))
            continue;
        Op op{};
        op.kind = n.kind;
        op.width = n.width;
        op.w0 = sys.width(n.args[0]);
        op.w1 = n.args[1] != ir::kNullRef ? sys.width(n.args[1]) : 0;
        op.msb = n.a;
        op.lsb = n.b;
        op.out = p.node_slot[ref];
        op.a0 = p.node_slot[n.args[0]];
        op.a1 = n.args[1] != ir::kNullRef ? p.node_slot[n.args[1]] : 0;
        op.a2 = n.args[2] != ir::kNullRef ? p.node_slot[n.args[2]] : 0;
        p.ops.push_back(op);
    }

    // Stage only when some next value is itself a state slot that the
    // latch overwrites; otherwise copy straight into the state slots.
    bool staged = std::any_of(
        sys.states.begin(), sys.states.end(), [&](const auto &st) {
            return sys.nodes[st.next].kind == NodeKind::State;
        });
    for (size_t i = 0; i < sys.states.size(); ++i) {
        uint32_t to = p.state_slot[i];
        if (staged)
            to = p.staging + (to - p.state_base);
        p.latches.push_back({p.node_slot[sys.states[i].next], to,
                             static_cast<uint32_t>(
                                 K::spanWords(sys.states[i].width))});
    }
    if (!staged)
        p.state_words = 0;  // nothing to copy back

    p.initial.assign(words, 0);
    for (size_t i = 0; i < sys.consts.size(); ++i)
        load<K>(p.initial.data() + const_slot[i], sys.consts[i]);
    for (size_t i = 0; i < sys.inputs.size(); ++i) {
        load<K>(p.initial.data() + p.input_slot[i],
                Value::allX(sys.inputs[i].width));
    }
    for (size_t i = 0; i < sys.states.size(); ++i) {
        load<K>(p.initial.data() + p.state_slot[i],
                Value::allX(sys.states[i].width));
    }
}

std::vector<uint64_t>
Tape::arena(Layout layout) const
{
    check(layout == Layout::Scalar || _packable,
          "packed layout needs nets of at most 64 bits");
    return plan(layout).initial;
}

void
Tape::eval(Layout layout, uint64_t *arena) const
{
    if (layout == Layout::Scalar)
        runOps<ScalarOps>(plan(layout).ops, arena);
    else
        runOps<PackedOps>(plan(layout).ops, arena);
}

void
Tape::latch(Layout layout, uint64_t *arena) const
{
    const Plan &p = plan(layout);
    for (const Plan::Latch &l : p.latches)
        std::copy(arena + l.from, arena + l.from + l.words, arena + l.to);
    std::copy(arena + p.staging, arena + p.staging + p.state_words,
              arena + p.state_base);
}

TapeRun::TapeRun(std::shared_ptr<const Tape> tape, Layout layout)
    : _tape(std::move(tape)), _sys(_tape->system()), _layout(layout),
      _arena(_tape->arena(layout))
{}

} // namespace rtlrepair::sim
