/**
 * @file
 * Word-level transition system IR — the role btor2 plays in the paper.
 *
 * A TransitionSystem is a hash-consed DAG of bit-vector expression
 * nodes plus:
 *  - inputs (fresh value every cycle),
 *  - synthesis variables (φ/α, one value for the entire unrolling),
 *  - states (registers) with optional init values and a next-state
 *    expression,
 *  - named outputs.
 *
 * Node operands always precede their users in the node array, so a
 * single forward sweep evaluates one clock cycle (used by both the
 * simulator and the bit-blaster).
 */
#ifndef RTLREPAIR_IR_TRANSITION_SYSTEM_HPP
#define RTLREPAIR_IR_TRANSITION_SYSTEM_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bv/value.hpp"
#include "util/logging.hpp"

namespace rtlrepair::ir {

using NodeRef = uint32_t;
constexpr NodeRef kNullRef = 0xffffffffu;

enum class NodeKind : uint8_t
{
    Const,     ///< constant value (index into const table)
    Input,     ///< per-cycle free input
    SynthVar,  ///< synthesis variable, constant across the unrolling
    State,     ///< register; current-cycle value

    // unary
    Not, Neg, RedAnd, RedOr, RedXor,
    // binary, same-width operands
    And, Or, Xor, Add, Sub, Mul, UDiv, URem,
    Shl, LShr, AShr,
    // binary comparisons, 1-bit result
    Eq, Ult, Ule, Slt, Sle,
    // structure
    Concat,   ///< arg0 = high bits, arg1 = low bits
    Slice,    ///< bits [a:b] of arg0
    Ite,      ///< arg0 ? arg1 : arg2 (arg0 is 1 bit)
    ZExt, SExt,
};

/** Number of expression operands a node kind takes. */
int nodeArity(NodeKind kind);

/** Mnemonic (btor2-flavoured) for printing. */
const char *nodeKindName(NodeKind kind);

/** A single IR node. */
struct Node
{
    NodeKind kind;
    uint32_t width = 0;
    NodeRef args[3] = {kNullRef, kNullRef, kNullRef};
    uint32_t a = 0;      ///< Slice msb
    uint32_t b = 0;      ///< Slice lsb
    uint32_t index = 0;  ///< table index for Const/Input/SynthVar/State
};

struct StateInfo
{
    std::string name;
    uint32_t width = 0;
    NodeRef ref = kNullRef;   ///< the State node
    NodeRef next = kNullRef;  ///< next-state expression
    std::optional<bv::Value> init;
};

struct InputInfo
{
    std::string name;
    uint32_t width = 0;
    NodeRef ref = kNullRef;
};

struct SynthVarInfo
{
    std::string name;
    uint32_t width = 0;
    bool is_phi = false;  ///< change-indicator variable (cost 1 when set)
    NodeRef ref = kNullRef;
};

struct OutputInfo
{
    std::string name;
    NodeRef ref = kNullRef;
};

/** The complete transition system for one elaborated design. */
class TransitionSystem
{
  public:
    std::string name;
    std::vector<Node> nodes;
    std::vector<bv::Value> consts;
    std::vector<StateInfo> states;
    std::vector<InputInfo> inputs;
    std::vector<SynthVarInfo> synth_vars;
    std::vector<OutputInfo> outputs;
    /** Elaborated signal name -> node, for OSDD and debugging. */
    std::map<std::string, NodeRef> signals;

    const Node &node(NodeRef ref) const { return nodes[ref]; }
    uint32_t width(NodeRef ref) const { return nodes[ref].width; }

    /** Index of the named input/output/state, or -1. */
    int inputIndex(const std::string &name) const;
    int outputIndex(const std::string &name) const;
    int stateIndex(const std::string &name) const;
    int synthVarIndex(const std::string &name) const;

    /** Validate width rules and operand ordering; panics on error. */
    void typeCheck() const;
};

/**
 * Evaluate one operator node given its operand values (4-state
 * semantics).  @p V is bv::Value (one run) or bv::PackedValue (64
 * lanes); both share this one op switch.  Used by the interpreters'
 * node loop and by constant folding during IR construction.  Must not
 * be called for leaf kinds (Const/Input/SynthVar/State).
 */
template <typename V>
V
evalOp(const Node &node, const V *arg0, const V *arg1, const V *arg2)
{
    switch (node.kind) {
      case NodeKind::Not: return ~*arg0;
      case NodeKind::Neg: return arg0->negate();
      case NodeKind::RedAnd: return arg0->redAnd();
      case NodeKind::RedOr: return arg0->redOr();
      case NodeKind::RedXor: return arg0->redXor();
      case NodeKind::And: return *arg0 & *arg1;
      case NodeKind::Or: return *arg0 | *arg1;
      case NodeKind::Xor: return *arg0 ^ *arg1;
      case NodeKind::Add: return *arg0 + *arg1;
      case NodeKind::Sub: return *arg0 - *arg1;
      case NodeKind::Mul: return *arg0 * *arg1;
      case NodeKind::UDiv: return arg0->udiv(*arg1);
      case NodeKind::URem: return arg0->urem(*arg1);
      case NodeKind::Shl: return arg0->shl(*arg1);
      case NodeKind::LShr: return arg0->lshr(*arg1);
      case NodeKind::AShr: return arg0->ashr(*arg1);
      case NodeKind::Eq: return arg0->eq(*arg1);
      case NodeKind::Ult: return arg0->ult(*arg1);
      case NodeKind::Ule: return arg0->ule(*arg1);
      case NodeKind::Slt: return arg0->slt(*arg1);
      case NodeKind::Sle: return arg0->sle(*arg1);
      case NodeKind::Concat: return arg0->concat(*arg1);
      case NodeKind::Slice: return arg0->slice(node.a, node.b);
      case NodeKind::Ite: return V::ite(*arg0, *arg1, *arg2);
      case NodeKind::ZExt: return arg0->zext(node.width);
      case NodeKind::SExt: return arg0->sext(node.width);
      default:
        panic("evalOp called on a leaf node");
    }
}

} // namespace rtlrepair::ir

#endif // RTLREPAIR_IR_TRANSITION_SYSTEM_HPP
