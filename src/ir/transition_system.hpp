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
 * semantics, through the bv::Value wrappers over the ScalarOps
 * kernels).  Used by constant folding during IR construction; the
 * simulators run the same kernels from a compiled tape
 * (sim/tape.hpp).  Must not be called for leaf kinds
 * (Const/Input/SynthVar/State).
 */
bv::Value evalOp(const Node &node, const bv::Value *arg0,
                 const bv::Value *arg1, const bv::Value *arg2);

} // namespace rtlrepair::ir

#endif // RTLREPAIR_IR_TRANSITION_SYSTEM_HPP
