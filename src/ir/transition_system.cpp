#include "ir/transition_system.hpp"

#include "util/logging.hpp"
#include "util/strings.hpp"

namespace rtlrepair::ir {

int
nodeArity(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Const:
      case NodeKind::Input:
      case NodeKind::SynthVar:
      case NodeKind::State:
        return 0;
      case NodeKind::Not:
      case NodeKind::Neg:
      case NodeKind::RedAnd:
      case NodeKind::RedOr:
      case NodeKind::RedXor:
      case NodeKind::Slice:
      case NodeKind::ZExt:
      case NodeKind::SExt:
        return 1;
      case NodeKind::Ite:
        return 3;
      default:
        return 2;
    }
}

const char *
nodeKindName(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Const: return "const";
      case NodeKind::Input: return "input";
      case NodeKind::SynthVar: return "synth";
      case NodeKind::State: return "state";
      case NodeKind::Not: return "not";
      case NodeKind::Neg: return "neg";
      case NodeKind::RedAnd: return "redand";
      case NodeKind::RedOr: return "redor";
      case NodeKind::RedXor: return "redxor";
      case NodeKind::And: return "and";
      case NodeKind::Or: return "or";
      case NodeKind::Xor: return "xor";
      case NodeKind::Add: return "add";
      case NodeKind::Sub: return "sub";
      case NodeKind::Mul: return "mul";
      case NodeKind::UDiv: return "udiv";
      case NodeKind::URem: return "urem";
      case NodeKind::Shl: return "sll";
      case NodeKind::LShr: return "srl";
      case NodeKind::AShr: return "sra";
      case NodeKind::Eq: return "eq";
      case NodeKind::Ult: return "ult";
      case NodeKind::Ule: return "ulte";
      case NodeKind::Slt: return "slt";
      case NodeKind::Sle: return "slte";
      case NodeKind::Concat: return "concat";
      case NodeKind::Slice: return "slice";
      case NodeKind::Ite: return "ite";
      case NodeKind::ZExt: return "uext";
      case NodeKind::SExt: return "sext";
    }
    return "?";
}

bv::Value
evalOp(const Node &node, const bv::Value *arg0, const bv::Value *arg1,
       const bv::Value *arg2)
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
      case NodeKind::Ite: return bv::Value::ite(*arg0, *arg1, *arg2);
      case NodeKind::ZExt: return arg0->zext(node.width);
      case NodeKind::SExt: return arg0->sext(node.width);
      default:
        panic("evalOp called on a leaf node");
    }
}

int
TransitionSystem::inputIndex(const std::string &target) const
{
    for (size_t i = 0; i < inputs.size(); ++i) {
        if (inputs[i].name == target)
            return static_cast<int>(i);
    }
    return -1;
}

int
TransitionSystem::outputIndex(const std::string &target) const
{
    for (size_t i = 0; i < outputs.size(); ++i) {
        if (outputs[i].name == target)
            return static_cast<int>(i);
    }
    return -1;
}

int
TransitionSystem::stateIndex(const std::string &target) const
{
    for (size_t i = 0; i < states.size(); ++i) {
        if (states[i].name == target)
            return static_cast<int>(i);
    }
    return -1;
}

int
TransitionSystem::synthVarIndex(const std::string &target) const
{
    for (size_t i = 0; i < synth_vars.size(); ++i) {
        if (synth_vars[i].name == target)
            return static_cast<int>(i);
    }
    return -1;
}

void
TransitionSystem::typeCheck() const
{
    for (NodeRef ref = 0; ref < nodes.size(); ++ref) {
        const Node &n = nodes[ref];
        check(n.width > 0, "node with zero width");
        int arity = nodeArity(n.kind);
        for (int i = 0; i < arity; ++i) {
            check(n.args[i] != kNullRef, "missing operand");
            check(n.args[i] < ref, "operand does not precede user");
        }
        auto aw = [&](int i) { return nodes[n.args[i]].width; };
        switch (n.kind) {
          case NodeKind::Const:
            check(n.index < consts.size(), "const index out of range");
            check(consts[n.index].width() == n.width,
                  "const width mismatch");
            break;
          case NodeKind::Input:
            check(n.index < inputs.size(), "input index out of range");
            break;
          case NodeKind::SynthVar:
            check(n.index < synth_vars.size(),
                  "synth var index out of range");
            break;
          case NodeKind::State:
            check(n.index < states.size(), "state index out of range");
            break;
          case NodeKind::Not:
          case NodeKind::Neg:
            check(aw(0) == n.width, "unary width mismatch");
            break;
          case NodeKind::RedAnd:
          case NodeKind::RedOr:
          case NodeKind::RedXor:
            check(n.width == 1, "reduction must be 1 bit");
            break;
          case NodeKind::Eq:
          case NodeKind::Ult:
          case NodeKind::Ule:
          case NodeKind::Slt:
          case NodeKind::Sle:
            check(n.width == 1, "comparison must be 1 bit");
            check(aw(0) == aw(1), "comparison operand mismatch");
            break;
          case NodeKind::Concat:
            check(n.width == aw(0) + aw(1), "concat width mismatch");
            break;
          case NodeKind::Slice:
            check(n.a >= n.b && n.a < aw(0), "bad slice bounds");
            check(n.width == n.a - n.b + 1, "slice width mismatch");
            break;
          case NodeKind::Ite:
            check(aw(0) == 1, "ite condition must be 1 bit");
            check(aw(1) == n.width && aw(2) == n.width,
                  "ite arm width mismatch");
            break;
          case NodeKind::ZExt:
          case NodeKind::SExt:
            check(n.width >= aw(0), "extension must not shrink");
            break;
          default:
            check(aw(0) == n.width && aw(1) == n.width,
                  "binary width mismatch");
            break;
        }
    }
    for (const auto &s : states) {
        check(s.ref != kNullRef, "state without node");
        check(s.next != kNullRef,
              "state without next function: " + s.name);
        check(nodes[s.next].width == s.width, "next width mismatch");
        if (s.init)
            check(s.init->width() == s.width, "init width mismatch");
    }
    for (const auto &o : outputs)
        check(o.ref != kNullRef, "output without node: " + o.name);
}

} // namespace rtlrepair::ir
