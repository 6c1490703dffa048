#include "sim/interpreter.hpp"

#include "bv/packed_value.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace rtlrepair::sim {

using bv::Value;
using ir::Node;
using ir::NodeKind;
using ir::NodeRef;

template <typename V>
NodeLoop<V>::NodeLoop(const ir::TransitionSystem &sys,
                      std::vector<V> consts)
    : _sys(sys), _consts(std::move(consts)),
      _node_vals(sys.nodes.size()), _state_vals(sys.states.size())
{
    _input_vals.reserve(sys.inputs.size());
    for (const auto &in : sys.inputs)
        _input_vals.push_back(V::allX(in.width));
    _synth_vals.reserve(sys.synth_vars.size());
    for (const auto &var : sys.synth_vars)
        _synth_vals.push_back(V::zeros(var.width));
}

template <typename V>
void
NodeLoop<V>::evalCycle()
{
    for (NodeRef ref = 0; ref < _sys.nodes.size(); ++ref) {
        const Node &n = _sys.nodes[ref];
        switch (n.kind) {
          case NodeKind::Const:
            _node_vals[ref] = _consts[n.index];
            break;
          case NodeKind::Input:
            _node_vals[ref] = _input_vals[n.index];
            break;
          case NodeKind::SynthVar:
            _node_vals[ref] = _synth_vals[n.index];
            break;
          case NodeKind::State:
            _node_vals[ref] = _state_vals[n.index];
            break;
          default: {
            const V *a0 = &_node_vals[n.args[0]];
            const V *a1 = n.args[1] != ir::kNullRef
                              ? &_node_vals[n.args[1]]
                              : nullptr;
            const V *a2 = n.args[2] != ir::kNullRef
                              ? &_node_vals[n.args[2]]
                              : nullptr;
            _node_vals[ref] = ir::evalOp(n, a0, a1, a2);
            break;
          }
        }
    }
    _cycle_valid = true;
}

template <typename V>
void
NodeLoop<V>::step()
{
    if (!_cycle_valid)
        evalCycle();
    for (size_t i = 0; i < _sys.states.size(); ++i)
        _state_vals[i] = _node_vals[_sys.states[i].next];
    _cycle_valid = false;
}

template class NodeLoop<Value>;
template class NodeLoop<bv::PackedValue>;

Interpreter::Interpreter(const ir::TransitionSystem &sys,
                         SimOptions options)
    : NodeLoop(sys, sys.consts), _options(options), _rng(options.seed)
{
    reset();
}

void
Interpreter::reset()
{
    for (size_t i = 0; i < _sys.states.size(); ++i) {
        const auto &st = _sys.states[i];
        Value v = st.init ? *st.init : Value::allX(st.width);
        _state_vals[i] = applyPolicy(v, _options.init_policy);
    }
    _cycle_valid = false;
}

Value
Interpreter::applyPolicy(const Value &v, XPolicy policy)
{
    if (!v.hasX())
        return v;
    switch (policy) {
      case XPolicy::Keep: return v;
      case XPolicy::Zero: return v.xToZero();
      case XPolicy::Random: return v.xToRandom(_rng);
    }
    return v;
}

void
Interpreter::setInput(size_t index, const Value &value)
{
    check(index < _input_vals.size(), "input index out of range");
    // Tolerate width mismatches (bugs can change port widths):
    // zero-extend or truncate like a Verilog connection would.
    Value v = value;
    uint32_t want = _sys.inputs[index].width;
    if (v.width() < want)
        v = v.zext(want);
    else if (v.width() > want)
        v = v.slice(want - 1, 0);
    _input_vals[index] = applyPolicy(v, _options.input_policy);
    _cycle_valid = false;
}

void
Interpreter::setInputByName(const std::string &name, const Value &value)
{
    int idx = _sys.inputIndex(name);
    check(idx >= 0, "unknown input: " + name);
    setInput(static_cast<size_t>(idx), value);
}

void
Interpreter::setSynthVar(size_t index, const Value &value)
{
    check(index < _synth_vals.size(), "synth var index out of range");
    check(value.width() == _sys.synth_vars[index].width,
          "synth var width mismatch");
    _synth_vals[index] = value;
    _cycle_valid = false;
}

void
Interpreter::setSynthVarByName(const std::string &name,
                               const Value &value)
{
    int idx = _sys.synthVarIndex(name);
    check(idx >= 0, "unknown synth var: " + name);
    setSynthVar(static_cast<size_t>(idx), value);
}

void
Interpreter::setState(size_t index, const Value &value)
{
    check(index < _state_vals.size(), "state index out of range");
    check(value.width() == _sys.states[index].width,
          "state width mismatch");
    _state_vals[index] = value;
    _cycle_valid = false;
}

const Value &
Interpreter::valueOf(NodeRef ref) const
{
    check(_cycle_valid, "evalCycle() must run before reading values");
    return _node_vals[ref];
}

const Value &
Interpreter::output(size_t index) const
{
    check(index < _sys.outputs.size(), "output index out of range");
    return valueOf(_sys.outputs[index].ref);
}

const Value &
Interpreter::stateValue(size_t index) const
{
    check(index < _state_vals.size(), "state index out of range");
    return _state_vals[index];
}

ReplayResult
replay(Interpreter &interp, const trace::IoTrace &io)
{
    const auto &sys = interp.system();

    // Pre-resolve column indices.
    std::vector<int> input_map(io.inputs.size());
    for (size_t i = 0; i < io.inputs.size(); ++i) {
        input_map[i] = sys.inputIndex(io.inputs[i].name);
        check(input_map[i] >= 0,
              "trace input not found in design: " + io.inputs[i].name);
    }
    std::vector<int> output_map(io.outputs.size());
    for (size_t i = 0; i < io.outputs.size(); ++i) {
        output_map[i] = sys.outputIndex(io.outputs[i].name);
        check(output_map[i] >= 0,
              "trace output not found in design: " +
                  io.outputs[i].name);
    }

    interp.reset();
    ReplayResult result;
    for (size_t cycle = 0; cycle < io.length(); ++cycle) {
        for (size_t i = 0; i < input_map.size(); ++i) {
            interp.setInput(static_cast<size_t>(input_map[i]),
                            io.input_rows[cycle][i]);
        }
        interp.evalCycle();
        for (size_t i = 0; i < output_map.size(); ++i) {
            const Value &expected = io.output_rows[cycle][i];
            const Value &got =
                interp.output(static_cast<size_t>(output_map[i]));
            if (!got.matches(expected)) {
                result.passed = false;
                result.first_failure = cycle;
                result.failed_output = io.outputs[i].name;
                return result;
            }
        }
        interp.step();
    }
    result.first_failure = io.length();
    return result;
}

trace::IoTrace
record(const ir::TransitionSystem &golden,
       const trace::InputSequence &stim, SimOptions options)
{
    Interpreter interp(golden, options);

    trace::IoTrace io;
    io.inputs = stim.inputs;
    for (const auto &out : golden.outputs) {
        uint32_t width = golden.width(out.ref);
        io.outputs.push_back(trace::Column{out.name, width});
    }

    std::vector<int> input_map(stim.inputs.size());
    for (size_t i = 0; i < stim.inputs.size(); ++i) {
        input_map[i] = golden.inputIndex(stim.inputs[i].name);
        check(input_map[i] >= 0,
              "stimulus input not found in design: " +
                  stim.inputs[i].name);
    }

    interp.reset();
    for (size_t cycle = 0; cycle < stim.length(); ++cycle) {
        for (size_t i = 0; i < input_map.size(); ++i) {
            interp.setInput(static_cast<size_t>(input_map[i]),
                            stim.rows[cycle][i]);
        }
        interp.evalCycle();
        io.input_rows.push_back(stim.rows[cycle]);
        std::vector<Value> out_row;
        out_row.reserve(golden.outputs.size());
        for (size_t i = 0; i < golden.outputs.size(); ++i)
            out_row.push_back(interp.output(i));
        io.output_rows.push_back(std::move(out_row));
        interp.step();
    }
    return io;
}

} // namespace rtlrepair::sim
