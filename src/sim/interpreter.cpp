#include "sim/interpreter.hpp"

#include <algorithm>

#include "bv/kernels.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace rtlrepair::sim {

using bv::ScalarOps;
using bv::Value;
using ir::NodeRef;

Interpreter::Interpreter(const ir::TransitionSystem &sys,
                         SimOptions options)
    : Interpreter(std::make_shared<const Tape>(sys), options)
{}

Interpreter::Interpreter(std::shared_ptr<const Tape> tape,
                         SimOptions options)
    : TapeRun(std::move(tape), Layout::Scalar), _options(options),
      _rng(options.seed)
{
    reset();
}

void
Interpreter::store(uint64_t *slot, const Value &value)
{
    std::copy(value.span(),
              value.span() + ScalarOps::spanWords(value.width()), slot);
}

void
Interpreter::reset()
{
    for (size_t i = 0; i < _sys.states.size(); ++i) {
        const auto &st = _sys.states[i];
        uint64_t *s = slot(_tape->stateSlot(Layout::Scalar, i));
        store(s, st.init ? *st.init : Value::allX(st.width));
        applyPolicy(s, st.width, _options.init_policy);
    }
    _cycle_valid = false;
}

void
Interpreter::applyPolicy(uint64_t *s, uint32_t width, XPolicy policy)
{
    size_t n = bv::nwords(width);
    uint64_t *x = s + n;
    if (policy == XPolicy::Keep ||
        std::all_of(x, x + n, [](uint64_t w) { return w == 0; }))
        return;
    // Random draws one word per plane word, exactly as
    // Value::xToRandom: the draw order pins golden digests.
    for (size_t i = 0; i < n; ++i) {
        if (policy == XPolicy::Random)
            s[i] |= _rng.next() & x[i];
        x[i] = 0;
    }
}

void
Interpreter::setInput(size_t index, const Value &value)
{
    check(index < _sys.inputs.size(), "input index out of range");
    // Tolerate width mismatches (bugs can change port widths):
    // zero-extend or truncate like a Verilog connection would.
    uint32_t want = _sys.inputs[index].width;
    uint64_t *s = slot(_tape->inputSlot(Layout::Scalar, index));
    if (value.width() <= want)
        ScalarOps::zext(s, value.span(), value.width(), want);
    else
        ScalarOps::slice(s, value.span(), value.width(), want - 1, 0);
    applyPolicy(s, want, _options.input_policy);
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
    check(index < _sys.synth_vars.size(), "synth var index out of range");
    check(value.width() == _sys.synth_vars[index].width,
          "synth var width mismatch");
    store(slot(_tape->synthSlot(Layout::Scalar, index)), value);
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
    check(index < _sys.states.size(), "state index out of range");
    check(value.width() == _sys.states[index].width,
          "state width mismatch");
    store(slot(_tape->stateSlot(Layout::Scalar, index)), value);
    _cycle_valid = false;
}

Value
Interpreter::valueOf(NodeRef ref) const
{
    check(_cycle_valid, "evalCycle() must run before reading values");
    return Value::fromSpan(_sys.width(ref),
                           slot(_tape->nodeSlot(Layout::Scalar, ref)));
}

Value
Interpreter::output(size_t index) const
{
    check(index < _sys.outputs.size(), "output index out of range");
    return valueOf(_sys.outputs[index].ref);
}

Value
Interpreter::stateValue(size_t index) const
{
    check(index < _sys.states.size(), "state index out of range");
    return Value::fromSpan(_sys.states[index].width,
                           slot(_tape->stateSlot(Layout::Scalar, index)));
}

bool
Interpreter::outputMatches(size_t index, const Value &expected) const
{
    check(_cycle_valid, "evalCycle() must run before reading values");
    check(index < _sys.outputs.size(), "output index out of range");
    NodeRef ref = _sys.outputs[index].ref;
    return ScalarOps::matches(slot(_tape->nodeSlot(Layout::Scalar, ref)),
                              _sys.width(ref), expected.span(),
                              expected.width());
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
            if (!interp.outputMatches(
                    static_cast<size_t>(output_map[i]),
                    io.output_rows[cycle][i])) {
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
