#include "sim/vec_sim.hpp"

#include "util/logging.hpp"

namespace rtlrepair::sim {

using bv::PackedValue;
using bv::Value;

namespace {

/** Every constant of @p sys broadcast to all lanes, once per run. */
std::vector<PackedValue>
broadcastConsts(const ir::TransitionSystem &sys)
{
    std::vector<PackedValue> out;
    out.reserve(sys.consts.size());
    for (const Value &c : sys.consts)
        out.push_back(PackedValue::broadcast(c));
    return out;
}

} // namespace

VecInterpreter::VecInterpreter(const ir::TransitionSystem &sys,
                               uint32_t nlanes)
    : NodeLoop(sys, broadcastConsts(sys)), _nlanes(nlanes)
{
    check(nlanes >= 1 && nlanes <= PackedValue::kLanes,
          "lane count out of range");
    _all = nlanes == 64 ? ~0ull : ((1ull << nlanes) - 1ull);
    reset();
}

void
VecInterpreter::reset()
{
    for (size_t i = 0; i < _sys.states.size(); ++i) {
        const auto &st = _sys.states[i];
        _state_vals[i] = st.init
                             ? PackedValue::broadcast(*st.init)
                             : PackedValue::allX(st.width);
    }
    _cycle_valid = false;
}

void
VecInterpreter::setInputAll(size_t index, const Value &value)
{
    check(index < _input_vals.size(), "input index out of range");
    Value v = value;
    uint32_t want = _sys.inputs[index].width;
    if (v.width() < want)
        v = v.zext(want);
    else if (v.width() > want)
        v = v.slice(want - 1, 0);
    _input_vals[index] = PackedValue::broadcast(v);
    _cycle_valid = false;
}

void
VecInterpreter::setSynthVar(size_t index, uint32_t lane,
                            const Value &value)
{
    check(index < _synth_vals.size(), "synth var index out of range");
    check(value.width() == _sys.synth_vars[index].width,
          "synth var width mismatch");
    _synth_vals[index].setLane(lane, value);
    _cycle_valid = false;
}

void
VecInterpreter::setStateAll(size_t index, const Value &value)
{
    check(index < _state_vals.size(), "state index out of range");
    check(value.width() == _sys.states[index].width,
          "state width mismatch");
    _state_vals[index] = PackedValue::broadcast(value);
    _cycle_valid = false;
}

const PackedValue &
VecInterpreter::output(size_t index) const
{
    check(_cycle_valid, "evalCycle() must run before reading values");
    check(index < _sys.outputs.size(), "output index out of range");
    return _node_vals[_sys.outputs[index].ref];
}

} // namespace rtlrepair::sim
