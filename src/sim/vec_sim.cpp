#include "sim/vec_sim.hpp"

#include <algorithm>

#include "bv/kernels.hpp"
#include "util/logging.hpp"

namespace rtlrepair::sim {

using bv::PackedOps;
using bv::PackedValue;
using bv::Value;

VecInterpreter::VecInterpreter(const ir::TransitionSystem &sys,
                               uint32_t nlanes)
    : VecInterpreter(std::make_shared<const Tape>(sys), nlanes)
{}

VecInterpreter::VecInterpreter(std::shared_ptr<const Tape> tape,
                               uint32_t nlanes)
    : TapeRun(std::move(tape), Layout::Packed), _nlanes(nlanes)
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
        uint64_t *s = slot(_tape->stateSlot(Layout::Packed, i));
        if (st.init) {
            PackedOps::broadcast(s, st.width, st.init->span(), st.width);
        } else {
            std::fill(s, s + st.width, 0ull);
            std::fill(s + st.width, s + 2 * st.width, ~0ull);
        }
    }
    _cycle_valid = false;
}

void
VecInterpreter::setInputAll(size_t index, const Value &value)
{
    check(index < _sys.inputs.size(), "input index out of range");
    // Zero-extends or truncates to the port width on the way in.
    PackedOps::broadcast(slot(_tape->inputSlot(Layout::Packed, index)),
                         _sys.inputs[index].width, value.span(),
                         value.width());
    _cycle_valid = false;
}

void
VecInterpreter::setSynthVar(size_t index, uint32_t lane,
                            const Value &value)
{
    check(index < _sys.synth_vars.size(), "synth var index out of range");
    check(lane < PackedValue::kLanes, "lane index out of range");
    check(value.width() == _sys.synth_vars[index].width,
          "synth var width mismatch");
    PackedOps::setLane(slot(_tape->synthSlot(Layout::Packed, index)),
                       value.width(), lane, value.span());
    _cycle_valid = false;
}

void
VecInterpreter::setStateAll(size_t index, const Value &value)
{
    check(index < _sys.states.size(), "state index out of range");
    check(value.width() == _sys.states[index].width,
          "state width mismatch");
    PackedOps::broadcast(slot(_tape->stateSlot(Layout::Packed, index)),
                         value.width(), value.span(), value.width());
    _cycle_valid = false;
}

PackedValue
VecInterpreter::output(size_t index) const
{
    check(_cycle_valid, "evalCycle() must run before reading values");
    check(index < _sys.outputs.size(), "output index out of range");
    ir::NodeRef ref = _sys.outputs[index].ref;
    return PackedValue::fromSpan(
        _sys.width(ref), slot(_tape->nodeSlot(Layout::Packed, ref)));
}

uint64_t
VecInterpreter::outputMatches(size_t index, const Value &expected) const
{
    check(_cycle_valid, "evalCycle() must run before reading values");
    check(index < _sys.outputs.size(), "output index out of range");
    ir::NodeRef ref = _sys.outputs[index].ref;
    return PackedOps::laneMatchesScalar(
        slot(_tape->nodeSlot(Layout::Packed, ref)), _sys.width(ref),
        expected.span(), expected.width());
}

} // namespace rtlrepair::sim
