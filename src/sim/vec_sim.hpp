/**
 * @file
 * Bit-parallel 64-lane transition-system interpreter.
 *
 * VecInterpreter runs 64 independent runs of one transition system in
 * one pass over the packed layout of its tape (sim/tape.hpp; bit L of
 * each word = lane L), on the same op list the one-run Interpreter
 * runs in the scalar layout.  ConcreteRunner uses it to validate up
 * to 64 candidate repairs at once, sharing one tape between its
 * scalar run and every 64-lane chunk.
 *
 * The event-level 64-lane simulator is the bv::PackedValue
 * instantiation of the one event simulator template
 * (VecEventSimulator = EventSim<bv::PackedValue>, sim/event_sim.hpp);
 * this header re-exports it with the batch entry points.
 *
 * The equivalence contract: lane L of any vectorized run is bit-exact
 * with an independent one-lane run of lane L's input (enforced by
 * tests/vec_sim_test.cpp).
 */
#ifndef RTLREPAIR_SIM_VEC_SIM_HPP
#define RTLREPAIR_SIM_VEC_SIM_HPP

#include "bv/packed_value.hpp"
#include "sim/event_sim.hpp"
#include "sim/interpreter.hpp"

namespace rtlrepair::sim {

/**
 * Packed-plane interpreter: 64 transition-system runs at once.  The
 * design's nets must all be at most 64 bits wide (Tape::packable).
 */
class VecInterpreter : public TapeRun
{
  public:
    VecInterpreter(const ir::TransitionSystem &sys, uint32_t nlanes);
    VecInterpreter(std::shared_ptr<const Tape> tape, uint32_t nlanes);

    /** Reset all states to init (X kept, as SimOptions{Keep}). */
    void reset();

    /** Same value in every lane (batch runs share the stimulus). */
    void setInputAll(size_t index, const bv::Value &value);
    /** Per-lane synthesis-variable binding. */
    void setSynthVar(size_t index, uint32_t lane,
                     const bv::Value &value);
    /** Same state seed in every lane. */
    void setStateAll(size_t index, const bv::Value &value);

    bv::PackedValue output(size_t index) const;
    /** Lanes whose output @p index matches @p expected (laneMatches
     *  against the broadcast value), in place. */
    uint64_t outputMatches(size_t index, const bv::Value &expected) const;

    uint32_t lanes() const { return _nlanes; }
    uint64_t allLanes() const { return _all; }

  private:
    uint32_t _nlanes;
    uint64_t _all;
};

} // namespace rtlrepair::sim

#endif // RTLREPAIR_SIM_VEC_SIM_HPP
