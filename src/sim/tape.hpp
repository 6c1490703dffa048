/**
 * @file
 * A transition system lowered once to a slot tape.
 *
 * Widths are static, so compilation gives every node a fixed word
 * offset (its slot) in one contiguous arena and turns the operator
 * nodes into a topologically ordered op list.  Evaluating a cycle is
 * one pass over that list, each op an in-place bv kernel on arena
 * words: nothing is allocated and nothing is copied for leaves,
 * because Const, Input, SynthVar and State nodes *are* their slots.
 *
 * One tape serves two layouts (bv/kernels.hpp): the scalar layout
 * (ScalarOps, one run, any width) behind sim::Interpreter and the
 * packed layout (PackedOps, 64 lanes) behind sim::VecInterpreter.
 * The packed layout exists only when every net is at most 64 bits
 * wide.  A tape is immutable after construction, so any number of
 * runs may share it; each run owns its arena.
 */
#ifndef RTLREPAIR_SIM_TAPE_HPP
#define RTLREPAIR_SIM_TAPE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "ir/transition_system.hpp"

namespace rtlrepair::sim {

/** Arena layout: ScalarOps or PackedOps spans. */
enum class Layout : uint8_t { Scalar = 0, Packed = 1 };

/** One TransitionSystem compiled for in-place evaluation. */
class Tape
{
  public:
    /** O(nodes): type-checks @p sys (which must outlive the tape)
     *  and lays out both arenas. */
    explicit Tape(const ir::TransitionSystem &sys);

    const ir::TransitionSystem &system() const { return _sys; }

    /** Every net is at most 64 bits wide: the packed layout exists. */
    bool packable() const { return _packable; }

    /** A fresh arena: constants loaded, inputs and states all-X,
     *  synthesis variables zero. */
    std::vector<uint64_t> arena(Layout layout) const;

    /** @name Word offsets of slots in @p layout's arena @{ */
    uint32_t nodeSlot(Layout layout, ir::NodeRef ref) const
    {
        return plan(layout).node_slot[ref];
    }
    uint32_t inputSlot(Layout layout, size_t i) const
    {
        return plan(layout).input_slot[i];
    }
    uint32_t synthSlot(Layout layout, size_t i) const
    {
        return plan(layout).synth_slot[i];
    }
    uint32_t stateSlot(Layout layout, size_t i) const
    {
        return plan(layout).state_slot[i];
    }
    /** @} */

    /** Evaluate every operator from the current leaf slots. */
    void eval(Layout layout, uint64_t *arena) const;

    /** Latch every state's next value (evaluated) into its slot.
     *  When some next value is itself a state slot, the copies go
     *  through a staging area, so every state reads old values. */
    void latch(Layout layout, uint64_t *arena) const;

  private:
    /** One operator node: kind, widths and arena word offsets. */
    struct Op
    {
        ir::NodeKind kind;
        uint32_t width;  ///< result width
        uint32_t w0;     ///< arg0 width
        uint32_t w1;     ///< arg1 width
        uint32_t msb, lsb;
        uint32_t out, a0, a1, a2;
    };

    /** Everything layout-specific. */
    struct Plan
    {
        std::vector<uint32_t> node_slot;
        std::vector<uint32_t> input_slot, synth_slot, state_slot;
        std::vector<Op> ops;
        /** (next-value slot, destination, words) per state; the
         *  destination is in the staging area when staging is on. */
        struct Latch
        {
            uint32_t from, to, words;
        };
        std::vector<Latch> latches;
        uint32_t state_base = 0;   ///< states are one contiguous run
        uint32_t state_words = 0;  ///< words to copy back; 0 = unstaged
        uint32_t staging = 0;      ///< staging area, after everything
        std::vector<uint64_t> initial;  ///< arena() template
    };

    template <typename K>
    void build(Plan &plan) const;

    const Plan &
    plan(Layout layout) const
    {
        return _plans[static_cast<int>(layout)];
    }

    const ir::TransitionSystem &_sys;
    bool _packable;
    Plan _plans[2];
};

/**
 * The cycle loop both interpreters share: a (shared) tape plus this
 * run's arena in one layout.
 */
class TapeRun
{
  public:
    /** Evaluate all combinational values for the current cycle. */
    void
    evalCycle()
    {
        _tape->eval(_layout, _arena.data());
        _cycle_valid = true;
    }

    /** evalCycle() (if needed) then latch every state's next value. */
    void
    step()
    {
        if (!_cycle_valid)
            evalCycle();
        _tape->latch(_layout, _arena.data());
        _cycle_valid = false;
    }

    const ir::TransitionSystem &system() const { return _sys; }

  protected:
    TapeRun(std::shared_ptr<const Tape> tape, Layout layout);

    uint64_t *slot(uint32_t offset) { return _arena.data() + offset; }
    const uint64_t *
    slot(uint32_t offset) const
    {
        return _arena.data() + offset;
    }

    std::shared_ptr<const Tape> _tape;
    const ir::TransitionSystem &_sys;
    Layout _layout;
    std::vector<uint64_t> _arena;
    bool _cycle_valid = false;
};

} // namespace rtlrepair::sim

#endif // RTLREPAIR_SIM_TAPE_HPP
