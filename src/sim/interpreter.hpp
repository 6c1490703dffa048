/**
 * @file
 * Cycle-accurate 4-state interpreter for transition systems.
 *
 * This is the reproduction's stand-in for running a design under
 * Verilator/VCS (trace recording, candidate-repair validation) — it
 * executes the same IR the repair synthesizer reasons about, so a
 * simulation pass/fail verdict is consistent with the SMT encoding.
 *
 * X handling follows paper §4.3: uninitialized registers and
 * unconstrained inputs can be kept as X (4-state event simulators),
 * set to zero (Verilator), or randomized.
 */
#ifndef RTLREPAIR_SIM_INTERPRETER_HPP
#define RTLREPAIR_SIM_INTERPRETER_HPP

#include <string>
#include <vector>

#include "ir/transition_system.hpp"
#include "sim/tape.hpp"
#include "trace/io_trace.hpp"
#include "util/rng.hpp"

namespace rtlrepair::sim {

/** How X bits in inputs / initial state are resolved. */
enum class XPolicy { Keep, Zero, Random };

struct SimOptions
{
    XPolicy init_policy = XPolicy::Keep;
    XPolicy input_policy = XPolicy::Keep;
    uint64_t seed = 1;
};

/**
 * Executes one TransitionSystem cycle by cycle on the scalar layout
 * of its tape (sim/tape.hpp), at any width.  Setting inputs,
 * evaluating, comparing outputs and stepping allocate nothing; the
 * value accessors materialize a bv::Value and are meant for off-hot-
 * path use (recording, OSDD, snapshots, tests).
 */
class Interpreter : public TapeRun
{
  public:
    /** Compiles a private tape for @p sys (O(nodes)). */
    explicit Interpreter(const ir::TransitionSystem &sys,
                         SimOptions options = {});
    /** Runs on a tape compiled (and possibly shared) elsewhere. */
    explicit Interpreter(std::shared_ptr<const Tape> tape,
                         SimOptions options = {});

    /** Reset all states to their init value (or the X policy). */
    void reset();

    /** @name Per-cycle inputs (apply the input X policy) @{ */
    void setInput(size_t index, const bv::Value &value);
    void setInputByName(const std::string &name, const bv::Value &value);
    /** @} */

    /** Bind a synthesis variable for the whole run. */
    void setSynthVar(size_t index, const bv::Value &value);
    void setSynthVarByName(const std::string &name,
                           const bv::Value &value);

    /** Force a state value (used to seed repair windows). */
    void setState(size_t index, const bv::Value &value);

    /** @name Value access (valid after evalCycle/step) @{ */
    bv::Value valueOf(ir::NodeRef ref) const;
    bv::Value output(size_t index) const;
    bv::Value stateValue(size_t index) const;
    /** @} */

    /** output(index).matches(expected), in place (after evalCycle). */
    bool outputMatches(size_t index, const bv::Value &expected) const;

  private:
    /** Resolve the X bits of a @p width-bit slot by @p policy. */
    void applyPolicy(uint64_t *slot, uint32_t width, XPolicy policy);
    /** Copy @p value (of the slot's width) into a slot. */
    static void store(uint64_t *slot, const bv::Value &value);

    SimOptions _options;
    Rng _rng;
};

/** Result of replaying an I/O trace against a design. */
struct ReplayResult
{
    bool passed = true;
    /** First cycle with an output mismatch (trace length if none). */
    size_t first_failure = 0;
    std::string failed_output;

    /** Per-cycle match status is implied: failure stops the replay. */
};

/**
 * Reset @p interp and replay @p trace, comparing outputs each cycle.
 * Stops at the first mismatch.  Input/output columns are matched to
 * the system's ports by name; missing columns are an error.
 */
ReplayResult replay(Interpreter &interp, const trace::IoTrace &io);

/**
 * Record the golden I/O trace: drive @p stim into @p golden and
 * capture all outputs each cycle.
 */
trace::IoTrace record(const ir::TransitionSystem &golden,
                      const trace::InputSequence &stim,
                      SimOptions options = {});

} // namespace rtlrepair::sim

#endif // RTLREPAIR_SIM_INTERPRETER_HPP
