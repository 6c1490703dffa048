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
 * Per-cycle value tables of one TransitionSystem and the node loop
 * over them: one forward sweep loads each leaf from its table and
 * evaluates each operator through ir::evalOp.  @p V is bv::Value for
 * Interpreter and bv::PackedValue (64 lanes) for VecInterpreter; both
 * run this one loop.
 */
template <typename V>
class NodeLoop
{
  public:
    /** Evaluate all combinational values for the current cycle. */
    void evalCycle();

    /** evalCycle() then latch every state's next value. */
    void step();

  protected:
    /** Inputs start all-X, synthesis variables zero; @p consts holds
     *  one value per entry of sys.consts. */
    NodeLoop(const ir::TransitionSystem &sys, std::vector<V> consts);

    const ir::TransitionSystem &_sys;
    std::vector<V> _consts;
    std::vector<V> _node_vals;   ///< per-cycle node values
    std::vector<V> _state_vals;  ///< current state values
    std::vector<V> _input_vals;
    std::vector<V> _synth_vals;
    bool _cycle_valid = false;
};

/** Executes one TransitionSystem cycle by cycle. */
class Interpreter : public NodeLoop<bv::Value>
{
  public:
    explicit Interpreter(const ir::TransitionSystem &sys,
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
    const bv::Value &valueOf(ir::NodeRef ref) const;
    const bv::Value &output(size_t index) const;
    const bv::Value &stateValue(size_t index) const;
    /** @} */

    const ir::TransitionSystem &system() const { return _sys; }

  private:
    bv::Value applyPolicy(const bv::Value &v, XPolicy policy);

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
