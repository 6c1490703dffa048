/**
 * @file
 * Event-driven 4-state Verilog simulator over the AST.
 *
 * This simulator implements *simulation* semantics, in contrast to
 * the IR interpreter which implements *synthesis* semantics:
 *  - sensitivity lists are honoured (an incomplete list leaves stale
 *    values — the classic synthesis–simulation mismatch),
 *  - `always @(clk)` triggers on any change of clk, not only edges,
 *  - blocking assignments take effect immediately, non-blocking
 *    assignments are applied in the NBA region of the delta cycle,
 *  - unassigned combinational paths keep their previous value (a
 *    simulated latch),
 *  - X propagates per 4-state rules; `if` takes the else branch on an
 *    X condition; `case` compares with ===-style matching.
 *
 * It is the reproduction's stand-in for iverilog/VCS: trace checking
 * with true event semantics, the cross-simulator repair check of
 * Table 4, and the fitness function of the CirFix baseline all run on
 * it.
 */
#ifndef RTLREPAIR_SIM_EVENT_SIM_HPP
#define RTLREPAIR_SIM_EVENT_SIM_HPP

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/process_info.hpp"
#include "analysis/widths.hpp"
#include "sim/interpreter.hpp"
#include "verilog/ast.hpp"

namespace rtlrepair::sim {

/** Interprets a (flattened) module with event-driven semantics. */
class EventSimulator
{
  public:
    /**
     * @param mod the design (instances are flattened internally).
     * @param library submodule definitions.
     * @param clock name of the clock input toggled by step().
     */
    /**
     * @param reverse_order evaluate triggered processes in reverse
     *        declaration order.  The Verilog standard leaves process
     *        scheduling unspecified; running both orders and
     *        comparing is our analogue of cross-checking a repair
     *        under a second simulator (iverilog in the paper) — it
     *        exposes repairs that rely on racy evaluation order.
     */
    EventSimulator(const verilog::Module &mod,
                   const std::vector<const verilog::Module *> &library,
                   std::string clock, bool reverse_order = false);

    /** Reset all signals to X and re-run initial blocks. */
    void powerOn();

    /** Drive an input for the current cycle. */
    void setInput(const std::string &name, const bv::Value &value);

    /**
     * One clock cycle: settle combinational logic with clk low, then
     * raise the clock, run triggered processes, apply NBAs, settle.
     * Outputs sampled *before* the edge are available via
     * sampledOutput() — this matches the I/O-trace convention.
     */
    void step();

    /** Settle only (no clock edge) — for combinational designs. */
    void settleOnly();

    /** Value of a signal right now. */
    bv::Value get(const std::string &name) const;

    /** Output value sampled before the most recent clock edge. */
    bv::Value sampledOutput(const std::string &name) const;

    bool hasSignal(const std::string &name) const;

    /** Oscillation detected (comb loop in simulation semantics). */
    bool unstable() const { return _unstable; }

  private:
    struct Proc
    {
        const verilog::AlwaysBlock *block;
        analysis::ProcessInfo info;
        verilog::StmtPtr body;  ///< for-loops unrolled
    };

    void runInitialBlocks();
    void settle();
    void runProcess(const Proc &proc);
    void execStmt(const verilog::Stmt &stmt);
    void assignNow(const verilog::Expr &lhs, bv::Value value);
    void writeSignal(const std::string &name, const bv::Value &value);
    bv::Value readLhsTarget(const verilog::Expr &lhs, uint32_t &pos,
                            uint32_t &width, std::string &name);
    bv::Value evalExpr(const verilog::Expr &expr, uint32_t ctx) const;
    bv::Value evalBinary(const verilog::BinaryExpr &expr,
                         uint32_t ctx) const;
    bool caseMatches(const bv::Value &subject, const bv::Value &label,
                     verilog::CaseStmt::Mode mode) const;

    std::unique_ptr<verilog::Module> _mod;
    analysis::SymbolTable _table;
    std::string _clock;
    std::vector<Proc> _procs;
    std::vector<const verilog::ContAssign *> _cont_assigns;
    std::vector<std::set<std::string>> _cont_reads;

    std::map<std::string, bv::Value> _values;
    std::map<std::string, bv::Value> _prev;  ///< for edge detection
    std::set<std::string> _changed;
    /** NBA queue: full-signal final values. */
    std::map<std::string, bv::Value> _nba;
    std::map<std::string, bv::Value> _sampled;
    bool _unstable = false;
};

/**
 * Replay @p io against an event-driven simulation of @p mod; outputs
 * are checked each cycle before the clock edge.  @p clock may be
 * empty for purely combinational designs.  @p reverse_order runs the
 * simulator with reversed process order (EventSimulator).
 */
ReplayResult eventReplay(const verilog::Module &mod,
                         const std::vector<const verilog::Module *>
                             &library,
                         const std::string &clock,
                         const trace::IoTrace &io,
                         bool reverse_order = false);

/** Record a golden trace with event-driven semantics. */
trace::IoTrace eventRecord(const verilog::Module &mod,
                           const std::vector<const verilog::Module *>
                               &library,
                           const std::string &clock,
                           const trace::InputSequence &stim);

} // namespace rtlrepair::sim

#endif // RTLREPAIR_SIM_EVENT_SIM_HPP
