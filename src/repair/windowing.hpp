/**
 * @file
 * The repair engine: basic full-unroll synthesis and the adaptive
 * windowing strategy of paper §4.4.
 *
 * Adaptive windowing concretely executes the unmodified circuit to
 * the first output divergence, then unrolls only a window
 * [f - k_past, f + k_future] around it.  Candidate minimal repairs
 * are validated by full concrete simulation; their failure pattern
 * steers window growth:
 *  - all candidates fail at or before the original failure -> a past
 *    state update must be wrong -> k_past += 2;
 *  - some candidate fails strictly later -> future context is
 *    missing -> k_future grows to include the new failure;
 *  - window size is capped at 32, after which the engine gives up;
 *  - after 4 failing candidates the engine advances to the next
 *    window immediately.
 */
#ifndef RTLREPAIR_REPAIR_WINDOWING_HPP
#define RTLREPAIR_REPAIR_WINDOWING_HPP

#include <map>

#include "repair/guarded.hpp"
#include "repair/synthesizer.hpp"
#include "sim/interpreter.hpp"

namespace rtlrepair::repair {

/** Strategy configuration. */
struct EngineConfig
{
    bool adaptive = true;       ///< false = basic full unrolling
    /** Persistent cross-window solver: one RepairQuery lives across
     *  the whole ladder, window growth encodes only the delta and
     *  UNSAT cores steer (fast-forward) the ladder.  false =
     *  fresh-per-window reference (`--no-incremental`). */
    bool incremental = true;
    size_t max_window = 32;     ///< paper: give up beyond 32 cycles
    size_t past_step = 2;       ///< paper: k_past increments of two
    size_t max_candidates = 4;  ///< paper: next window after 4 failures
    size_t basic_max_candidates = 16;
    /** Label for stage reports / fault sites ("solve:<label>"). */
    std::string stage_label;
    /** Window-solve retries (reseeded solver, halved window growth)
     *  before the engine gives up with Status::Failed. */
    int solve_retries = 1;
    /** Peak-RSS watermark in KiB; when the process peak crosses it,
     *  no further window solves are launched (0 = disabled). */
    size_t max_rss_kb = 0;
};

/** Per-window-candidate solve statistics (Table 5 / portfolio). */
struct WindowStat
{
    int k_past = 0;
    int k_future = 0;
    const char *status = "";  ///< "sat" / "unsat" / "timeout"
    int changes = -1;         ///< Σφ when status == "sat"
    double solve_seconds = 0.0;
    size_t aig_nodes = 0;
    /** AIG nodes already present when the window's encode began
     *  (incremental reuse; 0 for a fresh query). */
    size_t reused_aig_nodes = 0;
    /** Wall seconds spent encoding this window's delta. */
    double encode_seconds = 0.0;
    /** SAT solve() calls issued for this window. */
    uint64_t sat_calls = 0;
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    uint64_t restarts = 0;
    /** Learnt-clause database high-water mark of the solve. */
    uint64_t learnt_peak = 0;
    /** Seconds left on the governing deadline when the solve returned
     *  (negative = no deadline / unlimited). */
    double deadline_slack = -1.0;
};

/** Copy the query's SAT/AIG statistics into @p stat. */
void captureQueryStats(WindowStat &stat, const RepairQuery &query,
                       const Deadline *deadline);

/**
 * Fold one window solve into the telemetry counters.  Called by the
 * driver over the final outcome's candidate list — NOT at engine
 * consume time: a template that the portfolio later cancels consumes
 * windows the serial cascade never runs, while the folded candidate
 * list is bit-identical for jobs=1 and jobs=N.  Wall-clock fields
 * land in the unstable group.
 */
void recordWindowStat(const WindowStat &stat);

/** Outcome of one engine run on one instrumented system. */
struct EngineResult
{
    /** Failed = a window solve faulted even after the retry ladder;
     *  the caller drops this template and continues the cascade. */
    enum class Status { Repaired, NoRepair, Timeout, Failed };
    Status status = Status::NoRepair;
    templates::SynthAssignment assignment;
    int changes = 0;
    /** Final window, relative to the first failure (for Table 2). */
    int window_past = 0;
    int window_future = 0;
    /** First failing cycle of the unmodified circuit. */
    size_t first_failure = 0;
    bool failure_free = false;  ///< circuit already passed the trace
    /** One entry per (window × solve) candidate examined. */
    std::vector<WindowStat> windows;
    /** One guarded-stage record per window solve (and per retry). */
    std::vector<StageReport> stages;
    /** Diagnostic for Status::Failed. */
    std::string error;
};

/**
 * Deterministic adaptive-window ladder state (paper §4.4): the window
 * around the first failure and its two growth rules.  runEngine steps
 * it once per window result, in order, in both the incremental and the
 * fresh-per-window mode.
 */
struct WindowLadder
{
    size_t failure = 0;    ///< first failing cycle of the base run
    size_t trace_len = 0;
    size_t k_past = 0;
    size_t k_future = 0;

    struct Window
    {
        size_t start = 0;
        size_t count = 0;
    };

    /** Current window clamped to the trace. */
    Window window() const;

    bool
    exhausted(const EngineConfig &config) const
    {
        return k_past + k_future > config.max_window;
    }

    /** No repair in window / all candidates fail at or before the
     *  original failure: a past state update must be wrong. */
    void growPast(const EngineConfig &config)
    {
        k_past += config.past_step;
    }

    /** Some candidate fails strictly later: include that cycle. */
    void growFuture(size_t latest_failure);
};

/**
 * Validates candidate assignments by concrete simulation of the
 * instrumented system over the resolved trace.
 */
class ConcreteRunner
{
  public:
    /** @p init one fully-known value per state. */
    ConcreteRunner(const ir::TransitionSystem &sys,
                   const trace::IoTrace &resolved,
                   std::vector<bv::Value> init);

    /** Replay with @p assignment; stops at the first mismatch. */
    sim::ReplayResult run(const templates::SynthAssignment &assignment);

    /**
     * Replay every assignment, stopping each at its first mismatch.
     * Result i corresponds to assignment i and is identical to
     * run(assignments[i]).  More than one candidate on a design
     * whose widest net is at most 64 bits runs on VecInterpreter, up
     * to 64 candidates per pass; anything else runs run() in turn.
     */
    std::vector<sim::ReplayResult>
    runBatch(const std::vector<templates::SynthAssignment> &assignments);

    /**
     * State vector at entry of @p cycle under the all-off circuit.
     * Results are memoized: each call resumes from the nearest
     * earlier cached snapshot instead of re-simulating from cycle 0,
     * so the ladder's descending window starts cost a handful of
     * cycles each instead of a full prefix replay.
     */
    std::vector<bv::Value> statesAt(size_t cycle);

  private:
    /** Simulate from a known (cycle, states) snapshot to @p cycle,
     *  caching snapshots shortly before the target on the way. */
    std::vector<bv::Value>
    statesFrom(size_t snapshot_cycle,
               const std::vector<bv::Value> &snapshot, size_t cycle);

    std::vector<bv::Value> currentStates();
    void seedStates(const std::vector<bv::Value> &states);
    void applyAssignment(const templates::SynthAssignment &assignment);
    void applyInputs(size_t cycle);

    const ir::TransitionSystem &_sys;
    const trace::IoTrace &_io;
    std::vector<bv::Value> _init;
    /** Widest net is at most 64 bits: the packed interpreter pays one
     *  word per bit position, so wider datapaths (sha3-class) lose
     *  the 64-lane sharing win and stay on the scalar path. */
    bool _packable;
    sim::Interpreter _interp;
    std::vector<int> _input_map;   ///< trace col -> input index
    std::vector<int> _output_map;  ///< trace col -> output index
    /** All-off prefix-state snapshots, keyed by cycle. */
    std::map<size_t, std::vector<bv::Value>> _snapshots;
};

/** Run the repair engine on one instrumented system. */
EngineResult runEngine(const ir::TransitionSystem &sys,
                       const templates::SynthVarTable &vars,
                       const trace::IoTrace &resolved,
                       const std::vector<bv::Value> &init,
                       const EngineConfig &config,
                       const Deadline *deadline);

} // namespace rtlrepair::repair

#endif // RTLREPAIR_REPAIR_WINDOWING_HPP
