#include "repair/windowing.hpp"

#include <algorithm>
#include <cstring>

#include "sim/vec_sim.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"

namespace rtlrepair::repair {

using bv::Value;
using templates::SynthAssignment;

namespace {

using telemetry::MetricKind;

// Deterministic: bumped only via recordWindowStat when the driver
// folds the final outcome's candidate list.
telemetry::Counter s_solves("window.solves");
telemetry::Counter s_sat("window.sat");
telemetry::Counter s_unsat("window.unsat");
telemetry::Counter s_timeout("window.timeout");
telemetry::Counter s_conflicts("sat.conflicts");
telemetry::Counter s_propagations("sat.propagations");
telemetry::Counter s_restarts("sat.restarts");
telemetry::Counter s_aig_nodes("window.aig_nodes");
telemetry::Counter s_reused_nodes("window.reused_aig_nodes");
telemetry::Counter s_sat_calls("window.sat_calls");
telemetry::Gauge s_learnt_peak("sat.learnt_db_peak",
                               MetricKind::Deterministic);
// Wall-clock totals of the consumed solves.
telemetry::Counter s_solve_us("window.solve_us",
                              MetricKind::Unstable);
telemetry::Counter s_encode_us("window.encode_us",
                               MetricKind::Unstable);
telemetry::Counter s_slack_us("window.deadline_slack_us",
                              MetricKind::Unstable);
// Windows the incremental engine resolved from an UNSAT core alone
// (no solve, no encode): a core free of the window anchor proves
// every larger window UNSAT.
telemetry::Counter s_fastforward("window.core_fastforward");

} // namespace

void
captureQueryStats(WindowStat &stat, const RepairQuery &query,
                  const Deadline *deadline)
{
    stat.aig_nodes = query.aigNodes();
    stat.reused_aig_nodes = query.reusedAigNodes();
    stat.encode_seconds = query.encodeSeconds();
    stat.sat_calls = query.satCalls();
    stat.conflicts = query.conflicts();
    stat.propagations = query.propagations();
    stat.restarts = query.restarts();
    stat.learnt_peak = query.learntPeak();
    if (deadline) {
        double left = deadline->remaining();
        stat.deadline_slack = left < 1e17 ? left : -1.0;
    }
}

void
recordWindowStat(const WindowStat &stat)
{
    s_solves.add(1);
    if (std::strcmp(stat.status, "sat") == 0)
        s_sat.add(1);
    else if (std::strcmp(stat.status, "unsat") == 0)
        s_unsat.add(1);
    else if (std::strcmp(stat.status, "timeout") == 0)
        s_timeout.add(1);
    s_conflicts.add(stat.conflicts);
    s_propagations.add(stat.propagations);
    s_restarts.add(stat.restarts);
    s_aig_nodes.add(stat.aig_nodes);
    s_reused_nodes.add(stat.reused_aig_nodes);
    s_sat_calls.add(stat.sat_calls);
    s_learnt_peak.record(stat.learnt_peak);
    if (stat.sat_calls == 0 && stat.aig_nodes == 0)
        s_fastforward.add(1);
    s_solve_us.add(
        static_cast<uint64_t>(stat.solve_seconds * 1e6));
    s_encode_us.add(
        static_cast<uint64_t>(stat.encode_seconds * 1e6));
    if (stat.deadline_slack >= 0.0) {
        s_slack_us.add(
            static_cast<uint64_t>(stat.deadline_slack * 1e6));
    }
}

WindowLadder::Window
WindowLadder::window() const
{
    Window w;
    w.start = failure >= k_past ? failure - k_past : 0;
    size_t end = std::min(trace_len, failure + k_future + 1);
    w.count = end - w.start;
    return w;
}

void
WindowLadder::growFuture(size_t latest_failure)
{
    size_t needed = latest_failure - failure;
    k_future = std::max(k_future + 1, needed);
}

ConcreteRunner::ConcreteRunner(const ir::TransitionSystem &sys,
                               const trace::IoTrace &resolved,
                               std::vector<Value> init)
    : _sys(sys), _io(resolved), _init(std::move(init)),
      _packable(std::all_of(
          sys.nodes.begin(), sys.nodes.end(),
          [](const ir::Node &n) { return n.width <= 64; })),
      _interp(sys, sim::SimOptions{sim::XPolicy::Keep,
                                   sim::XPolicy::Keep, 1})
{
    check(_init.size() == sys.states.size(), "init size mismatch");
    // A trace column that names no design port is malformed user
    // input (the trace and the design come from the user together),
    // so it must surface as FatalError, never as a panic.
    _input_map.resize(_io.inputs.size());
    for (size_t i = 0; i < _io.inputs.size(); ++i) {
        _input_map[i] = sys.inputIndex(_io.inputs[i].name);
        if (_input_map[i] < 0)
            fatal("trace input not in design: " + _io.inputs[i].name);
    }
    _output_map.resize(_io.outputs.size());
    for (size_t i = 0; i < _io.outputs.size(); ++i) {
        _output_map[i] = sys.outputIndex(_io.outputs[i].name);
        if (_output_map[i] < 0)
            fatal("trace output not in design: " + _io.outputs[i].name);
    }
}

void
ConcreteRunner::seedStates(const std::vector<Value> &states)
{
    for (size_t i = 0; i < states.size(); ++i)
        _interp.setState(i, states[i]);
}

void
ConcreteRunner::applyAssignment(const SynthAssignment &assignment)
{
    for (size_t i = 0; i < _sys.synth_vars.size(); ++i) {
        auto it = assignment.values.find(_sys.synth_vars[i].name);
        Value v = it != assignment.values.end()
                      ? it->second
                      : Value::zeros(_sys.synth_vars[i].width);
        _interp.setSynthVar(i, v);
    }
}

void
ConcreteRunner::applyInputs(size_t cycle)
{
    for (size_t i = 0; i < _input_map.size(); ++i) {
        _interp.setInput(static_cast<size_t>(_input_map[i]),
                         _io.input_rows[cycle][i]);
    }
}

sim::ReplayResult
ConcreteRunner::run(const SynthAssignment &assignment)
{
    applyAssignment(assignment);
    seedStates(_init);
    sim::ReplayResult result;
    for (size_t cycle = 0; cycle < _io.length(); ++cycle) {
        applyInputs(cycle);
        _interp.evalCycle();
        for (size_t i = 0; i < _output_map.size(); ++i) {
            const Value &expected = _io.output_rows[cycle][i];
            const Value &got = _interp.output(
                static_cast<size_t>(_output_map[i]));
            if (!got.matches(expected)) {
                result.passed = false;
                result.first_failure = cycle;
                result.failed_output = _io.outputs[i].name;
                return result;
            }
        }
        _interp.step();
    }
    result.first_failure = _io.length();
    return result;
}

std::vector<sim::ReplayResult>
ConcreteRunner::runBatch(const std::vector<SynthAssignment> &assignments)
{
    telemetry::Span span("sim.replay");
    std::vector<sim::ReplayResult> out(assignments.size());
    if (assignments.size() <= 1 || !_packable) {
        for (size_t i = 0; i < assignments.size(); ++i)
            out[i] = run(assignments[i]);
        return out;
    }
    using bv::PackedValue;
    for (size_t base = 0; base < assignments.size();
         base += PackedValue::kLanes) {
        uint32_t n = static_cast<uint32_t>(std::min<size_t>(
            PackedValue::kLanes, assignments.size() - base));
        sim::VecInterpreter vi(_sys, n);
        for (uint32_t l = 0; l < n; ++l) {
            const SynthAssignment &a = assignments[base + l];
            for (size_t i = 0; i < _sys.synth_vars.size(); ++i) {
                auto it = a.values.find(_sys.synth_vars[i].name);
                Value v = it != a.values.end()
                              ? it->second
                              : Value::zeros(_sys.synth_vars[i].width);
                vi.setSynthVar(i, l, v);
            }
        }
        for (size_t i = 0; i < _init.size(); ++i)
            vi.setStateAll(i, _init[i]);
        uint64_t still = vi.allLanes();
        for (size_t cycle = 0; cycle < _io.length() && still;
             ++cycle) {
            for (size_t i = 0; i < _input_map.size(); ++i) {
                vi.setInputAll(static_cast<size_t>(_input_map[i]),
                               _io.input_rows[cycle][i]);
            }
            vi.evalCycle();
            for (size_t i = 0; i < _output_map.size() && still; ++i) {
                const PackedValue &got = vi.output(
                    static_cast<size_t>(_output_map[i]));
                uint64_t mismatch =
                    still & ~got.laneMatches(PackedValue::broadcast(
                                _io.output_rows[cycle][i]));
                if (!mismatch)
                    continue;
                for (uint32_t l = 0; l < n; ++l) {
                    if (!((mismatch >> l) & 1))
                        continue;
                    out[base + l].passed = false;
                    out[base + l].first_failure = cycle;
                    out[base + l].failed_output = _io.outputs[i].name;
                }
                still &= ~mismatch;
            }
            vi.step();
        }
        for (uint32_t l = 0; l < n; ++l) {
            if ((still >> l) & 1)
                out[base + l].first_failure = _io.length();
        }
    }
    return out;
}

std::vector<Value>
ConcreteRunner::currentStates()
{
    std::vector<Value> out;
    out.reserve(_sys.states.size());
    for (size_t i = 0; i < _sys.states.size(); ++i)
        out.push_back(_interp.stateValue(i));
    return out;
}

std::vector<Value>
ConcreteRunner::statesAt(size_t cycle)
{
    telemetry::Span span("sim.prefix");
    if (cycle == 0)
        return _init;
    auto it = _snapshots.upper_bound(cycle);
    if (it != _snapshots.begin()) {
        --it;
        if (it->first == cycle)
            return it->second;
        return statesFrom(it->first, it->second, cycle);
    }
    return statesFrom(0, _init, cycle);
}

std::vector<Value>
ConcreteRunner::statesFrom(size_t snapshot_cycle,
                           const std::vector<Value> &snapshot,
                           size_t cycle)
{
    check(snapshot_cycle <= cycle, "snapshot is after target cycle");
    // The ladder asks for successively *earlier* window starts, so
    // snapshots taken shortly before the current target are the ones
    // the next call resumes from.
    constexpr size_t kStride = 16;
    constexpr size_t kTail = 64;
    applyAssignment(SynthAssignment{});  // all φ off
    seedStates(snapshot);
    for (size_t c = snapshot_cycle; c < cycle; ++c) {
        if (c > snapshot_cycle && c % kStride == 0 &&
            cycle - c <= kTail) {
            _snapshots.emplace(c, currentStates());
        }
        applyInputs(c);
        _interp.step();
    }
    std::vector<Value> out = currentStates();
    _snapshots.emplace(cycle, out);
    return out;
}

namespace {

EngineResult
runBasic(const ir::TransitionSystem &sys,
         const templates::SynthVarTable &vars,
         const trace::IoTrace &resolved, const std::vector<Value> &init,
         ConcreteRunner &runner, const EngineConfig &config,
         const Deadline *deadline, size_t first_failure)
{
    EngineResult result;
    result.first_failure = first_failure;

    Stopwatch watch;
    RepairQuery query(sys, vars, resolved, 0, resolved.length(),
                      init, deadline);
    SynthesisResult synth = synthesizeMinimalRepairs(
        query, vars, config.basic_max_candidates, deadline);
    WindowStat stat;
    stat.k_past = static_cast<int>(first_failure);
    stat.k_future =
        static_cast<int>(resolved.length() - first_failure);
    stat.solve_seconds = watch.seconds();
    captureQueryStats(stat, query, deadline);
    switch (synth.status) {
      case SynthesisResult::Status::Timeout:
        stat.status = "timeout";
        result.windows.push_back(stat);
        result.status = EngineResult::Status::Timeout;
        return result;
      case SynthesisResult::Status::NoRepair:
        stat.status = "unsat";
        result.windows.push_back(stat);
        result.status = EngineResult::Status::NoRepair;
        return result;
      case SynthesisResult::Status::Found:
        stat.status = "sat";
        stat.changes = synth.changes;
        result.windows.push_back(stat);
        break;
    }
    std::vector<sim::ReplayResult> replays =
        runner.runBatch(synth.repairs);
    for (size_t i = 0; i < synth.repairs.size(); ++i) {
        if (replays[i].passed) {
            result.status = EngineResult::Status::Repaired;
            result.assignment = synth.repairs[i];
            result.changes = synth.changes;
            return result;
        }
    }
    // All sampled solutions satisfy the symbolic query but fail the
    // 4-state replay (an X-semantics corner); report no repair.
    result.status = EngineResult::Status::NoRepair;
    return result;
}

} // namespace

EngineResult
runEngine(const ir::TransitionSystem &sys,
          const templates::SynthVarTable &vars,
          const trace::IoTrace &resolved,
          const std::vector<Value> &init, const EngineConfig &config,
          const Deadline *deadline)
{
    EngineResult result;
    ConcreteRunner runner(sys, resolved, init);

    // Baseline run: the unmodified circuit (all φ off).
    sim::ReplayResult base;
    {
        telemetry::Span span("sim.replay");
        base = runner.run(SynthAssignment{});
    }
    if (base.passed) {
        result.status = EngineResult::Status::Repaired;
        result.assignment = SynthAssignment::allOff(vars);
        result.changes = 0;
        result.failure_free = true;
        return result;
    }
    size_t f = base.first_failure;
    result.first_failure = f;

    if (!config.adaptive) {
        return runBasic(sys, vars, resolved, init, runner, config,
                        deadline, f);
    }

    // Local copy: the degradation ladder may halve the window growth
    // step after a faulted solve.
    EngineConfig cfg = config;
    const std::string solve_stage = solveStageName(cfg.stage_label);
    int retries_used = 0;
    uint64_t solver_seed = 0;

    // Incremental mode: one persistent query lives across the whole
    // ladder; each window retargets it in place.  Reset (and rebuilt
    // with the retry seed) when a window solve faults.
    std::optional<RepairQuery> inc_query;

    WindowLadder ladder;
    ladder.failure = f;
    ladder.trace_len = resolved.length();
    while (true) {
        if (deadline && deadline->expired()) {
            result.status = EngineResult::Status::Timeout;
            return result;
        }
        if (ladder.exhausted(cfg)) {
            result.status = EngineResult::Status::NoRepair;
            return result;
        }
        if (cfg.max_rss_kb > 0 &&
            peakRssKb().value_or(0) > cfg.max_rss_kb) {
            result.status = EngineResult::Status::Failed;
            result.error = format(
                "peak-RSS watermark exceeded (%zu KiB)",
                peakRssKb().value_or(0));
            return result;
        }
        WindowLadder::Window w = ladder.window();
        logMessage(LogLevel::Info,
                   format("repair window [%zd .. %zd] (failure at %zu)",
                          static_cast<ssize_t>(w.start),
                          static_cast<ssize_t>(w.start + w.count) - 1,
                          f));

        Stopwatch watch;
        SynthesisResult synth;
        WindowStat stat;
        StageGuard guard(solve_stage, result.stages);
        guard.setRetries(retries_used);

        // UNSAT-core fast-forward: a previous window's core proved
        // the window-independent constraints inconsistent, so this
        // window (and every larger one) is UNSAT without a solve.
        // The stage guard still runs (empty) so the fault-site and
        // stage-report sequences match the fresh reference.
        if (cfg.incremental && inc_query &&
            inc_query->windowIndependentUnsat()) {
            bool ok = guard.run([] {});
            if (ok) {
                stat.k_past = static_cast<int>(ladder.k_past);
                stat.k_future = static_cast<int>(ladder.k_future);
                stat.status = "unsat";
                result.windows.push_back(stat);
                ladder.growPast(cfg);
                continue;
            }
            inc_query.reset();
            if (guard.report().status == StageStatus::TimedOut) {
                result.status = EngineResult::Status::Timeout;
                return result;
            }
            if (retries_used < cfg.solve_retries) {
                ++retries_used;
                solver_seed = retrySolverSeed(retries_used);
                cfg.past_step = cfg.past_step > 1 ? cfg.past_step / 2
                                                  : cfg.past_step;
                continue;
            }
            result.status = EngineResult::Status::Failed;
            result.error = guard.report().diagnostic;
            return result;
        }

        std::vector<Value> start_state = runner.statesAt(w.start);

        bool solved = guard.run([&] {
            if (cfg.incremental) {
                if (!inc_query) {
                    inc_query.emplace(sys, vars, resolved,
                                      RepairQuery::Incremental{},
                                      deadline, solver_seed);
                }
                inc_query->retarget(w.start, w.count, start_state,
                                    deadline);
                synth = synthesizeMinimalRepairs(
                    *inc_query, vars, cfg.max_candidates, deadline);
                captureQueryStats(stat, *inc_query, deadline);
            } else {
                RepairQuery query(sys, vars, resolved, w.start,
                                  w.count, start_state, deadline,
                                  solver_seed);
                synth = synthesizeMinimalRepairs(
                    query, vars, cfg.max_candidates, deadline);
                captureQueryStats(stat, query, deadline);
            }
        });
        if (!solved) {
            // A faulted solve may have left the persistent query in
            // an inconsistent state; rebuild it on the next attempt.
            inc_query.reset();
            // A stage-budget overrun is a timeout, not a fault to
            // retry (retrying would double the budget); the caller
            // decides whether the global run is out of time.
            if (guard.report().status == StageStatus::TimedOut) {
                result.status = EngineResult::Status::Timeout;
                return result;
            }
            // Degradation ladder, rung 1: retry the same window with a
            // reseeded solver and halved window growth.  Rung 2: give
            // up on this template only — the caller drops it from the
            // cascade and the siblings keep running.
            if (retries_used < cfg.solve_retries) {
                ++retries_used;
                solver_seed = retrySolverSeed(retries_used);
                cfg.past_step = cfg.past_step > 1 ? cfg.past_step / 2
                                                  : cfg.past_step;
                continue;
            }
            result.status = EngineResult::Status::Failed;
            result.error = guard.report().diagnostic;
            return result;
        }
        stat.k_past = static_cast<int>(ladder.k_past);
        stat.k_future = static_cast<int>(ladder.k_future);
        stat.solve_seconds = watch.seconds();
        if (synth.status == SynthesisResult::Status::Timeout) {
            stat.status = "timeout";
            result.windows.push_back(stat);
            result.status = EngineResult::Status::Timeout;
            return result;
        }
        if (synth.status == SynthesisResult::Status::NoRepair) {
            // No repair exists in this window: more past context.
            stat.status = "unsat";
            result.windows.push_back(stat);
            ladder.growPast(cfg);
            continue;
        }
        stat.status = "sat";
        stat.changes = synth.changes;
        result.windows.push_back(stat);

        bool any_later = false;
        size_t latest_failure = f;
        std::vector<sim::ReplayResult> replays =
            runner.runBatch(synth.repairs);
        for (size_t i = 0; i < synth.repairs.size(); ++i) {
            const sim::ReplayResult &r = replays[i];
            if (r.passed) {
                result.status = EngineResult::Status::Repaired;
                result.assignment = synth.repairs[i];
                result.changes = synth.changes;
                result.window_past = static_cast<int>(ladder.k_past);
                result.window_future =
                    static_cast<int>(ladder.k_future);
                return result;
            }
            // Candidates past the first passing one never ran in the
            // serial loop; the in-order early return above keeps the
            // window-growth feedback identical.
            if (r.first_failure > f) {
                any_later = true;
                latest_failure =
                    std::max(latest_failure, r.first_failure);
            }
        }
        if (any_later) {
            // Missing future context: include the new failure cycle.
            ladder.growFuture(latest_failure);
        } else {
            ladder.growPast(cfg);
        }
    }
}

} // namespace rtlrepair::repair
