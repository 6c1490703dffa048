#include "repair/parallel.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "repair/patcher.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace rtlrepair::repair {

using bv::Value;

namespace {

// Scheduling-dependent by nature: only jobs>1 cancels templates.
telemetry::Counter s_cancelled("portfolio.cancelled",
                               telemetry::MetricKind::Unstable);
telemetry::Gauge s_cancel_latency("portfolio.cancel_latency_us",
                                  telemetry::MetricKind::Unstable);

} // namespace

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("RTLREPAIR_JOBS")) {
        long v = std::strtol(env, nullptr, 10);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace {

/** What one template contributed to the cascade. */
struct TemplateRun
{
    enum class Outcome {
        Skipped,    ///< no change sites
        NotSynth,   ///< instrumented design failed to elaborate
        Timeout,    ///< the run's global deadline expired
        Cancelled,  ///< stopped by its horizon token (jobs>1 only)
        NoRepair,
        Repaired,
        Failed,     ///< dropped by the containment layer (degrades)
    };

    std::string name;
    Outcome outcome = Outcome::Skipped;
    std::unique_ptr<verilog::Module> repaired;
    int changes = 0;
    int window_past = 0;
    int window_future = 0;
    std::vector<WindowStat> windows;
    std::vector<StageReport> stages;
    std::string note;
};

/** The inputs every template of one run shares. */
struct CascadeInput
{
    const verilog::Module &preprocessed;
    const std::vector<const verilog::Module *> &library;
    const trace::IoTrace &resolved;
    const std::vector<Value> &init;
    const RepairConfig &config;
    const Deadline &deadline;  ///< the run's global deadline
};

/**
 * Apply, elaborate, solve and patch one template into @p r.  A
 * template gets @p slice seconds of the global budget, so one
 * pathological template cannot starve its siblings.  @p horizon is
 * the token the jobs>1 scheduler trips once the fold can no longer
 * reach this template; only that token makes the template Cancelled.
 * The caller's RepairConfig::cancel expires the global deadline and so
 * reports Timeout, as a time budget running out does.
 */
void
applyAndSolve(TemplateRun &r, templates::RepairTemplate &tmpl,
              const CascadeInput &in, const CancelToken *horizon,
              double slice)
{
    using Outcome = TemplateRun::Outcome;
    const RepairConfig &config = in.config;
    const char *name = r.name.c_str();
    auto horizonCancelled = [&] {
        return horizon && horizon->cancelled();
    };
    if (in.deadline.expired()) {
        r.outcome = Outcome::Timeout;
        return;
    }
    if (horizonCancelled()) {
        r.outcome = Outcome::Cancelled;
        return;
    }
    if (memoryWatermarkExceeded(config.guard)) {
        StageGuard guard("template:" + r.name, r.stages);
        guard.skip("peak-RSS watermark exceeded");
        r.outcome = Outcome::Failed;
        r.note = format(
            "template %s: skipped, peak-RSS watermark exceeded\n", name);
        return;
    }
    Deadline tmpl_deadline(&in.deadline, horizon, slice);

    templates::TemplateResult inst;
    {
        StageGuard guard("template:" + r.name, r.stages);
        if (!guard.run([&] {
                inst = tmpl.apply(in.preprocessed, in.library);
            })) {
            r.outcome = Outcome::Failed;
            r.note = format("template %s: instrumentation dropped (%s)\n",
                            name, guard.report().diagnostic.c_str());
            return;
        }
    }
    if (inst.vars.empty()) {
        r.outcome = Outcome::Skipped;  // template found no change sites
        return;
    }

    elaborate::ElaborateOptions opts;
    opts.library = in.library;
    opts.synth_vars = inst.vars.specs();
    ir::TransitionSystem sys;
    {
        StageGuard guard("elaborate:" + r.name, r.stages);
        if (!guard.run([&] {
                sys = elaborate::elaborate(*inst.instrumented, opts);
            })) {
            const StageReport &report = guard.report();
            if (report.user_error) {
                // The instrumented design can legitimately fail to
                // elaborate; skipping it is the normal cascade
                // behaviour, not a degradation.
                r.outcome = Outcome::NotSynth;
                r.note = format("template %s: instrumented design not "
                                "synthesizable (%s)\n",
                                name, report.diagnostic.c_str());
            } else {
                r.outcome = Outcome::Failed;
                r.note = format("template %s: elaboration dropped (%s)\n",
                                name, report.diagnostic.c_str());
            }
            return;
        }
    }

    EngineConfig engine_cfg = config.engine;
    engine_cfg.stage_label = r.name;
    engine_cfg.solve_retries = config.guard.solve_retries;
    engine_cfg.max_rss_kb = config.guard.max_rss_mb * 1024;

    EngineResult engine;
    // The engine guards each window solve itself; the wrapper only
    // reports when a fault escapes those inner guards (e.g. out of
    // memory while replaying candidates).
    StageGuard guard("engine:" + r.name, r.stages,
                     StageGuard::Recording::OnFault);
    bool ran = guard.run([&] {
        engine = runEngine(sys, inst.vars, in.resolved, in.init,
                           engine_cfg, &tmpl_deadline);
    });
    r.stages.insert(r.stages.end(), engine.stages.begin(),
                    engine.stages.end());
    r.windows = std::move(engine.windows);
    if (!ran) {
        r.outcome = Outcome::Failed;
        r.note = format("template %s: engine dropped (%s)\n", name,
                        guard.report().diagnostic.c_str());
        return;
    }
    switch (engine.status) {
      case EngineResult::Status::Timeout:
        if (horizonCancelled()) {
            r.outcome = Outcome::Cancelled;
        } else if (in.deadline.expired()) {
            r.outcome = Outcome::Timeout;
            r.note = format("template %s: timeout\n", name);
        } else {
            // The slice ran out but the global budget did not: drop
            // this template and let the siblings use the time.
            r.outcome = Outcome::Failed;
            r.note = format(
                "template %s: stage budget exhausted, dropped\n", name);
        }
        return;
      case EngineResult::Status::Failed:
        r.outcome = Outcome::Failed;
        r.note = format("template %s: dropped after contained fault (%s)\n",
                        name, engine.error.c_str());
        return;
      case EngineResult::Status::NoRepair:
        r.outcome = Outcome::NoRepair;
        r.note = format("template %s: no repair found\n", name);
        return;
      case EngineResult::Status::Repaired:
        r.outcome = Outcome::Repaired;
        r.repaired =
            patch(*inst.instrumented, inst.vars, engine.assignment);
        r.changes = engine.changes;
        r.window_past = engine.window_past;
        r.window_future = engine.window_future;
        return;
    }
}

/**
 * The per-template path shared by jobs=1 and jobs=N.  A fault that
 * escapes the stage guards inside (a tool bug, not an injected stage
 * fault) drops this template with a "task:<name>" report instead of
 * unwinding the run, so it can never poison its siblings.
 */
TemplateRun
runTemplate(templates::RepairTemplate &tmpl, const CascadeInput &in,
            const CancelToken *horizon, double slice)
{
    TemplateRun r;
    r.name = tmpl.name();
    telemetry::Span span("task:" + r.name);
    auto drop = [&](const std::string &what) {
        StageReport report;
        report.stage = "task:" + r.name;
        report.status = StageStatus::Failed;
        report.diagnostic = what;
        std::optional<size_t> rss = peakRssKb();
        report.rss_known = rss.has_value();
        report.peak_rss_kb = rss.value_or(0);
        r.stages.push_back(report);
        r.outcome = TemplateRun::Outcome::Failed;
        r.note = format("template %s: task faulted (%s)\n",
                        r.name.c_str(), what.c_str());
    };
    try {
        applyAndSolve(r, tmpl, in, horizon, slice);
    } catch (const FatalError &e) {
        drop(format("fatal: %s", e.what()));
    } catch (const PanicError &e) {
        drop(format("panic: %s", e.what()));
    } catch (const std::bad_alloc &) {
        drop("out of memory");
    } catch (const std::exception &e) {
        drop(e.what());
    } catch (...) {
        drop("unknown exception");
    }
    return r;
}

/**
 * Fold one template's result into @p out, in cascade order.  Returns
 * true when the cascade stops here: a repair at or under the change
 * threshold (paper Fig. 3).
 */
bool
foldTemplate(TemplateRun &r, const RepairConfig &config,
             RepairOutcome &out, bool &timed_out)
{
    using Outcome = TemplateRun::Outcome;
    out.stages.insert(out.stages.end(), r.stages.begin(),
                      r.stages.end());
    for (const auto &w : r.windows)
        out.candidates.push_back({r.name, w});
    switch (r.outcome) {
      case Outcome::Skipped:
      case Outcome::Cancelled:
        return false;
      case Outcome::NotSynth:
      case Outcome::NoRepair:
        out.detail += r.note;
        return false;
      case Outcome::Failed:
        out.degraded = true;
        out.detail += r.note;
        return false;
      case Outcome::Timeout:
        timed_out = true;
        out.detail += r.note;
        return false;
      case Outcome::Repaired:
        break;
    }
    if (!out.repaired || r.changes < out.changes) {
        out.repaired = std::move(r.repaired);
        out.changes = r.changes;
        out.template_name = r.name;
        out.window_past = r.window_past;
        out.window_future = r.window_future;
    }
    if (r.changes <= config.change_threshold)
        return true;
    out.detail += format(
        "template %s: repair with %d changes exceeds threshold, "
        "trying further templates\n",
        r.name.c_str(), r.changes);
    return false;
}

/** One template task on the pool. */
struct Slot
{
    CancelToken horizon;
    std::atomic<bool> finished{false};
    /** Telemetry: when the scheduler cancelled this slot (scheduler
     *  thread only). */
    uint64_t cancel_us = 0;
    // Written by the task thread before the `finished` release store.
    uint64_t finish_us = 0;
    TemplateRun run;
    std::future<void> done;
};

/**
 * Run every template of @p cascade as a task on a pool of @p jobs
 * workers.  All tasks share one slice of the budget, since they run at
 * once.  Returns the results in cascade order.
 */
std::vector<TemplateRun>
runOnPool(const std::vector<std::unique_ptr<templates::RepairTemplate>>
              &cascade,
          const CascadeInput &in, unsigned jobs)
{
    const double slice = stageSlice(in.deadline.remaining(),
                                    cascade.size(), in.config.guard);
    // The slots outlive the pool: its destructor joins the workers
    // while every slot (and its horizon token) is alive.
    std::vector<Slot> slots(cascade.size());
    {
        ThreadPool pool(jobs);
        for (size_t i = 0; i < cascade.size(); ++i) {
            Slot &s = slots[i];
            templates::RepairTemplate &tmpl = *cascade[i];
            uint64_t span_parent = telemetry::Span::currentId();
            s.done = pool.submit([&s, &tmpl, &in, slice, span_parent] {
                telemetry::SpanParent adopt(span_parent);
                s.run = runTemplate(tmpl, in, &s.horizon, slice);
                if (telemetry::enabled())
                    s.finish_us = telemetry::nowUs();
                s.finished.store(true, std::memory_order_release);
            });
        }

        // Once template i holds a repair at or under the threshold,
        // templates after i can never influence the fold (an earlier
        // template either stops the cascade itself or loses to i's
        // smaller repair), so they are cancelled at once: first
        // success wins without letting timing pick the winner.
        auto horizonIndex = [&]() -> size_t {
            for (size_t i = 0; i < slots.size(); ++i) {
                const Slot &s = slots[i];
                if (s.finished.load(std::memory_order_acquire) &&
                    s.run.outcome == TemplateRun::Outcome::Repaired &&
                    s.run.changes <= in.config.change_threshold) {
                    return i;
                }
            }
            return slots.size();
        };
        while (true) {
            for (size_t j = horizonIndex() + 1; j < slots.size(); ++j) {
                if (!slots[j].horizon.cancelled()) {
                    slots[j].horizon.cancel();
                    if (telemetry::enabled())
                        slots[j].cancel_us = telemetry::nowUs();
                }
            }
            bool all_done = true;
            for (const Slot &s : slots) {
                if (!s.finished.load(std::memory_order_acquire)) {
                    all_done = false;
                    break;
                }
            }
            if (all_done)
                break;
            if (!pool.help()) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            }
        }
        for (Slot &s : slots)
            pool.waitCollect(s.done);
    }

    std::vector<TemplateRun> runs;
    runs.reserve(slots.size());
    for (Slot &s : slots) {
        // Cancel latency: from the scheduler's cancel() to the task's
        // return (a slot already finished when cancelled counts not).
        if (s.cancel_us && s.finish_us > s.cancel_us) {
            s_cancelled.add(1);
            s_cancel_latency.record(s.finish_us - s.cancel_us);
        }
        runs.push_back(std::move(s.run));
    }
    return runs;
}

} // namespace

RepairOutcome::Status
runCascade(const verilog::Module &preprocessed,
           const std::vector<const verilog::Module *> &library,
           const trace::IoTrace &resolved,
           const std::vector<Value> &init, const RepairConfig &config,
           const Deadline &deadline, unsigned jobs,
           RepairOutcome &outcome)
{
    std::vector<std::unique_ptr<templates::RepairTemplate>> cascade;
    for (auto &tmpl : templates::standardTemplates()) {
        if (config.only_template.empty() ||
            tmpl->name() == config.only_template) {
            cascade.push_back(std::move(tmpl));
        }
    }
    const CascadeInput in{preprocessed, library, resolved,
                          init,         config,  deadline};

    bool timed_out = false;
    if (jobs <= 1) {
        for (size_t i = 0; i < cascade.size(); ++i) {
            // Recomputed per template, so time a fast template leaves
            // behind goes to the ones after it.
            const double slice = stageSlice(
                deadline.remaining(), cascade.size() - i, config.guard);
            TemplateRun r = runTemplate(*cascade[i], in, nullptr, slice);
            if (foldTemplate(r, config, outcome, timed_out))
                break;
        }
    } else {
        for (TemplateRun &r : runOnPool(cascade, in, jobs)) {
            if (foldTemplate(r, config, outcome, timed_out))
                break;
        }
    }

    if (outcome.repaired)
        return RepairOutcome::Status::Repaired;
    if (timed_out)
        return RepairOutcome::Status::Timeout;
    return outcome.degraded ? RepairOutcome::Status::Degraded
                            : RepairOutcome::Status::NoRepair;
}

} // namespace rtlrepair::repair
