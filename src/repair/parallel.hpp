/**
 * @file
 * The template cascade of paper Fig. 3 and how its templates are
 * scheduled.
 *
 * Every template goes through one path: apply the template, elaborate
 * the instrumented design, run the windowing engine, and patch the
 * repair back.  One fold turns the per-template results into the run's
 * outcome in standardTemplates() order: the fewest changes win, a tie
 * goes to the earlier template, and a repair at or under the change
 * threshold stops the cascade.
 *
 * The worker count decides only how the templates run.  With one
 * worker they run inline and in order, each with a time slice carved
 * from the budget still left, and the cascade stops at the threshold.
 * With more workers every template is a thread-pool task with the same
 * slice.  Once template i holds a repair at or under the threshold, the
 * fold can never reach a later template, so those are cancelled
 * through a per-template horizon CancelToken that the solver loops
 * poll via their Deadline.  Thread timing therefore changes only
 * wall-clock time: jobs=1 and jobs=N report identical outcomes.
 */
#ifndef RTLREPAIR_REPAIR_PARALLEL_HPP
#define RTLREPAIR_REPAIR_PARALLEL_HPP

#include "repair/driver.hpp"

namespace rtlrepair::repair {

/**
 * Resolve the effective worker count: @p requested if positive, else
 * the RTLREPAIR_JOBS environment variable, else
 * std::thread::hardware_concurrency() (at least 1).
 */
unsigned resolveJobs(unsigned requested);

/**
 * Run the template cascade over @p jobs workers and fold the results
 * into @p outcome: detail notes, candidates, stage reports, the
 * degraded flag and the winning repair.  @p preprocessed is the
 * lint-fixed module the templates instrument; @p resolved and @p init
 * must already be X-resolved.  Returns Repaired, Timeout, Degraded or
 * NoRepair.
 */
RepairOutcome::Status
runCascade(const verilog::Module &preprocessed,
           const std::vector<const verilog::Module *> &library,
           const trace::IoTrace &resolved,
           const std::vector<bv::Value> &init,
           const RepairConfig &config, const Deadline &deadline,
           unsigned jobs, RepairOutcome &outcome);

} // namespace rtlrepair::repair

#endif // RTLREPAIR_REPAIR_PARALLEL_HPP
