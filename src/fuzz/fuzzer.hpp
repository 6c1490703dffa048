/**
 * @file
 * Differential fuzzing harness: a seeded mutate–repair–verify loop
 * that turns the simulators into a correctness oracle for the whole
 * repair pipeline.
 *
 * One run:
 *  1. pick a known-good design (benchmark registry or generated),
 *  2. record a golden I/O trace from it with the event simulator,
 *  3. inject 1-3 bugs via replayable cirfix mutation sub-seeds,
 *  4. run the full repair pipeline on the mutant against the trace,
 *  5. cross-check any claimed repair by co-simulating repaired vs.
 *     golden on fresh random stimulus.
 *
 * Classification:
 *
 *  | class             | meaning                                     |
 *  |-------------------|---------------------------------------------|
 *  | REPAIRED_VERIFIED | repair passes trace + fresh-stimulus co-sim |
 *  | REPAIRED_OVERFIT  | claimed repair fails the oracle             |
 *  | NO_REPAIR         | pipeline gave up (incl. timeout/cannot-syn) |
 *  | MUTANT_BENIGN     | mutations did not break the golden trace    |
 *  | MUTANT_INVISIBLE  | bug breaks the event-sim oracle but not the |
 *  |                   | trace under the tool's synthesis semantics  |
 *  | PIPELINE_FAULT    | exception escaped, or nondeterminism        |
 *  | ORACLE_MISMATCH   | golden design fails its own recorded trace  |
 *
 * OVERFIT documents a minimality-vs-generality gap (paper shift_k1);
 * MUTANT_INVISIBLE is the paper's simulation-vs-synthesis semantics
 * gap (e.g. a broken sensitivity list, which RTL-Repair's fault model
 * cannot observe); PIPELINE_FAULT and ORACLE_MISMATCH are always tool
 * bugs.  Failures are auto-reduced (drop mutations, shrink trace,
 * shrink stimulus) to a minimal reproducer for the corpus
 * (fuzz/corpus.hpp).
 */
#ifndef RTLREPAIR_FUZZ_FUZZER_HPP
#define RTLREPAIR_FUZZ_FUZZER_HPP

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/corpus.hpp"
#include "repair/driver.hpp"

namespace rtlrepair::fuzz {

enum class RunClass {
    RepairedVerified,
    RepairedOverfit,
    NoRepair,
    MutantBenign,
    MutantInvisible,
    PipelineFault,
    OracleMismatch,
};

/** Corpus spelling, e.g. "REPAIRED_VERIFIED". */
const char *toString(RunClass cls);
std::optional<RunClass> runClassFromString(const std::string &name);

/** True for the classes worth reducing and writing to the corpus:
 *  an unsafe repair (OVERFIT) or a tool bug (FAULT / MISMATCH). */
bool isFailure(RunClass cls);

/** One fully-determined fuzz case (= one corpus entry). */
struct FuzzCase
{
    /** Registry benchmark name, or `gen:<seed>`. */
    std::string design;
    /** Mutation sub-seeds, applied in order (cirfix::applyMutation). */
    std::vector<uint64_t> mutations;
    /** Mutation operator-set version the sub-seeds were drawn under. */
    int mutator = 1;
    /** Driving-trace prefix in cycles; 0 = the full trace. */
    size_t trace_cycles = 0;
    /** Extra random rows appended to the driving trace — a richer
     *  trace constrains the repair harder and starves overfits. */
    size_t trace_extra = 0;
    uint64_t trace_seed = 0;
    /** Fresh-stimulus length and seed for the co-simulation check. */
    size_t fresh_cycles = 64;
    uint64_t fresh_seed = 1;

    CorpusEntry toCorpus() const;
    static FuzzCase fromCorpus(const CorpusEntry &entry);
};

/** Result of replaying one case. */
struct CaseResult
{
    RunClass cls = RunClass::NoRepair;
    /** Mutation descriptions + failure specifics, human-readable. */
    std::string detail;
    /** Digest of the deterministic RepairOutcome group (see
     *  outcomeFingerprint); empty when the pipeline was not reached. */
    std::string fingerprint;
    double seconds = 0.0;
};

struct FuzzConfig
{
    uint64_t seed = 1;
    size_t runs = 10;
    /** Bugs injected per run: 1..max_mutations. */
    int max_mutations = 3;
    double repair_timeout = 10.0;
    unsigned jobs = 1;
    size_t fresh_cycles = 64;
    /** Extra random driving rows per case (FuzzCase::trace_extra). */
    size_t extra_trace_cycles = 0;
    /** Driving-trace cycles for generated designs. */
    size_t gen_trace_cycles = 24;
    /** Probability of fuzzing a generated module instead of a
     *  registry design. */
    double gen_probability = 0.25;
    /** Registry design pool; empty = the built-in fast subset. */
    std::vector<std::string> designs;
    /** Re-run the pipeline (same seed, and jobs=1 vs jobs=4) and
     *  flag fingerprint divergence as PIPELINE_FAULT. */
    bool check_determinism = false;
    /** Persistent cross-window solver (false = `--no-incremental`
     *  fresh-per-window reference engine). */
    bool incremental = true;
    /** Fresh co-simulation stimuli per claimed repair (seeds
     *  fresh_seed .. fresh_seed+N-1, batched through the vectorized
     *  simulator).  1 = the classic single check. */
    int fresh_batch = 1;
    /** Reduce failures and write reproducers here ("" = don't). */
    std::string corpus_dir;
    bool reduce = true;
    /** Classes that make the whole sweep fail (FuzzStats::ok).
     *  OVERFIT is reported and reduced either way; making it fatal is
     *  a per-run policy because a short or weak driving trace cannot
     *  rule it out (see DESIGN.md §9). */
    std::vector<RunClass> fail_on = {RunClass::PipelineFault,
                                     RunClass::OracleMismatch};
};

struct FuzzStats
{
    std::map<RunClass, size_t> counts;
    /** Reduced reproducers for every failing run, in run order. */
    std::vector<std::pair<FuzzCase, CaseResult>> failures;
    size_t corpus_written = 0;

    size_t count(RunClass cls) const;
    /** True when none of @p fail_on occurred. */
    bool ok(const std::vector<RunClass> &fail_on) const;
    std::string summary() const;
};

/** Replay one fully-determined case. */
CaseResult runCase(const FuzzCase &fcase, const FuzzConfig &config);

/**
 * Shrink @p fcase while it still classifies as @p target: drop
 * mutations one at a time, then halve the driving trace, then halve
 * the fresh stimulus.  Bounded by @p max_trials replays.
 */
FuzzCase reduceCase(const FuzzCase &fcase, const FuzzConfig &config,
                    RunClass target, int max_trials = 32);

/**
 * The main loop: derive `config.runs` cases from `config.seed`,
 * replay each, reduce failures, and (optionally) write reproducers
 * to `config.corpus_dir`.  @p log gets one line per run when set.
 */
FuzzStats fuzz(const FuzzConfig &config, std::ostream *log = nullptr);

/**
 * Digest of the deterministic counter group of a RepairOutcome:
 * status, change counts, winning template, per-candidate window/solve
 * statistics, and the printed repaired source — everything except
 * wall-clock times and memory watermarks.  Byte-identical across
 * repeated runs and across jobs=1 vs jobs=N for the same inputs.
 *
 * With @p include_solver_stats false, per-candidate SAT/AIG counters
 * are omitted, leaving only the semantic outcome (status, ladder,
 * changes, repaired source).  That variant is additionally identical
 * across the incremental engine and the fresh-per-window reference,
 * whose solver-internal work necessarily differs.
 */
std::string outcomeFingerprint(const repair::RepairOutcome &outcome,
                               bool include_solver_stats = true);

} // namespace rtlrepair::fuzz

#endif // RTLREPAIR_FUZZ_FUZZER_HPP
