// perfbench: time-to-verdict benchmark for the RTL-Repair tool.
//
//   perfbench setup   --workload W --seed N --dir D
//   perfbench measure --workload W --dir D --seconds S --trace 0|1
//   perfbench verify  --workload W --dir D
//
// `setup` materialises a workload's cases into D/cases.bundle: per case
// the design source and I/O trace CSV a user hands to repair_cli, plus
// what verification needs (golden design, optional extended trace,
// fresh-stimulus seed).  It prints one JSON line with its wall time.
//
// `measure` runs in a fresh process that reads only that bundle, so
// its VmHWM is the workload's own peak.  With --trace 0 it repeats the
// case list until --seconds have passed and reports time to verdict
// (verilog::parse + IoTrace::fromCsv + repair::repairDesign) per case,
// and saves the first pass's verdicts to D/verdicts.bundle.  With
// --trace 1 it runs every case untraced, then serially, then as an
// outside-in walk of the driver's cascade through the layers' public
// calls, timing each call as a span.  Either way it checks that the
// outcomes repeat and prints one JSON line of metrics.
//
// `verify`, in a process of its own again, runs the Table-4 battery
// and a fresh-stimulus co-simulation on the saved verdicts.
//
// run.py builds this binary, runs setup, measure and verify, and
// prints the benchmark's result; see README.md for the metrics.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/registry.hpp"
#include "checks/correctness.hpp"
#include "cirfix/mutations.hpp"
#include "elaborate/elaborate.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/generator.hpp"
#include "repair/driver.hpp"
#include "repair/patcher.hpp"
#include "sim/interpreter.hpp"
#include "service/json.hpp"
#include "sim/vec_sim.hpp"
#include "templates/preprocess.hpp"
#include "trace/stimulus.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "verilog/parser.hpp"
#include "verilog/printer.hpp"

using namespace rtlrepair;
namespace fs = std::filesystem;
using Status = repair::RepairOutcome::Status;
using service::Json;

namespace {

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** A registry row and the verdict it must reach. */
struct RegistryRow
{
    const char *name;
    const char *expect;  ///< "repaired" or "no-repair"
    int max_changes;     ///< upper bound on Σφ + lint fixes
};

/** Long traces: concrete replay and trace ingest dominate. */
const std::vector<RegistryRow> kLongTrace = {
    {"i2c_k1", "repaired", 1},
    {"oss_c3", "no-repair", 0},
};

/** Short traces whose engine time is SAT search and encoding. */
const std::vector<RegistryRow> kSolverBound = {
    {"sdram_w2", "repaired", 2},  {"oss_d4", "no-repair", 0},
    {"sha3_w1", "no-repair", 0},  {"sha3_r1", "no-repair", 0},
    {"oss_s1r", "repaired", 2},   {"oss_s1b", "repaired", 1},
    {"fsm_w1", "no-repair", 0},
};

/** The fuzzer's fast registry pool: every design repairs (or gives
 *  up) in well under a second. */
const std::vector<std::string> kMutantPool = {
    "decoder_w1", "counter_k1", "flop_w1", "fsm_w1", "shift_w1",
    "mux_k1",     "oss_m1",     "oss_m2",  "oss_m3", "oss_m4",
    "oss_m5",
};

constexpr size_t kMutantCases = 2000;
constexpr size_t kGenTraceCycles = 24;
constexpr size_t kFreshCycles = 64;
constexpr int kMutator = 2;
constexpr double kMutantTimeout = 10.0;

struct Workload
{
    std::string name;
    /** Repair worker threads: 1, or 0 for one per hardware thread. */
    unsigned jobs = 1;
    /** Timed checkRepair calls per repaired case (median kept): a
     *  workload with few, small repairs repeats them so verify_s is
     *  not a handful of millisecond-sized samples. */
    int verify_reps = 1;
    /** Passes run even after the time budget is spent.  The portfolio
     *  makes solver-bound's per-case times and peak memory depend on
     *  thread scheduling, so it takes its medians over more passes. */
    size_t min_passes = 1;
};

std::optional<Workload>
findWorkload(const std::string &name)
{
    if (name == "long-trace" || name == "mutant-sweep")
        return Workload{name, 1, 1, 1};
    if (name == "solver-bound")
        return Workload{name, 0, 5, 4};
    return std::nullopt;
}

unsigned
resolvedJobs(const Workload &w)
{
    if (w.jobs != 0)
        return w.jobs;
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const fs::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        throw std::runtime_error("cannot write " + path.string());
}

/** A `Vm*:` line of /proc/self/status in KiB (0 when unavailable). */
size_t
procStatusKb(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    size_t len = std::strlen(key);
    while (std::getline(in, line)) {
        if (line.compare(0, len, key) == 0)
            return std::strtoull(line.c_str() + len, nullptr, 10);
    }
    return 0;
}

/** Top module first, then the library: the layout repair_cli reads
 *  (first module = design under repair, the rest = library). */
std::string
printDesign(const verilog::Module &top,
            const std::vector<const verilog::Module *> &library)
{
    std::string out = verilog::print(top);
    for (const verilog::Module *m : library) {
        if (m != &top)
            out += "\n" + verilog::print(*m);
    }
    return out;
}

std::vector<const verilog::Module *>
libraryOf(const verilog::SourceFile &file)
{
    std::vector<const verilog::Module *> lib;
    for (const auto &m : file.modules) {
        if (m.get() != &file.top())
            lib.push_back(m.get());
    }
    return lib;
}

/** Bytes the allocator has handed out and not yet had back (glibc):
 *  the difference across a call is the live memory it kept, however
 *  much of it came from chunks earlier work had freed. */
double
liveHeapBytes()
{
    struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
}

void
maskHidden(trace::IoTrace &tb, const std::vector<std::string> &hidden)
{
    for (const auto &name : hidden) {
        int idx = tb.outputIndex(name);
        if (idx < 0)
            continue;
        for (auto &row : tb.output_rows)
            row[idx] = bv::Value::allX(row[idx].width());
    }
}

/**
 * Fresh stimulus for the golden co-simulation: the first @p warmup
 * rows of the driving stimulus (so the design leaves reset as
 * intended), then fully known random rows.
 */
trace::InputSequence
freshStimulus(const std::vector<trace::Column> &inputs,
              const std::vector<std::vector<bv::Value>> &rows,
              size_t warmup, uint64_t seed)
{
    Rng rng(seed);
    trace::StimulusBuilder sb(inputs);
    std::vector<std::string> names;
    for (const auto &col : inputs)
        names.push_back(col.name);
    warmup = std::min(warmup, rows.size());
    for (size_t r = 0; r < warmup; ++r) {
        for (size_t i = 0; i < names.size(); ++i)
            sb.setValue(names[i], rows[r][i]);
        sb.step();
    }
    trace::randomRows(sb, names, kFreshCycles - warmup, rng);
    return sb.finish();
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

const char *
statusName(Status s)
{
    switch (s) {
      case Status::Repaired: return "repaired";
      case Status::NoRepair: return "no-repair";
      case Status::Timeout: return "timeout";
      case Status::CannotSynthesize: return "cannot-synthesize";
      case Status::Degraded: return "degraded";
    }
    return "?";
}

/** Timed out, or a stage faulted and was dropped: no full verdict.
 *  (An exception escaping the driver ends the whole run instead.) */
bool
isFailure(const repair::RepairOutcome &o)
{
    return o.status == Status::Timeout ||
           o.status == Status::Degraded || o.degraded;
}

// ---------------------------------------------------------------------
// Setup: materialise the workload's cases as a bundle
// ---------------------------------------------------------------------

/** One case: the tool's inputs plus what verification needs. */
struct Case
{
    std::string name;
    std::string clock;
    bool zero_x = false;
    double timeout = 60.0;
    std::string expect;     ///< pinned verdict; empty for mutants
    int max_changes = -1;   ///< pinned upper bound on changes
    std::string design;     ///< top module first, then its library
    std::string trace_csv;  ///< the I/O trace, as repair_cli reads it
    std::string golden;     ///< ground truth, for the Table-4 battery
    std::string ext_csv;    ///< extended testbench ("" = none)
    /** Co-simulation against the golden design on fresh stimulus:
     *  the trace's first `warmup` rows, then random rows from
     *  `fresh_seed`, with the registry's hidden outputs masked. */
    uint64_t fresh_seed = 0;
    size_t warmup = 0;
    std::string hidden;  ///< comma-separated output names
};

/**
 * A workload's cases live in one bundle file, each field written as
 * `<key> <bytes>\n<bytes>\n`: thousands of small per-case files would
 * make set-up time mostly file-system time.
 */
void
putField(std::string &out, const char *key, const std::string &value)
{
    out += key;
    out += ' ';
    out += std::to_string(value.size());
    out += '\n';
    out += value;
    out += '\n';
}

void
appendCase(std::string &out, const Case &c)
{
    putField(out, "name", c.name);
    putField(out, "clock", c.clock);
    putField(out, "zero_x", c.zero_x ? "1" : "0");
    putField(out, "timeout", std::to_string(c.timeout));
    putField(out, "expect", c.expect);
    putField(out, "max_changes", std::to_string(c.max_changes));
    putField(out, "design", c.design);
    putField(out, "trace", c.trace_csv);
    putField(out, "golden", c.golden);
    putField(out, "ext", c.ext_csv);
    putField(out, "fresh_seed", std::to_string(c.fresh_seed));
    putField(out, "warmup", std::to_string(c.warmup));
    putField(out, "hidden", c.hidden);
}

/** Reads the fields putField wrote, in order. */
class BundleReader
{
  public:
    explicit BundleReader(const fs::path &path)
        : _path(path), _text(readFile(path))
    {
    }

    bool done() const { return _pos >= _text.size(); }

    std::string
    field(const char *key)
    {
        size_t sp = _text.find(' ', _pos);
        size_t nl = _text.find('\n', _pos);
        if (sp == std::string::npos || nl == std::string::npos ||
            _text.compare(_pos, sp - _pos, key) != 0)
            throw std::runtime_error("corrupt bundle " + _path.string());
        size_t len = std::stoull(_text.substr(sp + 1, nl - sp - 1));
        std::string value = _text.substr(nl + 1, len);
        _pos = nl + 1 + len + 1;
        return value;
    }

  private:
    fs::path _path;
    std::string _text;
    size_t _pos = 0;
};

std::vector<Case>
readBundle(const fs::path &path)
{
    BundleReader in(path);
    auto field = [&](const char *key) { return in.field(key); };
    std::vector<Case> cases;
    while (!in.done()) {
        Case c;
        c.name = field("name");
        c.clock = field("clock");
        c.zero_x = field("zero_x") == "1";
        c.timeout = std::stod(field("timeout"));
        c.expect = field("expect");
        c.max_changes = std::stoi(field("max_changes"));
        c.design = field("design");
        c.trace_csv = field("trace");
        c.golden = field("golden");
        c.ext_csv = field("ext");
        c.fresh_seed = std::stoull(field("fresh_seed"));
        c.warmup = std::stoull(field("warmup"));
        c.hidden = field("hidden");
        cases.push_back(std::move(c));
    }
    return cases;
}

struct SetupStats
{
    size_t cases = 0;
    size_t generated = 0;
    size_t benign = 0;
    size_t invisible = 0;
    double csv_mb = 0.0;
    std::string bundle;
};

void
addCase(SetupStats &stats, const Case &c)
{
    appendCase(stats.bundle, c);
    stats.csv_mb += static_cast<double>(c.trace_csv.size()) / 1e6;
    ++stats.cases;
}

void
setupRegistry(const std::vector<RegistryRow> &rows, SetupStats &stats)
{
    for (const RegistryRow &row : rows) {
        const benchmarks::LoadedBenchmark &lb = benchmarks::load(row.name);
        const benchmarks::BenchmarkDef &def = *lb.def;
        Case c{def.name,
               def.clock,
               def.x_policy == sim::XPolicy::Zero,
               def.timeout_seconds,
               row.expect,
               row.max_changes,
               printDesign(*lb.buggy, lb.buggy_lib),
               lb.tb.toCsv(),
               printDesign(*lb.golden, lb.golden_lib),
               lb.extended_tb ? lb.extended_tb->toCsv() : "",
               0xf5e5'1000ull + stats.cases,
               4,
               join(def.hidden_outputs, ",")};
        addCase(stats, c);
        ++stats.generated;
    }
}

/** True when @p mutant fails @p tb under the tool's own synthesis
 *  semantics (elaborated IR + interpreter).  A mutant that passes
 *  carries a bug outside the repair fault model. */
bool
visibleToTool(const verilog::Module &mutant,
              const std::vector<const verilog::Module *> &library,
              sim::XPolicy policy, const trace::IoTrace &tb)
{
    try {
        elaborate::ElaborateOptions eo;
        eo.library = library;
        ir::TransitionSystem sys = elaborate::elaborate(mutant, eo);
        sim::SimOptions so;
        so.init_policy = policy;
        so.input_policy = policy;
        sim::Interpreter interp(sys, so);
        return !sim::replay(interp, tb).passed;
    } catch (const std::exception &) {
        return true;  // not synthesizable: the tool reports that
    }
}

/**
 * A seeded stream of mutants with a fixed composition: every fourth
 * slot mutates a generated design (the fuzzer's default
 * gen_probability of 0.25, made exact), the other slots cycle through
 * the fast registry pool, and slot i injects 1 + i % 3 bugs.  The seed
 * picks the designs' generator seeds and the mutation sub-seeds.
 * Mutants that leave their golden trace intact (benign) or that only
 * the event simulator can observe (invisible to the tool) are
 * discarded and redrawn for the same slot, so every seed keeps the
 * same mix.
 */
void
setupMutants(uint64_t seed, SetupStats &stats)
{
    Rng rng(seed * 0x9e37'79b9'7f4a'7c15ull + 0x6d75'7461'6e74ull);
    while (stats.cases < kMutantCases) {
        const size_t slot = stats.cases;
        ++stats.generated;
        verilog::SourceFile owned;
        const verilog::Module *golden = nullptr;
        std::vector<const verilog::Module *> library;
        std::string clock, label;
        trace::IoTrace tb;  ///< golden trace on the driving stimulus
        std::vector<std::string> hidden;
        sim::XPolicy policy = sim::XPolicy::Random;
        size_t warmup = 2;
        if (slot % 4 == 0) {
            uint64_t gen_seed = rng.next();
            fuzz::GeneratedDesign gen = fuzz::generateDesign(gen_seed);
            owned = verilog::parse(gen.source);
            golden = &owned.top();
            clock = gen.clock;
            tb = sim::recordTrace(
                sim::SimBackend::Event, *golden, library, clock,
                fuzz::generateStimulus(gen, kGenTraceCycles, gen_seed));
            label = "gen2:" + std::to_string(gen_seed);
        } else {
            // The registry already recorded (and masked) this design's
            // golden trace.
            const size_t pool_slot = slot - (slot + 3) / 4;
            const benchmarks::LoadedBenchmark &lb = benchmarks::load(
                kMutantPool[pool_slot % kMutantPool.size()]);
            golden = lb.golden;
            library = lb.golden_lib;
            clock = lb.def->clock;
            tb = lb.tb;
            hidden = lb.def->hidden_outputs;
            policy = lb.def->x_policy;
            warmup = 4;
            label = lb.def->name;
        }
        auto mutant = golden->clone();
        for (size_t i = 0; i <= slot % 3; ++i) {
            uint64_t subseed = rng.next();
            mutant = cirfix::applyMutation(*mutant, subseed, kMutator).mod;
            label += "/" + std::to_string(subseed);
        }
        uint64_t fresh_seed = rng.next();

        bool broke;
        try {
            broke = !sim::replayTrace(sim::SimBackend::Event, *mutant,
                                      library, clock, tb)
                         .passed;
        } catch (const std::exception &) {
            broke = true;
        }
        if (!broke) {
            ++stats.benign;
            continue;
        }
        if (!visibleToTool(*mutant, library, policy, tb)) {
            ++stats.invisible;
            continue;
        }
        addCase(stats, Case{label, clock, policy == sim::XPolicy::Zero,
                            kMutantTimeout, "", -1,
                            printDesign(*mutant, library), tb.toCsv(),
                            printDesign(*golden, library), "", fresh_seed,
                            warmup, join(hidden, ",")});
    }
}

int
runSetup(const Workload &w, uint64_t seed, const fs::path &root)
{
    fs::create_directories(root);
    Stopwatch watch;
    SetupStats stats;
    if (w.name == "long-trace")
        setupRegistry(kLongTrace, stats);
    else if (w.name == "solver-bound")
        setupRegistry(kSolverBound, stats);
    else
        setupMutants(seed, stats);
    writeFile(root / "cases.bundle", stats.bundle);
    double seconds = watch.seconds();
    std::printf("{\"setup_s\": %.6f, \"cases\": %zu, \"generated\": %zu, "
                "\"discarded_benign\": %zu, \"discarded_invisible\": %zu, "
                "\"csv_mb\": %.3f}\n",
                seconds, stats.cases, stats.generated, stats.benign,
                stats.invisible, stats.csv_mb);
    return 0;
}

// ---------------------------------------------------------------------
// Measure
// ---------------------------------------------------------------------

repair::RepairConfig
caseConfig(const Case &c, unsigned jobs)
{
    repair::RepairConfig cfg;
    cfg.timeout_seconds = c.timeout;
    cfg.x_policy = c.zero_x ? sim::XPolicy::Zero : sim::XPolicy::Random;
    cfg.jobs = jobs;
    return cfg;
}

/** The tool's inputs and verdict, as repair_cli produces them. */
struct Verdict
{
    verilog::SourceFile file;
    trace::IoTrace io;
    repair::RepairOutcome outcome;
    double seconds = 0.0;
};

Verdict
timeToVerdict(const Case &c, unsigned jobs)
{
    Verdict v;
    Stopwatch watch;
    v.file = verilog::parse(c.design);
    v.io = trace::IoTrace::fromCsv(c.trace_csv);
    v.outcome = repair::repairDesign(v.file.top(), libraryOf(v.file), v.io,
                                     caseConfig(c, jobs));
    v.seconds = watch.seconds();
    return v;
}

/** Independent checks of one verdict (none of them timed as part of
 *  time to verdict). */
struct VerdictCheck
{
    bool repaired = false;     ///< Repaired and passes the event-sim tb
    bool testbench = false;    ///< battery's event-simulator replay
    bool cosim = false;        ///< agrees with golden on fresh stimulus
    bool expected = true;      ///< registry row reached its pinned verdict
    double verify_s = 0.0;     ///< time in checks::checkRepair
    std::string note;
};

/** What the tool hands the user: the verdict, the number of changes,
 *  and the repaired source (`repair_cli --out`). */
struct SavedVerdict
{
    std::string status;
    int changes = 0;
    std::string repaired;  ///< printed repaired module ("" = none)
};

void
appendVerdict(std::string &out, const SavedVerdict &v)
{
    putField(out, "status", v.status);
    putField(out, "changes", std::to_string(v.changes));
    putField(out, "repaired", v.repaired);
}

std::vector<SavedVerdict>
readVerdicts(const fs::path &path)
{
    BundleReader in(path);
    std::vector<SavedVerdict> out;
    while (!in.done()) {
        SavedVerdict v;
        v.status = in.field("status");
        v.changes = std::stoi(in.field("changes"));
        v.repaired = in.field("repaired");
        out.push_back(std::move(v));
    }
    return out;
}

/** Check verdict @p v on case @p c, as a user would check the
 *  repaired source the tool wrote out. */
VerdictCheck
checkVerdict(const Case &c, const SavedVerdict &v, int verify_reps)
{
    VerdictCheck out;
    if (v.status == statusName(Status::Repaired) && !v.repaired.empty()) {
        const verilog::SourceFile repaired = verilog::parse(v.repaired);
        const verilog::SourceFile design = verilog::parse(c.design);
        const trace::IoTrace io = trace::IoTrace::fromCsv(c.trace_csv);
        verilog::SourceFile golden = verilog::parse(c.golden);
        std::optional<trace::IoTrace> ext;
        if (!c.ext_csv.empty())
            ext = trace::IoTrace::fromCsv(c.ext_csv);
        checks::CheckInputs in;
        in.golden = &golden.top();
        in.repaired = &repaired.top();
        in.library = libraryOf(golden);
        in.clock = c.clock;
        in.tb = &io;
        in.extended_tb = ext ? &*ext : nullptr;
        checks::CheckReport report;
        std::vector<double> times;
        for (int rep = 0; rep < verify_reps; ++rep) {
            Stopwatch watch;
            report = checks::checkRepair(in);
            times.push_back(watch.seconds());
        }
        out.verify_s = median(times);
        out.testbench = report.testbench.value_or(false);
        out.repaired = out.testbench;
        try {
            trace::IoTrace fresh = sim::recordTrace(
                sim::SimBackend::Event, golden.top(), in.library, c.clock,
                freshStimulus(io.inputs, io.input_rows, c.warmup,
                              c.fresh_seed));
            maskHidden(fresh, split(c.hidden, ','));
            out.cosim = sim::replayTrace(sim::SimBackend::Event,
                                         repaired.top(), libraryOf(design),
                                         c.clock, fresh)
                            .passed;
        } catch (const std::exception &) {
            out.cosim = false;
        }
    }
    if (!c.expect.empty()) {
        if (c.expect != v.status) {
            out.expected = false;
            out.note = c.name + ": expected " + c.expect +
                       ", got " + v.status;
        } else if (v.status == statusName(Status::Repaired) &&
                   (v.changes > c.max_changes || !out.testbench)) {
            out.expected = false;
            out.note = c.name + ": repair with " +
                       std::to_string(v.changes) +
                       " changes, testbench " +
                       (out.testbench ? "pass" : "fail");
        }
    }
    return out;
}

/** Add one numeric metric to the result line. */
void
put(Json &json, const char *key, double value)
{
    json.set(key, Json::number(value));
}

struct RunChecks
{
    bool ok = true;
    std::vector<std::string> problems;

    void
    fail(const std::string &why)
    {
        ok = false;
        if (problems.size() < 8)
            problems.push_back(why);
    }
};

/**
 * Untraced passes: time to verdict per case, repeated until the time
 * budget is used.  Each case's time is its median over passes, so a
 * burst of machine noise during one pass moves the sums and
 * percentiles less than per-pass totals would.  The first pass's
 * verdicts go to D/verdicts.bundle for `perfbench verify`.
 */
void
measureUntraced(const Workload &w, const std::vector<Case> &cases,
                const fs::path &root, double budget, Json &json,
                RunChecks &checks)
{
    unsigned jobs = resolvedJobs(w);
    std::vector<std::vector<double>> case_s(cases.size());
    std::vector<double> pass_wall;
    std::vector<std::string> fingerprints(cases.size());
    std::string verdicts;
    // Per-case verdicts of the first pass, for finding slow cases.
    std::ofstream case_log(root / "cases.tsv");
    case_log << "case\tname\tstatus\tchanges\tseconds\n";
    size_t attempted = 0, failed = 0;
    Stopwatch budget_watch;
    for (size_t pass = 0;
         pass < w.min_passes || budget_watch.seconds() < budget; ++pass) {
        double wall = 0.0;
        for (size_t i = 0; i < cases.size(); ++i) {
            const Case &c = cases[i];
            Verdict v = timeToVerdict(c, jobs);
            wall += v.seconds;
            case_s[i].push_back(v.seconds);
            ++attempted;
            if (isFailure(v.outcome)) {
                ++failed;
                checks.fail(c.name + ": " +
                            statusName(v.outcome.status));
            }
            // Counters and the repaired source repeat exactly run to
            // run; wall-clock fields are not part of the fingerprint.
            std::string fp = fuzz::outcomeFingerprint(v.outcome);
            if (pass != 0) {
                if (fp != fingerprints[i])
                    checks.fail(c.name + ": outcome differs between "
                                         "repetitions");
                continue;
            }
            fingerprints[i] = fp;
            int changes = v.outcome.changes + v.outcome.preprocess_changes;
            case_log << i << "\t" << c.name << "\t"
                     << statusName(v.outcome.status) << "\t" << changes
                     << "\t" << v.seconds << "\n";
            if (!c.expect.empty()) {
                std::fprintf(stderr, "  %-10s %-10s %d changes %8.3f s\n",
                             c.name.c_str(),
                             statusName(v.outcome.status), changes,
                             v.seconds);
            }
            appendVerdict(verdicts,
                          {statusName(v.outcome.status), changes,
                           v.outcome.repaired
                               ? verilog::print(*v.outcome.repaired)
                               : ""});
        }
        pass_wall.push_back(wall);
    }
    writeFile(root / "verdicts.bundle", verdicts);

    double wall_s = 0.0;
    std::vector<double> case_ms;
    for (const auto &times : case_s) {
        wall_s += median(times);
        case_ms.push_back(median(times) * 1e3);
    }
    put(json, "wall_s", wall_s);
    put(json, "case_p50_ms", percentile(case_ms, 0.50));
    put(json, "case_p99_ms", percentile(case_ms, 0.99));
    put(json, "failed_frac",
        static_cast<double>(failed) / static_cast<double>(attempted));
    std::string walls;
    for (double x : pass_wall)
        walls += (walls.empty() ? "" : " ") + std::to_string(x);
    json.set("pass_wall_s", Json::string(walls));
    put(json, "passes", static_cast<double>(pass_wall.size()));
    put(json, "attempted", static_cast<double>(attempted));
    put(json, "failed", static_cast<double>(failed));
}

/**
 * Verification of the verdicts `measure` saved, in a process of its
 * own: the portfolio's threads leave the measuring process's heap in a
 * state that differs from run to run, and the battery's speed followed
 * it (≈30 ms or ≈55 ms per sdram_w2 check, steady within a process).
 * A fresh process starts every run from the same state.
 */
int
runVerify(const Workload &w, const fs::path &root)
{
    std::vector<Case> cases = readBundle(root / "cases.bundle");
    std::vector<SavedVerdict> verdicts =
        readVerdicts(root / "verdicts.bundle");
    if (verdicts.size() != cases.size())
        throw std::runtime_error("verdicts do not match the cases");
    RunChecks checks;
    size_t repaired = 0, cosim_pass = 0;
    double verify_s = 0.0;
    for (size_t i = 0; i < cases.size(); ++i) {
        VerdictCheck vc = checkVerdict(cases[i], verdicts[i], w.verify_reps);
        if (!vc.expected)
            checks.fail(vc.note);
        repaired += vc.repaired;
        cosim_pass += vc.repaired && vc.cosim;
        verify_s += vc.verify_s;
    }
    double cosim = repaired ? static_cast<double>(cosim_pass) /
                                  static_cast<double>(repaired)
                            : 0.0;
    Json json = Json::object();
    put(json, "verify_s", verify_s);
    put(json, "repaired_frac", static_cast<double>(repaired) /
                                   static_cast<double>(cases.size()));
    put(json, "cosim_pass_frac", cosim);
    put(json, "overfit_frac", repaired ? 1.0 - cosim : 0.0);
    json.set("correct", Json::boolean(checks.ok));
    json.set("problems", Json::string(join(checks.problems, "; ")));
    std::printf("%s\n", json.dump().c_str());
    return 0;
}

// ---------------------------------------------------------------------
// Traced run: an outside-in walk of the driver's cascade
// ---------------------------------------------------------------------

/** One timed call into a layer. */
struct SpanRecord
{
    std::string name;
    size_t case_index;
    double start;
    double end;
};

/** In-memory span log, written out when the run ends. */
class SpanLog
{
  public:
    template <typename Fn>
    auto
    time(const char *name, size_t case_index, Fn &&fn)
    {
        double start = _clock.seconds();
        struct Close
        {
            SpanLog &log;
            const char *name;
            size_t case_index;
            double start;
            ~Close()
            {
                log._spans.push_back(
                    {name, case_index, start, log._clock.seconds()});
                log._total[name] += log._spans.back().end - start;
            }
        } close{*this, name, case_index, start};
        return fn();
    }

    double total(const std::string &name) const
    {
        auto it = _total.find(name);
        return it == _total.end() ? 0.0 : it->second;
    }

    void
    write(const fs::path &path) const
    {
        std::ofstream out(path);
        out << std::fixed << std::setprecision(9);
        for (const SpanRecord &s : _spans) {
            out << "{\"name\": \"" << s.name << "\", \"case\": "
                << s.case_index << ", \"start_s\": " << s.start
                << ", \"end_s\": " << s.end << "}\n";
        }
    }

  private:
    Stopwatch _clock;
    std::vector<SpanRecord> _spans;
    std::map<std::string, double> _total;
};

/** How one guarded driver stage ended (see repair::StageGuard). */
enum class StageEnd { Ok, UserError, Fault };

/** Run @p fn, classifying the faults StageGuard contains. */
template <typename Fn>
StageEnd
guarded(Fn &&fn)
{
    try {
        fn();
        return StageEnd::Ok;
    } catch (const FatalError &) {
        return StageEnd::UserError;
    } catch (const PanicError &) {
    } catch (const StageTimeoutError &) {
    } catch (const std::bad_alloc &) {
    }
    return StageEnd::Fault;
}

/** Work counters the walk accumulates alongside its spans. */
struct WalkCounters
{
    double csv_bytes = 0.0;
    double csv_heap_mb = 0.0;      ///< live heap kept by the last fromCsv
    double max_csv_heap_mb = 0.0;  ///< largest of those
    uint64_t synth_vars = 0;
    uint64_t ir_nodes = 0;
    double replay_cycles = 0.0;
    double replay_s = 0.0;           ///< runEngine wall − Σsolve
    double encode_s = 0.0;           ///< Σencode_seconds
    double search_s = 0.0;           ///< Σ(solve − encode)
    double unattributed_s = 0.0;     ///< driver wall − Σsolve
    uint64_t aig_nodes = 0;
    uint64_t reused_aig_nodes = 0;
    uint64_t sat_calls = 0;
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    uint64_t windows = 0;
    uint64_t windows_sat = 0;
};

void
countWindow(WalkCounters &k, const repair::WindowStat &w)
{
    k.encode_s += w.encode_seconds;
    k.search_s += w.solve_seconds - w.encode_seconds;
    k.aig_nodes += w.aig_nodes;
    k.reused_aig_nodes += w.reused_aig_nodes;
    k.sat_calls += w.sat_calls;
    k.conflicts += w.conflicts;
    k.propagations += w.propagations;
    ++k.windows;
    if (std::strcmp(w.status, "sat") == 0)
        ++k.windows_sat;
}

/**
 * Re-run the serial driver cascade (repair/driver.cpp) one public
 * call at a time and rebuild the RepairOutcome it would return.  The
 * caller compares that outcome with the driver's own, so a walk that
 * drifts from the driver fails the run instead of timing a different
 * program.
 */
repair::RepairOutcome
walkCascade(const Case &c, size_t ci, SpanLog &spans,
            WalkCounters &k)
{
    repair::RepairConfig cfg = caseConfig(c, 1);
    repair::RepairOutcome out;

    verilog::SourceFile file = spans.time(
        "verilog.parse", ci, [&] { return verilog::parse(c.design); });
    std::vector<const verilog::Module *> library = libraryOf(file);
    const double heap_before = liveHeapBytes();
    trace::IoTrace io = spans.time("trace.fromCsv", ci, [&] {
        return trace::IoTrace::fromCsv(c.trace_csv);
    });
    k.csv_heap_mb = (liveHeapBytes() - heap_before) / 1e6;
    k.max_csv_heap_mb = std::max(k.max_csv_heap_mb, k.csv_heap_mb);
    k.csv_bytes += static_cast<double>(c.trace_csv.size());

    // Each stage below is guarded in the driver; a contained fault
    // takes the same branch here as it does there.
    Deadline deadline(nullptr, nullptr, cfg.timeout_seconds);
    templates::PreprocessResult pre;
    if (guarded([&] {
            pre = spans.time("templates.preprocess", ci, [&] {
                return templates::preprocess(file.top());
            });
        }) != StageEnd::Ok) {
        out.degraded = true;
        pre = templates::PreprocessResult{};
        pre.module = file.top().clone();
    }
    elaborate::ElaborateOptions base_opts;
    base_opts.library = library;
    ir::TransitionSystem base;
    StageEnd end = guarded([&] {
        base = spans.time("elaborate.elaborate", ci, [&] {
            return elaborate::elaborate(*pre.module, base_opts);
        });
    });
    if (end != StageEnd::Ok) {
        out.degraded = out.degraded || end == StageEnd::Fault;
        out.status = end == StageEnd::UserError ? Status::CannotSynthesize
                                                : Status::Degraded;
        return out;
    }
    k.ir_nodes += base.nodes.size();
    out.preprocess_changes = pre.changes;

    trace::IoTrace resolved = spans.time("repair.resolveTraceInputs", ci, [&] {
        return repair::resolveTraceInputs(io, cfg.x_policy, cfg.seed);
    });
    std::vector<bv::Value> init = spans.time(
        "repair.resolveInitState", ci, [&] {
            return repair::resolveInitState(base, cfg.x_policy, cfg.seed);
        });

    sim::ReplayResult baseline;
    end = guarded([&] {
        baseline = spans.time("sim.baseline", ci, [&] {
            repair::ConcreteRunner runner(base, resolved, init);
            return runner.run(templates::SynthAssignment{});
        });
        out.first_failure = baseline.first_failure;
    });
    if (end == StageEnd::UserError) {
        out.status = Status::CannotSynthesize;
        return out;
    }
    if (end == StageEnd::Fault) {
        out.degraded = true;
    } else if (baseline.passed) {
        out.status = Status::Repaired;
        out.repaired = pre.module->clone();
        out.by_preprocessing = pre.changes > 0;
        out.no_repair_needed = pre.changes == 0;
        out.template_name = pre.changes > 0 ? "preprocessing" : "none-needed";
        return out;
    }

    struct Best
    {
        std::unique_ptr<verilog::Module> repaired;
        int changes = 0;
        std::string template_name;
        int window_past = 0;
        int window_future = 0;
        ir::TransitionSystem sys;
        templates::SynthAssignment assignment;
    };
    std::optional<Best> best;
    bool timed_out = false;
    auto cascade = templates::standardTemplates();
    size_t templates_left = cascade.size();
    for (auto &tmpl : cascade) {
        if (deadline.expired()) {
            timed_out = true;
            break;
        }
        const std::string name = tmpl->name();
        const double slice = repair::stageSlice(
            deadline.remaining(), templates_left, cfg.guard);
        --templates_left;
        if (repair::memoryWatermarkExceeded(cfg.guard)) {
            out.degraded = true;
            continue;
        }
        Deadline tmpl_deadline(&deadline, nullptr, slice);

        templates::TemplateResult inst;
        if (guarded([&] {
                inst = spans.time("templates.apply", ci, [&] {
                    return tmpl->apply(*pre.module, library);
                });
            }) != StageEnd::Ok) {
            out.degraded = true;
            continue;
        }
        k.synth_vars += inst.vars.vars().size();
        if (inst.vars.empty())
            continue;
        elaborate::ElaborateOptions opts;
        opts.library = library;
        opts.synth_vars = inst.vars.specs();
        ir::TransitionSystem sys;
        end = guarded([&] {
            sys = spans.time("elaborate.elaborate", ci, [&] {
                return elaborate::elaborate(*inst.instrumented, opts);
            });
        });
        if (end != StageEnd::Ok) {
            // An unsynthesizable instrumentation is skipped, not a
            // degradation.
            out.degraded = out.degraded || end == StageEnd::Fault;
            continue;
        }
        k.ir_nodes += sys.nodes.size();

        repair::EngineConfig engine_cfg = cfg.engine;
        engine_cfg.stage_label = name;
        engine_cfg.solve_retries = cfg.guard.solve_retries;
        engine_cfg.max_rss_kb = cfg.guard.max_rss_mb * 1024;
        Stopwatch engine_watch;
        repair::EngineResult engine;
        end = guarded([&] {
            engine = spans.time("repair.runEngine", ci, [&] {
                return repair::runEngine(sys, inst.vars, resolved, init,
                                         engine_cfg, &tmpl_deadline);
            });
        });
        double engine_s = engine_watch.seconds();
        double solve_s = 0.0;
        for (const auto &win : engine.windows) {
            out.candidates.push_back({name, win});
            countWindow(k, win);
            solve_s += win.solve_seconds;
        }
        k.replay_s += engine_s - solve_s;
        if (end != StageEnd::Ok) {
            out.degraded = true;
            continue;
        }

        if (engine.status == repair::EngineResult::Status::Timeout) {
            if (deadline.expired())
                timed_out = true;
            else
                out.degraded = true;
            continue;
        }
        if (engine.status == repair::EngineResult::Status::Failed) {
            out.degraded = true;
            continue;
        }
        if (engine.status != repair::EngineResult::Status::Repaired)
            continue;
        auto repaired = spans.time("repair.patch", ci, [&] {
            return repair::patch(*inst.instrumented, inst.vars,
                                 engine.assignment);
        });
        if (!best || engine.changes < best->changes) {
            best = Best{std::move(repaired), engine.changes, name,
                        engine.window_past, engine.window_future,
                        std::move(sys), engine.assignment};
        }
        if (engine.changes <= cfg.change_threshold)
            break;
    }

    if (best) {
        // Throughput of the replay kernel on the whole trace: one
        // full-length run of the accepted assignment.
        sim::ReplayResult full = spans.time("sim.fullReplay", ci, [&] {
            repair::ConcreteRunner runner(best->sys, resolved, init);
            return runner.run(best->assignment);
        });
        if (full.passed)
            k.replay_cycles += static_cast<double>(resolved.length());
        out.status = Status::Repaired;
        out.repaired = std::move(best->repaired);
        out.changes = best->changes;
        out.template_name = best->template_name;
        out.window_past = best->window_past;
        out.window_future = best->window_future;
        return out;
    }
    out.status = timed_out ? Status::Timeout
                           : (out.degraded ? Status::Degraded
                                           : Status::NoRepair);
    return out;
}

void
measureTraced(const Workload &w, const std::vector<Case> &cases,
              const fs::path &root, Json &json, RunChecks &checks)
{
    SpanLog spans;
    WalkCounters k;
    double serial_s = 0.0;
    size_t failed = 0;
    for (size_t i = 0; i < cases.size(); ++i) {
        const Case &c = cases[i];
        Verdict v = timeToVerdict(c, resolvedJobs(w));
        if (isFailure(v.outcome)) {
            ++failed;
            checks.fail(c.name + ": " + statusName(v.outcome.status));
        }
        std::string semantic = fuzz::outcomeFingerprint(v.outcome, false);

        // The portfolio must fold back to the serial cascade's
        // outcome.  The walk retraces the serial cascade, so the
        // tracing overhead and the driver's unattributed time come
        // from a serial run.
        Verdict serial_run;
        const Verdict *serial = &v;
        if (resolvedJobs(w) > 1) {
            serial_run = timeToVerdict(c, 1);
            serial = &serial_run;
            if (fuzz::outcomeFingerprint(serial->outcome, false) != semantic)
                checks.fail(c.name + ": jobs=1 and jobs=" +
                            std::to_string(resolvedJobs(w)) + " differ");
        }
        serial_s += serial->seconds;
        double solve = 0.0;
        for (const auto &cand : serial->outcome.candidates)
            solve += cand.window.solve_seconds;
        k.unattributed_s += serial->outcome.seconds - solve;

        // The walk repeats the driver's work call for call, so beyond
        // the semantic outcome its solver counters must repeat too.
        // The full fingerprint lists every RepairOutcome::candidates
        // entry with its template, window and conflicts: this is the
        // walk-versus-driver check.
        const WalkCounters before = k;
        repair::RepairOutcome walked = walkCascade(c, i, spans, k);
        if (!c.expect.empty()) {
            std::fprintf(stderr,
                         "  %-10s replay %.3f s, unattributed %.3f s, "
                         "search %.3f s, encode %.3f s, trace heap "
                         "%.1f MB\n",
                         c.name.c_str(), k.replay_s - before.replay_s,
                         serial->outcome.seconds - solve,
                         k.search_s - before.search_s,
                         k.encode_s - before.encode_s, k.csv_heap_mb);
        }
        if (fuzz::outcomeFingerprint(walked, false) != semantic)
            checks.fail(c.name + ": traced walk and driver reach "
                                 "different outcomes");
        else if (fuzz::outcomeFingerprint(walked) !=
                 fuzz::outcomeFingerprint(v.outcome))
            checks.fail(c.name + ": walk windows/conflicts differ "
                                 "from RepairOutcome::candidates");
        if (walked.status == Status::Repaired && walked.repaired) {
            verilog::SourceFile golden = verilog::parse(c.golden);
            checks::CheckInputs in;
            in.golden = &golden.top();
            in.repaired = walked.repaired.get();
            in.library = libraryOf(golden);
            in.clock = c.clock;
            in.tb = &v.io;
            checks::CheckReport report = spans.time(
                "checks.checkRepair", i,
                [&] { return checks::checkRepair(in); });
            if (!c.expect.empty() && !report.testbench.value_or(false))
                checks.fail(c.name + ": walked repair fails the "
                                          "event-simulator testbench");
        }
    }
    spans.write(root / "spans.ndjson");

    // The walk's own wall time excludes the extra full-trace replay
    // and the verification battery, so it compares like for like with
    // untraced time to verdict.
    double walk_s = 0.0;
    for (const char *n :
         {"verilog.parse", "trace.fromCsv", "templates.preprocess",
          "elaborate.elaborate", "repair.resolveTraceInputs",
          "repair.resolveInitState", "sim.baseline", "templates.apply",
          "repair.runEngine", "repair.patch"}) {
        walk_s += spans.total(n);
    }
    double csv_s = spans.total("trace.fromCsv");
    double full_s = spans.total("sim.fullReplay");
    put(json, "trace.csv_parse_s", csv_s);
    put(json, "trace.csv_mb_per_s", csv_s > 0 ? k.csv_bytes / 1e6 / csv_s : 0);
    put(json, "trace.rss_mb", k.max_csv_heap_mb);
    put(json, "verilog.parse_s", spans.total("verilog.parse"));
    put(json, "templates.preprocess_s", spans.total("templates.preprocess"));
    put(json, "templates.apply_s", spans.total("templates.apply"));
    put(json, "templates.synth_vars", static_cast<double>(k.synth_vars));
    put(json, "elaborate.elab_s", spans.total("elaborate.elaborate"));
    put(json, "elaborate.ir_nodes", static_cast<double>(k.ir_nodes));
    put(json, "sim.baseline_replay_s", spans.total("sim.baseline"));
    put(json, "sim.replay_s", k.replay_s);
    put(json, "sim.replay_cycles_per_s",
        full_s > 0 ? k.replay_cycles / full_s : 0);
    put(json, "smt.encode_s", k.encode_s);
    put(json, "smt.aig_nodes", static_cast<double>(k.aig_nodes));
    put(json, "smt.reused_aig_nodes", static_cast<double>(k.reused_aig_nodes));
    put(json, "sat.search_s", k.search_s);
    put(json, "sat.calls", static_cast<double>(k.sat_calls));
    put(json, "sat.conflicts", static_cast<double>(k.conflicts));
    put(json, "sat.propagations", static_cast<double>(k.propagations));
    put(json, "repair.windows", static_cast<double>(k.windows));
    put(json, "repair.window_yield",
        k.windows ? static_cast<double>(k.windows_sat) /
                        static_cast<double>(k.windows)
                  : 0);
    put(json, "repair.unattributed_s", k.unattributed_s);
    put(json, "repair.patch_s", spans.total("repair.patch"));
    put(json, "walk.wall_s", walk_s);
    put(json, "walk.untraced_wall_s", serial_s);
    put(json, "walk.overhead_s", walk_s - serial_s);
    put(json, "checks.verify_s", spans.total("checks.checkRepair"));
    put(json, "attempted", static_cast<double>(cases.size()));
    put(json, "failed", static_cast<double>(failed));
}

int
runMeasure(const Workload &w, const fs::path &root, double seconds,
           bool traced)
{
    std::vector<Case> cases = readBundle(root / "cases.bundle");
    if (cases.empty()) {
        std::fprintf(stderr, "perfbench: no cases under %s\n",
                     root.string().c_str());
        return 1;
    }
    Json json = Json::object();
    RunChecks checks;
    if (traced)
        measureTraced(w, cases, root, json, checks);
    else
        measureUntraced(w, cases, root, seconds, json, checks);
    put(json, "peak_rss_mb",
        static_cast<double>(procStatusKb("VmHWM:")) / 1024.0);
    put(json, "jobs", static_cast<double>(resolvedJobs(w)));
    json.set("correct", Json::boolean(checks.ok));
    json.set("problems", Json::string(join(checks.problems, "; ")));
    std::printf("%s\n", json.dump().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench setup --workload W --seed N --dir D\n"
                 "       perfbench measure --workload W --dir D "
                 "--seconds S --trace 0|1\n"
                 "       perfbench verify --workload W --dir D\n");
    return 2;
}

int
run(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string mode = argv[1];
    std::string workload, dir;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string val = argv[i + 1];
        if (key == "--workload")
            workload = val;
        else if (key == "--dir")
            dir = val;
        else if (key == "--seed")
            seed = std::stoull(val);
        else if (key == "--seconds")
            seconds = std::stod(val);
        else if (key == "--trace")
            traced = val == "1";
        else
            return usage();
    }
    std::optional<Workload> w = findWorkload(workload);
    if (!w || dir.empty())
        return usage();
    if (mode == "setup")
        return runSetup(*w, seed, dir);
    if (mode == "measure")
        return runMeasure(*w, dir, seconds, traced);
    if (mode == "verify")
        return runVerify(*w, dir);
    return usage();
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
