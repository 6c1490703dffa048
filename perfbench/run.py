#!/usr/bin/env python3
"""Time-to-verdict benchmark for the RTL-Repair tool.

    python3 perfbench/run.py --workload long-trace|solver-bound|mutant-sweep
                             --seed N --seconds S --trace 0|1

Run from the repository root.  The script builds the `perfbench` driver
from source (perfbench/CMakeLists.txt, build tree in $CARGO_TARGET_DIR or
.bench_build), materialises the workload's cases with `perfbench setup`
(several times, to time set-up), measures them with `perfbench measure`
in a process of their own, and checks the verdicts with `perfbench
verify` in a third.  Every metric is printed as
`name value unit`; the last line of stdout is the JSON result.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("long-trace", "solver-bound", "mutant-sweep")

# (name, unit) in the order BENCHMARK.json lists them.
END_TO_END = [
    ("wall_s", "s"),
    ("case_p50_ms", "ms"),
    ("case_p99_ms", "ms"),
    ("verify_s", "s"),
    ("repaired_frac", "fraction"),
    ("cosim_pass_frac", "fraction"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
PER_LAYER = [
    ("trace.csv_parse_s", "s"),
    ("trace.csv_mb_per_s", "MB/s"),
    ("trace.rss_mb", "MB"),
    ("verilog.parse_s", "s"),
    ("templates.preprocess_s", "s"),
    ("templates.apply_s", "s"),
    ("templates.synth_vars", "count"),
    ("elaborate.elab_s", "s"),
    ("elaborate.ir_nodes", "count"),
    ("sim.baseline_replay_s", "s"),
    ("sim.replay_s", "s"),
    ("sim.replay_cycles_per_s", "1/s"),
    ("smt.encode_s", "s"),
    ("smt.aig_nodes", "count"),
    ("smt.reused_aig_nodes", "count"),
    ("sat.search_s", "s"),
    ("sat.calls", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("repair.windows", "count"),
    ("repair.window_yield", "fraction"),
    ("repair.unattributed_s", "s"),
    ("repair.patch_s", "s"),
    ("walk.overhead_s", "s"),
]
# Reported for reading, not part of the JSON result.
EXTRA = [
    ("overfit_frac", "fraction"),
    ("failed_frac", "fraction"),
    ("passes", "count"),
    ("verify_runs", "count"),
    ("jobs", "count"),
    ("walk.wall_s", "s"),
    ("walk.untraced_wall_s", "s"),
    ("checks.verify_s", "s"),
]

# Set-up and verification each run in fresh processes, at least MIN
# times and up to MAX while their timed parts stay under CHEAP_S in all.
# Verification repeats because the battery's speed depends on the heap
# state of its process (sdram_w2: ≈30 or ≈45 ms, steady within one).
SETUP_MIN_REPS = 3
VERIFY_MIN_REPS = 1
MAX_REPS = 9
CHEAP_S = 2.0
RUN_LIMIT_S = 170.0  # after the build


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, timeout, capture):
    """Run cmd to completion; on timeout it is killed and reaped."""
    result = subprocess.run(
        cmd, cwd=ROOT, timeout=timeout, text=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr)
    if result.returncode != 0:
        raise RuntimeError("%s exited with %d" % (cmd[0], result.returncode))
    return result.stdout


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("no output")
    return json.loads(lines[-1])


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configure once, then (re)build the perfbench target."""
    for needed in ("src/CMakeLists.txt", "benchmarks"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError("missing %s: run from a source checkout"
                               % needed)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", bdir], 300, False)
    jobs = str(max(1, min(8, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", bdir, "--target", "perfbench",
                 "-j", jobs], 850, False)
    return os.path.join(bdir, "perfbench")


def repeat(cmd, key, min_reps, max_reps, deadline):
    """Run cmd in fresh processes; return (median of key, results)."""
    results = []
    while len(results) < min_reps or (
            len(results) < max_reps and
            sum(r[key] for r in results) < CHEAP_S):
        left = deadline - time.monotonic()
        results.append(last_json(run_checked(cmd, max(left, 1.0), True)))
    return statistics.median(r[key] for r in results), results


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    # The first run in a checkout may spend minutes building; the
    # measuring part of every run must still end within the run limit.
    started = time.monotonic()
    work = os.path.join(bdir, "work", args.workload)
    os.makedirs(work, exist_ok=True)

    deadline = started + RUN_LIMIT_S
    traced = args.trace == 1
    # The traced run reports no setup_s, so it sets up only once.
    setup_s, setups = repeat(
        [exe, "setup", "--workload", args.workload, "--seed",
         str(args.seed), "--dir", work], "setup_s",
        1 if traced else SETUP_MIN_REPS, 1 if traced else MAX_REPS,
        deadline)
    info = setups[-1]
    measured = last_json(run_checked(
        [exe, "measure", "--workload", args.workload, "--dir", work,
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        max(deadline - time.monotonic(), 1.0), True))
    measured["setup_s"] = setup_s
    if not traced:
        verify_s, verified = repeat(
            [exe, "verify", "--workload", args.workload, "--dir", work],
            "verify_s", VERIFY_MIN_REPS, MAX_REPS, deadline)
        # Everything but the timing is deterministic.
        verdicts = {json.dumps({k: v for k, v in r.items()
                                if k != "verify_s"}, sort_keys=True)
                    for r in verified}
        ok = (measured["correct"] and verified[0]["correct"] and
              len(verdicts) == 1)
        problems = [measured["problems"], verified[0]["problems"]]
        if len(verdicts) != 1:
            problems.append("verification differs between processes")
        measured.update(verified[0])
        measured.update(verify_s=verify_s, correct=ok,
                        problems="; ".join(p for p in problems if p),
                        verify_runs=len(verified))

    kept, generated = info["cases"], info["generated"]
    print("workload %s  seed %d  cases %d  trace %d"
          % (args.workload, args.seed, kept, args.trace))
    print("setup: %d run(s); %.1f MB of trace CSV; %d of %d generated "
          "cases discarded (%d benign, %d invisible to the tool), "
          "discard share %.4f"
          % (len(setups), info["csv_mb"], generated - kept, generated,
             info["discarded_benign"], info["discarded_invisible"],
             (generated - kept) / generated))
    wanted = PER_LAYER if traced else END_TO_END
    for name, unit in wanted + EXTRA:
        if name in measured:
            print("%-26s %14.6f %s" % (name, measured[name], unit))
    if measured.get("pass_wall_s"):
        print("pass_wall_s: " + measured["pass_wall_s"])
    if measured.get("problems"):
        print("problems: " + measured["problems"])

    result = {
        "correct": bool(measured["correct"]),
        "attempted": int(measured["attempted"]),
        "failed": int(measured["failed"]),
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        log("perfbench: %s" % err)
        sys.exit(1)
