"""The singres benchmark: one command, two workloads, end-to-end and
per-layer metrics, every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload strata-scan --seed 1 --seconds 55 --trace 0

Workloads (workloads.py says why each exists): strata-scan and
pair-queries.  Requests are served by one single-threaded client in a
closed loop, on inputs generated from --seed before timing starts.  A run
makes PASSES passes over the request list, each in a fresh child process,
whatever the program's speed, so that every commit is measured with the
same estimator; the request lists are sized so that the passes take about
--seconds on a 2-vCPU x86 host, and a note says when they took longer.
The children's environment pins BLAS/OpenMP threads to 1 and
PYTHONHASHSEED to 0, and imports singres from src/.

--trace 0 prints the end-to-end metrics, measured untraced:
  setup_s      median over the passes' fresh processes of the time from
               spawning to ready: interpreter start, import, input
               generation and one warm-up request
  wall_s       median over the passes of the time to finish the request list
  req_ms_p50   median of the per-request latencies, a request's latency
               being the median of its PASSES samples
  req_ms_p90   90th percentile of the same per-request latencies
  peak_rss_mb  median over passes of the child's own peak RSS (getrusage)
  fail_frac    failed / attempted requests, printed with both counts; they
               are the `failed` and `attempted` of the result line
--trace 1 runs two untraced and two traced passes, alternating, whatever
--seconds says, and prints the per-layer metrics:
<module>.<function>.calls and .self_s (self time, the lower of the two
traced passes), a few counts and ratios, and trace.overhead_frac.  The
two traced passes' call counts must agree.  Spans of the last traced pass
go to .bench_out/.

A request fails when it raises, when a check on its output fails, or when
its output differs between passes or between traced and untraced runs.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when a result was
printed, non-zero when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("strata-scan", "pair-queries")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)
PASSES = 4
BUDGET_S = 170.0  # the whole run, child processes included
OUT_DIR = Path(".bench_out")
UNITS = {"setup_s": "s", "wall_s": "s", "req_ms_p50": "ms", "req_ms_p90": "ms", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def spawn(workload, seed, mode, env, deadline):
    """Run one child to its end; returns (seconds until it was ready, its result)."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise ChildFailed(f"the run exceeded its {BUDGET_S:.0f} s budget")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(left, proc.kill)
    watchdog.start()
    try:
        ready_line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready_line.strip() != "ready":
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {err.strip()[-3000:]}")
    return ready, json.loads(out.strip().splitlines()[-1])


def failures_of(results):
    """Messages for every failed request of every pass; results[0] is the
    checked pass that the others are compared with."""
    ref = results[0]
    msgs = list(ref["extra_errors"])
    for res in results:
        for i, kind in enumerate(ref["kinds"]):
            if str(i) in res["errors"]:
                msg = res["errors"][str(i)]
            elif res["digests"][i] != ref["digests"][i]:
                msg = "output differs from the checked pass"
            elif str(i) in ref["check_failures"]:
                msg = ref["check_failures"][str(i)]
            else:
                continue
            msgs.append(f"{res['mode']} pass, request {i} ({kind}): {msg}")
    return msgs


def request_latencies(results):
    """Per request, the median of its samples over the passes."""
    return [statistics.median(col) for col in zip(*(r["latencies_ms"] for r in results))]


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload, seed, seconds, env, deadline):
    start = time.monotonic()
    setup, results = [], []
    for i in range(PASSES):
        ready, res = spawn(workload, seed, "repeat" if i else "run", env, deadline)
        setup.append(ready)
        res["ready_s"] = ready
        results.append(res)
    elapsed = time.monotonic() - start
    latencies = request_latencies(results)
    walls = [r["pass_wall_s"] for r in results]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "req_ms_p50": statistics.median(latencies),
        "req_ms_p90": p90(latencies),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    beyond = sum(x > values["req_ms_p90"] for x in latencies)
    about = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "wall_s": f"median of {len(walls)} passes: " + ", ".join(f"{w:.2f}" for w in walls),
        "req_ms_p50": f"n={len(latencies)} requests, each the median of {len(results)} passes",
        "req_ms_p90": f"n={len(latencies)}, {beyond} beyond",
        "peak_rss_mb": f"median of {len(results)} passes",
    }
    for name, value in values.items():
        print(f"  {name:<12} {value:12.4f} {UNITS[name]:<3} ({about[name]})")
    if elapsed > seconds:
        print(f"  note: the {PASSES} passes took {elapsed:.1f} s, more than --seconds {seconds:g}")
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    attempted = sum(len(r["latencies_ms"]) for r in results) + results[0]["extra_attempted"]
    return results, metrics, attempted, failures_of(results)


def per_layer(workload, seed, seconds, env, deadline):
    import tracer

    modes = ("run", "trace", "repeat", "trace")
    runs = [spawn(workload, seed, mode, env, deadline)[1] for mode in modes]
    plain, traced = runs[0::2], runs[1::2]
    first, second = (t["layers"] for t in traced)
    problems = []
    repeated = {k: v for k, v in first.items() if not k.endswith(".self_s")}
    if repeated != {k: v for k, v in second.items() if not k.endswith(".self_s")}:
        problems.append("traced call counts differ between two traced passes of one seed")
    values = {k: min(v, second[k]) if k.endswith(".self_s") else v for k, v in first.items()}
    wall = lambda passes: sum(r["pass_wall_s"] for r in passes)
    values["trace.overhead_frac"] = wall(traced) / wall(plain) - 1.0
    units = tracer.metric_units()
    for name in sorted(values):
        print(f"  {name:<40} {values[name]:14.6f} {units[name]}")
    if traced[0]["missing_layers"]:
        print(f"  layers absent from this singres: {', '.join(traced[0]['missing_layers'])}")
    print(f"  spans: {traced[0]['spans_file']}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    # the comparison of the two traced passes' call counts is one more check
    attempted = sum(len(r["latencies_ms"]) for r in runs) + runs[0]["extra_attempted"] + 1
    return runs, metrics, attempted, failures_of(runs) + problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/singres/__init__.py").is_file():
        print("error: src/singres is missing; run from the root of a singres checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    measure = per_layer if args.trace else end_to_end
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    try:
        passes, metrics, attempted, failures = measure(args.workload, args.seed, args.seconds, child_env(), deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for msg in failures[:50]:
        print(f"  FAIL {msg}")
    checked = passes[0]
    for note in checked["notes"]:
        print(f"  note: {note}")
    failed = len(failures)
    print(f"  fail_frac    {failed / attempted:12.4f}     ({failed}/{attempted})")
    print(json.dumps({"provenance": checked["provenance"]}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    report = {
        **result,
        "provenance": checked["provenance"],
        "failures": failures,
        "notes": checked["notes"],
        "passes": [{k: r.get(k) for k in ("mode", "ready_s", "pass_wall_s", "peak_rss_mb", "latencies_ms")} for r in passes],
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
