"""One benchmark process, started by run.py from the root of a checkout.

Every mode imports singres, generates the inputs from the seed, serves one
warm-up request and prints "ready"; run.py times set-up up to that line.
Then:
  run     one untraced pass over the request list, then check every output
  repeat  one untraced pass, outputs digested but not checked (run.py
          compares the digests with those of the run pass)
  trace   one pass with the tracer installed

Passes run in fresh processes so that nothing one pass caches can speed up
the next.  The result is one JSON line: per-request latencies and output
digests, failures, peak RSS and provenance, and the layer metrics in trace
mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads
from run import OUT_DIR, THREAD_VARS

def run_pass(wl, reqs, tracer=None):
    """Serve every request once, closed loop.

    Returns (outputs, latencies in s, wall s, errors); a request that raised
    has output None and its message in errors[index].
    """
    clock = time.perf_counter
    outputs, latencies, errors = [], [], {}
    start = clock()
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = i
        t0 = clock()
        try:
            out = wl.call(req)
        except (Exception, SystemExit) as exc:  # counted as a failed request
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        outputs.append(out)
    return outputs, latencies, clock() - start, errors


def digests_of(wl, reqs, outputs, errors):
    """Digest per request; None where the call raised or its output is unreadable."""
    out = []
    for i, (req, o) in enumerate(zip(reqs, outputs)):
        if i in errors:
            out.append(None)
            continue
        try:
            out.append(wl.digest(req, o))
        except Exception as exc:
            errors[i] = f"unreadable output: {type(exc).__name__}: {exc}"
            out.append(None)
    return out


def check_failures(wl, reqs, digests):
    """{index: message} for every output that fails its checks."""
    failures = {}
    for i, (req, d) in enumerate(zip(reqs, digests)):
        if d is None:
            continue
        try:
            errors = wl.check(req, d)
        except Exception as exc:
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        if errors:
            failures[i] = "; ".join(errors)
    return failures


def short_hash(digest):
    if digest is None:
        return None
    return hashlib.sha256(json.dumps(digest, sort_keys=True).encode()).hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def provenance(seed):
    import numpy
    import singres
    from singres import kernels

    backend = getattr(kernels, "backend_name", None)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": backend() if backend else "n/a",
        "singres": getattr(singres, "__version__", "unknown"),
        "commit": git_commit(),
        "seed": seed,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("run", "repeat", "trace"))
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    reqs = wl.requests(args.seed)
    wl.call(wl.warmup())
    print("ready", flush=True)

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    outputs, latencies, wall, errors = run_pass(wl, reqs, tracer)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests = digests_of(wl, reqs, outputs, errors)
    del outputs
    result = {
        "mode": args.mode,
        "kinds": [r.kind for r in reqs],
        "latencies_ms": [x * 1000.0 for x in latencies],
        "pass_wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "digests": [short_hash(d) for d in digests],
        "errors": errors,
        "check_failures": {},
        "extra_attempted": 0,
        "extra_errors": [],
        "notes": [],
    }
    if args.mode == "run":
        result["check_failures"] = check_failures(wl, reqs, digests)
        result["extra_attempted"], result["extra_errors"], result["notes"] = wl.finish()
        result["provenance"] = provenance(args.seed)
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        result["layers"] = tracer.metrics()
        result["missing_layers"] = tracer.missing
        result["spans_file"] = str(spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
