"""Tests of the benchmark itself, on a few requests of every kind.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# too slow for a unit test; its layers are reached by cheaper requests
HEAVY = {"resultant-anchor"}

# the workload meant to exercise each wrapped function
EXERCISED_BY = {
    "strata-scan": (
        "kernels.all_minors", "kernels.table", "exact.unity_table", "strata.scan",
        "strata.corank_kernel", "strata.vandermonde", "exact.rank", "exact.rref", "exact.kernel_basis",
        "kernels.det3", "kernels.combo", "minors.scan", "minors.split",
    ),
    "pair-queries": (
        "mpoly.det", "mpoly.sylvester", "mpoly.mul", "mpoly.divexact", "mpoly.jacobian", "strata.codim",
        "strata.svd", "laurent.classify", "laurent.common_roots", "exact.gcd", "exact.kernel_basis",
        "exact.solve", "germs.slice", "germs.classify", "project.grid_scan", "supports.classify", "cli.main",
    ),
}


def sample(wl, seed=1):
    """The first request of every kind, and every codim case (only some of
    them reach the SVD votes)."""
    picked, seen = [], set()
    for req in wl.requests(seed):
        key = json.dumps(req.params, sort_keys=True) if req.kind == "codim" else req.kind
        if req.kind not in HEAVY and key not in seen:
            picked.append(req)
            seen.add(key)
    return picked


def digests(wl, reqs, tracer=None):
    outputs, _, _, errors = child.run_pass(wl, reqs, tracer)
    out = child.digests_of(wl, reqs, outputs, errors)
    assert errors == {}
    return out


def traced_pass(wl, reqs):
    tr = tracing.Tracer()
    tr.install()
    try:
        return digests(wl, reqs, tr), tr
    finally:
        tr.uninstall()


@pytest.fixture(scope="module")
def runs():
    """Per workload: the sample, its untraced digests and two traced passes."""
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        reqs = sample(wl)
        wl.call(wl.warmup())
        out[name] = (reqs, digests(wl, reqs), traced_pass(wl, reqs), traced_pass(wl, reqs))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_request_list(name):
    wl = workloads.WORKLOADS[name]
    first = [(r.kind, r.params) for r in wl.requests(5)]
    assert first == [(r.kind, r.params) for r in wl.requests(5)]
    assert first != [(r.kind, r.params) for r in wl.requests(6)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_requests_are_json(name):
    for req in workloads.WORKLOADS[name].requests(2):
        json.dumps(req.params)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_sample_outputs_pass_their_checks(runs, name):
    reqs, plain, _, _ = runs[name]
    assert child.check_failures(workloads.WORKLOADS[name], reqs, plain) == {}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_does_not_change_digests(runs, name):
    _, plain, (traced, _), _ = runs[name]
    assert [child.short_hash(d) for d in traced] == [child.short_hash(d) for d in plain]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(runs, name):
    _, _, (_, first), (_, second) = runs[name]
    counts = lambda tr: {k: v for k, v in tr.metrics().items() if not k.endswith("self_s")}
    assert counts(first) == counts(second)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_wrapped_function_is_exercised(runs, name):
    _, _, (_, tr), _ = runs[name]
    assert tr.missing == []
    metrics = tr.metrics()
    silent = [layer for layer in EXERCISED_BY[name] if metrics[f"{layer}.calls"] < 1]
    assert silent == []


def test_coverage_map_names_every_layer():
    covered = {layer for layers in EXERCISED_BY.values() for layer in layers}
    assert covered == set(tracing.LAYER_NAMES)


def test_backend_agreement_runs_the_bench_minors_workloads():
    """The agreement check loads benchmarks/bench_minors.py of the checkout;
    here its two workloads run small on the pure-Python backend."""
    from singres import kernels

    bench = workloads._bench_minors()
    python = dict(kernels.get_backends())["python"]
    assert bench.workload_det_suite(python, 5, 2) > 0
    assert bench.workload_all_minors(python, 6, 3) >= 0


def test_uninstall_restores_every_binding():
    import singres.exact
    import singres.mpoly
    import singres.strata
    import singres.verify

    before = (singres.verify.exact_rank, singres.mpoly.MPoly.__mul__, singres.mpoly.MPoly.__rmul__, singres.strata.np)
    tr = tracing.Tracer()
    tr.install()
    assert singres.verify.exact_rank is singres.exact.exact_rank is singres.strata.exact_rank
    assert singres.verify.exact_rank is not before[0]
    tr.uninstall()
    after = (singres.verify.exact_rank, singres.mpoly.MPoly.__mul__, singres.mpoly.MPoly.__rmul__, singres.strata.np)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_excludes_children():
    import singres.exact

    tr = tracing.Tracer()
    tr.install()
    try:
        singres.exact.kernel_basis([[1, 2, 3], [4, 5, 6]])
    finally:
        tr.uninstall()
    spans = {layer: (t1 - t0, own) for _, _, layer, t0, t1, _, own in tr.spans}
    outer, own = spans["exact.kernel_basis"]
    inner, _ = spans["exact.rref"]
    assert own == pytest.approx(outer - inner)


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, non-zero exit."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "strata-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
