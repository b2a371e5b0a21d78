"""Python call counts of fixed `strata` and CLI requests and of one small
unity-minor sweep, and the class table builds of a cold run of scans,
pinned like the digests.

A count is the number of `call` and `c_call` events that one
`sys.setprofile` hook sees while a warm request runs: its caches are filled
by one earlier run of the same request, and the request's thunk and the
hook's own removal count too.  The counts repeat across processes and hash
seeds, so a change that adds work on a request path moves them where a
timing on a shared host would drift.  A change that moves a count updates
EXPECTED, CLI_EXPECTED, SWEEP_EXPECTED or COLD_TABLES and says why in CHANGES.md, as a
digest change does.
"""

import contextlib
import gc
import io
import json
import sys

import pytest

from singres import cli, strata, verify
from singres.strata import estimate_codim, parse_label, scan_corank_strata
from singres.supports import SupportPair, SupportSet
from singres.verify import _normalized_supports

# (request, b1, b2, label, seed): scans at n_max 12, codim estimates at n_max 12
EXPECTED = {
    ("scan", (0, 1, 3, 7), (0, 2, 5), "N(1,1,1)", 3): 118,
    ("scan", (0, 2, 4, 6), (0, 2, 4, 6), "N(1,1,1)", 3): 91,
    ("scan", (0, 1, 4), (0, 3, 5), "N(1,1)", 3): 108,
    ("scan", (0, 1, 2, 3), (0, 1, 2, 3), "N(2,1;1,1)", 3): 101,
    ("codim", (0, 1, 3, 4, 6, 7), (0, 3, 6), "N(1,1,1)", 7): 1613,
    ("codim", (0, 1, 2, 3), (0, 1, 2, 3), "N(1,1)", 7): 75,
    # the minor-curve certificate with boundary orders and with multiplicities
    ("codim", (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5), "N_1^1(1,1,1)", 0): 1227,
    ("codim", (0, 1, 3, 4, 6, 7), (0, 3, 6), "N(2,1,1)", 7): 2255,
}


# (hits, misses) of each class-table cache over the 1,013 scans of the
# corank2-dichotomy check, every cache cleared first: the builds a fresh
# process pays.  The signature cache is cleared too, or the side arrays
# that `_side_coranks` builds would depend on which earlier test filled it
COLD_TABLES = {
    "_scan_table": (2091, 1),
    "_side_coranks": (33, 33),
    "_signature_classes": (980, 33),
}


def calls(thunk):
    """The `call` and `c_call` events of one run of thunk(), with the
    garbage collector run first and kept off in the hooked region: a
    collection that lands inside it runs finalizers whose events would
    make a count depend on which tests ran before in the process."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(hook)
    try:
        thunk()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return count


@pytest.mark.parametrize("case", EXPECTED, ids=lambda case: f"{case[0]}-{case[1]}-{case[2]}-{case[3]}")
def test_warm_call_count(case):
    kind, b1, b2, name, seed = case
    p, label = SupportPair(SupportSet(b1), SupportSet(b2)), parse_label(name)
    if kind == "scan":
        thunk = lambda: scan_corank_strata(p, label, 12, seed=seed)  # noqa: E731
    else:
        thunk = lambda: estimate_codim(p, label, seed=seed)  # noqa: E731
    thunk()
    assert calls(thunk) == calls(thunk) == EXPECTED[case]


# the warm count of check_unity_minor_explanations(8, 4), one of the unity
# sweeps that every strata-scan benchmark pass runs
SWEEP_EXPECTED = 580


def test_warm_unity_sweep_call_count():
    thunk = lambda: verify.check_unity_minor_explanations(8, 4)  # noqa: E731
    thunk()
    assert calls(thunk) == calls(thunk) == SWEEP_EXPECTED


def test_cold_class_table_builds():
    caches = {name: getattr(strata, name) for name in COLD_TABLES}
    for cache in caches.values():
        cache.cache_clear()
    label = parse_label("N(1,1,1)")
    for b in _normalized_supports(10):
        scan_corank_strata(SupportPair(b, b), label, 12)
    assert {name: cache.cache_info()[:2] for name, cache in caches.items()} == COLD_TABLES


# (leaf command, its arguments, its --input JSON text on stdin) -> the warm
# count of one `cli.main` run with stdout captured
POINT_INPUT = {
    "f": {"support": [0, 1, 2], "coeffs": {"0": "1", "1": "-2", "2": "1"}},
    "g": {"support": [0, 1], "coeffs": {"0": "-1", "1": "1"}},
}
GERM_INPUT = {"terms": [{"exp": [0, 2], "coef": "1"}, {"exp": [3, 0], "coef": "-1"}]}
SUPPORTS_3D = {"a1": [[0, 0, 0], [1, 0, 1]], "a2": [[0, 0, 0], [0, 1, 1]]}
CLI_EXPECTED = {
    ("classify", ("--b1", "0,1,3", "--b2", "0,3"), None): 481,
    ("resultant", ("--b1", "0,2,5", "--b2", "0,3"), None): 676,
    ("point-classify", ("--input", "-"), json.dumps(POINT_INPUT)): 301,
    ("germ-classify", ("--input", "-"), json.dumps(GERM_INPUT)): 117,
    ("scan codim", ("--b1", "0,1,2,3", "--b2", "0,1,2,3", "--label", "N(1,1)", "--seed", "7"), None): 294,
    ("scan strata", ("--b1", "0,1,4", "--b2", "0,3,5", "--label", "N(1,1)", "--seed", "3"), None): 313,
    ("project3d", ("--input", "-", "--scan", "--seed", "1"), json.dumps(SUPPORTS_3D)): 645,
}


@pytest.mark.parametrize("case", CLI_EXPECTED, ids=lambda case: case[0])
def test_warm_cli_call_count(case):
    command, args, stdin = case
    argv = [*command.split(), *args]

    def thunk():
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    saved = sys.stdin
    try:
        thunk()
        assert calls(thunk) == calls(thunk) == CLI_EXPECTED[case]
    finally:
        sys.stdin = saved
