"""The benchmark's workloads: seeded request lists, the public-API call that
serves each request, a digest of each output, and the checks on it.

Every request is one call into singres, made from a single thread by one
client in a closed loop (the next request starts when the previous one has
returned).  Inputs come only from the seed; the program sees nothing but the
generated arguments.  Calls go through module attributes looked up at call
time, so the tracer's wrappers see them.

Why these two workloads:

- strata-scan runs `scan_corank_strata`, which is what `singres scan strata`
  and the corank2-dichotomy check do: per-call reduction-table rebuilds and
  the all-minors kernel dominate, with exact Fraction rank on generic tuples
  and CycloElement elimination on the multiplicity labels.  A few
  exhaustive minor sweeps ride along: the same kernels, but with one
  reduction table per modulus reused across many calls.
- pair-queries runs interactive per-pair CLI requests through
  `singres.cli.main`: mpoly, laurent, exact polynomials, germs, projection,
  the float SVD votes and the CLI itself, and never the minor kernels.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from singres import cli, germs, kernels, minors, mpoly, strata, verify
from singres.supports import SupportPair, SupportSet

import qexact


@dataclass
class Request:
    kind: str
    params: dict  # what the seed chose, as JSON; also the request list's identity
    args: tuple = ()  # call arguments, built before timing starts
    expect: dict = field(default_factory=dict)  # the answer known from the construction


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _shaped(rng, spread, inner):
    """Exponents 0 < drawn inner points < spread."""
    return (0, *sorted(rng.sample(range(1, spread), min(inner, spread - 1))), spread)


def _support(rng, spread_lo, spread_hi, inner_max):
    """Exponents with min 0, a drawn spread and 1..inner_max inner points."""
    spread = rng.randint(spread_lo, spread_hi)
    return _shaped(rng, spread, rng.randint(1, inner_max))


def _csv(elems):
    return ",".join(str(e) for e in elems)


def _run_cli(argv, stdin_text=None):
    """singres.cli.main(argv) in process; returns (exit code, stdout text)."""
    out = io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


class Workload:
    """A request list from a seed, the call that serves a request, a digest
    of its output and the checks on that digest."""

    name = ""

    def finish(self):
        """Checks that belong to no single request: (checks run, errors, notes)."""
        return 0, [], []


# --- strata-scan ---------------------------------------------------------------


class StrataScan(Workload):
    name = "strata-scan"
    N_MAX = 12
    SAMPLE = 5  # one symmetric support in SAMPLE of each (spread, size) cell
    MULTIPLICITY_LABELS = ("N(2,1)", "N(2,1;1,1)")
    PAPER_MINORS = (10, 8, (3, 4))
    PAPER_UNITY = (24, 5)
    # small exhaustive sweeps: the same kernels with one reduction table per
    # modulus reused across many calls (the sweep sizes are a fixed grid,
    # since a sweep's cost is a function of its parameters alone)
    MINOR_SWEEPS = tuple((n, 5, sizes) for n in (6, 7, 8) for sizes in ((3,), (4,), (3, 4)))
    UNITY_SWEEPS = ((8, 4), (10, 3), (12, 2), (14, 2))

    @staticmethod
    def _scan(kind, b1, b2, label, seed):
        params = {"b1": list(b1), "b2": list(b2), "label": label, "n_max": StrataScan.N_MAX, "seed": seed}
        pair = SupportPair(SupportSet(tuple(b1)), SupportSet(tuple(b2)))
        return Request(kind, params, (pair, strata.parse_label(label), StrataScan.N_MAX, seed))

    @staticmethod
    def _minors(kind, n_max, spread_max, sizes):
        return Request(kind, {"n_max": n_max, "spread_max": spread_max, "sizes": list(sizes)}, (n_max, spread_max, sizes))

    def requests(self, seed):
        rng = _rng(self.name, seed)
        reqs = []
        # the symmetric supports of the corank2-dichotomy check (min 0, spread
        # 2..10, at least three elements; 1013 in all), sampled per (spread,
        # size) cell so that every seed's pass costs about the same
        for spread in range(2, 11):
            for inner in range(1, spread):
                cell = list(itertools.combinations(range(1, spread), inner))
                for mid in rng.sample(cell, -(-len(cell) // self.SAMPLE)):
                    b = (0, *mid, spread)
                    reqs.append(self._scan("symmetric", b, b, "N(1,1,1)", rng.randrange(2**31)))
        # as many asymmetric pairs, half under each label: shapes cycle,
        # contents are drawn
        per_label = len(reqs) // 2
        for label in ("N(1,1)", "N(1,1,1)"):
            for i in range(per_label):
                b1 = _shaped(rng, 3 + i % 8, 1 + i % 3)
                b2 = _shaped(rng, 3 + (i + 4) % 8, 1 + (i + 1) % 3)
                reqs.append(self._scan("asymmetric", b1, b2, label, rng.randrange(2**31)))
        for label in self.MULTIPLICITY_LABELS:
            reqs.append(self._scan("multiplicity", _shaped(rng, 7, 2), _shaped(rng, 7, 2), label, rng.randrange(2**31)))
        reqs.append(self._minors("minors-paper", *self.PAPER_MINORS))
        reqs += [self._minors("minors", *args) for args in self.MINOR_SWEEPS]
        reqs += [Request("unity", {"n_max": n, "span": span}, (n, span)) for n, span in self.UNITY_SWEEPS]
        rng.shuffle(reqs)
        return reqs

    def warmup(self):
        return self._scan("symmetric", (0, 1, 3), (0, 1, 3), "N(1,1,1)", 0)

    def call(self, req):
        if req.kind.startswith("minors"):
            return minors.minors_split_equivalence_scan(*req.args)
        if req.kind == "unity":
            return verify.check_unity_minor_explanations(*req.args)
        pair, label, n_max, seed = req.args
        return strata.scan_corank_strata(pair, label, n_max, seed=seed)

    def digest(self, req, out):
        if req.kind.startswith("minors"):
            return {
                "pairs_checked": out.pairs_checked,
                "sets_checked": out.sets_checked,
                "forward": len(out.forward_counterexamples),
                "converse": len(out.converse_counterexamples),
                "order2": len(out.order2_explained),
                "unexplained": len(out.unexplained),
            }
        if req.kind == "unity":
            return _unity_digest(out)
        return {
            "found": {f"{k[0]},{k[1]}": v["count"] for k, v in sorted(out.found.items())},
            "generic": list(out.generic_corank) if out.generic_corank else None,
            "mismatches": len(out.mismatches),
            "corank2_side1": out.side_observed(1, 2),
        }

    def check(self, req, d):
        if req.kind.startswith("minors"):
            errors = []
            if d["unexplained"]:
                errors.append(f"{d['unexplained']} unexplained zeros")
            if d["converse"]:
                errors.append(f"{d['converse']} converse counterexamples")
            if d["order2"] != d["forward"]:
                errors.append(f"{d['forward'] - d['order2']} forward counterexamples not order-2")
            # the criterion as stated stays false: 306 order-2 counterexamples
            if req.kind == "minors-paper" and d["forward"] + d["converse"] != 306:
                errors.append(f"{d['forward'] + d['converse']} counterexamples, expected 306")
            return errors
        if req.kind == "unity":
            return _unity_errors(d)
        errors = []
        if d["mismatches"]:
            errors.append(f"{d['mismatches']} stratum mismatches")
        if req.kind == "symmetric":
            predicted = qexact.gap_gcd(req.params["b1"]) >= 3
            if d["corank2_side1"] != predicted:
                errors.append(f"corank 2 observed={d['corank2_side1']} but gap gcd >= 3 is {predicted}")
        return errors

    def finish(self):
        """Untimed: the paper-size unity sweep, and the python-vs-compiled
        kernel agreement (same zero counts) when the compiled backend imports."""
        d = _unity_digest(verify.check_unity_minor_explanations(*self.PAPER_UNITY))
        errors = _unity_errors(d)
        if d["zeros_power"] != 17148:
            errors.append(f"{d['zeros_power']} power-matrix zeros at {self.PAPER_UNITY}, expected 17148")
        notes = [f"paper unity sweep {self.PAPER_UNITY}: {d['zeros_power']} zeros, {d['unexplained']} unexplained"]
        get_backends = getattr(kernels, "get_backends", None)
        backends = get_backends() if get_backends else []
        if len(backends) < 2:
            notes.append("backend agreement: skipped, the compiled kernel backend is not importable")
            return 1, errors, notes
        bench = _bench_minors()
        counts = {name: (bench.workload_det_suite(mod, 24, 5), bench.workload_all_minors(mod, 24, 8)) for name, mod in backends}
        if len(set(counts.values())) != 1:
            errors.append(f"kernel backends disagree: {counts}")
        else:
            notes.append(f"backend agreement: {sorted(counts)} agree on {next(iter(counts.values()))}")
        return 2, errors, notes


def _unity_digest(out):
    ok, details = out
    return {
        "ok": bool(ok),
        "checked": details["checked"],
        "zeros_power": details["zeros_power_matrix"],
        "zeros_exponent": details["zeros_exponent_matrix"],
        "unexplained": len(details["unexplained"]),
    }


def _unity_errors(d):
    errors = []
    if d["unexplained"]:
        errors.append(f"{d['unexplained']} unexplained zeros")
    if not d["ok"]:
        errors.append("check_unity_minor_explanations reported failure")
    return errors


def _bench_minors():
    """benchmarks/bench_minors.py of the checkout, whose workloads the
    backend agreement check runs."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_minors", "benchmarks/bench_minors.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- pair-queries --------------------------------------------------------------

POINT_FAMILIES = (((0, 1, 2, 3), (0, 1, 2, 3)), ((0, 1, 2), (0, 1, 2, 3)), ((0, 1, 2, 4), (0, 1, 3, 4)))
POINT_SCENARIOS = {  # scenario -> (orders per common root, expected class)
    "smooth": ((1,), "SmoothPoint"),
    "node": ((1, 1), "NodeA1"),
    "double": ((2,), "MultipleRoot"),
}
CODIM_CASES = (  # the six codim-estimate cases of verify-paper, with their paper values
    ((0, 1, 2, 3), (0, 1, 2, 3), "N(1)", 1),
    ((0, 1, 2, 3), (0, 1, 2, 3), "N(1,1)", 2),
    ((0, 1, 2, 3), (0, 1, 2, 3), "N(2)", 3),
    ((0, 1, 2, 3), (0, 1, 2, 3), "N(1,1,1)", 3),
    ((0, 3, 6), (0, 3, 6), "N(1,1)", 1),
    ((0, 1, 3, 4, 6, 7), (0, 3, 6), "N(1,1,1)", 2),
)
CODIM_SEED = 7  # the seed verify-paper uses; the estimate is a seeded heuristic
GRID_CELLS = 5 * 8 * 5 * 8  # project3d's default log-polar grid


def _nonzero(rng, lo=-6, hi=6):
    while True:
        v = rng.randint(lo, hi)
        if v:
            return v


def _rational(rng):
    return Fraction(_nonzero(rng, -9, 9), rng.randint(1, 5))


def _kernel_poly(support, constraints, rng):
    basis = qexact.nullspace(qexact.vanishing_rows(support, constraints), len(support))
    if not basis:
        return None
    weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in basis]
    vec = [sum(w * v[i] for w, v in zip(weights, basis)) for i in range(len(support))]
    return vec if any(vec) else None


def _dense(support, vec):
    out = [Fraction(0)] * (support[-1] - support[0] + 1)
    for b, c in zip(support, vec):
        out[b - support[0]] = c
    return out


def _clean(fam, f, g, needed):
    """Exactly the prescribed common roots with exactly the prescribed orders,
    and no root at 0 or infinity."""
    pf, pg = _dense(fam[0], f), _dense(fam[1], g)
    if not (pf[0] and pf[-1] and pg[0] and pg[-1]):
        return False
    h = qexact.poly_gcd(pf, pg)
    if len(h) - 1 != sum(needed.values()):
        return False
    return all(
        qexact.root_multiplicity(pf, x) == j and qexact.root_multiplicity(pg, x) == j
        for x, j in needed.items()
    )


def _point_pair(fam, orders, rng):
    while True:
        roots = []
        while len(roots) < len(orders):
            x = _rational(rng)
            if x not in roots:
                roots.append(x)
        constraints = list(zip(roots, orders))
        f = _kernel_poly(fam[0], constraints, rng)
        g = _kernel_poly(fam[1], constraints, rng)
        if f is not None and g is not None and _clean(fam, f, g, dict(constraints)):
            return f, g


def _laurent_json(support, vec):
    return {"support": list(support), "coeffs": {str(b): str(c) for b, c in zip(support, vec)}}


def _germ_json(terms):
    return {"terms": [{"exp": list(e), "coef": str(c)} for e, c in sorted(terms.items()) if c]}


def _form_product(forms):
    """Expand a product of linear forms a*s + b*t into {(deg_s, deg_t): coef}."""
    out = {(0, 0): Fraction(1)}
    for a, b in forms:
        nxt = {}
        for (i, j), c in out.items():
            nxt[(i + 1, j)] = nxt.get((i + 1, j), 0) + c * a
            nxt[(i, j + 1)] = nxt.get((i, j + 1), 0) + c * b
        out = nxt
    return out


def _independent_forms(rng, count):
    forms = []
    while len(forms) < count:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if (a or b) and all(a * d - b * c for c, d in forms):
            forms.append((a, b))
    return forms


def _germ(kind, rng):
    """A germ with a class known from its construction."""
    if kind == "cusp":
        # t^2 + c s^3 plus terms off the Newton polygon's steepest edge
        terms = {(0, 2): Fraction(1), (3, 0): Fraction(_nonzero(rng))}
        for e in rng.sample([(4, 0), (2, 1), (1, 2), (0, 3)], 2):
            terms[e] = Fraction(_nonzero(rng))
        return terms, {"tag": "UniTangent", "m": 2, "slope": "2/3"}
    m = 2 if kind == "node" else 3
    terms = _form_product(_independent_forms(rng, m))
    for _ in range(2):
        i = rng.randint(0, m + 1)
        terms[(i, m + 1 - i)] = terms.get((i, m + 1 - i), 0) + _nonzero(rng)
    tag = "NodeA1" if m == 2 else "OrdinaryMultiple"
    return terms, {"tag": tag, "m": m, "slope": None}


def _singular_slice(kind, rng):
    """A singular point of R((0,1,3),(0,3)) = (f3 g0 - f0 g3)^3 + f1^3 g3^2 g0,
    slice directions, and the germ class the slice must have."""
    a, d, e = _nonzero(rng), _nonzero(rng), _nonzero(rng)
    if kind == "triple":
        point = {"f3": a, "f1": 0, "f0": Fraction(a * e, d), "g3": d, "g0": e}
        return point, {"f1": 1}, {"f0": 1}, {"tag": "OrdinaryMultiple", "m": 3, "slope": None}
    point = {"f3": 0, "f1": _nonzero(rng), "f0": _nonzero(rng), "g3": 0, "g0": e}
    return point, {"f3": 1}, {"g3": 1}, {"tag": "UniTangent", "m": 2, "slope": "2/3"}


def _point3d(rng, count):
    while True:
        pts = sorted({(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 3)) for _ in range(count)})
        if len({p[2] for p in pts}) >= 2:
            return [list(p) for p in pts]


class PairQueries(Workload):
    name = "pair-queries"
    SLICE_PAIR = ((0, 1, 3), (0, 3))
    # The mix is arbitrary: no measured use fixes it, so every kind gets the
    # same count.  Shapes cycle with the request's index, so that every seed
    # costs about the same; the seed draws coefficients, roots and points.
    PER_KIND = 15
    # Sylvester size at most 10 (memoized minor expansion), then above 10 (Bareiss)
    RESULTANT_SHAPES = (
        ((0, 1, 3), (0, 2)), ((0, 2, 5), (0, 3)), ((0, 1, 4), (0, 2, 5)),
        ((0, 3, 6), (0, 1, 4)), ((0, 1, 5), (0, 3, 5)), ((0, 1, 2), (0, 1, 8)),
        ((0, 3, 7), (0, 3)), ((0, 2, 7), (0, 1, 8)), ((0, 4, 9), (0, 9)),
        ((0, 5, 10), (0, 10)), ((0, 1, 12), (0, 12)), ((0, 5, 13), (0, 13)),
        ((0, 7, 14), (0, 14)), ((0, 11, 16), (0, 16)), ((0, 3, 20), (0, 20)),
    )
    ANCHOR = ((0, 1, 40), (0, 40))  # the ROADMAP's anchor resultant

    def requests(self, seed):
        rng = _rng(self.name, seed)
        reqs = []
        n = self.PER_KIND
        for i in range(n):
            b1 = _shaped(rng, 2 + i % 11, 1 + i % 3)
            b2 = _shaped(rng, 2 + (i + 5) % 11, 1 + (i + 1) % 3)
            reqs.append(Request("classify", {"b1": b1, "b2": b2}, (["classify", "--b1", _csv(b1), "--b2", _csv(b2)], None)))
        for i in range(n):
            reqs.append(self._resultant("resultant", *self.RESULTANT_SHAPES[i % len(self.RESULTANT_SHAPES)], rng))
        reqs.append(self._resultant("resultant-anchor", *self.ANCHOR, rng))
        scenarios = list(POINT_SCENARIOS)
        for i in range(n):
            fam = POINT_FAMILIES[i % len(POINT_FAMILIES)]
            scenario = scenarios[(i // len(POINT_FAMILIES)) % len(scenarios)]
            orders, want = POINT_SCENARIOS[scenario]
            f, g = _point_pair(fam, orders, rng)
            data = {"f": _laurent_json(fam[0], f), "g": _laurent_json(fam[1], g)}
            reqs.append(
                Request("point-classify", data, (["point-classify", "--input", "-"], json.dumps(data)), {"class": want})
            )
        kinds = ("node", "triple", "cusp")
        for i in range(n):
            terms, want = _germ(kinds[i % 3], rng)
            data = _germ_json(terms)
            reqs.append(Request("germ-classify", data, (["germ-classify", "--input", "-"], json.dumps(data)), want))
        for i in range(n):
            point, dir1, dir2, want = _singular_slice(("triple", "cusp")[i % 2], rng)
            params = {"pair": [list(b) for b in self.SLICE_PAIR], "point": {k: str(v) for k, v in point.items()}, "dir1": dir1, "dir2": dir2}
            pair = SupportPair(SupportSet(self.SLICE_PAIR[0]), SupportSet(self.SLICE_PAIR[1]))
            reqs.append(Request("germ-slice", params, (pair, point, dir1, dir2), want))
        for i in range(n):
            b1, b2, label, want = CODIM_CASES[i % len(CODIM_CASES)]
            argv = ["scan", "codim", "--b1", _csv(b1), "--b2", _csv(b2), "--label", label, "--seed", str(CODIM_SEED)]
            reqs.append(Request("codim", {"b1": list(b1), "b2": list(b2), "label": label}, (argv, None), {"codim": want}))
        for i in range(n):
            data = {"a1": _point3d(rng, 2 + i % 3), "a2": _point3d(rng, 2 + (i + 1) % 3)}
            scan_seed = rng.randrange(2**31)
            argv = ["project3d", "--input", "-", "--scan", "--seed", str(scan_seed)]
            reqs.append(Request("project3d", {**data, "seed": scan_seed}, (argv, json.dumps(data))))
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def _resultant(kind, b1, b2, rng):
        names = [f"f{b}" for b in b1] + [f"g{b}" for b in b2]
        values = {v: _nonzero(rng, -4, 4) for v in names}  # for the sympy oracle
        argv = ["resultant", "--b1", _csv(b1), "--b2", _csv(b2), "--det-bound", "100"]
        return Request(kind, {"b1": list(b1), "b2": list(b2)}, (argv, None), {"values": values})

    def warmup(self):
        return Request("classify", {}, (["classify", "--b1", "0,1,3", "--b2", "0,3"], None))

    def call(self, req):
        if req.kind == "germ-slice":
            pair, point, dir1, dir2 = req.args
            r = mpoly.resultant_poly(pair)
            singular = mpoly.jacobian_vanishes(r, point)
            return singular, germs.classify_germ(germs.slice_germ(r, point, dir1, dir2))
        argv, stdin_text = req.args
        return _run_cli(argv, stdin_text)

    def digest(self, req, out):
        if req.kind == "germ-slice":
            singular, cls = out
            return {"singular": singular, "class": cls.to_json()}
        code, text = out
        d = {"exit": code}
        if code != 0:
            return d
        payload = json.loads(text)
        if req.kind == "classify":
            d["verdict"] = payload["verdict"]
        elif req.kind.startswith("resultant"):
            d["resultant"] = payload["resultant"]
        elif req.kind in ("point-classify", "germ-classify"):
            d["class"] = payload["classification"]
        elif req.kind == "codim":
            d["codim"] = payload["report"]["codim_estimate"]
        elif req.kind == "project3d":
            scan = payload["curve_scan"]
            d["verdict"] = payload["projection_verdict"]
            d["cells"] = scan["cells"]
            d["near_zero"] = len(scan["near_zero_cells"])
        return d

    def check(self, req, d):
        if req.kind == "germ-slice":
            errors = [] if d["singular"] else ["jacobian does not vanish at a singular point"]
            return errors + _class_errors(d["class"], req.expect)
        if d["exit"] != 0:
            return [f"exit code {d['exit']}"]
        if req.kind.startswith("resultant"):
            return _resultant_errors(req, d["resultant"])
        if req.kind == "point-classify":
            got = d["class"]["reason"] if d["class"]["tag"] == "Degenerate" else d["class"]["tag"]
            return [] if got == req.expect["class"] else [f"class {got}, constructed {req.expect['class']}"]
        if req.kind == "germ-classify":
            return _class_errors(d["class"], req.expect)
        if req.kind == "codim":
            want = req.expect["codim"]
            return [] if d["codim"] == want else [f"codim estimate {d['codim']}, paper value {want}"]
        if req.kind == "project3d" and d["cells"] != GRID_CELLS:
            return [f"{d['cells']} grid cells, expected {GRID_CELLS}"]
        return []


def _class_errors(got, want):
    got = {k: got.get(k) for k in ("tag", "m", "slope")}
    return [] if got == want else [f"germ class {got}, constructed {want}"]


def _resultant_errors(req, res):
    """The resultant equals +-sympy.resultant at a nonzero integer point."""
    import sympy

    values = req.expect["values"]
    got = qexact.evaluate_terms(res["vars"], res["terms"], values)
    x = sympy.Symbol("x")
    b1, b2 = req.params["b1"], req.params["b2"]
    f = sum(values[f"f{b}"] * x ** (b - b1[0]) for b in b1)
    g = sum(values[f"g{b}"] * x ** (b - b2[0]) for b in b2)
    want = int(sympy.resultant(f, g, x))
    return [] if got in (want, -want) else [f"resultant {got} at {values}, sympy gives +-{want}"]


WORKLOADS = {w.name: w for w in (StrataScan(), PairQueries())}
