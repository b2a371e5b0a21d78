"""Filtration-subset labels, multiplicity Vandermonde matrices, kernel
samplers, and Monte-Carlo codimension estimation.

A label (j0, jinf, multiset of per-root order pairs) indexes the subset of
coefficient pairs whose common roots have at least the prescribed orders.
The codimension estimator parameterizes each probed locus component by
(solution tuple, kernel coordinates) and reports the rank of the
parameterization's differential: the dimension found certifies an upper
bound on the codimension, while the claimed lower bound stays heuristic.
Generic tuples are ranked exactly; the float samples of the root-of-unity
and minor-curve components are drawn first and evaluated as stacks
(`_span_dimensions`), one stacked SVD per side and per final matrix shape.
The corank-strata scan ranks root-of-unity tuples exactly (closed form, or
division-free elimination over Z[zeta_n]) and certifies the generic corank
by Descartes' rule of signs; its seed only picks witness tuples.
"""

from __future__ import annotations

import itertools
import random
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .exact import exact_rank, kernel_basis, solve_exact
from .laurent import LaurentPoly, ProjPoint, common_roots, falling, ord_at
from .minors import RootOfUnity, unity_power_rank
from .supports import SupportPair, SupportSet, gap_gcd, split_witness

__all__ = [
    "StratumLabel",
    "SolutionTuple",
    "CodimEstimate",
    "GenericPoints",
    "RootsOfUnity",
    "MinorCurve",
    "expected_codim",
    "label_dominates",
    "actual_label",
    "in_filtration_subset",
    "multiplicity_vandermonde",
    "corank_kernel",
    "sample_filtration_subset",
    "estimate_codim",
    "scan_corank_strata",
    "parse_label",
    "ScanSReport",
]

SVD_RTOL = 1e-7
VOTE_SAMPLES = 5


@dataclass(frozen=True)
class StratumLabel:
    """(j0, jinf, multiset of per-root order pairs), canonically sorted."""

    j0: int = 0
    jinf: int = 0
    roots: tuple = ()

    def __post_init__(self):
        if self.j0 < 0 or self.jinf < 0:
            raise ValueError("boundary orders must be non-negative")
        roots = tuple(sorted((tuple(r) for r in self.roots), reverse=True))
        for j1, j2 in roots:
            if j1 < 1 or j2 < 1:
                raise ValueError("root orders must be >= 1")
        object.__setattr__(self, "roots", roots)

    @property
    def k(self):
        return len(self.roots)

    @property
    def is_symmetric(self):
        return all(j1 == j2 for j1, j2 in self.roots)

    def symmetrized(self):
        return StratumLabel(self.j0, self.jinf, tuple((min(r), min(r)) for r in self.roots))

    def side_orders(self, side):
        return tuple(r[side - 1] for r in self.roots)

    def to_json(self):
        return {"j0": self.j0, "jinf": self.jinf, "roots": [list(r) for r in self.roots]}

    @classmethod
    def from_json(cls, data):
        return cls(data["j0"], data["jinf"], tuple(tuple(r) for r in data["roots"]))

    @classmethod
    def symmetric(cls, j0, jinf, orders):
        return cls(j0, jinf, tuple((j, j) for j in orders))

    def notation(self):
        sub = f"_{self.j0}" if self.j0 else ""
        sup = f"^{self.jinf}" if self.jinf else ""
        if not self.roots:
            return f"N{sub}{sup}"
        if self.is_symmetric:
            body = ",".join(str(r[0]) for r in self.roots)
        else:
            body = ",".join(str(r[0]) for r in self.roots) + ";" + ",".join(
                str(r[1]) for r in self.roots
            )
        return f"N{sub}{sup}({body})"


_LABEL_RE = re.compile(r"^N(?:_(\d+))?(?:\^(\d+))?(?:\(([^)]*)\))?$")


def parse_label(text: str) -> StratumLabel:
    """Parse 'N(1,1,1)', 'N_1^0(1)', 'N(2,1;1,1)' style notation."""
    m = _LABEL_RE.match(text.strip().replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse label {text!r}")
    j0 = int(m.group(1) or 0)
    jinf = int(m.group(2) or 0)
    body = m.group(3)
    if not body:
        return StratumLabel(j0, jinf, ())
    if ";" in body:
        top, bottom = body.split(";")
        j1s = [int(x) for x in top.split(",")]
        j2s = [int(x) for x in bottom.split(",")]
        if len(j1s) != len(j2s):
            raise ValueError("mismatched row lengths in general label")
        return StratumLabel(j0, jinf, tuple(zip(j1s, j2s)))
    js = [int(x) for x in body.split(",")]
    return StratumLabel.symmetric(j0, jinf, js)


def expected_codim(label: StratumLabel) -> int:
    """2*j0 + 2*jinf + sum over roots of (j1 + j2 - 1)."""
    return 2 * label.j0 + 2 * label.jinf + sum(j1 + j2 - 1 for j1, j2 in label.roots)


def label_dominates(q: StratumLabel, p: StratumLabel) -> bool:
    """Degeneration partial order on symmetric labels.

    q >= p iff p's root system maps into q's (0 -> 0, inf -> inf, finite
    roots anywhere, possibly merging) with capacity g_s at each target s.
    The map need not be surjective: q may carry extra roots.
    """
    if not (q.is_symmetric and p.is_symmetric):
        raise ValueError("order is defined on symmetric labels")
    if p.j0 > q.j0 or p.jinf > q.jinf:
        return False
    targets = [q.j0 - p.j0, q.jinf - p.jinf] + [j for j, _ in q.roots]
    weights = [j for j, _ in p.roots]

    def assign(i, caps):
        if i == len(weights):
            return True
        w = weights[i]
        seen = set()
        for s, cap in enumerate(caps):
            if cap >= w and (s, cap) not in seen:
                seen.add((s, cap))
                caps[s] -= w
                if assign(i + 1, caps):
                    caps[s] += w
                    return True
                caps[s] += w
        return False

    return assign(0, targets)


def actual_label(f: LaurentPoly, g: LaurentPoly, tol=1e-8) -> StratumLabel:
    """General label of (f, g): boundary pair orders plus per-root order pairs."""
    if f.is_zero or g.is_zero:
        raise ValueError("label of a zero polynomial is undefined")
    records = common_roots(f, g, tol)
    j0 = jinf = 0
    roots = []
    for r in records:
        if r.point.kind == "zero":
            j0 = r.pair_ord
        elif r.point.kind == "infinity":
            jinf = r.pair_ord
        else:
            roots.append((r.ord1, r.ord2))
    return StratumLabel(j0, jinf, tuple(roots))


def _match_size(left_adj, n_right):
    match_r = [-1] * n_right

    def augment(u, seen):
        for v in left_adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_r[v] == -1 or augment(match_r[v], seen):
                    match_r[v] = u
                    return True
        return False

    count = 0
    for u in range(len(left_adj)):
        if augment(u, [False] * n_right):
            count += 1
    return count


def in_filtration_subset(f: LaurentPoly, g: LaurentPoly, label: StratumLabel, tol=1e-8) -> bool:
    """Membership test: boundary orders and an injective assignment of the
    label's root pairs to distinct finite common roots (bipartite matching)."""
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial")
    if min(ord_at(f, ProjPoint.zero(), tol), ord_at(g, ProjPoint.zero(), tol)) < label.j0:
        return False
    if min(ord_at(f, ProjPoint.infinity(), tol), ord_at(g, ProjPoint.infinity(), tol)) < label.jinf:
        return False
    finite = [r for r in common_roots(f, g, tol) if r.point.kind == "finite"]
    adj = [
        [ri for ri, rec in enumerate(finite) if rec.ord1 >= j1 and rec.ord2 >= j2]
        for j1, j2 in label.roots
    ]
    return _match_size(adj, len(finite)) == label.k


@dataclass(frozen=True)
class SolutionTuple:
    """Tuple of pairwise distinct nonzero points of the solution space."""

    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        keys = []
        for x in pts:
            if isinstance(x, RootOfUnity):
                g = gcd(x.k, x.n) if x.k else x.n
                keys.append(("unity", x.k // g, x.n // g))
            else:
                if not x:
                    raise ValueError("solution points must be nonzero")
                keys.append(("scalar", complex(x)))
        if len(set(keys)) != len(keys):
            raise ValueError("solution points must be pairwise distinct")
        object.__setattr__(self, "points", pts)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def _point_power(x, e):
    if isinstance(x, RootOfUnity):
        return x.power(e)
    if isinstance(x, (int, Fraction)):
        return Fraction(x) ** e
    return complex(x) ** e


def multiplicity_vandermonde(b: SupportSet, xs, js):
    """Rows f^(d)(x_m) for d < j_m, columns indexed by the support.

    Entry for exponent col b and derivative d is b(b-1)...(b-d+1) * x^(b-d)
    (falling-factorial convention, valid for negative Laurent exponents).
    """
    pts = list(xs.points if isinstance(xs, SolutionTuple) else xs)
    if len(pts) != len(js):
        raise ValueError("one multiplicity per point required")
    SolutionTuple(tuple(pts))  # validates distinctness / nonzero
    rows = []
    for x, j in zip(pts, js):
        for d in range(j):
            rows.append([falling(e, d) * _point_power(x, e - d) for e in b.elements])
    return rows


def _is_float_matrix(rows):
    return any(isinstance(v, (complex, float, np.complexfloating)) for r in rows for v in r)


def corank_kernel(rows, rtol=SVD_RTOL):
    """(corank, kernel basis) of the linear map f -> M f.

    corank = rows - rank; thresholded SVD for floats, and for rational /
    cyclotomic entries one exact elimination (kernel_basis), whose kernel
    dimension gives the rank as columns - kernel dimension.
    """
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    if _is_float_matrix(rows):
        m = np.array([[complex(v) for v in r] for r in rows])
        u, s, vh = np.linalg.svd(m)
        cut = rtol * (s[0] if len(s) else 0.0)
        rank = int(np.sum(s > cut))
        kernel = [vh[i].conj() for i in range(rank, vh.shape[0])]
        return len(rows) - rank, kernel
    kernel = kernel_basis(rows)
    return len(rows) - (len(rows[0]) - len(kernel)), kernel


# --- locus descriptions ----------------------------------------------------


@dataclass(frozen=True)
class GenericPoints:
    pass


@dataclass(frozen=True)
class RootsOfUnity:
    n: int


@dataclass(frozen=True)
class MinorCurve:
    side: int = 1
    triple: tuple | None = None


def _effective_elements(b: SupportSet, j0, jinf):
    lo, hi = b.min + j0, b.max - jinf
    return tuple(e for e in b.elements if lo <= e <= hi)


def _embed(vec, eff, b: SupportSet):
    pos = {e: i for i, e in enumerate(eff)}
    return [vec[pos[e]] if e in pos else 0 for e in b.elements]


def _random_fraction(rng, lo=-9, hi=9):
    while True:
        num = rng.randint(lo, hi)
        if num:
            return Fraction(num, rng.randint(1, 6))


def _random_unit_annulus(rng):
    rho = rng.uniform(-0.6, 0.6)
    theta = rng.uniform(0, 2 * np.pi)
    return complex(np.exp(rho) * np.cos(theta), np.exp(rho) * np.sin(theta))


def _draw_tuple(pair, label, locus, rng):
    """Sample a solution tuple from the requested locus.

    Returns (points, tangent_directions) where each direction is a length-k
    vector spanning the locus's tangent at the sample.
    """
    k = label.k
    if isinstance(locus, GenericPoints):
        pts = []
        while len(pts) < k:
            x = _random_fraction(rng)
            if x and x not in pts:
                pts.append(x)
        dirs = [[1 if i == m else 0 for i in range(k)] for m in range(k)]
        return pts, dirs
    if isinstance(locus, RootsOfUnity):
        n = locus.n
        if k < 2 or n < 2 or n < k:
            return None
        exps = [0] + rng.sample(range(1, n), k - 1)
        c = _random_unit_annulus(rng)
        omega = [np.exp(2j * np.pi * e / n) for e in exps]
        pts = [c * w for w in omega]
        return pts, [list(omega)]
    if isinstance(locus, MinorCurve):
        if k != 3:
            return None
        b = (pair.b1 if locus.side == 1 else pair.b2).elements
        if len(b) < 3:
            return None
        triple = locus.triple or tuple(sorted(rng.sample(b, 3)))
        a_, b_, c_ = triple
        for _ in range(12):
            t = _random_unit_annulus(rng)
            coeffs = _minor_poly_in_u(a_, b_, c_, t)
            if coeffs is None:
                continue
            roots = np.roots(coeffs)
            good = [
                u
                for u in roots
                if abs(u) > 1e-9 and abs(u - 1) > 1e-9 and abs(u - t) > 1e-9
            ]
            if not good:
                continue
            u = complex(good[0])
            c = _random_unit_annulus(rng)
            pts = [c, c * t, c * u]
            dpdt = _minor_du_dt(a_, b_, c_, t, u)
            if dpdt is None:
                dirs = [[1, t, u]]
            else:
                dirs = [[1, t, u], [0, c, c * dpdt]]
            return pts, dirs
        return None
    raise ValueError(f"unknown locus {locus!r}")


def _minor_poly_in_u(a, b, c, t):
    """Coefficients (descending) of det[[1,1,1],[t^a,t^b,t^c],[u^a,u^b,u^c]]
    as a polynomial in u, exponents shifted to be non-negative."""
    lo = min(a, b, c)
    a, b, c = a - lo, b - lo, c - lo
    deg = max(a, b, c)
    coeffs = [0j] * (deg + 1)
    # det = (t^b - t^c) u^a + (t^c - t^a) u^b + (t^a - t^b) u^c
    coeffs[deg - a] += t**b - t**c
    coeffs[deg - b] += t**c - t**a
    coeffs[deg - c] += t**a - t**b
    if all(abs(x) < 1e-14 for x in coeffs):
        return None
    return coeffs


def _minor_du_dt(a, b, c, t, u):
    """Implicit derivative du/dt on the minor curve, None at critical points."""
    dd_dt = (
        (b * t ** (b - 1) - c * t ** (c - 1)) * u**a
        + (c * t ** (c - 1) - a * t ** (a - 1)) * u**b
        + (a * t ** (a - 1) - b * t ** (b - 1)) * u**c
    )
    dd_du = (
        (t**b - t**c) * a * u ** (a - 1)
        + (t**c - t**a) * b * u ** (b - 1)
        + (t**a - t**b) * c * u ** (c - 1)
    )
    if abs(dd_du) < 1e-12:
        return None
    return -dd_dt / dd_du


def _side_matrices(pair, label, pts):
    eff1 = _effective_elements(pair.b1, label.j0, label.jinf)
    eff2 = _effective_elements(pair.b2, label.j0, label.jinf)
    if not eff1 or not eff2:
        return None
    m1 = (
        multiplicity_vandermonde(SupportSet(eff1), pts, label.side_orders(1))
        if label.k
        else []
    )
    m2 = (
        multiplicity_vandermonde(SupportSet(eff2), pts, label.side_orders(2))
        if label.k
        else []
    )
    return eff1, eff2, m1, m2


def _kernel_of(mat, ncols, rtol=SVD_RTOL):
    if not mat:
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    _, kern = corank_kernel(mat, rtol)
    return kern


def sample_filtration_subset(pair: SupportPair, label: StratumLabel, locus, seed=0):
    """Draw (f, g, xs) from the kernel construction over the locus, or None.

    The pair is built from random kernel combinations over the effective
    supports (boundary orders are imposed by zeroing convex-hull coefficients)
    and verified to lie in the filtration subset.
    """
    rng = random.Random(seed)
    if label.k == 0:
        drawn = ([], [])
    else:
        drawn = _draw_tuple(pair, label, locus, rng)
        if drawn is None:
            return None
    pts, _dirs = drawn
    sides = _side_matrices(pair, label, pts)
    if sides is None:
        return None
    eff1, eff2, m1, m2 = sides
    k1 = _kernel_of(m1, len(eff1))
    k2 = _kernel_of(m2, len(eff2))
    if not k1 or not k2:
        return None
    exact = isinstance(locus, GenericPoints)

    def combo(kern, rng):
        if exact:
            w = [_random_fraction(rng) for _ in kern]
            return [sum(wi * v[i] for wi, v in zip(w, kern)) for i in range(len(kern[0]))]
        w = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in kern]
        return [sum(wi * complex(v[i]) for wi, v in zip(w, kern)) for i in range(len(kern[0]))]

    for _ in range(8):
        f = LaurentPoly(pair.b1, dict(zip(pair.b1.elements, _embed(combo(k1, rng), eff1, pair.b1))))
        g = LaurentPoly(pair.b2, dict(zip(pair.b2.elements, _embed(combo(k2, rng), eff2, pair.b2))))
        if f.is_zero or g.is_zero:
            continue
        if in_filtration_subset(f, g, label):
            return f, g, pts
    return None


@dataclass
class CodimEstimate:
    """Sampling-based codimension report for one filtration subset.

    best_dim_found is the certified side (a dimension actually realized);
    codim_lower_bound_claimed = ambient - best_dim_found is heuristic.
    `samples` maps each probed component to its per-sample dimensions (None
    where a sample failed), and `timings` gives the seconds spent in the
    generic, root-of-unity and minor-curve phases.
    """

    ambient_dim: int
    best_dim_found: int | None
    components_probed: list = field(default_factory=list)
    sample_count: int = 0
    seed: int = 0
    label: str = ""
    pair: dict | None = None
    samples: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def estimate(self):
        if self.best_dim_found is None:
            return None
        return self.ambient_dim - self.best_dim_found

    @property
    def codim_lower_bound_claimed(self):
        return self.estimate

    def to_json(self):
        from . import __version__  # the package imports this module before defining it

        def component(desc, dim):
            dims = self.samples.get(desc, [])
            return {
                "component": desc,
                "dim_found": dim,
                "votes": [list(v) for v in sorted(Counter(d for d in dims if d is not None).items())],
                "none_samples": dims.count(None),
            }

        return {
            "ambient_dim": self.ambient_dim,
            "best_dim_found": self.best_dim_found,
            "codim_estimate": self.estimate,
            "codim_lower_bound_claimed": self.estimate,
            "heuristic_lower_bound": True,
            "components_probed": [component(desc, dim) for desc, dim in self.components_probed],
            "sample_count": self.sample_count,
            "seed": self.seed,
            "label": self.label,
            "pair": self.pair,
            "version": __version__,
            "timings": self.timings,
        }


def _derivative_rhs(poly_coeffs, eff, js, point_index, x_values, scalar_pow):
    """-(dM/dx_m) f for the tangent solve: rows of point m step one
    derivative order up, other rows vanish."""
    rhs = []
    for m, j in enumerate(js):
        for d in range(j):
            if m != point_index:
                rhs.append(0)
            else:
                val = 0
                for e, cf in zip(eff, poly_coeffs):
                    val += cf * falling(e, d + 1) * scalar_pow(x_values[m], e - d - 1)
                rhs.append(-val)
    return rhs


def _span_dimension_exact(pair, label, pts, dirs):
    sides = _side_matrices(pair, label, pts)
    if sides is None:
        return None
    eff1, eff2, m1, m2 = sides
    k1 = _kernel_of(m1, len(eff1))
    k2 = _kernel_of(m2, len(eff2))
    if not k1 or not k2:
        return None
    rng = random.Random(1234577)
    f1 = [sum(_random_fraction(rng) * v[i] for v in k1) for i in range(len(eff1))]
    f2 = [sum(_random_fraction(rng) * v[i] for v in k2) for i in range(len(eff2))]
    n1, n2 = len(pair.b1.elements), len(pair.b2.elements)
    rows = []
    for v in k1:
        rows.append(_embed(v, eff1, pair.b1) + [0] * n2)
    for w in k2:
        rows.append([0] * n1 + _embed(w, eff2, pair.b2))
    js1, js2 = label.side_orders(1), label.side_orders(2)
    pow_ = lambda x, e: Fraction(x) ** e
    for direction in dirs:
        # direction is a coordinate tangent e_m for the generic locus
        m = next(i for i, d in enumerate(direction) if d)
        rhs1 = _derivative_rhs(f1, eff1, js1, m, pts, pow_)
        rhs2 = _derivative_rhs(f2, eff2, js2, m, pts, pow_)
        df = solve_exact(m1, rhs1) if m1 else [0] * len(eff1)
        dg = solve_exact(m2, rhs2) if m2 else [0] * len(eff2)
        if df is None or dg is None:
            return None
        rows.append(_embed(df, eff1, pair.b1) + _embed(dg, eff2, pair.b2))
    return exact_rank(rows) if rows else 0


@lru_cache(maxsize=None)
def _vandermonde_tables(eff, js):
    """Row layout of the multiplicity Vandermonde of the exponents `eff` at
    len(js) points with orders js, as read-only arrays: the point of each
    row, falling(e, d) and e - d for its entries, and falling(e, d + 1) and
    e - d - 1 for the entries of its derivative in that point."""
    rows = [(m, d) for m, j in enumerate(js) for d in range(j)]
    derivs = np.array([d for _, d in rows])[:, None]
    tables = (
        np.array([m for m, _ in rows]),
        np.array([[falling(e, d) for e in eff] for _, d in rows], dtype=float),
        np.array(eff) - derivs,
        np.array([[falling(e, d + 1) for e in eff] for _, d in rows], dtype=float),
        np.array(eff) - derivs - 1,
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _span_dimensions(pair, label, pts, dirs, rtol=SVD_RTOL):
    """Span dimension of the locus parameterization's differential at each
    tuple of a stack, or None where a side kernel is empty or a tangent
    solve is inconsistent.

    `pts` is an (S, k) complex array of solution tuples (k >= 1) and
    dirs[s] a sequence of length-k tangent directions of the locus at tuple
    s.  Each side's multiplicity Vandermonde is built for the whole stack
    and factored by one stacked SVD: the right singular vectors past the
    thresholded rank span the side's kernel, and the same factors give the
    minimum-norm tangent solves (what lstsq returns, with its default
    cutoff).  The kernel combinations f1, f2 are drawn per tuple from a
    generator seeded by the tuple's hash.  The final ranks, of the
    row-normalized kernel and tangent rows, take one stacked SVD per matrix
    shape.
    """
    count = len(pts)
    dims = [None] * count
    effs = [_effective_elements(b, label.j0, label.jinf) for b in (pair.b1, pair.b2)]
    if not count or not all(effs):
        return dims
    ndirs = np.array([len(d) for d in dirs])
    tangents = np.zeros((count, ndirs.max(), label.k), dtype=complex)
    for s, d in enumerate(dirs):
        tangents[s, : len(d)] = d
    live = np.ones(count, dtype=bool)
    sides, kdims = [], []
    for side, eff in ((1, effs[0]), (2, effs[1])):
        tables = _vandermonde_tables(eff, label.side_orders(side))
        point, fall, exps = tables[:3]
        mat = fall * pts[:, point, None] ** exps
        u, sv, vh = np.linalg.svd(mat)
        kdim = len(eff) - np.sum(sv > rtol * sv[:, :1], axis=1)
        live &= kdim > 0
        sides.append((tables, mat, u, sv, vh))
        kdims.append(kdim)
    weights = [np.zeros((count, len(eff)), dtype=complex) for eff in effs]
    for s in np.flatnonzero(live):
        rng = np.random.default_rng(abs(hash(tuple(map(complex, pts[s])))) % (2**32))
        for w, kdim in zip(weights, kdims):
            kd = kdim[s]
            w[s, w.shape[1] - kd :] = rng.normal(size=kd) + 1j * rng.normal(size=kd)
    kernels, solutions = [], []
    while sides:  # consumed side by side, so each side's factors are freed once solved
        (point, _, _, dfall, dexps), mat, u, sv, vh = sides.pop(0)
        kernels.append(vh.conj())
        f = (weights.pop(0)[:, None, :] @ kernels[-1])[:, 0, :]
        # rhs[s, :, i] = -(derivative of the matrix along tangent i) @ f
        dmat = dfall * pts[:, point, None] ** dexps
        rhs = -(dmat @ f[:, :, None]) * tangents[:, :, point].swapaxes(1, 2)
        q = sv.shape[1]
        cut = np.finfo(float).eps * max(mat.shape[1:]) * sv[:, :1]
        inv = np.divide(1, sv, out=np.zeros_like(sv), where=sv > cut)
        sol = kernels[-1][:, :q].swapaxes(1, 2) @ (inv[:, :, None] * (u[:, :, :q].conj().swapaxes(1, 2) @ rhs))
        resid = np.linalg.norm(mat @ sol - rhs, axis=1)
        live &= ~np.any(resid > 1e-6 * np.maximum(1, np.linalg.norm(rhs, axis=1)), axis=1)
        solutions.append(sol.swapaxes(1, 2))
    n1 = len(pair.b1.elements)
    cols = (
        [pair.b1.elements.index(e) for e in effs[0]],
        [n1 + pair.b2.elements.index(e) for e in effs[1]],
    )
    kernels1, kernels2 = kernels
    shapes = np.stack([*kdims, ndirs], axis=1)
    for k1, k2, nd in {tuple(row) for row in shapes[live].tolist()}:
        idx = np.flatnonzero(live & (shapes == (k1, k2, nd)).all(axis=1))
        rows = np.zeros((len(idx), k1 + k2 + nd, n1 + len(pair.b2.elements)), dtype=complex)
        rows[:, :k1, cols[0]] = kernels1[idx, len(cols[0]) - k1 :]
        rows[:, k1 : k1 + k2, cols[1]] = kernels2[idx, len(cols[1]) - k2 :]
        rows[:, k1 + k2 :, cols[0]] = solutions[0][idx, :nd]
        rows[:, k1 + k2 :, cols[1]] = solutions[1][idx, :nd]
        norms = np.linalg.norm(rows, axis=2, keepdims=True)
        norms[norms == 0] = 1.0
        rows /= norms
        sv = np.linalg.svd(rows, compute_uv=False)
        for i, rank in zip(idx.tolist(), np.sum(sv > rtol * sv[:, :1], axis=1).tolist()):
            dims[i] = rank
    return dims


def _vote(dims):
    """Majority of the non-None sample dimensions, ties broken to the
    smallest; None when every sample failed."""
    votes = Counter(d for d in dims if d is not None).most_common()
    if not votes:
        return None
    return min(d for d, cnt in votes if cnt == votes[0][1])


@lru_cache(maxsize=None)
def _unity_configs(k, n_max):
    """Distinct projectivized root-of-unity tuples (exponents with x1 = 1),
    as a tuple of (n, exponents) in increasing n."""
    seen = set()
    out = []
    for n in range(2, n_max + 1):
        if k == 2:
            combos = [(p,) for p in range(1, n)]
        elif k == 3:
            combos = [(p, q) for p in range(1, n) for q in range(p + 1, n)]
        else:
            combos = []
        for exps in combos:
            key = tuple(sorted((e // gcd(e, n), n // gcd(e, n)) for e in exps))
            if key in seen:
                continue
            seen.add(key)
            out.append((n, (0,) + exps))
    return tuple(out)


@lru_cache(maxsize=None)
def _scan_config_groups(k, n_max):
    """The corank scan's root-of-unity tuples grouped by modulus, in scan
    order: (n, configs, read-only exponent array of shape (len(configs), k))
    per n.  A single root is projectivized to the one tuple (1,), n = 1."""
    configs = ((1, (0,)),) if k == 1 else _unity_configs(k, n_max)
    groups = []
    for n, group in itertools.groupby(configs, key=lambda config: config[0]):
        group = tuple(group)
        exps = np.array([e for _, e in group], dtype=np.int64)
        exps.setflags(write=False)
        groups.append((n, group, exps))
    return tuple(groups)


def estimate_codim(
    pair: SupportPair,
    label: StratumLabel,
    trials: int = 3,
    seed: int = 0,
    n_max: int = 12,
    max_minor_curves: int = 48,
) -> CodimEstimate:
    """Estimate the codimension of the filtration subset by probing locus
    components: generic tuples (exact rank at rational points, the best of
    `trials`), every root-of-unity configuration with n <= n_max, and
    single-minor curves (thresholded SVD with a majority vote over
    VOTE_SAMPLES draws).

    Every float sample of a phase is drawn first, in the order of the rng
    stream, and the phase's stack is then evaluated at once by
    `_span_dimensions`.  The report records each component's per-sample
    dimensions and the time of each phase."""
    rng = random.Random(seed)
    ambient = len(pair.b1.elements) + len(pair.b2.elements)
    est = CodimEstimate(
        ambient_dim=ambient,
        best_dim_found=None,
        seed=seed,
        label=label.notation(),
        pair=pair.to_json(),
    )

    def record(desc, dim, dims):
        est.components_probed.append((desc, dim))
        est.samples[desc] = dims
        if dim is not None and (est.best_dim_found is None or dim > est.best_dim_found):
            est.best_dim_found = dim

    def vote_stack(descs, owners, pts, dirs):
        """Evaluate one phase's stack and record each component's vote."""
        dims = _span_dimensions(pair, label, np.array(pts, dtype=complex).reshape(-1, k), dirs)
        est.sample_count += len(dims)
        votes = [[] for _ in descs]
        for owner, dim in zip(owners, dims):
            votes[owner].append(dim)
        for desc, own in zip(descs, votes):
            top = _vote(own)
            if top is not None:
                record(desc, top, own)

    k = label.k
    if k == 0:
        eff1 = _effective_elements(pair.b1, label.j0, label.jinf)
        eff2 = _effective_elements(pair.b2, label.j0, label.jinf)
        dim = len(eff1) + len(eff2) if eff1 and eff2 else None
        record("coordinate-subspace", dim, [dim])
        est.sample_count = 1
        return est

    # generic component, exact at rational tuples
    start = time.perf_counter()
    dims = []
    for _ in range(max(1, trials)):
        pts, dirs = _draw_tuple(pair, label, GenericPoints(), rng)
        dims.append(_span_dimension_exact(pair, label, pts, dirs))
        est.sample_count += 1
    record("generic", max((d for d in dims if d is not None), default=None), dims)
    est.timings["generic_s"] = time.perf_counter() - start

    # root-of-unity components: the tuples c * omega, tangent omega
    start = time.perf_counter()
    descs, owners, pts, dirs = [], [], [], []
    for n, exps in _unity_configs(k, n_max):
        omega = [np.exp(2j * np.pi * e / n) for e in exps]
        for _ in range(VOTE_SAMPLES):
            c = _random_unit_annulus(rng)
            owners.append(len(descs))
            pts.append([c * w for w in omega])
            dirs.append([omega])
        descs.append(f"unity(n={n}, exps={list(exps)})")
    vote_stack(descs, owners, pts, dirs)
    est.timings["unity_s"] = time.perf_counter() - start

    # single-minor curves (three-point labels only)
    start = time.perf_counter()
    if k == 3:
        curves = []
        for side, b in ((1, pair.b1), (2, pair.b2)):
            elems = b.elements
            for i in range(len(elems) - 2):
                for j in range(i + 1, len(elems) - 1):
                    for l in range(j + 1, len(elems)):
                        curves.append(MinorCurve(side, (elems[i], elems[j], elems[l])))
        rng.shuffle(curves)
        curves = curves[:max_minor_curves]
        owners, pts, dirs = [], [], []
        for i, curve in enumerate(curves):
            for _ in range(VOTE_SAMPLES):
                drawn = _draw_tuple(pair, label, curve, rng)
                if drawn is not None:
                    owners.append(i)
                    pts.append(drawn[0])
                    dirs.append(drawn[1])
        descs = [f"minor-curve(side={c.side}, triple={c.triple})" for c in curves]
        vote_stack(descs, owners, pts, dirs)
    est.timings["minor_curve_s"] = time.perf_counter() - start
    return est


# --- corank stratum scan ----------------------------------------------------


@dataclass
class ScanSReport:
    pair: dict
    label: str
    n_max: int
    found: dict = field(default_factory=dict)
    predictions: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    generic_corank: tuple | None = None
    wall_time: float = 0.0
    configs_scanned: int = 0
    timings: dict = field(default_factory=dict)

    def side_observed(self, side: int, corank: int) -> bool:
        """Did any probed tuple realize the given corank on the given side?"""
        keys = set(self.found)
        if self.generic_corank is not None:
            keys.add(self.generic_corank)
        return any(key[side - 1] == corank for key in keys)

    def joint_observed(self, c1: int, c2: int) -> bool:
        if self.generic_corank == (c1, c2):
            return True
        return (c1, c2) in self.found

    def to_json(self):
        from . import __version__  # the package imports this module before defining it

        return {
            "pair": self.pair,
            "label": self.label,
            "n_max": self.n_max,
            "found": {f"{k[0]},{k[1]}": v for k, v in self.found.items()},
            "predictions": {key: val for key, val in self.predictions.items()},
            "mismatches": self.mismatches,
            "generic_corank": self.generic_corank,
            "wall_time_s": self.wall_time,
            "configs_scanned": self.configs_scanned,
            "version": __version__,
            "timings": self.timings,
        }


def _unity_coranks_monomial(b: SupportSet, n, exps):
    """Exact corank k - rank of the k x |B| matrix with rows zeta_n^(p*e),
    e in B, for every row (0, p[, q]) of the (configs, k) exponent array
    exps at one modulus n (multiplicity-free case); an int array.

    One unity_power_rank call; for k < 3 the last row is repeated, which
    leaves the rank alone.
    """
    k = exps.shape[1]
    return k - unity_power_rank(b, n, exps[:, min(k, 2) - 1], exps[:, k - 1])


def _unity_corank_general(b: SupportSet, exps, n, js):
    """Exact corank of the multiplicity Vandermonde at the tuple zeta_n^p,
    p in exps: one fraction-free elimination over Z[zeta_n]."""
    rows = multiplicity_vandermonde(b, [RootOfUnity(n, p) for p in exps], js)
    return len(rows) - exact_rank(rows)


def scan_corank_strata(pair: SupportPair, label: StratumLabel, n_max: int = 12, seed: int = 0):
    """Enumerate projectivized root-of-unity tuples (x1 = 1, others n-th
    roots, n <= n_max), compute both coranks exactly, add the certified
    generic corank, and compare the nonempty corank strata against the
    predicted ones (gap-gcd and split criteria).

    A side whose orders all equal 1 takes its unity coranks from the
    closed-form rank of minors.unity_power_rank, one array pass per modulus
    n over all of that n's tuples, with no cyclotomic arithmetic; a side
    with multiplicities runs one fraction-free exact_rank over Z[zeta_n]
    per tuple.  When both sides have the same support and orders, each
    corank is computed once and used for both.

    The generic corank is certified as max(0, sum(js) - |B|) per side, with
    no elimination.  By Descartes' rule of signs a nonzero Laurent
    polynomial with m terms has at most m - 1 positive roots counted with
    multiplicity.  So at distinct positive points any r = min(sum(js), |B|)
    columns of the multiplicity Vandermonde, with the first derivative rows
    of each point up to r rows, form a nonsingular block (the total
    positivity of generalized Vandermonde matrices): the rank is r.  `seed`
    only picks the four positive rational witness tuples counted under
    that corank in `found`.

    The report records the tuples scanned, the package version and the time
    spent on the unity and the generic tuples.
    """
    if label.k < 1 or label.k > 3:
        raise ValueError("scan supports labels with 1..3 roots")
    start = time.perf_counter()
    report = ScanSReport(pair.to_json(), label.notation(), n_max)
    k = label.k
    js1, js2 = label.side_orders(1), label.side_orders(2)
    multiplicity_free = all(j == 1 for j in js1 + js2)
    same_sides = pair.b1.elements == pair.b2.elements and js1 == js2

    def side_coranks(b, js, n, group, exps):
        if all(j == 1 for j in js):
            return _unity_coranks_monomial(b, n, exps).tolist()
        return [_unity_corank_general(b, e, n, js) for _, e in group]

    def note(key, payload):
        rec = report.found.setdefault(key, {"count": 0, "witness": payload})
        rec["count"] += 1

    g1 = gap_gcd(pair.b1)
    for n, group, exps in _scan_config_groups(k, n_max):
        cork1 = side_coranks(pair.b1, js1, n, group, exps)
        cork2 = cork1 if same_sides else side_coranks(pair.b2, js2, n, group, exps)
        report.configs_scanned += len(group)
        for (_, tup), c1, c2 in zip(group, cork1, cork2):
            if (c1, c2) != (0, 0):
                note((c1, c2), {"kind": "unity", "n": n, "exponents": list(tup)})
            if multiplicity_free and k == 3 and c1 == 2:
                if not all((p * g1) % n == 0 for p in tup):
                    report.mismatches.append(
                        {"reason": "corank-2 witness not of root-of-unity gap form", "n": n}
                    )
    unity_done = time.perf_counter()

    # generic tuples: Descartes' rule, with positive rational witnesses
    gen_cork = (max(0, sum(js1) - len(pair.b1)), max(0, sum(js2) - len(pair.b2)))
    if gen_cork != (0, 0):
        rng = random.Random(seed)
        for _ in range(4):
            pts = []
            while len(pts) < k:
                x = abs(_random_fraction(rng))
                if x not in pts:
                    pts.append(x)
            note(gen_cork, {"kind": "generic", "points": [str(x) for x in pts]})
    report.generic_corank = gen_cork
    generic_done = time.perf_counter()
    report.timings = {"unity_s": unity_done - start, "generic_s": generic_done - unity_done}

    report.predictions = _stratum_predictions(pair, label)
    for key, predicted in report.predictions.items():
        kind, spec = key.split(":")
        if kind == "side1":
            observed = report.side_observed(1, int(spec))
        elif kind == "side2":
            observed = report.side_observed(2, int(spec))
        else:
            c1, c2 = (int(t) for t in spec.split(","))
            observed = report.joint_observed(c1, c2)
        if bool(predicted) != observed:
            report.mismatches.append(
                {"stratum": key, "predicted_nonempty": predicted, "observed": observed}
            )
    report.wall_time = time.perf_counter() - start
    return report


def _stratum_predictions(pair, label):
    """Nonemptiness predictions for the characterized corank strata.

    Side predictions cover the one-polynomial strata (corank c on side i for
    some tuple); joint predictions cover the two-polynomial intersections.
    Strata without a sharp criterion are omitted.
    """
    js1, js2 = label.side_orders(1), label.side_orders(2)
    if any(j != 1 for j in js1 + js2):
        return {}
    g1, g2 = gap_gcd(pair.b1), gap_gcd(pair.b2)
    k = label.k
    out = {}
    if k == 2:
        out["side1:1"] = g1 >= 2
        out["side2:1"] = g2 >= 2
        out["joint:1,1"] = gcd(g1, g2) >= 2
    if k == 3:
        out["side1:2"] = g1 >= 3
        out["side2:2"] = g2 >= 3
        out["joint:2,2"] = gcd(g1, g2) >= 3
        # the split criterion characterizes the mixed strata only when the
        # supports share no sublattice; order-2 row degeneracies defeat it
        # otherwise.  Coprime gap gcds also rule out a one-class split.
        if gcd(g1, g2) == 1:
            out["joint:1,2"] = split_witness(pair.b1, pair.b2) is not None
            out["joint:2,1"] = split_witness(pair.b2, pair.b1) is not None
    return out
