"""Projection pipeline for spatial complete-intersection curves.

Two finite supports in Z^3 define a pair of trivariate polynomials; the
closure of the projection of their common zero curve to the first coordinate
plane is the preimage of the resultant of the two univariate polynomials in
the third variable.  The support-pair verdict on the last-coordinate
projections therefore controls which singularities the plane curve can have:
a positive verdict means only transversal double points away from the
exceptional set; a negative verdict means other types are not excluded (the
criterion is one-directional).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .supports import SupportPair, SupportSet, check_conditions, classify

__all__ = ["Support3D", "GridConfig", "CurveScan", "ProjectionOutcome", "project_supports", "grid_scan", "random_coefficients"]

# Most reseeded draws grid_scan makes after a degenerate one.
GRID_MAX_RETRIES = 5


@dataclass(frozen=True)
class Support3D:
    """Finite set of distinct integer triples."""

    points: tuple

    def __post_init__(self):
        pts = tuple(tuple(int(x) for x in p) for p in self.points)
        if not pts:
            raise ValueError("3d support must be nonempty")
        if any(len(p) != 3 for p in pts):
            raise ValueError("points must be integer triples")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        object.__setattr__(self, "points", pts)

    def last_coordinates(self):
        return sorted({p[2] for p in self.points})

    def to_json(self):
        return [list(p) for p in self.points]

    @classmethod
    def from_json(cls, data):
        return cls(tuple(tuple(p) for p in data))


@dataclass(frozen=True)
class GridConfig:
    """Log-polar grid over a compact torus patch, applied to both x1 and x2."""

    rho_min: float = -0.5
    rho_max: float = 0.5
    rho_steps: int = 5
    theta_steps: int = 8

    def axis_points(self):
        rhos = np.linspace(self.rho_min, self.rho_max, self.rho_steps)
        thetas = np.linspace(0.0, 2 * np.pi, self.theta_steps, endpoint=False)
        return rhos, thetas

    def to_json(self):
        return {
            "rho_min": self.rho_min,
            "rho_max": self.rho_max,
            "rho_steps": self.rho_steps,
            "theta_steps": self.theta_steps,
        }


@dataclass
class CurveScan:
    """|R(x1, x2)| over the grid with threshold-filtered near-zero cells."""

    grid: GridConfig
    threshold: float
    rows: list = field(default_factory=list)  # (rho1, theta1, rho2, theta2, absR)
    near_zero_cells: list = field(default_factory=list)
    max_abs: float = 0.0
    retries: int = 0
    near_zero_margin: float | None = None
    coverage_note: str = "compact torus patch only; roots escaping to the boundary are not seen"

    def to_csv_lines(self):
        yield "rho1,theta1,rho2,theta2,absR"
        for r1, t1, r2, t2, a in self.rows:
            yield f"{r1:.10g},{t1:.10g},{r2:.10g},{t2:.10g},{a:.12g}"

    def to_json(self):
        return {
            "grid": self.grid.to_json(),
            "threshold": self.threshold,
            "max_abs": self.max_abs,
            "cells": len(self.rows),
            "near_zero_cells": self.near_zero_cells,
            "near_zero_margin": self.near_zero_margin,
            "retries": self.retries,
            "coverage": self.coverage_note,
        }


@dataclass
class ProjectionOutcome:
    b1: SupportSet
    b2: SupportSet
    conditions: object
    verdict: object
    positive: bool
    interpretation: str
    scan: CurveScan | None = None

    def to_json(self):
        out = {
            "projection_b1": self.b1.to_json(),
            "projection_b2": self.b2.to_json(),
            "conditions": self.conditions.to_json(),
            "verdict": self.verdict.to_json(),
            "projection_verdict": "positive" if self.positive else "negative",
            "interpretation": self.interpretation,
        }
        if self.scan is not None:
            out["curve_scan"] = self.scan.to_json()
        return out


class DegenerateProjectionError(ValueError):
    pass


def project_supports(a1: Support3D, a2: Support3D) -> ProjectionOutcome:
    """Project both supports to the last coordinate and classify the pair."""
    c1, c2 = a1.last_coordinates(), a2.last_coordinates()
    if len(c1) < 2 or len(c2) < 2:
        raise DegenerateProjectionError(
            "projections to the last coordinate need at least two exponents"
        )
    pair = SupportPair(SupportSet(tuple(c1)), SupportSet(tuple(c2)))
    report = check_conditions(pair)
    verdict = classify(pair)
    positive = verdict.part_i_generic_a1
    if positive:
        interpretation = (
            "generic projections have only transversal double points away "
            "from an exceptional set"
        )
    else:
        interpretation = (
            "other singularity types are not excluded (the criterion is "
            "one-directional; a negative verdict asserts nothing further)"
        )
    return ProjectionOutcome(pair.b1, pair.b2, report, verdict, positive, interpretation)


def random_coefficients(a: Support3D, rng: random.Random):
    """Seeded 'generic' coefficients: uniform on the annulus 0.5 <= |c| <= 2."""
    out = {}
    for p in a.points:
        radius = 0.5 + 1.5 * rng.random()
        angle = 2 * np.pi * rng.random()
        out[p] = complex(radius * np.cos(angle), radius * np.sin(angle))
    return out


def _specialized_coeffs(coeffs, support, x1, x2):
    """Coefficient vectors of f(x1, x2, t) over the projected t-support, one
    row per cell: shape (cells, len(support)) for the cell arrays x1, x2."""
    out = np.zeros((len(x1), len(support)), dtype=complex)
    for (u, v, w), c in coeffs.items():
        out[:, support.index(w)] += complex(c) * x1**u * x2**v
    return out


def _sylvester_dets(coeffs1, coeffs2):
    """Numeric Sylvester determinants of two stacks of coefficient vectors,
    one determinant per row pair (ascending exponent along the convex hull
    of the projected support).

    The matrices are built and evaluated in blocks of rows, each block
    holding at most kernels.BATCH_ELEMENTS matrix entries; a stacked
    determinant is computed matrix by matrix, so the blocking changes no
    value."""
    d1, d2 = coeffs1.shape[1] - 1, coeffs2.shape[1] - 1
    n = d1 + d2
    r1, r2 = coeffs1[:, ::-1], coeffs2[:, ::-1]
    out = np.empty(len(coeffs1), dtype=complex)
    chunk = kernels._chunk_length(n * n)
    for start in range(0, len(out), chunk):
        stop = start + chunk
        m = np.zeros((len(r1[start:stop]), n, n), dtype=complex)
        for i in range(d2):
            m[:, i, i : i + d1 + 1] = r1[start:stop]
        for i in range(d1):
            m[:, d2 + i, i : i + d2 + 1] = r2[start:stop]
        out[start:stop] = np.linalg.det(m)
    return out


def _dense_support(values):
    lo, hi = min(values), max(values)
    return list(range(lo, hi + 1))


def _collapses(coeffs):
    """Whether the specialized polynomial vanishes numerically at some cell."""
    return bool((np.abs(coeffs).max(axis=1) < 1e-12).any())


def grid_scan(
    a1: Support3D,
    a2: Support3D,
    coeffs1=None,
    coeffs2=None,
    grid: GridConfig | None = None,
    threshold: float = 1e-8,
    seed: int = 0,
) -> CurveScan:
    """Evaluate |det Sylvester| of the specialized third-variable polynomials
    over the log-polar grid.

    Cells run over (rho1, theta1, rho2, theta2) in row-major order and are
    evaluated together: one coefficient stack per side, and stacked
    determinants over blocks of cells of bounded size (`_sylvester_dets`).
    Coefficients default to seeded random generic draws; degenerate draws
    (a specialized polynomial collapsing numerically at some cell) trigger
    a reseeded retry, at most GRID_MAX_RETRIES times, and the report counts the
    retries used.  Explicit coefficient maps are never retried.
    """
    grid = grid or GridConfig()
    explicit = coeffs1 is not None and coeffs2 is not None
    rng = random.Random(seed)
    sup1 = _dense_support(Support3D(a1.points).last_coordinates())
    sup2 = _dense_support(Support3D(a2.points).last_coordinates())
    rhos, thetas = grid.axis_points()
    rho, theta = (axis.ravel() for axis in np.meshgrid(rhos, thetas, indexing="ij"))
    # cell i * g + j pairs point i of the patch for x1 with point j for x2
    g = rho.size
    rho1, theta1, rho2, theta2 = np.repeat(rho, g), np.repeat(theta, g), np.tile(rho, g), np.tile(theta, g)
    x1, x2 = np.exp(rho1 + 1j * theta1), np.exp(rho2 + 1j * theta2)
    attempt = 0
    while True:
        c1 = coeffs1 if explicit else random_coefficients(a1, rng)
        c2 = coeffs2 if explicit else random_coefficients(a2, rng)
        v1 = _specialized_coeffs(c1, sup1, x1, x2)
        v2 = _specialized_coeffs(c2, sup2, x1, x2)
        if (_collapses(v1) or _collapses(v2)) and not explicit and attempt < GRID_MAX_RETRIES:
            attempt += 1
            continue
        break
    abs_r = np.abs(_sylvester_dets(v1, v2))
    scan = CurveScan(grid=grid, threshold=threshold, retries=attempt)
    scan.rows = list(zip(*(col.tolist() for col in (rho1, theta1, rho2, theta2, abs_r))))
    scan.max_abs = float(abs_r.max()) if abs_r.size else 0.0
    near = abs_r <= threshold * max(scan.max_abs, 1e-300)
    scan.near_zero_cells = [
        dict(zip(("index", "rho1", "theta1", "rho2", "theta2", "absR"), (i, *scan.rows[i])))
        for i in np.flatnonzero(near).tolist()
    ]
    if near.any() and not near.all():
        scan.near_zero_margin = float(abs_r[near].max() / abs_r[~near].min())
    return scan
