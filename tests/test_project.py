import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

from singres import project
from singres.project import (
    CurveScan,
    DegenerateProjectionError,
    GridConfig,
    Support3D,
    grid_scan,
    project_supports,
    random_coefficients,
)


def _reference_coeffs(coeffs, support, x1, x2):
    vec = {b: 0j for b in support}
    for (u, v, w), c in coeffs.items():
        vec[w] += complex(c) * x1**u * x2**v
    return [vec[b] for b in support]


def _reference_sylvester(coeffs1, coeffs2, dtype=complex):
    d1, d2 = len(coeffs1) - 1, len(coeffs2) - 1
    n = d1 + d2
    m = np.zeros((n, n), dtype=dtype)
    for i in range(d2):
        m[i, i : i + d1 + 1] = list(reversed(coeffs1))
    for i in range(d1):
        m[d2 + i, i : i + d2 + 1] = list(reversed(coeffs2))
    return m


def _reference_det(coeffs1, coeffs2):
    return np.linalg.det(_reference_sylvester(coeffs1, coeffs2))


def _exact_det(matrix):
    """Determinant by Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            factor = rows[r][c] / rows[c][c]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return det


def reference_grid_scan(a1, a2, coeffs1=None, coeffs2=None, grid=None, threshold=1e-8, seed=0):
    """Per-cell oracle for grid_scan: one Sylvester matrix and one det per
    cell, with the same draws and cut."""
    grid = grid or GridConfig()
    rng = random.Random(seed)
    c1 = project.random_coefficients(a1, rng) if coeffs1 is None else coeffs1
    c2 = project.random_coefficients(a2, rng) if coeffs2 is None else coeffs2
    sup1 = list(range(min(a1.last_coordinates()), max(a1.last_coordinates()) + 1))
    sup2 = list(range(min(a2.last_coordinates()), max(a2.last_coordinates()) + 1))
    rhos, thetas = grid.axes
    scan = CurveScan(grid=grid, threshold=threshold)
    for r1 in rhos:
        for t1 in thetas:
            x1 = cmath.exp(complex(r1, t1))
            for r2 in rhos:
                for t2 in thetas:
                    x2 = cmath.exp(complex(r2, t2))
                    val = abs(_reference_det(_reference_coeffs(c1, sup1, x1, x2), _reference_coeffs(c2, sup2, x1, x2)))
                    scan.rows.append((float(r1), float(t1), float(r2), float(t2), float(val)))
    scan.max_abs = max((r[4] for r in scan.rows), default=0.0)
    cut = threshold * max(scan.max_abs, 1e-300)
    for i, row in enumerate(scan.rows):
        if row[4] <= cut:
            scan.near_zero_cells.append(
                {"index": i, "rho1": row[0], "theta1": row[1], "rho2": row[2], "theta2": row[3], "absR": row[4]}
            )
    return scan


def assert_scans_agree(got, want):
    """Same cells and near-zero indices; every |R| within 1e-12 relative,
    floored at the rounding level of the scan's largest |R|."""
    assert [r[:4] for r in got.rows] == [r[:4] for r in want.rows]
    assert [c["index"] for c in got.near_zero_cells] == [c["index"] for c in want.near_zero_cells]
    floor = np.finfo(float).eps * want.max_abs
    for g, w in zip(got.rows, want.rows):
        assert abs(g[4] - w[4]) <= 1e-12 * max(w[4], floor)


def _random_support(rng):
    size = rng.randint(2, 4)
    points = set()
    while len(points) < size:
        points.add((rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-1, 3)))
    return Support3D(tuple(sorted(points)))


def _random_coeffs(a, rng):
    return {p: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for p in a.points}


CONSTRUCTED = (
    Support3D(((1, 0, 0), (0, 0, 2))),
    Support3D(((0, 1, 0), (0, 0, 1))),
    {(1, 0, 0): -1 + 0j, (0, 0, 2): 1 + 0j},
    {(0, 1, 0): -1 + 0j, (0, 0, 1): 1 + 0j},
)


class TestProjection:
    def test_projection_is_set_of_last_coordinates(self):
        a = Support3D(((0, 0, 2), (1, 5, 0), (2, 2, 2), (0, 1, 1)))
        assert a.last_coordinates() == [0, 1, 2]

    def test_points_are_integer_triples(self):
        a = Support3D(((np.int64(1), 0, np.int32(2)), (0, 0, 0)))
        assert a.points == ((1, 0, 2), (0, 0, 0)) and {type(x) for p in a.points for x in p} == {int}
        for bad in (0.5, False, "1"):
            with pytest.raises(ValueError, match=f"exponents must be integers, got {bad!r}"):
                Support3D(((0, 0, 0), (1, bad, 1)))

    def test_point_order_irrelevant(self):
        pts = ((0, 0, 0), (1, 0, 1), (0, 1, 2))
        a = Support3D(pts)
        b = Support3D(tuple(reversed(pts)))
        out_a = project_supports(a, a)
        out_b = project_supports(b, b)
        assert out_a.verdict.part_i_generic_a1 == out_b.verdict.part_i_generic_a1
        assert out_a.b1 == out_b.b1

    def test_degenerate_raises(self):
        flat = Support3D(((0, 0, 0), (1, 2, 0)))
        tall = Support3D(((0, 0, 0), (0, 0, 1)))
        with pytest.raises(DegenerateProjectionError):
            project_supports(flat, tall)

    def test_verdict_sides(self):
        two = Support3D(((0, 0, 0), (1, 0, 1)))
        wide = Support3D(((0, 0, 0), (0, 1, 1), (1, 1, 2), (0, 0, 3)))
        out = project_supports(two, wide)
        assert not out.verdict.part_i_generic_a1 and out.conditions.flag(5)
        three = Support3D(((0, 0, 0), (1, 0, 1), (0, 1, 2)))
        assert project_supports(three, wide).verdict.part_i_generic_a1


class TestHybridBezout:
    @pytest.mark.parametrize("d1", range(7))
    def test_matches_sylvester_exactly(self, d1):
        # |det H| = |det S| on integer pairs of degrees d1 and 0..6, leading
        # coefficients zero in a third of the draws
        rng = random.Random(d1)
        for d2 in range(7):
            for _ in range(20):
                f, g = ([rng.randint(-3, 3) for _ in range(d + 1)] for d in (d1, d2))
                if rng.random() < 1 / 3:
                    (f if rng.random() < 0.5 else g)[-1] = 0
                h = project._hybrid_bezout(np.array([f], dtype=object).T, np.array([g], dtype=object).T)
                assert h.shape == (max(d1, d2), max(d1, d2), 1)
                assert abs(_exact_det(h[..., 0])) == abs(_exact_det(_reference_sylvester(f, g, object)))


class TestStackedDet:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_closed_forms_match_lapack(self, order):
        # seeded complex stacks: every determinant within 1e-12 relative of
        # np.linalg.det's LU
        rng = np.random.default_rng(order)
        shape = (2000, order, order)
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = project._stacked_det(stack.transpose(1, 2, 0))
        assert got.shape == (len(stack),)
        np.testing.assert_allclose(got, np.linalg.det(stack), rtol=1e-12, atol=0)

    def test_closed_forms_are_exact_on_integers(self):
        # integer stacks of orders 1-3, with singular matrices among them:
        # the products are exact in float, so the determinants are too
        rng = random.Random(3)
        for order in (1, 2, 3):
            mats = [[[rng.randint(-2, 2) for _ in range(order)] for _ in range(order)] for _ in range(200)]
            got = project._stacked_det(np.array(mats, dtype=complex).transpose(1, 2, 0))
            assert [complex(_exact_det(m)) for m in mats] == got.tolist()

    @pytest.mark.parametrize("degree", [4, 5, 6])
    def test_higher_orders_are_lapack(self, degree):
        # order max(d1, d2) >= 4: the determinants np.linalg.det gives, bit for bit
        rng = np.random.default_rng(degree)
        shapes = ((degree + 1, 60), (degree - 1, 60))
        c1, c2 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for shape in shapes)
        want = np.linalg.det(project._hybrid_bezout(c1, c2).transpose(2, 0, 1))
        np.testing.assert_array_equal(project._bezout_dets(c1, c2), want)


class TestGridScan:
    def test_constructed_common_root_cell(self):
        a1, a2, c1, c2 = CONSTRUCTED
        grid = GridConfig(-0.4, 0.4, 3, 4)
        scan = grid_scan(a1, a2, c1, c2, grid, threshold=1e-8)
        assert len(scan.rows) == (3 * 4) ** 2
        hits = [
            cell
            for cell in scan.near_zero_cells
            if abs(cell["rho1"]) < 1e-12
            and abs(cell["theta1"]) < 1e-12
            and abs(cell["rho2"]) < 1e-12
            and abs(cell["theta2"]) < 1e-12
        ]
        assert hits

    def test_seeded_determinism(self):
        a1 = Support3D(((0, 0, 0), (1, 0, 1), (0, 1, 2)))
        a2 = Support3D(((0, 0, 0), (0, 1, 1), (1, 0, 2)))
        grid = GridConfig(-0.2, 0.2, 2, 3)
        s1 = grid_scan(a1, a2, grid=grid, seed=9)
        s2 = grid_scan(a1, a2, grid=grid, seed=9)
        assert s1.rows == s2.rows

    def test_random_coefficients_annulus(self):
        import random

        a = Support3D(((0, 0, 0), (1, 0, 1), (0, 1, 2)))
        coeffs = random_coefficients(a, random.Random(3))
        assert set(coeffs) == set(a.points)
        for c in coeffs.values():
            assert 0.5 - 1e-9 <= abs(c) <= 2.0 + 1e-9

    def test_csv_lines(self):
        a1 = Support3D(((0, 0, 0), (1, 0, 1)))
        a2 = Support3D(((0, 0, 0), (0, 1, 1)))
        scan = grid_scan(a1, a2, grid=GridConfig(-0.1, 0.1, 2, 2), seed=1)
        lines = list(scan.to_csv_lines())
        assert lines[0] == "rho1,theta1,rho2,theta2,absR"
        assert len(lines) == 1 + (2 * 2) ** 2

    @pytest.mark.parametrize("case", range(40))
    def test_matches_per_cell_reference(self, case):
        rng = random.Random(case)
        a1, a2 = _random_support(rng), _random_support(rng)
        grid = GridConfig() if case < 2 else GridConfig(-0.3, 0.3, 3, 4)
        coeffs = (_random_coeffs(a1, rng), _random_coeffs(a2, rng)) if case % 2 else (None, None)
        seed = rng.randrange(2**31)
        got = grid_scan(a1, a2, *coeffs, grid, seed=seed)
        assert_scans_agree(got, reference_grid_scan(a1, a2, *coeffs, grid, seed=seed))

    def test_constructed_root_matches_reference(self):
        grid = GridConfig(-0.4, 0.4, 3, 4)
        got = grid_scan(*CONSTRUCTED, grid)
        assert got.near_zero_cells
        assert_scans_agree(got, reference_grid_scan(*CONSTRUCTED, grid))

    def test_blocked_determinants_change_nothing(self, monkeypatch):
        # one matrix a block against the default blocks: |R| bit for bit
        rng = random.Random(50)
        a1, a2 = _random_support(rng), _random_support(rng)
        cases = [(CONSTRUCTED, GridConfig(-0.4, 0.4, 3, 4)), ((a1, a2), GridConfig())]
        for supports, grid in cases:
            scans = []
            for budget in (project.BATCH_ELEMENTS, 1):
                monkeypatch.setattr(project, "BATCH_ELEMENTS", budget)
                scans.append(grid_scan(*supports, grid=grid, seed=3))
            assert [r[4] for r in scans[0].rows] == [r[4] for r in scans[1].rows]
            assert scans[0].near_zero_cells == scans[1].near_zero_cells
            assert len(scans[0].rows) == (grid.rho_steps * grid.theta_steps) ** 2
            if supports is CONSTRUCTED:
                assert scans[0].near_zero_cells

    def test_margin_and_retries_in_report(self):
        scan = grid_scan(*CONSTRUCTED, GridConfig(-0.4, 0.4, 3, 4))
        near = {c["index"] for c in scan.near_zero_cells}
        above = [r[4] for i, r in enumerate(scan.rows) if i not in near]
        out = scan.to_json()
        assert "retries" not in out
        assert out["near_zero_margin"] == max(c["absR"] for c in scan.near_zero_cells) / min(above)
        assert out["near_zero_margin"] <= scan.threshold
        a1 = Support3D(((0, 0, 0), (1, 0, 1)))
        a2 = Support3D(((0, 0, 0), (0, 1, 1)))
        generic = grid_scan(a1, a2, grid=GridConfig(-0.1, 0.1, 2, 2), seed=1).to_json()
        assert generic["near_zero_cells"] == [] and generic["near_zero_margin"] is None

    def test_magnitude_collapse_scans_its_first_draw(self):
        # |x1^6 x2^6| = e^-36 at rho1 = rho2 = -3 puts every coefficient of
        # side 2 below 1e-12 there, whatever the draw: the first draw is the scan
        a1 = Support3D(((0, 0, 0), (1, 0, 1), (0, 1, 2)))
        a2 = Support3D(((6, 6, 1), (6, 6, 3)))
        grid = GridConfig(-3, 3, 5, 8)
        rng = random.Random(11)
        draws = random_coefficients(a1, rng), random_coefficients(a2, rng)
        scan = grid_scan(a1, a2, grid=grid, seed=11)
        assert [r[4] for r in scan.rows] == [r[4] for r in grid_scan(a1, a2, *draws, grid).rows]
        assert_scans_agree(scan, reference_grid_scan(a1, a2, grid=grid, seed=11))

    @pytest.mark.parametrize("side", [1, 2])
    def test_a_map_given_for_one_side_is_used(self, side):
        # the other side takes the seed's first draw
        a1, a2, c1, c2 = CONSTRUCTED
        grid = GridConfig(-0.4, 0.4, 3, 4)
        drawn = random_coefficients((a2, a1)[side - 1], random.Random(5))
        maps = (c1, drawn) if side == 1 else (drawn, c2)
        scan = grid_scan(a1, a2, *((c1, None) if side == 1 else (None, c2)), grid, seed=5)
        assert [r[4] for r in scan.rows] == [r[4] for r in grid_scan(a1, a2, *maps, grid).rows]
        assert_scans_agree(scan, reference_grid_scan(a1, a2, *maps, grid))
