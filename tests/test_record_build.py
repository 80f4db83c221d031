"""A ray's records are built in array passes, bit for bit as one record at a time.

scan_ray evaluates the finite-difference stencils of all its records with one
adapter.chart_array call, takes their ranks from one stacked rank_nullspace
call, and evaluates the second-order stencils of the records that need them
with one more chart_array call. The references here are scalar: the chart of
adapter.chart_at(center) called point by point, and the per-record build of
fd_jacobian's column loop, rank_nullspace on one matrix and the four-point
stencil. Order, kernel basis, second-order value and class must agree bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srfolds import (SingularityClass, grushin_adapter, rank_nullspace, scan_ray,
                     second_order_transversality, sl2_adapter, su2_adapter)
from srfolds.errors import InvalidInput
from srfolds.grushin import GrushinBase
from srfolds.numeric import fd_stencil
from srfolds.singularity import (PAIRING_TOL, SECOND_ORDER_STEP, SECOND_ORDER_TOL,
                                 _rank_reports)
from srfolds.sl2 import sl2_exp
from srfolds.su2 import su2_exp

SU2 = su2_adapter()
SL2 = sl2_adapter()
ALPHAS = (1.0, 1.5, 2.0, 3.0, 4.0)
X0S = (0.0, 0.5, -2.0, 2.0)


def _outcome(call):
    """What call() returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as err:  # noqa: BLE001 - the exception itself is compared
        return type(err), str(err)


def _assert_chart_array_is_scalar(adapter, centers, points):
    centers = np.asarray(centers, dtype=float)
    points = np.asarray(points, dtype=float)

    def scalar():
        return np.array([[np.asarray(adapter.chart_at(c)(p), dtype=float) for p in row]
                         for c, row in zip(centers, points)]).tobytes()

    def array():
        return np.asarray(adapter.chart_array(centers, points), dtype=float).tobytes()

    assert _outcome(array) == _outcome(scalar)


def _near(centers, offsets):
    """Points: each center's FD stencil, then the center plus each offset."""
    centers = np.asarray(centers, dtype=float)
    stencil, _ = fd_stencil(centers)
    shifted = centers[:, np.newaxis, :] + np.asarray(offsets, dtype=float)
    return np.concatenate([stencil, shifted], axis=1)


def _bisect(selector, d, a, b):
    """Points a * d, b * d within an ulp of each other where selector flips, between a and b."""
    fa = selector(a * d)
    while True:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            return a * d, b * d
        if selector(mid * d) == fa:
            a = mid
        else:
            b = mid


def _switch(selector, direction, lo, hi, n=400):
    """Pairs of radii within an ulp of each other where selector(s * d) flips, on [lo, hi]."""
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    grid = np.linspace(lo, hi, n)
    flags = [selector(s * d) for s in grid]
    return [_bisect(selector, d, a, b)
            for a, b, fa, fb in zip(grid, grid[1:], flags, flags[1:]) if fa != fb]


finite = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)
small = st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False)
offsets = st.lists(st.tuples(small, small, small), min_size=1, max_size=5)


class TestGroupChartArray:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([SU2, SL2]),
           st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=6), offsets)
    def test_generic_covectors(self, adapter, centers, offs):
        _assert_chart_array_is_scalar(adapter, centers, _near(centers, offs))

    @settings(max_examples=20, deadline=None)
    @given(st.tuples(finite, finite, finite).filter(lambda c: np.linalg.norm(c) > 0.1),
           offsets)
    def test_su2_selector_edge(self, direction, offs):
        # |Re alpha| = |Im alpha| at the center's endpoint: centers an ulp apart
        # select different charts
        def uses_im(cov):
            point = su2_exp(cov, 1.0)[0]
            return abs(point.alpha_re) >= abs(point.alpha_im)

        for pair in _switch(uses_im, direction, 0.5, 20.0)[:3]:
            _assert_chart_array_is_scalar(SU2, pair, _near(pair, offs))

    @settings(max_examples=20, deadline=None)
    @given(st.tuples(finite, finite, finite).filter(
        lambda c: c[2] * c[2] - c[0] * c[0] - c[1] * c[1] > 0.01), offsets)
    def test_sl2_selector_edge(self, direction, offs):
        # |m11| = 1e-3 at the center's endpoint, on the rays scan_ray scans (r > 0)
        def uses_m11(cov):
            return abs(sl2_exp(cov, 1.0)[0].m11) >= 1e-3

        def m11_positive(cov):
            return sl2_exp(cov, 1.0)[0].m11 > 0.0

        # the band |m11| < 1e-3 is narrow, and wider where m11 is flat: walk out
        # of it from each zero of m11, both ways, with doubling steps
        d = np.asarray(direction) / np.linalg.norm(direction)
        zeros = [float(a @ d) for a, _ in _switch(m11_positive, d, 0.5, 20.0)[:2]]
        for s in zeros:
            for sign in (-1.0, 1.0):
                step = 1e-4
                while not uses_m11((s + sign * step) * d):
                    step *= 2.0
                    assert step < 20.0
                pair = _bisect(uses_m11, d, s, s + sign * step)
                assert uses_m11(pair[0]) != uses_m11(pair[1])
                _assert_chart_array_is_scalar(SL2, pair, _near(pair, offs))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-4e-6, 4e-6),
           st.lists(st.tuples(*[st.floats(-1e-7, 1e-7)] * 3), min_size=1, max_size=4))
    def test_sl2_series_branch(self, u0, v0, r, offs):
        # |r| / 4 < 1e-6: sc_pair's series, on both sides of r = 0
        h2 = u0 * u0 + v0 * v0
        w0 = math.sqrt(max(h2 + r, 0.0))
        centers = [(u0, v0, w0), (3.0, 4.0, 5.0)]
        _assert_chart_array_is_scalar(SL2, centers, _near(centers, offs))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0), st.floats(-1.0, 1.0), offsets)
    def test_sl2_hyperbolic_branch(self, u0, v0, w0, offs):
        centers = [(u0, v0, w0), (u0 + 2.0, v0, w0)]
        _assert_chart_array_is_scalar(SL2, centers, _near(centers, offs))

    @pytest.mark.parametrize("adapter", [SU2, SL2], ids=["su2", "sl2"])
    @pytest.mark.parametrize("row", [
        (0.0, 0.0, 0.0),                # H = 0 and, on SU(2), rho = 0
        (0.0, 0.0, 1.3),                # H = 0
        (1e-170, 0.0, 1.0),             # H underflows
        (float("nan"), 0.0, 1.0),       # not finite: both raise InvalidInput
        (1e200, 0.0, 1.0),              # rho or r overflows
        (1e3, 0.0, 1.0),                # SL(2): deep hyperbolic, both raise
        (3e3, 0.0, 1.0),                # SL(2): sinh overflows, both raise
    ], ids=str)
    def test_rows_the_scalar_chart_decides(self, adapter, row):
        centers = [(1.0, 0.0, 2.0), (0.4, -0.3, 2.5)]
        points = _near(centers, [(0.0, 0.0, 0.0)])
        points[1, -1] = row
        _assert_chart_array_is_scalar(adapter, centers, points)

    def test_first_raise_is_the_scalar_loops_first(self):
        # the first center's offset row raises, and so does the second center
        # itself; the scalar loop meets the former first
        centers = [(0.0, 100.0, 0.0), (float("nan"), 0.0, 0.0)]
        for offset, error in (((0.0, 800.0, 0.0), InvalidInput),     # sinh^2 overflows det
                              ((0.0, 1400.0, 0.0), OverflowError)):  # sinh overflows
            points = _near(centers, [offset])
            _assert_chart_array_is_scalar(SL2, centers, points)
            with pytest.raises(error):
                SL2.chart_array(np.array(centers), points)


class TestGrushinChartArray:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ALPHAS), st.sampled_from(X0S),
           st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
                    min_size=1, max_size=6),
           st.lists(st.tuples(st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3)),
                    min_size=1, max_size=4))
    def test_generic_covectors(self, alpha, x0, centers, offs):
        adapter = grushin_adapter(GrushinBase(alpha, x0, 0.7))
        _assert_chart_array_is_scalar(adapter, centers, _near(centers, offs))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ALPHAS), st.sampled_from(X0S), st.floats(0.01, 60.0),
           st.floats(1e-12, 1e-3), st.sampled_from([1.0, -1.0]))
    def test_near_vertical_phase(self, alpha, x0, s, eps, side):
        # next to u0 = 0 the phase is inverted from the cosine ratio, and the
        # choice between the two ratios flips along these rays
        adapter = grushin_adapter(GrushinBase(alpha, x0, 0.0))
        angle = math.pi / 2.0 + side * eps
        centers = [(s * math.cos(angle), s * math.sin(angle)),
                   (s * math.cos(angle), -s * math.sin(angle))]
        _assert_chart_array_is_scalar(adapter, centers, _near(centers, [(0.0, 0.0)]))

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("x0", X0S)
    def test_straight_line_and_rest_rows(self, alpha, x0):
        # v0^2 underflows (straight line), v0 = 0, and H = 0 at x0 = 0
        adapter = grushin_adapter(GrushinBase(alpha, x0, 0.7))
        centers = [(1.0, 1e-170), (-0.5, 0.0), (0.0, 1.3), (1e-170, 0.0), (0.4, 1.0)]
        _assert_chart_array_is_scalar(adapter, centers, _near(centers, [(0.0, 0.0)]))

    def test_non_finite_row_raises_what_the_scalar_raises(self):
        adapter = grushin_adapter(GrushinBase(1.5, 0.5, 0.0))
        centers = [(0.4, 1.0)]
        points = _near(centers, [(0.0, 0.0)])
        points[0, 2] = (float("inf"), 1.0)
        _assert_chart_array_is_scalar(adapter, centers, points)


class TestStackedRank:
    @pytest.mark.parametrize("k", [2, 3])
    def test_stack_equals_each_matrix(self, k):
        rng = np.random.default_rng(k)
        stack = rng.normal(size=(500, k, k))
        # every fifth matrix drops rank, like a Jacobian at a conjugate covector
        u, s, vh = np.linalg.svd(stack[::5])
        s[:, -1] = 0.0
        stack[::5] = (u * s[:, np.newaxis, :]) @ vh
        for one, each in zip(rank_nullspace(stack), map(rank_nullspace, stack)):
            assert one.singular_values.tobytes() == each.singular_values.tobytes()
            assert one.numeric_rank == each.numeric_rank
            assert one.tolerance_used == each.tolerance_used
            assert [v.tobytes() for v in one.nullspace_basis] == [
                v.tobytes() for v in each.nullspace_basis]
            assert one.image_complement.tobytes() == each.image_complement.tobytes()


def _loop_fd_jacobian(F, x, h=1e-6):
    """fd_jacobian one column at a time: the per-record build's Jacobian."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        hj = h * max(1.0, abs(x[j]))
        xp = x.copy(); xp[j] += hj
        xm = x.copy(); xm[j] -= hj
        cols.append((np.asarray(F(xp), dtype=float) - np.asarray(F(xm), dtype=float))
                    / (2.0 * hj))
    return np.column_stack(cols)


def _scalar_build(adapter, rec):
    """(order, kernel basis, second-order value, class) of one record, point by point."""
    cov = np.asarray(rec.covector, dtype=float)
    chart = adapter.chart_at(cov)
    info = rank_nullspace(_loop_fd_jacobian(chart, cov))
    order = adapter.fiber_dim - info.numeric_rank
    if order == 1:
        kernel_basis = (np.asarray(adapter.kernel(cov), dtype=float),)
    else:
        kernel_basis = tuple(info.nullspace_basis)
    second = 0.0
    if order >= 1 and info.image_complement.shape[1]:
        kern = kernel_basis[0] / np.linalg.norm(kernel_basis[0])
        step = SECOND_ORDER_STEP

        def endpoint(sgn_s, sgn_r):
            return chart((1.0 + sgn_s * step) * (cov + sgn_r * step * kern))

        mixed = endpoint(1, 1) - endpoint(1, -1) - endpoint(-1, 1) + endpoint(-1, -1)
        mixed /= 4.0 * step * step
        second = float(np.linalg.norm(info.image_complement.T @ mixed))
    cls = SingularityClass.UNDETERMINED
    if order == 0:
        cls = SingularityClass.NOT_SINGULAR
    elif order == 1 and not adapter.undetermined(cov, rec.stratum):
        grad = np.asarray(adapter.conj_grad(cov, rec.stratum), dtype=float)
        pairing = float(grad @ kernel_basis[0]
                        / (np.linalg.norm(grad) * np.linalg.norm(kernel_basis[0])))
        if abs(pairing) > PAIRING_TOL:
            cls = SingularityClass.FOLD
        elif adapter.fiber_dim == 3 and second > SECOND_ORDER_TOL:
            cls = SingularityClass.TANGENTIAL
    return order, kernel_basis, second, cls, info


RAYS = [
    ("su2", SU2, (1.0, 0.0, 0.5), 20.0),
    ("su2-planar", SU2, (1.0, 0.0, 0.0), 20.0),
    ("su2-long", SU2, (1.0, 0.0, 0.5), 4000.0),
    ("sl2", SL2, (1.0, 0.0, 2.0), 14.0),
    ("sl2-400", SL2, (0.3, -0.4, 1.1), 400.0),
    ("sl2-long", SL2, (1.0, 0.0, 2.0), 4000.0),
    ("grushin", grushin_adapter(GrushinBase(2.5, 0.5, 0.0)),
     (math.cos(0.9), math.sin(0.9)), 20.0),
    ("grushin-vertical", grushin_adapter(GrushinBase(1.0, 0.5, 0.0)), (0.0, 1.0), 20.0),
    ("grushin-near-vertical", grushin_adapter(GrushinBase(3.0, 2.0, 0.0)),
     (math.cos(math.pi / 2.0 + 1e-6), math.sin(math.pi / 2.0 + 1e-6)), 20.0),
    ("grushin-order-zero", grushin_adapter(GrushinBase(3.0, -2.0, 0.0)), (1.0, 1e-8), 30.0),
]


@pytest.mark.parametrize("name,adapter,direction,s_max", RAYS, ids=[r[0] for r in RAYS])
def test_batched_build_equals_scalar_build(name, adapter, direction, s_max):
    records = scan_ray(adapter, direction, s_max)
    assert records
    reports = _rank_reports(adapter, np.array([rec.covector for rec in records]))
    for rec, report in zip(records, reports):
        order, kernel_basis, second, cls, info = _scalar_build(adapter, rec)
        assert rec.order == order
        assert [k.tobytes() for k in rec.kernel_basis] == [k.tobytes() for k in kernel_basis]
        assert rec.singularity_class is cls
        assert report.singular_values.tobytes() == info.singular_values.tobytes()
        assert report.image_complement.tobytes() == info.image_complement.tobytes()
        if rec.order >= 1:
            assert second_order_transversality(adapter, rec) == second
