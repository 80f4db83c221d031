"""A ray's records are built in array passes, bit for bit as one record at a time.

scan_ray evaluates the finite-difference stencils of all its records with one
adapter.chart_array call, takes their ranks from one stacked rank_nullspace
call, and evaluates the second-order stencils of the records that need them
with one more chart_array call. The references here are scalar: adapter.chart
called point by point, and the per-record build of
fd_jacobian's column loop, rank_nullspace on one matrix and the four-point
stencil, with the f-values, kernel and gradient from the structure's public
scalar functions. Order, f-values, kernel basis, second-order value and class
must agree bit for bit.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srfolds import (ConjugateRecord, SingularityClass, StructureAdapter, classify,
                     fd_jacobian, grushin_adapter, grushin_conj_f, grushin_conj_grad,
                     grushin_kernel, rank_nullspace, regularity_isomorphism_check, scan_ray,
                     second_order_transversality, sl2_adapter, sl2_conj_f, sl2_conj_grad,
                     sl2_kernel, su2_adapter, su2_conj_f, su2_conj_grad, su2_kernel)
from srfolds.errors import DegenerateCovector, DegenerateMatrix, InvalidInput, NotConjugate
from srfolds.grushin import GrushinBase
from srfolds.numeric import fd_stencil
from srfolds.singularity import (INDEPENDENCE_TOL, PAIRING_TOL, SECOND_ORDER_STEP,
                                 SECOND_ORDER_TOL, _rank_reports, _stratum_indices)
from srfolds.sl2 import sl2_exp
from srfolds.su2 import su2_exp

SU2 = su2_adapter()
SL2 = sl2_adapter()
ALPHAS = (1.0, 1.5, 2.0, 3.0, 4.0)
X0S = (0.0, 0.5, -2.0, 2.0)
nan = float("nan")


def _outcome(call):
    """What call() returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as err:  # noqa: BLE001 - the exception itself is compared
        return type(err), str(err)


def _assert_chart_array_is_scalar(adapter, points):
    points = np.asarray(points, dtype=float)

    def scalar():
        return np.array([[np.asarray(adapter.chart(p), dtype=float) for p in row]
                         for row in points]).tobytes()

    def array():
        return np.asarray(adapter.chart_array(points), dtype=float).tobytes()

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


def _uses_im(cov):
    point = su2_exp(cov, 1.0)[0]
    return abs(point.alpha_re) >= abs(point.alpha_im)


def _uses_m11(cov):
    return abs(sl2_exp(cov, 1.0)[0].m11) >= 1e-3


def _m11_edges(direction):
    """Pairs of covectors within an ulp of each other where |m11| crosses 1e-3, on r > 0 rays."""
    def m11_positive(cov):
        return sl2_exp(cov, 1.0)[0].m11 > 0.0

    # the band |m11| < 1e-3 is narrow, and wider where m11 is flat: walk out
    # of it from each zero of m11, both ways, with doubling steps
    d = np.asarray(direction) / np.linalg.norm(direction)
    zeros = [float(a @ d) for a, _ in _switch(m11_positive, d, 0.5, 20.0)[:2]]
    pairs = []
    for s in zeros:
        for sign in (-1.0, 1.0):
            step = 1e-4
            while not _uses_m11((s + sign * step) * d):
                step *= 2.0
                assert step < 20.0
            pairs.append(_bisect(_uses_m11, d, s, s + sign * step))
    return pairs


finite = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)
small = st.floats(min_value=-1e-3, max_value=1e-3, allow_nan=False)
offsets = st.lists(st.tuples(small, small, small), min_size=1, max_size=5)


class TestGroupChartArray:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([SU2, SL2]),
           st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=6), offsets)
    def test_generic_covectors(self, adapter, centers, offs):
        _assert_chart_array_is_scalar(adapter, _near(centers, offs))

    @settings(max_examples=20, deadline=None)
    @given(st.tuples(finite, finite, finite).filter(lambda c: np.linalg.norm(c) > 0.1),
           offsets)
    def test_su2_selector_edge(self, direction, offs):
        # points around covectors an ulp either side of |Re alpha| = |Im alpha|
        # at the endpoint
        for pair in _switch(_uses_im, direction, 0.5, 20.0)[:3]:
            _assert_chart_array_is_scalar(SU2, _near(pair, offs))

    @settings(max_examples=20, deadline=None)
    @given(st.tuples(finite, finite, finite).filter(
        lambda c: c[2] * c[2] - c[0] * c[0] - c[1] * c[1] > 0.01), offsets)
    def test_sl2_selector_edge(self, direction, offs):
        # points around covectors an ulp either side of |m11| = 1e-3 at the
        # endpoint, on the rays scan_ray scans (r > 0)
        for pair in _m11_edges(direction):
            assert _uses_m11(pair[0]) != _uses_m11(pair[1])
            _assert_chart_array_is_scalar(SL2, _near(pair, offs))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-4e-6, 4e-6),
           st.lists(st.tuples(*[st.floats(-1e-7, 1e-7)] * 3), min_size=1, max_size=4))
    def test_sl2_series_branch(self, u0, v0, r, offs):
        # |r| / 4 < 1e-6: sc_pair's series, on both sides of r = 0
        h2 = u0 * u0 + v0 * v0
        w0 = math.sqrt(max(h2 + r, 0.0))
        centers = [(u0, v0, w0), (3.0, 4.0, 5.0)]
        _assert_chart_array_is_scalar(SL2, _near(centers, offs))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0), st.floats(-1.0, 1.0), offsets)
    def test_sl2_hyperbolic_branch(self, u0, v0, w0, offs):
        centers = [(u0, v0, w0), (u0 + 2.0, v0, w0)]
        _assert_chart_array_is_scalar(SL2, _near(centers, offs))

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
        _assert_chart_array_is_scalar(adapter, points)

    def test_first_raise_is_the_scalar_loops_first(self):
        for adapter, points, error in (
                # a det overflow raises before a later row's NaN does
                (SL2, [[(0.0, 1.0, 2.0), (0.0, 800.0, 0.0)], [(nan, 0.0, 0.0), (0.0, 1.0, 2.0)]],
                 InvalidInput),
                (SL2, [[(0.0, 1400.0, 0.0)], [(nan, 0.0, 0.0)]], InvalidInput),
                # a NaN row raises before a later row's sinh would overflow
                (SL2, [[(0.0, 1.0, 2.0), (nan, 0.0, 0.0)], [(0.0, 1500.0, 0.0), (0.0, 1.0, 2.0)]],
                 InvalidInput),
                # a row the array pass leaves to the scalar exponential, which does
                # not raise there, then a NaN row before a later row's sinh
                (SL2, [[(1400.5, 0.0, 0.0), (nan, 0.0, 0.0)], [(0.0, 1500.0, 0.0)] * 2],
                 InvalidInput),
                # rho = 0 takes the scalar exponential; the next row raises
                (SU2, [[(0.0, 0.0, 0.0), (nan, 0.0, 0.0)]], InvalidInput)):
            points = np.array(points)
            _assert_chart_array_is_scalar(adapter, points)
            with pytest.raises(error):
                adapter.chart_array(points)


class TestGrushinChartArray:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ALPHAS), st.sampled_from(X0S),
           st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
                    min_size=1, max_size=6),
           st.lists(st.tuples(st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3)),
                    min_size=1, max_size=4))
    def test_generic_covectors(self, alpha, x0, centers, offs):
        adapter = grushin_adapter(GrushinBase(alpha, x0, 0.7))
        _assert_chart_array_is_scalar(adapter, _near(centers, offs))

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
        _assert_chart_array_is_scalar(adapter, _near(centers, [(0.0, 0.0)]))

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("x0", X0S)
    def test_straight_line_and_rest_rows(self, alpha, x0):
        # v0^2 underflows (straight line), v0 = 0, and H = 0 at x0 = 0
        adapter = grushin_adapter(GrushinBase(alpha, x0, 0.7))
        centers = [(1.0, 1e-170), (-0.5, 0.0), (0.0, 1.3), (1e-170, 0.0), (0.4, 1.0)]
        _assert_chart_array_is_scalar(adapter, _near(centers, [(0.0, 0.0)]))

    def test_non_finite_row_raises_what_the_scalar_raises(self):
        adapter = grushin_adapter(GrushinBase(1.5, 0.5, 0.0))
        centers = [(0.4, 1.0)]
        points = _near(centers, [(0.0, 0.0)])
        points[0, 2] = (float("inf"), 1.0)
        _assert_chart_array_is_scalar(adapter, points)


def _rank_fields(singular_values, rank, tol, nullspace_basis, image_complement):
    """Every field of a rank report, as bytes and Python values."""
    return (singular_values.tobytes(), rank, type(rank), tol, type(tol),
            [v.tobytes() for v in nullspace_basis], image_complement.shape,
            image_complement.tobytes())


def _assert_stack_is_each_matrix(stack):
    def stacked():
        u, s, vh, ranks, tols = rank_nullspace(stack)
        return [_rank_fields(s_i, rank, tol, vh_i[rank:], u_i[:, rank:])
                for u_i, s_i, vh_i, rank, tol in zip(u, s, vh, ranks.tolist(), tols.tolist())]

    def each():
        return [_rank_fields(one.singular_values, one.numeric_rank, one.tolerance_used,
                             one.nullspace_basis, one.image_complement)
                for one in map(rank_nullspace, stack)]

    assert _outcome(stacked) == _outcome(each)


class TestStackedRank:
    @pytest.mark.parametrize("k", [2, 3])
    def test_stack_equals_each_matrix(self, k):
        rng = np.random.default_rng(k)
        stack = rng.normal(size=(500, k, k))
        # every fifth matrix drops rank, like a Jacobian at a conjugate covector
        u, s, vh = np.linalg.svd(stack[::5])
        s[:, -1] = 0.0
        stack[::5] = (u * s[:, np.newaxis, :]) @ vh
        _assert_stack_is_each_matrix(stack)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 3), st.data())
    def test_random_stacks(self, k, data):
        entry = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))
        matrices = data.draw(st.lists(st.lists(entry, min_size=k * k, max_size=k * k),
                                      min_size=1, max_size=6))
        stack = np.array(matrices).reshape(-1, k, k)
        # scales far from one, and exact rank drops: a row doubled
        stack *= 2.0 ** np.array(data.draw(st.lists(
            st.integers(-300, 300), min_size=len(stack), max_size=len(stack))))[:, None, None]
        drop = np.array(data.draw(st.lists(st.booleans(), min_size=len(stack),
                                           max_size=len(stack))))
        stack[drop, -1] = 2.0 * stack[drop, 0]
        _assert_stack_is_each_matrix(stack)

    def test_zero_matrix_inside_the_stack_raises(self):
        stack = np.random.default_rng(0).normal(size=(5, 3, 3))
        stack[2] = 0.0
        with pytest.raises(DegenerateMatrix, match="zero matrix"):
            rank_nullspace(stack)
        _assert_stack_is_each_matrix(stack)


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


# a structure's public scalar f-values, unit kernel and stratum gradient
_Scalars = namedtuple("_Scalars", "conj_f kernel grad")


SU2_SCALARS = _Scalars(su2_conj_f, su2_kernel,
                       lambda cov, stratum: su2_conj_grad(cov)[("C0", "C1").index(stratum)])
# sl2_conj_f returns (r, f0, f1); the adapter's f-values are (f0, f1)
SL2_SCALARS = _Scalars(lambda cov: sl2_conj_f(cov)[1:], sl2_kernel,
                       lambda cov, stratum: sl2_conj_grad(cov)[("C0", "C1").index(stratum)])


def _grushin(alpha, x0):
    base = GrushinBase(alpha, x0, 0.0)
    return grushin_adapter(base), _Scalars(lambda cov: (grushin_conj_f(base, cov),),
                                           lambda cov: grushin_kernel(base, cov)[0],
                                           lambda cov, stratum: grushin_conj_grad(base, cov))


def _scalar_build(adapter, scalars, rec):
    """(order, f-values, kernel basis, second-order value, class, rank report) of one record."""
    cov = np.asarray(rec.covector, dtype=float)
    chart = adapter.chart
    info = rank_nullspace(_loop_fd_jacobian(chart, cov))
    order = adapter.fiber_dim - info.numeric_rank
    f_values = tuple(float(v) for v in scalars.conj_f(cov))
    if order == 1:
        kernel_basis = (np.asarray(scalars.kernel(cov), dtype=float),)
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
        grad = np.asarray(scalars.grad(cov, rec.stratum), dtype=float)
        pairing = float(grad @ kernel_basis[0]
                        / (np.linalg.norm(grad) * np.linalg.norm(kernel_basis[0])))
        if abs(pairing) > PAIRING_TOL:
            cls = SingularityClass.FOLD
        elif adapter.fiber_dim == 3 and second > SECOND_ORDER_TOL:
            cls = SingularityClass.TANGENTIAL
    return order, f_values, kernel_basis, second, cls, info


RAYS = [
    ("su2", SU2, SU2_SCALARS, (1.0, 0.0, 0.5), 20.0),
    ("su2-planar", SU2, SU2_SCALARS, (1.0, 0.0, 0.0), 20.0),
    ("su2-long", SU2, SU2_SCALARS, (1.0, 0.0, 0.5), 4000.0),
    ("sl2", SL2, SL2_SCALARS, (1.0, 0.0, 2.0), 14.0),
    ("sl2-400", SL2, SL2_SCALARS, (0.3, -0.4, 1.1), 400.0),
    ("sl2-long", SL2, SL2_SCALARS, (1.0, 0.0, 2.0), 4000.0),
    ("grushin", *_grushin(2.5, 0.5), (math.cos(0.9), math.sin(0.9)), 20.0),
    ("grushin-vertical", *_grushin(1.0, 0.5), (0.0, 1.0), 20.0),
    ("grushin-near-vertical", *_grushin(3.0, 2.0),
     (math.cos(math.pi / 2.0 + 1e-6), math.sin(math.pi / 2.0 + 1e-6)), 20.0),
    ("grushin-order-zero", *_grushin(3.0, -2.0), (1.0, 1e-8), 30.0),
]


@pytest.mark.parametrize("name,adapter,scalars,direction,s_max", RAYS,
                         ids=[r[0] for r in RAYS])
def test_batched_build_equals_scalar_build(name, adapter, scalars, direction, s_max):
    records = scan_ray(adapter, direction, s_max)
    assert records
    u, singular_values, _, ranks, _ = _rank_reports(
        adapter, np.array([rec.covector for rec in records]))
    for rec, u_i, s_i, rank in zip(records, u, singular_values, ranks.tolist()):
        order, f_values, kernel_basis, second, cls, info = _scalar_build(adapter, scalars, rec)
        assert rec.order == order
        assert np.array(rec.f_values).tobytes() == np.array(f_values).tobytes()
        assert [k.tobytes() for k in rec.kernel_basis] == [k.tobytes() for k in kernel_basis]
        assert rec.singularity_class is cls
        assert s_i.tobytes() == info.singular_values.tobytes()
        assert u_i[:, rank:].tobytes() == info.image_complement.tobytes()
        if rec.order >= 1:
            assert second_order_transversality(adapter, rec) == second


def _rank_one_chart(x):
    """(phi, phi^2, phi^3) of one linear form: rank 1, an image complement of width 2."""
    phi = x[0] + 2.0 * x[1] + 3.0 * x[2]
    return np.array([phi, phi * phi, phi ** 3])


def _rank_two_chart(x):
    """Rank 2 where x0 + x1 = 3 and x2 = 0, kernel e2; the mixed derivative there is 3 e2."""
    return np.array([x[0], x[1], x[2] * (x[0] + x[1] - 3.0) + x[2] * x[2]])


def _full_rank_chart(x):
    return np.array([x[0] + x[1] * x[1], x[1] + x[2] * x[2], x[2] + x[0] * x[0]])


def _fake_adapter(chart):
    """A three-dimensional structure with one chart everywhere and the stratum gradient e0."""
    def record_fields(covs, strata, order_one):
        n = len(covs)
        return np.zeros((n, 1)), np.zeros((n, 3)), np.tile([1.0, 0.0, 0.0], (n, 1))

    return StructureAdapter(
        name="fake", fiber_dim=3, chart=chart,
        chart_array=lambda points: np.array([[chart(p) for p in row] for row in points]),
        conj_f=lambda cov: (0.0,), record_fields=record_fields, stratum_names=("C",),
        ray_gate=lambda direction: True,
        kernel_jacobi_image=lambda cov: np.array([0.0, 0.0, 1.0]))


class TestRankRowsNoScanReaches:
    """Rank reports of other orders than the scan rays give, against one matrix at a time.

    At the covector (1, 2, 0) the three charts have FD rank 1 (a record of
    order 2), rank 2 and full rank (an order-one record whose differential
    has no image complement, as one built by another route may be). The
    second-order value, the class and the regularity check must equal the
    reference from rank_nullspace(fd_jacobian(chart, cov)) bit for bit.
    """

    @pytest.mark.parametrize("chart,rank,order,cls", [
        (_rank_one_chart, 1, 2, SingularityClass.UNDETERMINED),
        (_rank_two_chart, 2, 1, SingularityClass.TANGENTIAL),
        (_full_rank_chart, 3, 1, SingularityClass.UNDETERMINED),
    ], ids=["rank-1", "rank-2", "full-rank"])
    def test_equals_the_per_matrix_reference(self, chart, rank, order, cls):
        cov = np.array([1.0, 2.0, 0.0])
        info = rank_nullspace(fd_jacobian(chart, cov))
        assert info.numeric_rank == rank
        assert info.image_complement.shape[1] == 3 - rank
        kernel_basis = tuple(info.nullspace_basis) or (np.array([0.0, 0.0, 1.0]),)
        record = ConjugateRecord(s=1.0, covector=cov, stratum="C", order=order,
                                 kernel_basis=kernel_basis, f_values=(0.0,),
                                 singularity_class=cls)
        second = 0.0
        if info.image_complement.shape[1]:
            kern = kernel_basis[0] / np.linalg.norm(kernel_basis[0])
            step = SECOND_ORDER_STEP

            def endpoint(sgn_s, sgn_r):
                return chart((1.0 + sgn_s * step) * (cov + sgn_r * step * kern))

            mixed = endpoint(1, 1) - endpoint(1, -1) - endpoint(-1, 1) + endpoint(-1, -1)
            mixed /= 4.0 * step * step
            second = float(np.linalg.norm(info.image_complement.T @ mixed))

        adapter = _fake_adapter(chart)
        # the FD stencil has 6 points per covector, the second-order one 4
        stencils = [6, 4] if rank < 3 else [6]
        stencil_sizes = []

        def chart_array(points):
            stencil_sizes.append(points.shape[1])
            return adapter.chart_array(points)

        counted = replace(adapter, chart_array=chart_array)
        value = second_order_transversality(counted, record)
        assert type(value) is float
        assert np.float64(value).tobytes() == np.float64(second).tobytes()
        assert stencil_sizes == stencils
        stencil_sizes.clear()
        # the pairing with e0 vanishes, so the second order decides
        assert classify(counted, record) is cls
        assert stencil_sizes == (stencils if order == 1 else [6])
        assert (second > SECOND_ORDER_TOL) is (cls is SingularityClass.TANGENTIAL)
        if order == 1:
            vec = adapter.kernel_jacobi_image(cov)
            independent = (info.image_complement.shape[1] > 0 and np.linalg.norm(
                info.image_complement.T @ vec) > INDEPENDENCE_TOL * np.linalg.norm(vec))
            assert regularity_isomorphism_check(adapter, record) is bool(independent)


def _hook_outcome(adapter, covs, names, order_one):
    """record_fields over the rows: every f-value, and the order-one kernels and gradients."""
    def call():
        f_values, kernels, grads = adapter.record_fields(
            covs, _stratum_indices(adapter, names), order_one)
        return f_values.tobytes(), kernels[order_one].tobytes(), grads[order_one].tobytes()
    return _outcome(call)


def _scalar_outcome(scalars, covs, names, order_one):
    """The scalar sequence row by row: conj_f, then on order-one rows the kernel and gradient."""
    def call():
        f_values, kernels, grads = [], [], []
        for cov, name, one in zip(covs, names, order_one):
            f_values.append([float(v) for v in scalars.conj_f(cov)])
            if one:
                kernels.append(np.asarray(scalars.kernel(cov), dtype=float))
                grads.append(np.asarray(scalars.grad(cov, name), dtype=float))
        return (np.array(f_values).tobytes(), np.array(kernels).tobytes(),
                np.array(grads).tobytes())
    return _outcome(call)


def _assert_record_fields_are_scalar(adapter, scalars, rows, names, order_one):
    covs = np.array(rows, dtype=float).reshape(-1, adapter.fiber_dim)
    order_one = np.array(order_one, dtype=bool)
    assert (_hook_outcome(adapter, covs, names, order_one)
            == _scalar_outcome(scalars, covs, names, order_one))


@functools.lru_cache(maxsize=None)
def _conjugate_pool(key):
    """Record covectors of a few rays: rows the kernel check accepts."""
    if key in ("su2", "sl2"):
        adapter = SU2 if key == "su2" else SL2
        rays = {"su2": [((1.0, 0.0, 0.5), 20.0), ((0.3, -0.7, 0.0), 20.0)],
                "sl2": [((1.0, 0.0, 2.0), 14.0), ((0.3, -0.4, 1.1), 60.0)]}[key]
    else:
        adapter = _grushin(*key)[0]
        rays = [((math.cos(0.9), math.sin(0.9)), 20.0), ((-0.4, 1.0), 20.0)]
    return tuple(tuple(rec.covector.tolist()) for direction, s_max in rays
                 for rec in scan_ray(adapter, direction, s_max))


# a relative nudge of a conjugate row: the kernel check keeps the small ones
# and rejects the large ones as not conjugate
nudges = st.sampled_from([0.0, 1e-13, -1e-11, 1e-9, -3e-9, 1e-7, 1e-3])
group_edges = [
    (0.0, 0.0, 1.3),           # H = 0: conj_f raises
    (nan, 0.0, 1.0),           # not finite: conj_f raises
    (1.0, 0.0, 0.5),           # SL(2): r < 0, never conjugate
    (1.0, 0.0, 1.0),           # SL(2): r = 0
    (1e-170, 0.0, 1.0),        # H underflows
    (1e200, 0.0, 1e200),       # r overflows: every function raises InvalidInput
    (1e4, 0.0, 1.0),           # SL(2): cosh(sqrt(-r)/2) overflows, InvalidInput
]


@st.composite
def _grushin_cases(draw):
    """(alpha, x0, rows, names, order_one): conjugate rows nudged, edge rows, random rows."""
    alpha = draw(st.sampled_from(ALPHAS))
    x0 = draw(st.sampled_from([0.0, 0.5, -2.0]))
    tol = 1e-12 * max(1.0, abs(x0))
    edges = [
        (-x0, 1e-170),                # straight line to x1 = 0 on u0 + x0 = 0
        (-x0 + 0.5 * tol, 1e-170),    # u0 + x0 inside the branch tolerance
        (-x0 + 2.0 * tol, 1e-170),    # and just outside it
        (-x0 + 1e-9, 1e-170),
        (-x0, 0.8),                   # u0 + x0 = 0 on the oscillator
        (1.3, 0.0), (-0.7, 0.0),      # v0 = 0
        (0.0, 0.0), (0.0, 1.3),       # H = 0 (the latter at x0 = 0)
        (1e60, 1e-170),               # conjugate, |x1|^(2 alpha - 2) overflows
        (float("inf"), 1.0),
    ]
    pool = _conjugate_pool((alpha, x0))
    row = st.one_of(
        st.tuples(st.sampled_from(pool), nudges).map(
            lambda pair: tuple((1.0 + pair[1]) * c for c in pair[0])),
        st.sampled_from(edges),
        st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)))
    rows = draw(st.lists(row, min_size=1, max_size=8))
    names = draw(st.lists(st.sampled_from(["other", "C0", "C1"]),
                          min_size=len(rows), max_size=len(rows)))
    order_one = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return alpha, x0, rows, names, order_one


class TestRecordFields:
    """record_fields against the public scalar functions, row by row, bit for bit.

    The first row where the scalar sequence raises must raise the same
    exception, with the same message, from the array hook.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["su2", "sl2"]), st.data())
    def test_group_rows(self, key, data):
        adapter, scalars = (SU2, SU2_SCALARS) if key == "su2" else (SL2, SL2_SCALARS)
        pool = _conjugate_pool(key)
        row = st.one_of(
            st.tuples(st.sampled_from(pool), nudges).map(
                lambda pair: tuple((1.0 + pair[1]) * c for c in pair[0])),
            st.sampled_from(group_edges),
            st.tuples(finite, finite, finite))
        rows = data.draw(st.lists(row, min_size=1, max_size=8))
        names = data.draw(st.lists(st.sampled_from(["C0", "C1"]),
                                   min_size=len(rows), max_size=len(rows)))
        order_one = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        _assert_record_fields_are_scalar(adapter, scalars, rows, names, order_one)

    @settings(max_examples=200, deadline=None)
    @given(_grushin_cases())
    # order-one rows with u0 = 0 and tiny v0, where alpha v0 (u0 + x0) H underflows
    @example((1.5, 0.5, [(0.0, 2.0694358630168767e-151)], ["other"], [True]))
    @example((2.0, -2.0, [(3.122205925171836, 3.934473453489649),
                          (0.0, 6.995317289086942e-150)], ["other", "C1"], [False, True]))
    def test_grushin_rows(self, case):
        alpha, x0, rows, names, order_one = case
        adapter, scalars = _grushin(alpha, x0)
        _assert_record_fields_are_scalar(adapter, scalars, rows, names, order_one)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("x0", [0.5, -2.0])
    def test_underflowing_gradient_denominator_is_degenerate(self, alpha, x0):
        adapter, _ = _grushin(alpha, x0)
        row = np.array([[0.0, 2.0694358630168767e-151]])
        with pytest.raises(DegenerateCovector, match="underflows or overflows"):
            grushin_conj_grad(GrushinBase(alpha, x0, 0.0), row[0])
        with pytest.raises(DegenerateCovector, match="underflows or overflows"):
            adapter.record_fields(row, np.zeros(1, dtype=int), np.array([True]))

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("x0", [0.0, 0.5, -2.0])
    def test_grushin_edges_each_alone(self, alpha, x0):
        adapter, scalars = _grushin(alpha, x0)
        tol = 1e-12 * max(1.0, abs(x0))
        for row in [(-x0, 1e-170), (-x0 + 0.5 * tol, 1e-170), (-x0 + 2.0 * tol, 1e-170),
                    (1.3, 0.0), (0.0, 0.0), (1e60, 1e-170), (0.4, 1.0)]:
            for one in (False, True):
                _assert_record_fields_are_scalar(adapter, scalars, [row], ["other"], [one])

    @pytest.mark.parametrize("adapter,scalars", [(SU2, SU2_SCALARS), (SL2, SL2_SCALARS)],
                             ids=["su2", "sl2"])
    def test_group_edges_each_alone(self, adapter, scalars):
        for row in group_edges + [(0.3, 0.4, 1.2)]:
            for one in (False, True):
                _assert_record_fields_are_scalar(adapter, scalars, [row], ["C1"], [one])

    @pytest.mark.parametrize("make,error", [
        (lambda: (SU2, (0.3, 0.4, 1.2)), NotConjugate),
        (lambda: (SL2, (1.0, 0.0, 0.5)), NotConjugate),
        (lambda: (_grushin(3.0, 0.5)[0], (0.4, 1.0)), NotConjugate),
        (lambda: (_grushin(2.0, 0.5)[0], (1.3, 0.0)), DegenerateCovector),
    ], ids=["su2", "sl2-hyperbolic", "grushin", "grushin-v0-zero"])
    def test_rows_of_other_orders_never_raise(self, make, error):
        # a record at a covector the kernel check rejects raises only at order one
        adapter, row = make()
        covs = np.array([row] * 3)
        strata = _stratum_indices(adapter, [adapter.stratum_names[0]] * 3)
        with pytest.raises(error):
            adapter.record_fields(covs, strata, np.array([False, True, False]))
        f_values, _, _ = adapter.record_fields(covs, strata, np.zeros(3, dtype=bool))
        assert np.isfinite(f_values).all()
