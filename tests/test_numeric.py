"""Numeric infrastructure: roots, FD Jacobians, rank; and the ODE and quadrature oracles."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scipy.optimize import brentq

from srfolds import (DegenerateMatrix, GrushinBase, InvalidInput, JacobiCoords,
                     NonConvergence, RootHit, StepFailure, fd_jacobian, find_roots,
                     grushin_exp, grushin_jacobi, propagate_linear_jacobi,
                     rank_nullspace, sin_cos_alpha, sl2_exp, sl2_jacobi, su2_exp,
                     su2_jacobi, vertical_to_endpoint_matrix)
from srfolds.numeric import (_brent, _brent_lockstep, _gated_hits, find_roots_lockstep,
                             finite_time, node_roots, scan_nodes, sign_brackets, vector_norm)
from srfolds.oracles import OdeProblem, integrate, quad
from srfolds.singularity import LOCKSTEP_MIN_BRACKETS

TAN_FIXED_POINT = 4.493409457909064
QUARTIC_INTEGRAL = 1.3110287771460598


def _bisect(g, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection oracle, independent of the library root finder."""
    glo = g(lo)
    assert glo * g(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if glo * g(mid) <= 0:
            hi = mid
        else:
            lo, glo = mid, g(mid)
    return 0.5 * (lo + hi)


class TestIntegrate:
    def test_constant_field(self):
        problem = OdeProblem(dimension=1, vector_field=lambda t, y: np.zeros(1),
                             initial_state=np.array([3.5]), t_span=(0.0, 1.0))
        assert integrate(problem).end[0] == pytest.approx(3.5, abs=1e-12)

    def test_exponential_growth(self):
        problem = OdeProblem(dimension=1, vector_field=lambda t, y: y,
                             initial_state=np.array([1.0]), t_span=(0.0, 1.0))
        assert abs(integrate(problem).end[0] - math.e) <= 1e-10

    def test_planar_hamiltonian_flow(self):
        # alpha=1 flow of H = (u^2 + v^2 x^2)/2 from the origin with (u,v)=(1,pi):
        # endpoint (0, 1/(2*pi)), evaluated from the oscillator solution by hand
        def field(t, y):
            x, _, u, v = y
            return np.array([u, v * x * x, -v * v * x, 0.0])

        problem = OdeProblem(dimension=4, vector_field=field,
                             initial_state=np.array([0.0, 0.0, 1.0, math.pi]),
                             t_span=(0.0, 1.0))
        x1, y1, _, _ = integrate(problem).end
        assert abs(x1 - 0.0) <= 1e-8
        assert abs(y1 - 0.15915494309189535) <= 1e-8

    @pytest.mark.parametrize("lam", [-2.0, -1.0, 0.5, 1.0, 2.0])
    def test_linear_rate_accuracy(self, lam):
        problem = OdeProblem(dimension=1, vector_field=lambda t, y: lam * y,
                             initial_state=np.array([1.0]), t_span=(0.0, 1.0))
        traj = integrate(problem, rel_tol=1e-10, abs_tol=1e-12)
        for t in (0.25, 0.5, 1.0):
            assert abs(traj(t)[0] - math.exp(lam * t)) <= 10 * 1e-8

    def test_tolerance_validation(self):
        problem = OdeProblem(dimension=1, vector_field=lambda t, y: y,
                             initial_state=np.array([1.0]), t_span=(0.0, 1.0))
        with pytest.raises(InvalidInput):
            integrate(problem, rel_tol=1.0)
        with pytest.raises(InvalidInput):
            integrate(problem, abs_tol=0.0)

    def test_problem_validation(self):
        with pytest.raises(InvalidInput):
            OdeProblem(dimension=2, vector_field=lambda t, y: y,
                       initial_state=np.array([1.0]), t_span=(0.0, 1.0))
        with pytest.raises(InvalidInput):
            OdeProblem(dimension=1, vector_field=lambda t, y: y,
                       initial_state=np.array([1.0]), t_span=(1.0, 0.0))
        # an empty state matches dimension 0, so only the dimension check rejects it
        with pytest.raises(InvalidInput, match="dimension must be >= 1"):
            OdeProblem(dimension=0, vector_field=lambda t, y: y,
                       initial_state=np.array([]), t_span=(0.0, 1.0))

    def test_blow_up_raises_step_failure(self):
        # y' = y^2 from y(0) = 1 blows up at t = 1, inside the span
        problem = OdeProblem(dimension=1, vector_field=lambda t, y: y * y,
                             initial_state=np.array([1.0]), t_span=(0.0, 2.0))
        with pytest.raises(StepFailure, match=r"integration failed on \(0\.0, 2\.0\)"):
            integrate(problem)

    def test_trajectory_span_guard(self):
        problem = OdeProblem(dimension=1, vector_field=lambda t, y: y,
                             initial_state=np.array([1.0]), t_span=(0.0, 1.0))
        traj = integrate(problem)
        with pytest.raises(InvalidInput):
            traj(2.0)


class TestQuad:
    def test_unit_integral(self):
        assert quad(lambda t: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_arcsine_endpoint_singularity(self):
        value = quad(lambda t: 1.0 / math.sqrt(1.0 - t * t), 0.0, 1.0, tol=1e-8)
        assert abs(value - math.pi / 2.0) <= 1e-8

    def test_quartic_radicand(self):
        value = quad(lambda t: 1.0 / math.sqrt(1.0 - t ** 4), 0.0, 1.0, tol=1e-8)
        assert abs(value - QUARTIC_INTEGRAL) <= 1e-6

    def test_divergent_integral_raises_non_convergence(self):
        # 1/t has no integral over [0, 1]: the estimate cannot meet the tolerance
        with pytest.raises(NonConvergence, match=r"quadrature error estimate .* on \[0\.0, 1\.0\]"):
            quad(lambda t: 1.0 / t if t else 0.0, 0.0, 1.0)


GROUP_START = JacobiCoords(p=(1.0, 0.0, 0.0), x=(0.0, 0.0, 0.0))
PLANE_START = JacobiCoords(p=(1.0, 0.0), x=(0.0, 0.0))
BASE = GrushinBase(1.5, 0.5, 0.0)


_TIME_CALLS = [
    lambda t: sin_cos_alpha(1.5, t),
    lambda t: su2_exp((1.0, 0.0, 0.5), t),
    lambda t: sl2_exp((1.0, 0.0, 0.5), t),
    lambda t: grushin_exp(BASE, (1.0, 0.0), t),       # v0 = 0: a straight line
    lambda t: grushin_exp(BASE, (1.0, 0.7), t),
    lambda t: su2_jacobi((1.0, 0.0, 0.5), GROUP_START, t),
    lambda t: sl2_jacobi((1.0, 0.0, 0.5), GROUP_START, t),
    lambda t: grushin_jacobi(BASE, (0.0, 0.0), PLANE_START, t),
    lambda t: grushin_jacobi(BASE, (1.0, 0.7), PLANE_START, t),
    lambda t: propagate_linear_jacobi(1.0, (1.0, 0.0, 0.0), (0.0, 0.0, 0.0), t),
]
_TIME_CALL_IDS = ["sin_cos_alpha", "su2_exp", "sl2_exp", "grushin_exp-line", "grushin_exp",
                  "su2_jacobi", "sl2_jacobi", "grushin_jacobi-rest", "grushin_jacobi",
                  "propagate_linear_jacobi"]


class TestFiniteTime:
    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan], ids=str)
    @pytest.mark.parametrize("call", _TIME_CALLS, ids=_TIME_CALL_IDS)
    def test_non_finite_time_rejected(self, call, t):
        with pytest.raises(InvalidInput, match="t must be finite"):
            call(t)

    # float() takes text and bytes, and a 0-d array; none of them is a number
    @pytest.mark.parametrize("t", ["abc", "1", b"1", None, np.array(1.0), [1.0]], ids=repr)
    @pytest.mark.parametrize("call", _TIME_CALLS, ids=_TIME_CALL_IDS)
    def test_non_numeric_time_raises_invalid_input(self, call, t):
        with pytest.raises(InvalidInput, match="t must be a real number"):
            call(t)

    @pytest.mark.parametrize("t,expected", [(np.float64(0.5), 0.5), (2, 2.0), (True, 1.0),
                                            (Fraction(1, 4), 0.25)], ids=repr)
    def test_real_time_is_a_python_float(self, t, expected):
        value = finite_time(t)
        assert type(value) is float and value == expected

    def test_int_past_the_doubles_is_not_finite(self):
        with pytest.raises(InvalidInput, match="t must be finite, got inf"):
            finite_time(10 ** 400)


class TestFindRoots:
    def test_single_linear_root(self):
        hits = find_roots(lambda t: t - 1.0, 0.0, 2.0)
        assert len(hits) == 1
        assert hits[0].value == pytest.approx(1.0, abs=1e-10)

    def test_tan_fixed_point(self):
        hits = find_roots(lambda t: math.tan(t) - t, 3.0, 6.0)
        assert len(hits) == 1
        oracle = _bisect(lambda t: math.tan(t) - t, 4.4, 4.6)
        assert abs(hits[0].value - oracle) <= 1e-8
        assert abs(hits[0].value - TAN_FIXED_POINT) <= 1e-8

    def test_sine_roots(self):
        hits = find_roots(math.sin, 1.0, 7.0)
        values = [h.value for h in hits]
        assert len(values) == 2
        assert values[0] == pytest.approx(math.pi, abs=1e-9)
        assert values[1] == pytest.approx(2.0 * math.pi, abs=1e-9)

    def test_pole_sign_changes_rejected(self):
        # tan has sign-change poles at pi/2 and 3*pi/2 inside this window;
        # only the genuine zeros at pi and 2*pi may be reported
        hits = find_roots(math.tan, 0.5, 6.5)
        assert [round(h.value, 6) for h in hits] == [round(math.pi, 6),
                                                     round(2.0 * math.pi, 6)]
        assert all(abs(math.tan(h.value)) <= 1e-8 for h in hits)

    def test_tan_fixed_points_vs_bisection_sweep(self):
        def g(t):
            return math.tan(t) - t

        hits = find_roots(g, 3.0, 30.0, scan_points=2000)
        # independent oracle: bisection on t*cos(t) - sin(t), pole-free form
        oracle_fn = lambda t: t * math.cos(t) - math.sin(t)
        oracles = [_bisect(oracle_fn, k * math.pi + 0.1, (k + 1) * math.pi - 0.1)
                   for k in range(1, 10)]
        oracles = [r for r in oracles if 3.0 <= r <= 30.0]
        assert len(hits) == len(oracles)
        for hit, oracle in zip(hits, oracles):
            assert abs(hit.value - oracle) <= 1e-8

    @pytest.mark.parametrize("g, expected", [
        (lambda t: t, []),                    # endpoint zero, no crossing
        (lambda t: 2.0 - t, []),              # zero at the right endpoint
        (lambda t: (t - 1.0) ** 2, []),       # interior zero, no crossing
        (lambda t: t - 1.0, [1.0]),           # interior zero with a crossing
    ])
    def test_exact_zero_on_grid_needs_sign_change(self, g, expected):
        # on the grid 0, 1, 2 each function is exactly zero at a node
        hits = find_roots(g, 0.0, 2.0, scan_points=3)
        assert [h.value for h in hits] == expected

    def test_input_validation(self):
        with pytest.raises(InvalidInput):
            find_roots(math.sin, 1.0, 1.0)
        with pytest.raises(InvalidInput):
            find_roots(math.sin, 0.0, 1.0, scan_points=1)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_tol_that_is_not_positive_and_finite(self, tol):
        # Brent would raise on 0 or -1, and tol = inf would accept any bracket
        with pytest.raises(InvalidInput, match="root tolerance"):
            find_roots(math.sin, 1.0, 10.0, tol=tol)

    def test_grid_values_replace_the_scan_loop(self):
        calls = []

        def g(t):
            calls.append(t)
            return math.sin(t)

        grid = np.array([math.sin(t) for t in np.linspace(1.0, 7.0, 400)])
        hits = find_roots(g, 1.0, 7.0, grid_values=grid)
        assert [h.value for h in hits] == [h.value for h in find_roots(math.sin, 1.0, 7.0)]
        # only Brent calls g, strictly inside the brackets
        assert 0 < len(calls) < 40
        assert set(calls).isdisjoint(np.linspace(1.0, 7.0, 400).tolist())

    @pytest.mark.parametrize("length", [399, 401])
    def test_grid_values_of_wrong_length_rejected(self, length):
        with pytest.raises(InvalidInput, match=r"grid_values has shape \(%d,\)" % length):
            find_roots(math.sin, 1.0, 7.0, grid_values=np.zeros(length))

    @pytest.mark.parametrize("use_grid", [False, True], ids=["scalar", "grid"])
    def test_non_finite_scan_names_its_nodes(self, use_grid):
        # nan at the nodes 0, 0.5 and 1 of the grid 0, 0.5, ..., 2
        def g(t):
            return math.log(t - 1.25) if t > 1.25 else math.nan

        xs = np.linspace(0.0, 2.0, 5)
        grid = np.array([g(x) for x in xs]) if use_grid else None
        with pytest.raises(NonConvergence) as err:
            find_roots(g, 0.0, 2.0, scan_points=5, grid_values=grid)
        assert str(err.value) == (
            "scan produced 3 non-finite values on [0.0, 2.0]; first at s = 0.0: nan")


def _loop_find_roots(g, lo, hi, scan_points, tol=1e-10, grid_values=None):
    """find_roots with a per-interval bracket loop and scipy's brentq: the oracle.

    Same grid, gates and merge as the library. Returns the hits and the calls
    of g that the library makes: the oracle's calls without brentq's two calls
    at each bracket's ends and the residual gate's call at each root, which
    the library reads from the grid and from Brent's last value instead.
    """
    calls = []

    def recorded(t):
        calls.append(float(t))
        return g(t)

    xs = scan_nodes(lo, hi, scan_points)
    gs = (np.array([recorded(x) for x in xs], dtype=float) if grid_values is None
          else np.asarray(grid_values, dtype=float))
    scale = max(1.0, float(np.max(np.abs(gs))))
    hits = []
    nonzero = np.flatnonzero(gs)
    for i in np.flatnonzero(gs == 0.0):
        k = int(np.searchsorted(nonzero, i))
        if 0 < k < nonzero.size and np.sign(gs[nonzero[k - 1]]) != np.sign(gs[nonzero[k]]):
            hits.append(RootHit(float(xs[i]), 0.0))
    for i in range(len(xs) - 1):
        if gs[i] == 0.0 or gs[i + 1] == 0.0:
            continue
        if np.sign(gs[i]) != np.sign(gs[i + 1]):
            polish = []

            def inner(t):
                polish.append(float(t))
                return g(t)

            r = brentq(inner, xs[i], xs[i + 1], xtol=tol * 1e-2, rtol=1e-15)
            calls += polish[2:]
            residual = abs(g(r))
            if residual <= tol * scale:
                hits.append(RootHit(float(r), residual))
    hits.sort(key=lambda h: h.value)
    merged = []
    for h in hits:
        if merged and abs(h.value - merged[-1].value) < (hi - lo) * 1e-9:
            if h.residual < merged[-1].residual:
                merged[-1] = h
            continue
        merged.append(h)
    return merged, calls


def _same_as_loop(g, lo, hi, scan_points, grid_values=None):
    """find_roots gives the loop oracle's hits, calling g where the oracle says."""
    calls = []

    def recorded(t):
        calls.append(float(t))
        return g(t)

    hits = find_roots(recorded, lo, hi, scan_points=scan_points, grid_values=grid_values)
    oracle, oracle_calls = _loop_find_roots(g, lo, hi, scan_points, grid_values=grid_values)
    assert hits == oracle
    assert calls == oracle_calls
    return hits


def _family(name, p, q):
    """A test function with sign changes on [-5, 5], by family and two parameters."""
    if name == "cubic":
        return lambda t: (t - p) * (t - q) * (t + 0.5 * p)
    if name == "quintic":
        # a root of multiplicity five: Brent creeps, and may miss 100 steps
        return lambda t: (t - p) ** 5
    if name == "sin":
        return lambda t: math.sin((1.0 + abs(q)) * t + p)
    if name == "tan":
        # tan-style poles at pi/2 + k pi; a bracket across one changes sign too
        return lambda t: math.tan(t) - p
    return lambda t: 1.0 / (t - p) - q if t != p else math.inf


def _brentq_outcome(g, a, b, xtol):
    try:
        return brentq(g, a, b, xtol=xtol, rtol=1e-15)
    except RuntimeError:
        return "no convergence"


def _brent_outcome(g, a, b, xtol):
    try:
        root, value = _brent(g, a, b, g(a), g(b), xtol=xtol, rtol=1e-15)
    except NonConvergence as err:
        assert f"[{a!r}, {b!r}]" in str(err)
        return "no convergence"
    assert value == g(root)
    return root


class TestBrent:
    """_brent repeats scipy.optimize.brentq bit for bit, and returns g at its root."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(["cubic", "quintic", "sin", "tan", "pole"]),
           st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
           st.floats(-5.0, 5.0), st.floats(1e-9, 10.0),
           st.sampled_from([1e-14, 1e-12, 1e-10, 1e-6, 1e-2]))
    def test_same_root_as_brentq(self, name, p, q, a, width, xtol):
        g = _family(name, p, q)
        b = a + width
        fa, fb = g(a), g(b)
        assume(b > a and math.isfinite(fa) and math.isfinite(fb)
               and fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0))
        assert _brent_outcome(g, a, b, xtol) == _brentq_outcome(g, a, b, xtol)

    def test_zero_at_an_end_returns_it_without_calling_g(self):
        def g(t):
            raise AssertionError("called")

        assert _brent(g, 1.0, 2.0, 0.0, 3.0, 1e-12, 1e-15) == (1.0, 0.0)
        assert _brent(g, 1.0, 2.0, -3.0, 0.0, 1e-12, 1e-15) == (2.0, 0.0)

    def test_nan_partway_raises_non_convergence(self):
        def g(t):
            return math.nan if 0.2 < t < 0.5 else t - 0.3

        with pytest.raises(ValueError):
            brentq(g, 0.0, 1.0)
        with pytest.raises(NonConvergence, match=r"\[0\.0, 1\.0\]: g is nan at 0\.3"):
            _brent(g, 0.0, 1.0, g(0.0), g(1.0), 1e-12, 1e-15)
        with pytest.raises(NonConvergence, match=r"\[0\.0, 1\.0\]: g is nan"):
            find_roots(g, 0.0, 1.0, scan_points=2)

    def test_hundred_step_miss_raises_non_convergence(self):
        def g(t):
            return (t - 0.3) ** 5

        with pytest.raises(RuntimeError):
            brentq(g, 0.0, 1.0, xtol=1e-12, rtol=1e-15)
        with pytest.raises(NonConvergence, match=r"\[0\.0, 1\.0\] did not converge in 100 steps"):
            _brent(g, 0.0, 1.0, g(0.0), g(1.0), 1e-12, 1e-15)


class TestFindRootsBrackets:
    """The array bracket search and Brent polish against a per-interval brentq loop."""

    @pytest.mark.parametrize("g,lo,hi,n,expected", [
        # exact zeros at the nodes 1, 2 and 3, each with a sign change
        (lambda t: (t - 1.0) * (t - 2.0) * (t - 3.0), 0.0, 4.0, 5, 3),
        # a touching zero at the node 1, a crossing inside (2.25, 2.75)
        (lambda t: (t - 1.0) ** 2 * (t - 2.6), 0.0, 4.0, 9, 1),
        # zeros at both endpoints and one crossing inside
        (lambda t: t * (t - 1.3) * (4.0 - t), 0.0, 4.0, 9, 1),
        # zero on the nodes 1, 1.5 and 2 between nonzero values of opposite sign
        (lambda t: min(t - 1.0, 0.0) + max(t - 2.0, 0.0), 0.0, 3.0, 7, 3),
        # tan-style poles at pi/2 and 3 pi/2 are rejected, the zeros kept
        (math.tan, 0.5, 6.5, 50, 2),
        (lambda t: 1.0 / (t - 1.7) - 0.5, 0.0, 4.0, 40, 1),
    ], ids=["node-zeros", "touching", "endpoints", "zero-run", "tan", "pole"])
    def test_planted_grids(self, g, lo, hi, n, expected):
        assert len(_same_as_loop(g, lo, hi, n)) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([-2.0, -1.0, -1e-300, 0.0, 0.0, 1e-300, 1.0, 3.0,
                                     1e300, -1e300]), min_size=2, max_size=40))
    def test_random_sign_patterns(self, values):
        # g is the piecewise-linear interpolant of the grid, so it equals the
        # grid at the nodes; 1e300 entries act as poles for the residual gate
        grid = np.array(values)
        xs = scan_nodes(0.0, 1.0, grid.size)
        _same_as_loop(lambda t: float(np.interp(t, xs, grid)), 0.0, 1.0, grid.size,
                      grid_values=grid)

    def test_near_duplicate_hit_keeps_the_smaller_residual(self):
        # two polished roots closer than (hi - lo) 1e-9 merge into one hit;
        # the later one, with the smaller residual, replaces the earlier
        xs = scan_nodes(0.0, 1.0, 3)
        gs = np.array([-1.0, 1.0, 2.0])
        merged = _gated_hits(xs, gs, [(0.25, 1e-12), (0.25 + 1e-12, 1e-14)], 1e-10)
        assert merged == [RootHit(0.25 + 1e-12, 1e-14)]
        # and the earlier one stays where its residual is the smaller
        merged = _gated_hits(xs, gs, [(0.25, 1e-14), (0.25 + 1e-12, 1e-12)], 1e-10)
        assert merged == [RootHit(0.25, 1e-14)]

    def test_nodes_between_the_roots_bracket_each_once(self):
        # sin t - t cos t = cos t (tan t - t) is +-1 at the poles (k + 1/2) pi
        # of tan and has one root between each two: on those nodes node_roots
        # finds what a dense uniform scan finds, from one bracket per root
        def g(t):
            return math.sin(t) - t * math.cos(t)

        xs = (np.arange(1, 40) + 0.5) * math.pi
        gs = np.array([g(x) for x in xs.tolist()])
        hits = node_roots(g, xs, gs, 1e-10)
        dense = find_roots(g, float(xs[0]), float(xs[-1]), scan_points=20000)
        assert len(hits) == len(dense) == xs.size - 1
        assert [h.value for h in hits] == pytest.approx([h.value for h in dense], rel=1e-14)


def _lockstep(functions, brackets, xtol):
    """_brent_lockstep over brackets (a, b) of functions[j], as Python floats or "raised"."""
    def g_rows(x):
        return np.array([[f(t) for f in functions] for t in x.tolist()]).reshape(x.size, -1)

    xa, xb = (np.array([b[i] for b in brackets]) for i in (0, 1))
    columns = np.arange(len(brackets))
    fa = np.array([f(a) for f, (a, _) in zip(functions, brackets)])
    fb = np.array([f(b) for f, (_, b) in zip(functions, brackets)])
    try:
        roots, values = _brent_lockstep(g_rows, columns, xa, xb, fa, fb, xtol, 1e-15)
    except NonConvergence:
        return "raised"
    return list(zip(roots.tolist(), values.tolist()))


def _one_by_one(functions, brackets, xtol):
    """_brent on each bracket in turn, as Python floats, or "raised" if one raises."""
    try:
        return [_brent(f, a, b, f(a), f(b), xtol, 1e-15)
                for f, (a, b) in zip(functions, brackets)]
    except NonConvergence:
        return "raised"


def _bits(outcome):
    return outcome if outcome == "raised" else [(r.hex(), v.hex()) for r, v in outcome]


class TestBrentLockstep:
    """_brent_lockstep returns, bracket by bracket, what _brent returns, to the bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["cubic", "quintic", "sin", "tan", "pole"]),
                              st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
                              st.floats(-5.0, 5.0), st.floats(1e-9, 10.0)),
                    min_size=1, max_size=6),
           st.sampled_from([1.0, 1e-200]),
           st.sampled_from([1e-14, 1e-12, 1e-10, 1e-6, 1e-2]))
    def test_same_as_brent_on_the_brentq_families(self, cases, scale, xtol):
        # at scale 1e-200 the inverse quadratic divisor underflows to 0.0,
        # which sends _brent through its ZeroDivisionError branch
        functions, brackets = [], []
        for name, p, q, a, width in cases:
            g = _family(name, p, q)
            f = (lambda t, g=g: scale * g(t))
            b = a + width
            fa, fb = f(a), f(b)
            if (b > a and math.isfinite(fa) and math.isfinite(fb)
                    and fa != 0.0 and fb != 0.0 and (fa < 0.0) != (fb < 0.0)):
                functions.append(f)
                brackets.append((a, b))
        assume(brackets)
        assert _bits(_lockstep(functions, brackets, xtol)) == _bits(
            _one_by_one(functions, brackets, xtol))

    def test_zero_divisor_bisection_and_zero_ends(self):
        functions = [
            # tiny values: every inverse quadratic divisor underflows to 0.0
            lambda t: 1e-200 * (t - 0.3) * (t + 0.7) * (t - 2.1),
            lambda t: 1e-120 * (t - 0.3) ** 5,
            # a step: |g| never falls, so every step bisects
            lambda t: -1.0 if t < 0.3 else 2.0,
            # exactly 0.0 at an end: returned without a step
            lambda t: t - 1.0,
            lambda t: t - 2.0,
            math.sin,
        ]
        brackets = [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (1.0, 3.0), (0.5, 2.0), (3.0, 3.5)]
        for xtol in (1e-12, 1e-3):
            outcome = _lockstep(functions, brackets, xtol)
            assert outcome != "raised"
            assert _bits(outcome) == _bits(_one_by_one(functions, brackets, xtol))
            assert outcome[3] == (1.0, 0.0) and outcome[4] == (2.0, 0.0)

    def test_nan_or_no_convergence_raises(self):
        nan_inside = lambda t: math.nan if 0.2 < t < 0.5 else t - 0.3
        creeping = lambda t: (t - 0.3) ** 5
        for bad in (nan_inside, creeping):
            assert _lockstep([math.sin, bad], [(3.0, 3.5), (0.0, 1.0)], 1e-12) == "raised"

    def test_no_open_bracket_makes_no_call(self):
        def g_rows(x):
            raise AssertionError("called")

        empty = np.zeros(0)
        roots, values = _brent_lockstep(g_rows, np.zeros(0, dtype=int), empty, empty,
                                        empty, empty, 1e-12, 1e-15)
        assert roots.size == values.size == 0
        roots, values = _brent_lockstep(g_rows, np.zeros(2, dtype=int), np.array([1.0, 2.0]),
                                        np.array([2.0, 3.0]), np.array([0.0, -1.0]),
                                        np.array([1.0, 0.0]), 1e-12, 1e-15)
        assert roots.tolist() == [1.0, 3.0] and values.tolist() == [0.0, 0.0]


def _sine_and_tangent(k, t):
    # sin has 63 roots on [1, 200]; tan - t has as many roots and rejects its poles
    return math.sin(t) if k == 0 else math.tan(t) - t


class TestFindRootsLockstep:
    """find_roots_lockstep gives find_roots' hits, function by function, to the bit."""

    LO, HI, POINTS = 1.0, 200.0, 400
    NODES = scan_nodes(LO, HI, POINTS)

    def _grids(self, g):
        return np.array([[g(k, x) for x in self.NODES.tolist()] for k in (0, 1)])

    def _one_by_one(self, g, grids):
        return [find_roots(lambda t, k=k: g(k, t), self.LO, self.HI, self.POINTS,
                           grid_values=grids[k]) for k in (0, 1)]

    def test_same_hits_as_find_roots_without_scalar_calls(self):
        grids = self._grids(_sine_and_tangent)
        assert sign_brackets(grids)[0].size >= LOCKSTEP_MIN_BRACKETS
        scalar_calls, row_calls = [0], [0]

        def g(k, t):
            scalar_calls[0] += 1
            return _sine_and_tangent(k, t)

        def g_rows(x):
            row_calls[0] += 1
            return np.array([[_sine_and_tangent(k, t) for k in (0, 1)] for t in x.tolist()])

        hits = find_roots_lockstep(g, g_rows, self.NODES, grids)
        assert scalar_calls[0] == 0
        assert 0 < row_calls[0] <= 100
        expected = self._one_by_one(_sine_and_tangent, grids)
        assert [[(h.value.hex(), h.residual.hex()) for h in row] for row in hits] == [
            [(h.value.hex(), h.residual.hex()) for h in row] for row in expected]
        assert len(hits[0]) == 63 and len(hits[1]) > 0

    def test_nan_inside_one_bracket_raises_the_scalar_message(self):
        grids = self._grids(_sine_and_tangent)
        # NaN inside the bracket of sin around 20 pi, between the nodes 62.34 and 62.84
        def g(k, t):
            return math.nan if k == 0 and 62.4 < t < 62.84 else _sine_and_tangent(k, t)

        def g_rows(x):
            return np.array([[g(k, t) for k in (0, 1)] for t in x.tolist()])

        with pytest.raises(NonConvergence) as scalar:
            self._one_by_one(g, grids)
        assert re.fullmatch(r"Brent polish on \[\S+, \S+\]: g is nan at \S+", str(scalar.value))
        with pytest.raises(NonConvergence) as lockstep:
            find_roots_lockstep(g, g_rows, self.NODES, grids)
        assert str(lockstep.value) == str(scalar.value)

    def test_a_raise_or_a_non_finite_grid_is_the_scalar_error(self):
        grids = self._grids(_sine_and_tangent)

        def g_rows(x):
            raise ZeroDivisionError("array form")

        assert find_roots_lockstep(_sine_and_tangent, g_rows, self.NODES,
                                   grids) == self._one_by_one(_sine_and_tangent, grids)
        grids[1, 7] = math.inf
        with pytest.raises(NonConvergence, match="scan produced 1 non-finite values"):
            find_roots_lockstep(_sine_and_tangent, g_rows, self.NODES, grids)

    def test_grid_of_wrong_shape_rejected(self):
        with pytest.raises(InvalidInput, match=r"grid_values has shape \(400,\)"):
            find_roots_lockstep(_sine_and_tangent, None, self.NODES, np.zeros(self.POINTS))


# 0 or +-10^e, from squares in the subnormal range to squares near 1e300
_norm_components = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([1.0, -1.0]),
              st.integers(-160, 150)))


class TestVectorNorm:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 4).flatmap(
        lambda n: st.lists(_norm_components, min_size=n, max_size=n)))
    def test_equals_linalg_norm_bit_for_bit(self, components):
        v = np.array(components)
        assert vector_norm(v).hex() == float(np.linalg.norm(v)).hex()

    @pytest.mark.parametrize("bad,expected", [
        (float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "inf")])
    def test_non_finite_component(self, bad, expected):
        assert str(vector_norm(np.array([1.0, bad, 0.0]))) == expected
        assert str(float(np.linalg.norm(np.array([1.0, bad, 0.0])))) == expected


class TestFdJacobian:
    def test_identity_map(self):
        jac = fd_jacobian(lambda x: x, np.array([1.0, -2.0, 3.0]))
        assert np.allclose(jac, np.eye(3), atol=1e-9)

    def test_square_and_pass_through(self):
        jac = fd_jacobian(lambda x: np.array([x[0] ** 2, x[1]]),
                          np.array([1.0, 1.0]))
        assert np.allclose(jac, np.array([[2.0, 0.0], [0.0, 1.0]]), atol=1e-6)

    def test_quadratic_exactness(self):
        A = np.array([[1.0, 2.0], [0.5, -1.0]])

        def F(x):
            return np.array([x @ A[0] + 0.3 * x[0] * x[1],
                             x @ A[1] - 0.7 * x[1] ** 2])

        x0 = np.array([0.4, -0.9])
        expected = np.array([[A[0, 0] + 0.3 * x0[1], A[0, 1] + 0.3 * x0[0]],
                             [A[1, 0], A[1, 1] - 1.4 * x0[1]]])
        jac = fd_jacobian(F, x0)
        assert np.allclose(jac, expected, atol=1e-9)

    def test_step_validation(self):
        with pytest.raises(InvalidInput):
            fd_jacobian(lambda x: x, np.array([1.0]), h=1e-12)
        with pytest.raises(InvalidInput):
            fd_jacobian(lambda x: x, np.array([1.0]), h=1e-2)


class TestRankNullspace:
    def test_identity_full_rank(self):
        result = rank_nullspace(np.eye(3))
        assert result.numeric_rank == 3
        assert len(result.nullspace_basis) == 0

    def test_rank_two_diagonal(self):
        result = rank_nullspace(np.diag([1.0, 1.0, 0.0]))
        assert result.numeric_rank == 2
        assert len(result.nullspace_basis) == 1
        assert abs(abs(result.nullspace_basis[0][2]) - 1.0) <= 1e-12

    def test_vertical_endpoint_matrix_at_two_pi(self):
        result = rank_nullspace(vertical_to_endpoint_matrix((2.0 * math.pi) ** 2))
        assert result.numeric_rank == 2
        kernel = result.nullspace_basis[0]
        assert abs(abs(kernel[0]) - 1.0) <= 1e-9
        assert np.linalg.norm(kernel[1:]) <= 1e-9

    @pytest.mark.parametrize("shape", [(3,), (0, 3), (2, 0, 3), (2, 2, 2, 2)], ids=str)
    def test_rejects_what_is_no_nonempty_matrix_or_stack(self, shape):
        with pytest.raises(InvalidInput, match=re.escape(
                f"expected a nonempty matrix or stack of matrices, got shape {shape}")):
            rank_nullspace(np.ones(shape))

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateMatrix):
            rank_nullspace(np.zeros((3, 3)))
        with pytest.raises(DegenerateMatrix):
            rank_nullspace(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_nullspace_annihilation_property(self, deficiency, seed):
        rng = np.random.default_rng(seed)
        rank = 3 - deficiency
        M = np.zeros((3, 3))
        for _ in range(max(rank, 1)):
            M += np.outer(rng.normal(size=3), rng.normal(size=3))
        if rank < 3:
            # squash onto a random rank-dimensional column/row space
            u, s, vt = np.linalg.svd(M)
            s[rank:] = 0.0
            M = (u * s) @ vt
        if not np.any(M):
            return
        result = rank_nullspace(M)
        norm = np.linalg.norm(M, 2)
        for vec in result.nullspace_basis:
            assert np.linalg.norm(M @ vec) <= 1e-7 * norm * 10.0
