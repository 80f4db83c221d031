"""Covector parsing shared by the SU(2) and SL(2) structures (contact.py)."""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import numpy as np
import pytest

from srfolds import (DegenerateCovector, InvalidInput, fd_jacobian, sl2_adapter, sl2_conj_f,
                     sl2_conj_grad, sl2_exp, sl2_frame_images, sl2_jacobi, sl2_kernel,
                     su2_adapter, su2_conj_f, su2_conj_grad, su2_exp, su2_jacobi, su2_kernel)
from srfolds.numeric import finite_covector
from srfolds.scfun import propagate_linear_jacobi
from srfolds.state import JacobiCoords


class NamedCovector(NamedTuple):
    """A caller's own covector record: finite_covector takes any 3-sequence."""
    u0: float
    v0: float
    w0: float


CONTAINERS = pytest.mark.parametrize("make", [tuple, list, np.array],
                                     ids=["tuple", "list", "ndarray"])


class TestCovTriple:
    @CONTAINERS
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_component(self, make, bad, slot):
        values = [1.0, 0.5, 2.0]
        values[slot] = bad
        for parse in (lambda c: finite_covector(c, 3), lambda c: su2_exp(c, 1.0),
                      lambda c: sl2_exp(c, 1.0), su2_conj_f, sl2_conj_f):
            with pytest.raises(InvalidInput, match="finite"):
                parse(make(values))

    @CONTAINERS
    @pytest.mark.parametrize("values", [[], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
    def test_wrong_length(self, make, values):
        for parse in (lambda c: finite_covector(c, 3), lambda c: su2_exp(c, 1.0),
                      lambda c: sl2_exp(c, 1.0)):
            with pytest.raises(InvalidInput, match="covector must have 3 finite real components"):
                parse(make(values))

    @pytest.mark.parametrize("cov", [
        (1, 0.5, 2), [1.0, 0.5, 2.0], np.array([1.0, 0.5, 2.0]),
        np.array([1.0, 0.5, 2.0], dtype=np.float32), NamedCovector(1.0, 0.5, 2.0),
        NamedCovector(1, 0.5, 2), (np.float32(1.0), np.float64(0.5), 2)])
    def test_values_are_python_floats(self, cov):
        parsed = finite_covector(cov, 3)
        assert parsed == (1.0, 0.5, 2.0)
        assert all(type(c) is float for c in parsed)


class TestJacobiCoords:
    @pytest.mark.parametrize("p,x", [((1.0, 0.0, 0.0), (0.0, 0.0)), ((1.0,), (0.0, 0.0))],
                             ids=["3-2", "1-2"])
    def test_unequal_lengths_rejected(self, p, x):
        with pytest.raises(InvalidInput, match=re.escape(
                f"p and x must have equal length, got {len(p)} and {len(x)}")):
            JacobiCoords(p=p, x=x)

    @pytest.mark.parametrize("jacobi", [su2_jacobi, sl2_jacobi], ids=["su2", "sl2"])
    def test_group_data_that_is_not_three_component_rejected(self, jacobi):
        for n in (2, 4):
            with pytest.raises(InvalidInput, match="group Jacobi data has three momentum components"):
                jacobi((1.0, 0.5, 2.0), JacobiCoords(p=(1.0,) * n, x=(0.0,) * n), 1.0)


class TestOverflowingCurvature:
    @pytest.mark.parametrize("cov", [(1e200, 0.0, 1e200), (0.0, 1e200, 1.0), (1.0, 0.0, 1e300)],
                             ids=str)
    def test_every_group_function_raises_invalid_input(self, cov):
        # finite components whose squares overflow: no bare math error, NaN
        # f-value, NaN kernel or NaN Jacobi field, on either group
        start = JacobiCoords(p=(1.0, 0.0, 0.0), x=(0.0, 0.0, 0.0))
        for call in (lambda c: su2_exp(c, 1.0), lambda c: sl2_exp(c, 1.0),
                     su2_conj_f, su2_kernel, su2_conj_grad, su2_adapter().chart_jacobian,
                     lambda c: su2_jacobi(c, start, 1.0),
                     sl2_conj_f, sl2_kernel, sl2_conj_grad, sl2_adapter().chart_jacobian,
                     lambda c: sl2_jacobi(c, start, 1.0)):
            with pytest.raises(InvalidInput, match="overflows"):
                call(cov)

    @pytest.mark.parametrize("cov", [(1e4, 0.0, 1.0), (0.0, -1e4, 1.0)], ids=str)
    def test_deep_hyperbolic_sl2_covector_raises_invalid_input(self, cov):
        # finite r far below 0: sinh and cosh of sqrt(-r)/2 overflow; no bare
        # math error from any SL(2) function that evaluates them
        start = JacobiCoords(p=(1.0, 0.0, 0.0), x=(0.0, 0.0, 0.0))
        for call in (lambda c: sl2_exp(c, 1.0), lambda c: sl2_jacobi(c, start, 1.0),
                     sl2_frame_images, sl2_adapter().chart_jacobian, sl2_conj_f, sl2_kernel):
            with pytest.raises(InvalidInput, match="overflows"):
                call(cov)

    @pytest.mark.parametrize("name,cov,t,finite_t", [
        ("su2_exp", (0.0, 0.0, 2.0), 1e308, 1e307),
        ("sl2_exp", (0.0, 0.0, 2.0), 1e308, 1e307),
        ("sl2_exp", (1e150, 0.0, 0.0), 1e300, 1e-151),
        ("su2_jacobi", (2.0, 0.0, 0.0), 1e308, 1e307),
        ("sl2_jacobi", (2.0, 0.0, 0.0), 1e308, 100.0),
        ("sl2_jacobi", (1e150, 0.0, 0.0), 1e300, 1e-151),
    ], ids=str)
    def test_finite_time_whose_phase_overflows_raises_invalid_input(self, name, cov, t, finite_t):
        # finite covector and t, but a phase (rho t, w0 t or sqrt(|r|) t)
        # that overflows: no bare math error, NaN Jacobi field or NaN
        # determinant; the same covector at a finite phase still evaluates
        start = JacobiCoords(p=(1.0, 0.0, 0.0), x=(0.0, 0.0, 0.0))
        function = {"su2_exp": su2_exp, "sl2_exp": sl2_exp,
                    "su2_jacobi": lambda c, t: su2_jacobi(c, start, t),
                    "sl2_jacobi": lambda c, t: sl2_jacobi(c, start, t)}[name]
        with pytest.raises(InvalidInput, match="overflows|must be finite"):
            function(cov, t)
        out = function(cov, finite_t)
        values = [*out[0].entries(), *out[1]] if name.endswith("_exp") else [*out.p, *out.x]
        assert np.isfinite(values).all()

    @pytest.mark.parametrize("call", [
        lambda: su2_jacobi((1.0, 0.0, 0.5), JacobiCoords(p=(0.0, 2.0, 0.0), x=(0.0,) * 3), 1e308),
        lambda: su2_jacobi((1.0, 0.0, 0.5), JacobiCoords(p=(0.0, 0.0, 3.0), x=(0.0,) * 3), 1e308),
        lambda: sl2_jacobi((0.3, 0.0, 1.0), JacobiCoords(p=(0.0, 2.0, 0.0), x=(0.0,) * 3), 1e308),
        lambda: propagate_linear_jacobi(1e-300, (0.0, 0.0, 1.0), (0.0, 0.0, 0.0), 1e200),
    ], ids=["su2-x_b-inf", "su2-x_c-minus-inf", "sl2-x_b-inf", "propagator-nan"])
    def test_jacobi_field_that_outgrows_the_doubles_raises_invalid_input(self, call):
        # finite phases, but x_b = p_b t overflows, x_c's p_c t^2 / 2 does,
        # or at r = 1e-300 the ratio (t - s) / r is inf and x_a and x_c nan
        with pytest.raises(InvalidInput, match="Jacobi field outgrows the doubles"):
            call()

    def test_sl2_f0_that_overflows_is_no_nan(self):
        # sqrt(-r)/2 just under 710: cosh and sinh are finite, but
        # sqrt(-r) cosh - 2 sinh is inf - inf
        for call in (sl2_conj_f, sl2_kernel):
            with pytest.raises(InvalidInput, match="f0 overflows"):
                call((1420.0, 0.0, 1.0))


class TestEntryChart:
    @pytest.mark.parametrize("adapter,exp", [(su2_adapter(), su2_exp), (sl2_adapter(), sl2_exp)],
                             ids=["su2", "sl2"])
    @pytest.mark.parametrize("cov", [(1.0, 0.0, 0.5), (0.4, -0.3, 1.5), (-3.87, 2.51, 3.3),
                                     (1.32, 3.01, -3.35), (1.2, 0.5, 0.3), (0.0, 0.0, 0.0)],
                             ids=str)
    def test_chart_is_the_endpoint_entries(self, adapter, exp, cov):
        # no selection: the chart reads all four entries wherever it is evaluated
        entries = np.array(exp(cov, 1.0)[0].entries())
        assert adapter.chart(cov).tobytes() == entries.tobytes()
        points = np.array([[cov, cov]], dtype=float)
        assert adapter.chart_array(points).shape == (1, 2, 4)
        assert adapter.chart_array(points)[0, 1].tobytes() == entries.tobytes()


class TestEqualHorizontalComponents:
    """Covectors with |u0| = |v0|: nothing there is degenerate."""

    @pytest.mark.parametrize("conj_f,conj_grad", [(su2_conj_f, su2_conj_grad),
                                                  (sl2_conj_f, sl2_conj_grad)],
                             ids=["su2", "sl2"])
    @pytest.mark.parametrize("cov", [(1.0, 1.0, 2.5), (0.7, -0.7, 3.1), (-2.0, -2.0, 4.0)],
                             ids=str)
    def test_conj_grad_matches_fd_of_strata(self, conj_f, conj_grad, cov):
        # every covector here has r > 0 on both groups
        grads = np.array(conj_grad(cov))
        # the last two values are (f0, f1) on both groups
        fd = fd_jacobian(lambda c: np.array(conj_f(c)[-2:]), np.array(cov))
        assert np.abs(grads - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


class TestChartJacobianDegenerate:
    @pytest.mark.parametrize("adapter", [su2_adapter(), sl2_adapter()], ids=["su2", "sl2"])
    def test_raises_at_h_zero(self, adapter):
        # the canonical frame, and so the closed-form differential, needs H > 0
        with pytest.raises(DegenerateCovector, match="H = 0"):
            adapter.chart_jacobian(np.array([0.0, 0.0, 1.5]))
