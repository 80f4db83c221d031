"""Covector parsing shared by the SU(2) and SL(2) structures (contact.py)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from srfolds import (InvalidInput, sl2_adapter, sl2_conj_f, sl2_conj_grad, sl2_exp,
                     sl2_frame_images, sl2_jacobi, sl2_kernel, su2_adapter, su2_conj_f,
                     su2_conj_grad, su2_exp, su2_kernel)
from srfolds.contact import ContactCovector, cov_triple
from srfolds.state import JacobiCoords

CONTAINERS = pytest.mark.parametrize("make", [tuple, list, np.array],
                                     ids=["tuple", "list", "ndarray"])


class TestCovTriple:
    @CONTAINERS
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_component(self, make, bad, slot):
        values = [1.0, 0.5, 2.0]
        values[slot] = bad
        for parse in (cov_triple, lambda c: su2_exp(c, 1.0), lambda c: sl2_exp(c, 1.0),
                      su2_conj_f, sl2_conj_f):
            with pytest.raises(InvalidInput, match="finite"):
                parse(make(values))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("cls", [ContactCovector])
    def test_non_finite_covector_object(self, cls, bad):
        with pytest.raises(InvalidInput, match="finite"):
            cls(1.0, bad, 2.0)

    @CONTAINERS
    @pytest.mark.parametrize("values", [[], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
    def test_wrong_length(self, make, values):
        for parse in (cov_triple, lambda c: su2_exp(c, 1.0), lambda c: sl2_exp(c, 1.0)):
            with pytest.raises(ValueError, match="values to unpack"):
                parse(make(values))

    @pytest.mark.parametrize("cov", [
        (1, 0.5, 2), [1.0, 0.5, 2.0], np.array([1.0, 0.5, 2.0]),
        np.array([1.0, 0.5, 2.0], dtype=np.float32), ContactCovector(1.0, 0.5, 2.0),
        ContactCovector(1, 0.5, 2), (np.float32(1.0), np.float64(0.5), 2)])
    def test_values_are_python_floats(self, cov):
        parsed = cov_triple(cov)
        assert parsed == (1.0, 0.5, 2.0)
        assert all(type(c) is float for c in parsed)


class TestOverflowingCurvature:
    @pytest.mark.parametrize("cov", [(1e200, 0.0, 1e200), (0.0, 1e200, 1.0), (1.0, 0.0, 1e300)],
                             ids=str)
    def test_every_group_function_raises_invalid_input(self, cov):
        # finite components whose squares overflow: no bare math error, NaN
        # f-value or NaN kernel, on either group
        for call in (lambda c: su2_exp(c, 1.0), lambda c: sl2_exp(c, 1.0),
                     su2_conj_f, su2_kernel, su2_conj_grad,
                     sl2_conj_f, sl2_kernel, sl2_conj_grad):
            with pytest.raises(InvalidInput, match="overflows"):
                call(cov)

    @pytest.mark.parametrize("cov", [(1e4, 0.0, 1.0), (0.0, -1e4, 1.0)], ids=str)
    def test_deep_hyperbolic_sl2_covector_raises_invalid_input(self, cov):
        # finite r far below 0: sinh and cosh of sqrt(-r)/2 overflow; no bare
        # math error from any SL(2) function that evaluates them
        start = JacobiCoords(p=(1.0, 0.0, 0.0), x=(0.0, 0.0, 0.0))
        for call in (lambda c: sl2_exp(c, 1.0), lambda c: sl2_jacobi(c, start, 1.0),
                     sl2_frame_images, sl2_conj_f, sl2_kernel):
            with pytest.raises(InvalidInput, match="overflows"):
                call(cov)

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
