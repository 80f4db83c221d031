"""Generalized trigonometric functions: half-period, evaluation, inversion."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srfolds import (InvalidInput, OdeProblem, arc_alpha, find_roots,
                     integrate, pi_alpha, sin_cos_alpha)
from srfolds.alphatrig import (_pi_alpha_quadrature, arc_alpha_array, arc_cos_alpha,
                               arc_cos_alpha_array, sin_cos_alpha_array)

PI_15 = 2.8043642106509084
PI_2 = 2.6220575542921196
PI_3 = 2.4286506478875816


def _ode_half_period(alpha: float) -> float:
    """First positive zero of the generalized sine, by direct ODE integration."""
    def field(t, y):
        f, df = y
        force = 0.0 if f == 0.0 else abs(f) ** (2.0 * (alpha - 1.0)) * f
        return np.array([df, -alpha * force])

    guess = pi_alpha(alpha)
    problem = OdeProblem(dimension=2, vector_field=field,
                         initial_state=np.array([0.0, 1.0]),
                         t_span=(0.0, 1.4 * guess))
    traj = integrate(problem)
    hits = find_roots(lambda t: float(traj(t)[0]), 0.5 * guess, 1.4 * guess,
                      scan_points=200)
    assert len(hits) == 1
    return hits[0].value


class TestPiAlpha:
    def test_classical_value(self):
        assert pi_alpha(1.0) == pytest.approx(math.pi, abs=1e-12)

    def test_quartic_value(self):
        assert abs(pi_alpha(2.0) - PI_2) <= 1e-6

    @pytest.mark.parametrize("alpha,frozen", [(1.5, PI_15), (2.0, PI_2), (3.0, PI_3)])
    def test_frozen_values(self, alpha, frozen):
        assert abs(pi_alpha(alpha) - frozen) <= 1e-10

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_matches_ode_half_period(self, alpha):
        assert abs(pi_alpha(alpha) - _ode_half_period(alpha)) <= 1e-7

    def test_alpha_validation(self):
        with pytest.raises(InvalidInput):
            pi_alpha(0.5)


class TestSinCosAlpha:
    def test_classical_quarter_period(self):
        s, c = sin_cos_alpha(1.0, math.pi / 2.0)
        assert s == pytest.approx(1.0, abs=1e-12)
        assert c == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_initial_condition(self, alpha):
        s, c = sin_cos_alpha(alpha, 0.0)
        assert s == 0.0
        assert c == 1.0

    def test_quartic_quarter_period(self):
        s, c = sin_cos_alpha(2.0, pi_alpha(2.0) / 2.0)
        assert abs(s - 1.0) <= 1e-9
        assert abs(c - 0.0) <= 1e-9

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
    def test_energy_identity_on_grid(self, alpha):
        period = 2.0 * pi_alpha(alpha)
        ts = np.linspace(-period, period, 257)
        for t in ts:
            s, c = sin_cos_alpha(alpha, float(t))
            assert abs(abs(s) ** (2.0 * alpha) + c * c - 1.0) <= 1e-10

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_periodicity(self, alpha):
        period = 2.0 * pi_alpha(alpha)
        for t in np.linspace(-period, period, 41):
            s0, c0 = sin_cos_alpha(alpha, float(t))
            s1, c1 = sin_cos_alpha(alpha, float(t) + period)
            assert abs(s1 - s0) <= 1e-9
            assert abs(c1 - c0) <= 1e-9

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_parity(self, alpha):
        for t in np.linspace(0.05, 2.0 * pi_alpha(alpha), 37):
            s_pos, c_pos = sin_cos_alpha(alpha, float(t))
            s_neg, c_neg = sin_cos_alpha(alpha, -float(t))
            assert abs(s_neg + s_pos) <= 1e-9
            assert abs(c_neg - c_pos) <= 1e-9

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_ode_residual_second_difference(self, alpha):
        h = 1e-3
        for t in (np.arange(1, 30) + 0.13) * (pi_alpha(alpha) / 15.0):
            sm = sin_cos_alpha(alpha, float(t) - h)[0]
            s0 = sin_cos_alpha(alpha, float(t))[0]
            sp = sin_cos_alpha(alpha, float(t) + h)[0]
            second = (sp - 2.0 * s0 + sm) / (h * h)
            force = -alpha * abs(s0) ** (2.0 * (alpha - 1.0)) * s0
            assert abs(second - force) <= 1e-6


class TestArcAlpha:
    def test_classical_quarter(self):
        assert arc_alpha(1.0, 1.0, +1.0) == pytest.approx(math.pi / 2.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_zero_with_positive_cosine(self, alpha):
        assert arc_alpha(alpha, 0.0, +1.0) == pytest.approx(0.0, abs=1e-12)

    def test_second_quadrant_roundtrip(self):
        phi = arc_alpha(2.0, 0.5, -1.0)
        s, c = sin_cos_alpha(2.0, phi)
        assert abs(s - 0.5) <= 1e-9
        assert c < 0.0

    def test_domain_validation(self):
        with pytest.raises(InvalidInput):
            arc_alpha(2.0, 1.5, +1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           st.floats(min_value=-0.95, max_value=0.95),
           st.sampled_from([1.0, -1.0]))
    def test_forward_consistency_property(self, alpha, s, c_sign):
        phi = arc_alpha(alpha, s, c_sign)
        s_back, c_back = sin_cos_alpha(alpha, phi)
        assert abs(s_back - s) <= 1e-9
        assert c_back * c_sign >= 0.0
        assert 0.0 <= phi < 2.0 * pi_alpha(alpha)


class TestArcCosAlpha:
    """The phase of a given cos_alpha, inverted through the complementary form."""

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 3.0, 7.5])
    def test_ends_of_the_quarter(self, alpha):
        assert arc_cos_alpha(alpha, 0.0) == pi_alpha(alpha) / 2.0
        assert arc_cos_alpha(alpha, 1.0) == 0.0

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 3.0, 7.5])
    @pytest.mark.parametrize("c", [1e-12, 1e-7, 0.3, 0.7])
    def test_roundtrip_through_cos(self, alpha, c):
        # the phase sits next to the quarter period, so its rounding bounds
        # the roundtrip in absolute terms
        s_back, c_back = sin_cos_alpha(alpha, arc_cos_alpha(alpha, c))
        assert abs(c_back - c) <= 1e-15
        assert s_back > 0.0

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("c", [0.3, 0.7])
    def test_agrees_with_arc_alpha(self, alpha, c):
        s = (1.0 - c * c) ** (1.0 / (2.0 * alpha))
        assert abs(arc_cos_alpha(alpha, c) - arc_alpha(alpha, s, +1.0)) <= 1e-14

    def test_alpha_one_is_acos(self):
        assert arc_cos_alpha(1.0, 0.25) == math.acos(0.25)

    @pytest.mark.parametrize("c", [-0.1, 1.1, float("nan")])
    def test_domain_validation(self, c):
        with pytest.raises(InvalidInput):
            arc_cos_alpha(2.0, c)


class TestAlphaTrigTable:
    """The per-alpha constants behind the beta-function closed form."""

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_monotone_quarter_samples(self, alpha):
        quarter = pi_alpha(alpha) / 2.0
        ts = np.linspace(0.0, quarter, 2049)
        ss = [sin_cos_alpha(alpha, float(t))[0] for t in ts]
        assert np.all(np.diff(ss) > 0.0)
        assert ss[0] == 0.0
        assert abs(ss[-1] - 1.0) <= 1e-15

    def test_classical_table_value(self):
        assert pi_alpha(1.0) == math.pi

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 7.5])
    def test_beta_form_matches_quadrature(self, alpha):
        assert abs(pi_alpha(alpha) - _pi_alpha_quadrature(alpha)) <= 1e-12

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 7.5])
    def test_arc_of_one_is_exact_quarter(self, alpha):
        assert arc_alpha(alpha, 1.0, +1.0) == pi_alpha(alpha) / 2.0

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 7.5])
    @pytest.mark.parametrize("d", [1e-12, 1e-9])
    def test_cos_relative_precision_at_quarter(self, alpha, d):
        # cos_alpha(q - dd) = alpha dd (1 + O(dd^2)) next to the quarter period
        t = pi_alpha(alpha) / 2.0 - d
        dd = pi_alpha(alpha) / 2.0 - t
        assert abs(sin_cos_alpha(alpha, t)[1] / (alpha * dd) - 1.0) <= 1e-14

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 7.5])
    @pytest.mark.parametrize("t", [1e-30, 1e-12, 1e-8, 1e-5])
    def test_sin_relative_precision_at_zero(self, alpha, t):
        # 1e-30 puts sin_alpha^(2 alpha) below the smallest normal double at 7.5
        assert abs(sin_cos_alpha(alpha, t)[0] / t - 1.0) <= 1e-14
        assert abs(arc_alpha(alpha, t, +1.0) / t - 1.0) <= 1e-14


class TestArrayForms:
    """The array forms return the scalar functions' values bit for bit.

    numpy's power, log and arcsin differ from the C library by an ulp on a
    few percent of inputs, so a few thousand samples per alpha catch an array
    form that uses them.
    """

    ALPHAS = [1.0, 1.5, 2.0, 2.5, 3.0, 7.5]

    @staticmethod
    def _unit_samples(rng):
        # uniform, clustered at both ends of [0, 1], and the exact ends
        u = rng.uniform(0.0, 1.0, 3000)
        return np.concatenate([u, u ** 8, 1.0 - u ** 8, 10.0 ** -rng.uniform(0, 300, 500),
                               [0.0, 1.0]])

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_sin_cos(self, alpha):
        rng = np.random.default_rng(1)
        half = pi_alpha(alpha)
        t = np.concatenate([rng.uniform(-4.0 * half, 4.0 * half, 4000),
                            half * np.arange(-8, 9) / 2.0, [0.0, -0.0, 1e-300, -1e-300]])
        s_arr, c_arr = sin_cos_alpha_array(alpha, t)
        s_ref, c_ref = np.array([sin_cos_alpha(alpha, v) for v in t.tolist()]).T
        assert s_arr.tobytes() == s_ref.tobytes()
        assert c_arr.tobytes() == c_ref.tobytes()

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_arc(self, alpha):
        s = self._unit_samples(np.random.default_rng(2))
        ref = np.array([arc_alpha(alpha, v, 1.0) for v in s.tolist()])
        assert arc_alpha_array(alpha, s).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_arc_cos(self, alpha):
        c = self._unit_samples(np.random.default_rng(3))
        ref = np.array([arc_cos_alpha(alpha, v) for v in c.tolist()])
        assert arc_cos_alpha_array(alpha, c).tobytes() == ref.tobytes()
