"""Unit tests for the generic conjugate-locus scanner and classifier.

The scanner is exercised through all three structure adapters. Expected radii
on the SU(2) ray are frozen from the closed forms: the first stratum's roots
sit at full turns of the horizontal oscillation (s = 2 pi k for a unit
direction), the second stratum's at twice the positive fixed points of the
tangent, 8.986818915818128 and 15.450503673875414. On the SL(2) ray with unit
direction d the same radii appear rescaled by 1 / sqrt(r(d)), where
r(d) = dw^2 - du^2 - dv^2 must be positive for conjugate points to exist at
all. Classification outcomes are checked against the transversality dichotomy
and certified independently: folds through explicit two-preimage witnesses,
tangential points through the mixed second-derivative norm.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srfolds import (ConjugateRecord, DegenerateCovector, FoldWitness, InvalidInput,
                     SingularityClass, WitnessNotFound, classify,
                     fd_jacobian, fold_witness, grushin_adapter, scan_ray,
                     second_order_transversality, sl2_adapter, su2_adapter)
from srfolds.contact import ContactGroup, curvature
from srfolds.numeric import DEFAULT_SCAN_POINTS, finite_covector, rank_nullspace
import srfolds.grushin as grushin_module
import srfolds.numeric as numeric_module
import srfolds.oracles as oracles_module
import srfolds.singularity as singularity_module
import srfolds.sl2 as sl2_module
import srfolds.su2 as su2_module
from srfolds.grushin import GrushinBase, grushin_jacobi, grushin_kernel
from srfolds.scfun import vertical_to_endpoint_matrix
from srfolds.singularity import LOCKSTEP_MIN_BRACKETS, SECOND_ORDER_TOL
from srfolds.state import JacobiCoords

TWO_PI = 6.283185307179586
C0_RHO_1 = 8.986818915818128
C0_RHO_2 = 15.450503673875414

SU2_RAY = (1.0, 0.0, 0.5)
SU2_RADII = (TWO_PI, C0_RHO_1, 2.0 * TWO_PI, C0_RHO_2, 3.0 * TWO_PI)
SU2_STRATA = ("C1", "C0", "C1", "C0", "C1")

# unit vector of (1, 0, 2) has r = (2^2 - 1^2) / 5 = 3/5
SL2_RAY = (1.0, 0.0, 2.0)
SL2_SQRT_R = math.sqrt(0.6)


def _unit(direction):
    d = np.asarray(direction, dtype=float)
    return d / np.linalg.norm(d)


@pytest.fixture(scope="module")
def su2():
    return su2_adapter()


@pytest.fixture(scope="module")
def sl2():
    return sl2_adapter()


@pytest.fixture(scope="module")
def grushin():
    return grushin_adapter(GrushinBase(1.0, 1.0, 0.0))


@pytest.fixture(scope="module")
def su2_records(su2):
    return scan_ray(su2, SU2_RAY, 20.0)


@pytest.fixture(scope="module")
def sl2_records(sl2):
    return scan_ray(sl2, SL2_RAY, 14.0)


@pytest.fixture(scope="module")
def grushin_fold_records(grushin):
    return scan_ray(grushin, (0.4, 1.0), 10.0)


class TestScanRay:
    def test_su2_ray_radii_and_strata(self, su2_records):
        assert len(su2_records) == len(SU2_RADII)
        for rec, s_expect, stratum in zip(su2_records, SU2_RADII, SU2_STRATA):
            assert rec.s == pytest.approx(s_expect, abs=1e-8)
            assert rec.stratum == stratum
            assert rec.order == 1

    def test_records_sorted_and_distinct(self, su2_records):
        s_values = [rec.s for rec in su2_records]
        assert s_values == sorted(s_values)
        assert min(np.diff(s_values)) > 1.0

    def test_covector_lies_on_ray(self, su2_records):
        d = _unit(SU2_RAY)
        for rec in su2_records:
            np.testing.assert_allclose(rec.covector, rec.s * d, rtol=1e-12)

    def test_direction_scale_invariance(self, su2, su2_records):
        # normalization of the scaled direction may differ in the last ulp,
        # so the refined roots agree to rounding rather than bitwise
        scaled = scan_ray(su2, tuple(7.5 * c for c in SU2_RAY), 20.0)
        assert [rec.s for rec in scaled] == pytest.approx(
            [rec.s for rec in su2_records], rel=1e-12)

    def test_sl2_ray_radii_and_strata(self, sl2_records):
        assert len(sl2_records) == 2
        first, second = sl2_records
        assert first.s == pytest.approx(TWO_PI / SL2_SQRT_R, rel=1e-9)
        assert first.stratum == "C1"
        assert second.s == pytest.approx(C0_RHO_1 / SL2_SQRT_R, rel=1e-9)
        assert second.stratum == "C0"
        assert all(rec.order == 1 for rec in sl2_records)

    def test_sl2_nonpositive_r_ray_is_empty(self, sl2):
        assert scan_ray(sl2, (1.0, -0.5, -1.0), 10.0) == []
        assert scan_ray(sl2, (1.0, 0.0, 1.0), 10.0) == []  # r = 0 exactly

    def test_sl2_vertical_ray_is_empty(self, sl2):
        assert scan_ray(sl2, (0.0, 0.0, 1.0), 10.0) == []

    def test_grushin_ray_with_zero_v_is_empty(self, grushin):
        assert scan_ray(grushin, (1.0, 0.0), 10.0) == []

    def test_grushin_vertical_ray_radii(self, grushin):
        # u0 = 0 from x0 = 1, alpha = 1: conjugate radii at multiples of pi
        records = scan_ray(grushin, (0.0, 1.0), 10.0)
        assert [rec.s for rec in records] == pytest.approx(
            [math.pi, 2.0 * math.pi, 3.0 * math.pi], abs=1e-8)
        assert all(rec.order == 1 for rec in records)

    def test_grushin_no_record_at_first_grid_node(self):
        # f rounds to exactly 0.0 at the first scan node of this ray,
        # s = 20 * RAY_ORIGIN_OFFSET, without changing sign there; the scan
        # must give the records the same ray gives when scanned further
        adapter = grushin_adapter(GrushinBase(3.0, 0.0, 0.0))
        direction = (math.cos(0.9), math.sin(0.9))
        short = scan_ray(adapter, direction, 20.0)
        longer = scan_ray(adapter, direction, 40.0)
        assert [rec.s for rec in short] == pytest.approx(
            [rec.s for rec in longer if rec.s <= 20.0], abs=1e-8)

    def test_grushin_generic_ray_has_folds(self, grushin_fold_records):
        assert len(grushin_fold_records) == 2
        for rec in grushin_fold_records:
            assert rec.order == 1
            assert rec.stratum == "C0"
            assert rec.singularity_class is SingularityClass.FOLD

    def test_scan_is_deterministic(self, su2, su2_records):
        again = scan_ray(su2, SU2_RAY, 20.0)
        assert [rec.s for rec in again] == [rec.s for rec in su2_records]
        for rec, ref in zip(again, su2_records):
            assert np.array_equal(rec.covector, ref.covector)
            assert rec.singularity_class is ref.singularity_class

    def test_kernel_annihilated_by_chart_jacobian(self, su2, su2_records):
        for rec in su2_records:
            jac = fd_jacobian(su2.chart, rec.covector)
            sigma_max = np.linalg.svd(jac, compute_uv=False)[0]
            kern = rec.kernel_basis[0]
            residual = np.linalg.norm(jac @ kern) / np.linalg.norm(kern)
            assert residual <= 1e-6 * sigma_max

    def test_active_stratum_function_vanishes(self, su2, su2_records):
        for rec in su2_records:
            idx = su2.stratum_names.index(rec.stratum)
            assert abs(rec.f_values[idx]) <= 1e-8 * max(1.0, rec.s)

    def test_order_matches_kernel_basis(self, su2_records, sl2_records,
                                        grushin_fold_records):
        for rec in su2_records + sl2_records + grushin_fold_records:
            assert rec.order == len(rec.kernel_basis)

    @pytest.mark.parametrize("direction", [(0.0, 0.0, 0.0), (1.0, float("nan"), 0.0)])
    def test_bad_direction_rejected(self, su2, direction):
        with pytest.raises(InvalidInput):
            scan_ray(su2, direction, 10.0)

    @pytest.mark.parametrize("k", [-1000, 600, 1000])
    @pytest.mark.parametrize("make_adapter,direction,s_max", [
        (su2_adapter, SU2_RAY, 20.0),
        (sl2_adapter, SL2_RAY, 14.0),
        (lambda: grushin_adapter(GrushinBase(2.5, 0.5, 0.0)),
         (math.cos(0.9), math.sin(0.9)), 20.0),
    ], ids=["su2", "sl2", "grushin"])
    def test_direction_whose_norm_overflows_or_underflows(self, make_adapter, direction,
                                                          s_max, k):
        # |2^k d| overflows (k = 600, 1000) or underflows (k = -1000); an exact
        # power-of-two rescale leaves the unit direction, so the records, as is
        adapter = make_adapter()
        expected = scan_ray(adapter, direction, s_max)
        records = scan_ray(adapter, tuple(2.0 ** k * c for c in direction), s_max)
        assert len(records) == len(expected) >= 2
        for rec, ref in zip(records, expected):
            assert (rec.s, rec.stratum, rec.order, rec.f_values, rec.singularity_class) == (
                ref.s, ref.stratum, ref.order, ref.f_values, ref.singularity_class)
            assert rec.covector.tobytes() == ref.covector.tobytes()
            assert [v.tobytes() for v in rec.kernel_basis] == [
                v.tobytes() for v in ref.kernel_basis]

    @pytest.mark.parametrize("make_adapter,direction,reference", [
        (su2_adapter, (1e200, 0.0, 5e199), SU2_RAY),
        (su2_adapter, (3e-320, 0.0, 1.5e-320), SU2_RAY),
        (lambda: grushin_adapter(GrushinBase(1.0, 1.0, 0.0)), (1e308, 1e308), (1.0, 1.0)),
    ], ids=["su2-huge", "su2-subnormal", "grushin-huge"])
    def test_extreme_finite_direction_scans(self, make_adapter, direction, reference):
        adapter = make_adapter()
        records = scan_ray(adapter, direction, 20.0)
        expected = scan_ray(adapter, reference, 20.0)
        assert records
        assert [(rec.stratum, rec.singularity_class) for rec in records] == [
            (rec.stratum, rec.singularity_class) for rec in expected]
        assert [rec.s for rec in records] == pytest.approx([rec.s for rec in expected],
                                                           rel=1e-12)

    def test_wrong_arity_rejected(self, su2, grushin):
        with pytest.raises(InvalidInput):
            scan_ray(su2, (1.0, 0.0), 10.0)
        with pytest.raises(InvalidInput):
            scan_ray(grushin, (1.0, 0.0, 0.5), 10.0)

    @pytest.mark.parametrize("s_max", [0.0, -3.0, float("nan")])
    def test_bad_s_max_rejected(self, su2, s_max):
        with pytest.raises(InvalidInput):
            scan_ray(su2, SU2_RAY, s_max)

    @pytest.mark.parametrize("make_adapter,direction", [
        (su2_adapter, (1.0, 0.0, 0.5)),
        (sl2_adapter, (1.0, 0.0, 2.0)),
        (lambda: grushin_adapter(GrushinBase(2.0, 0.5, 0.0)), (1.0, 1.0)),
    ], ids=["su2", "sl2", "grushin"])
    def test_s_max_whose_grid_energy_underflows_rejected(self, make_adapter, direction):
        # the gate lets these rays in, but at s_max = 1e-160 the energy of the
        # first grid covectors (about 1e-164 in size) underflows to 0
        with pytest.raises(InvalidInput, match=r"^s_max = 1e-160 is too small"):
            scan_ray(make_adapter(), direction, 1e-160)

    @pytest.mark.parametrize("scan_points", [2.5, 400.0, "400"], ids=repr)
    def test_non_integer_scan_points_rejected(self, su2, scan_points):
        with pytest.raises(InvalidInput, match="scan_points must be an integer"):
            scan_ray(su2, SU2_RAY, 20.0, scan_points=scan_points)


class TestClassify:
    def test_su2_alternation(self, su2_records):
        classes = [rec.singularity_class for rec in su2_records]
        assert classes == [SingularityClass.TANGENTIAL, SingularityClass.FOLD,
                           SingularityClass.TANGENTIAL, SingularityClass.FOLD,
                           SingularityClass.TANGENTIAL]

    def test_sl2_classes(self, sl2_records):
        assert sl2_records[0].singularity_class is SingularityClass.TANGENTIAL
        assert sl2_records[1].singularity_class is SingularityClass.FOLD

    @pytest.mark.parametrize("make_adapter,ray,s_max", [
        (su2_adapter, SU2_RAY, 20.0),
        (sl2_adapter, SL2_RAY, 14.0),
        (lambda: grushin_adapter(GrushinBase(2.5, 0.5, 0.0)),
         (math.cos(0.9), math.sin(0.9)), 20.0),
        # u0 = 0: every pairing vanishes, so the planar records read Undetermined
        (lambda: grushin_adapter(GrushinBase(1.0, 0.5, 0.0)), (0.0, 1.0), 20.0),
    ], ids=["su2", "sl2", "grushin", "grushin-vertical"])
    def test_classify_matches_scan(self, make_adapter, ray, s_max):
        # public classify recomputes what scan_ray hands its decision directly
        adapter = make_adapter()
        records = scan_ray(adapter, ray, s_max)
        assert len(records) >= 2
        for rec in records:
            assert classify(adapter, rec) is rec.singularity_class

    def test_su2_planar_second_stratum_undetermined(self, su2):
        # the fold certificate for the second stratum needs a vertical component
        records = scan_ray(su2, (1.0, 0.0, 0.0), 20.0)
        by_stratum = {rec.stratum: rec.singularity_class for rec in records}
        assert by_stratum["C0"] is SingularityClass.UNDETERMINED
        assert by_stratum["C1"] is SingularityClass.TANGENTIAL

    @pytest.mark.parametrize("direction,s,s_max", [
        ((0.5303219488525271, -0.08504432600888788, 0.8435200609226502), 309.124, 400.0),
        ((0.25796374654510346, 0.3984433412482121, 0.8801690799405387), 67.815, 400.0),
        ((-0.5714228746305088, 0.11525250842793541, -0.8125224659356038), 344.116, 400.0),
    ], ids=["309.124", "67.815", "344.116"])
    def test_sl2_first_stratum_records_are_tangential(self, sl2, direction, s, s_max):
        # every C1 point is tangential by the closed form; a chart of three of
        # the four matrix entries conditions the certificate under
        # SECOND_ORDER_TOL at these records
        records = [rec for rec in scan_ray(sl2, direction, s_max) if abs(rec.s - s) < 1e-3]
        assert len(records) == 1
        rec = records[0]
        assert (rec.stratum, rec.order) == ("C1", 1)
        assert rec.singularity_class is SingularityClass.TANGENTIAL
        assert second_order_transversality(sl2, rec) > 100.0 * SECOND_ORDER_TOL

    @pytest.mark.parametrize("check", [classify, second_order_transversality],
                             ids=["classify", "second_order_transversality"])
    def test_unknown_stratum_rejected(self, su2, su2_records, check):
        with pytest.raises(InvalidInput, match="unknown stratum 'C2'"):
            check(su2, replace(su2_records[1], stratum="C2"))

    def test_order_zero_is_not_singular(self, su2, su2_records):
        synthetic = replace(su2_records[0], order=0)
        assert classify(su2, synthetic) is SingularityClass.NOT_SINGULAR

    def test_higher_order_is_undetermined(self, su2, su2_records):
        rec = su2_records[1]
        synthetic = replace(rec, order=2,
                            kernel_basis=(rec.kernel_basis[0],
                                          np.array([0.0, 0.0, 1.0])))
        assert classify(su2, synthetic) is SingularityClass.UNDETERMINED

    def test_kernel_sign_flip_does_not_change_class(self, su2, su2_records):
        for rec in su2_records:
            flipped = replace(rec, kernel_basis=(-rec.kernel_basis[0],))
            assert classify(su2, flipped) is rec.singularity_class

    @staticmethod
    def _scaled_gradients(adapter, factor):
        def record_fields(covs, strata, order_one):
            f_values, kernels, grads = adapter.record_fields(covs, strata, order_one)
            return f_values, kernels, factor * grads
        return replace(adapter, record_fields=record_fields)

    def test_gradient_sign_flip_does_not_change_class(self, su2, su2_records):
        flipped = self._scaled_gradients(su2, -1.0)
        for rec in su2_records:
            assert classify(flipped, rec) is rec.singularity_class

    def test_gradient_rescale_does_not_change_class(self, su2, su2_records):
        scaled = self._scaled_gradients(su2, 37.0)
        for rec in su2_records:
            assert classify(scaled, rec) is rec.singularity_class


class TestScanCost:
    """Chart evaluations per ray on the scan path.

    The records of a ray are built in array calls: one chart_array call
    evaluates every record's central-difference stencil, and one more the
    second-order stencils of the records whose pairing vanishes (here, every
    record that is not a Fold). On the groups each call takes the endpoint
    entries of its stencil points in one array pass, so no point of a
    stencil is a scalar exponential; the Grushin chart_array loops over its
    scalar endpoint, but never through the chart hook. A per-record stencil
    or a third array call breaks the budget.
    """

    @pytest.mark.parametrize("module,exp_name,make_adapter,ray,s_max", [
        (su2_module, "su2_exp", su2_adapter, SU2_RAY, 20.0),
        (sl2_module, "sl2_exp", sl2_adapter, SL2_RAY, 14.0),
        (su2_module, "su2_exp", su2_adapter, SU2_RAY, 4000.0),
        (sl2_module, "sl2_exp", sl2_adapter, SL2_RAY, 4000.0),
    ], ids=["su2", "sl2", "su2-long", "sl2-long"])
    def test_exp_calls_per_record(self, monkeypatch, module, exp_name, make_adapter,
                                  ray, s_max):
        original = getattr(module, exp_name)
        calls = [0]

        def counted(cov, t):
            calls[0] += 1
            return original(cov, t)

        monkeypatch.setattr(module, exp_name, counted)
        records = scan_ray(make_adapter(), ray, s_max)
        assert len(records) >= 2
        assert calls[0] == 0

    @pytest.mark.parametrize("make_adapter,ray,s_max", [
        (lambda: grushin_adapter(GrushinBase(2.5, 0.5, 0.0)),
         (math.cos(0.9), math.sin(0.9)), 20.0),
        (su2_adapter, SU2_RAY, 20.0),
        (sl2_adapter, SL2_RAY, 14.0),
        (sl2_adapter, SL2_RAY, 4000.0),
    ], ids=["grushin", "su2", "sl2", "sl2-long"])
    def test_chart_array_calls_per_ray(self, make_adapter, ray, s_max):
        adapter = make_adapter()
        calls, rows, scalar = [0], [0], [0]

        def chart_array(points):
            calls[0] += 1
            rows[0] += len(points)
            return adapter.chart_array(points)

        def chart(cov):
            scalar[0] += 1
            return adapter.chart(cov)

        records = scan_ray(replace(adapter, chart_array=chart_array, chart=chart),
                           ray, s_max)
        assert len(records) >= 2
        assert calls[0] <= 2
        assert rows[0] <= 2 * len(records)
        assert scalar[0] == 0

    def test_rank_reports_stay_arrays(self, monkeypatch):
        # the records of a ray are decided from the arrays of one stacked SVD:
        # one rank_nullspace call per _rank_reports call, and no RankResult
        built, stacked, reports = [0], [0], [0]

        def counter(count, original):
            def counted(*args, **kwargs):
                count[0] += 1
                return original(*args, **kwargs)
            return counted

        monkeypatch.setattr(numeric_module, "RankResult",
                            counter(built, numeric_module.RankResult))
        monkeypatch.setattr(singularity_module, "rank_nullspace",
                            counter(stacked, singularity_module.rank_nullspace))
        monkeypatch.setattr(singularity_module, "_rank_reports",
                            counter(reports, singularity_module._rank_reports))
        records = scan_ray(sl2_adapter(), SL2_RAY, 4000.0)
        assert len(records) >= 2
        assert built[0] == 0
        assert stacked[0] == reports[0] >= 1

    @pytest.mark.parametrize("make_adapter,ray,s_max", [
        (lambda: grushin_adapter(GrushinBase(2.5, 0.5, 0.0)),
         (math.cos(0.9), math.sin(0.9)), 20.0),
        (su2_adapter, SU2_RAY, 20.0),
        (sl2_adapter, SL2_RAY, 14.0),
    ], ids=["grushin", "su2", "sl2"])
    def test_scalar_conj_f_calls_per_record(self, make_adapter, ray, s_max):
        # the nodes come from one g_rows call of the ray's restriction and the
        # records from record_fields; on these short rays the scalar g serves
        # only Brent, whose last value is the residual
        adapter = make_adapter()
        calls = {"g": 0, "g_rows": 0, "rows": 0}
        records = scan_ray(_counted_strata(adapter, calls), ray, s_max)
        assert len(records) >= 2
        assert calls["g_rows"] == 1
        if adapter.name == "grushin":
            # the nodes are the ray's poles, one more than its records, and
            # s_max; Brent takes about 8 g calls a bracket between them. The
            # 400-node grid took 400 rows and 23 g calls on this ray
            assert calls["rows"] == len(records) + 2
            assert calls["g"] + calls["rows"] <= 10 * (len(records) + 1)
        else:
            assert calls["g"] <= 5 * len(records)
            assert calls["g"] < DEFAULT_SCAN_POINTS

    @pytest.mark.parametrize("make_adapter,ray", [
        (su2_adapter, SU2_RAY), (sl2_adapter, SL2_RAY),
    ], ids=["su2-long", "sl2-long"])
    def test_long_ray_polishes_in_lockstep(self, monkeypatch, make_adapter, ray):
        # a ray with LOCKSTEP_MIN_BRACKETS or more brackets makes no scalar
        # g call: one g_rows call samples the grid, one per Brent step
        # polishes every bracket of both strata, and one record_fields call
        # builds the records
        adapter = make_adapter()
        steps = []
        brent = numeric_module._brent

        def counted_brent(g, *args, **kwargs):
            calls = [0]

            def counted_g(s):
                calls[0] += 1
                return g(s)
            try:
                return brent(counted_g, *args, **kwargs)
            finally:
                steps.append(calls[0])

        monkeypatch.setattr(numeric_module, "_brent", counted_brent)
        monkeypatch.setattr(singularity_module, "LOCKSTEP_MIN_BRACKETS", 10 ** 9)
        scalar_records = scan_ray(adapter, ray, 4000.0)
        assert len(steps) >= LOCKSTEP_MIN_BRACKETS
        monkeypatch.undo()
        calls, order_one_rows = {"g": 0, "g_rows": 0}, []

        def record_fields(covs, strata, order_one):
            order_one_rows.append(int(np.count_nonzero(order_one)))
            return adapter.record_fields(covs, strata, order_one)

        counted = replace(_counted_strata(adapter, calls), record_fields=record_fields)
        records = scan_ray(counted, ray, 4000.0)
        assert calls["g"] == 0
        assert calls["g_rows"] <= 1 + max(steps)
        assert len(order_one_rows) == 1
        assert [(rec.s, rec.stratum) for rec in records] == [
            (rec.s, rec.stratum) for rec in scalar_records]

    @pytest.mark.parametrize("make_adapter,ray,s_max", [
        (lambda: grushin_adapter(GrushinBase(2.5, 0.5, 0.0)),
         (math.cos(0.9), math.sin(0.9)), 20.0),
        (su2_adapter, SU2_RAY, 20.0),
        (sl2_adapter, SL2_RAY, 14.0),
    ], ids=["grushin", "su2", "sl2"])
    def test_record_fields_calls_per_ray(self, make_adapter, ray, s_max):
        # on these short rays one g_rows call samples the grid and one
        # record_fields call builds the records
        adapter = make_adapter()
        calls, order_one_rows = {"g": 0, "g_rows": 0}, []

        def record_fields(covs, strata, order_one):
            order_one_rows.append(int(np.count_nonzero(order_one)))
            return adapter.record_fields(covs, strata, order_one)

        counted = replace(_counted_strata(adapter, calls), record_fields=record_fields)
        records = scan_ray(counted, ray, s_max)
        assert len(records) >= 2
        assert calls["g_rows"] == 1
        assert order_one_rows == [sum(rec.order == 1 for rec in records)]
        assert order_one_rows[0] > 0

    @pytest.mark.parametrize("make_adapter,ray,s_max", [
        (lambda: grushin_adapter(GrushinBase(2.5, 0.5, 0.0)),
         (math.cos(0.9), math.sin(0.9)), 20.0),
        (lambda: grushin_adapter(GrushinBase(1.0, 0.5, 0.0)), (0.0, 1.0), 20.0),
        (su2_adapter, SU2_RAY, 20.0),
        (su2_adapter, (1.0, 0.0, 0.0), 20.0),
        (sl2_adapter, SL2_RAY, 14.0),
    ], ids=["grushin", "grushin-vertical", "su2", "su2-planar", "sl2"])
    def test_record_build_makes_no_scalar_call(self, monkeypatch, make_adapter, ray, s_max):
        # the f-values, kernels and gradients of a ray's records come from one
        # record_fields call, and no scalar f, kernel, gradient or exponential
        # runs while the records are built. On the groups that call is an
        # array pass; the Grushin hook takes one time-one endpoint per record
        building, in_fields, scalar_calls, endpoints = [False], [False], [], [0]

        def spy(owner, name):
            original = getattr(owner, name)

            def wrapped(*args):
                if building[0]:
                    scalar_calls.append(name)
                return original(*args)
            monkeypatch.setattr(owner, name, wrapped)

        for name in ("conj_f", "strata", "kernel", "conj_grad"):
            spy(ContactGroup, name)
        for name in ("grushin_conj_f", "grushin_kernel", "grushin_conj_grad", "grushin_exp"):
            spy(grushin_module, name)
        build, endpoint = singularity_module._build_records, grushin_module._endpoint

        def counted_build(*args):
            building[0] = True
            try:
                return build(*args)
            finally:
                building[0] = False

        def counted_endpoint(*args):
            endpoints[0] += in_fields[0]
            return endpoint(*args)

        monkeypatch.setattr(singularity_module, "_build_records", counted_build)
        monkeypatch.setattr(grushin_module, "_endpoint", counted_endpoint)
        adapter = make_adapter()

        def record_fields(*args):
            in_fields[0] = building[0]
            try:
                return adapter.record_fields(*args)
            finally:
                in_fields[0] = False

        records = scan_ray(replace(adapter, record_fields=record_fields), ray, s_max)
        assert len(records) >= 2
        assert scalar_calls == []
        if adapter.name == "grushin":
            assert sum(rec.order == 1 for rec in records) > 0
            assert endpoints[0] == len(records)


class TestSecondOrderTransversality:
    def test_positive_at_su2_tangential_points(self, su2, su2_records):
        for rec in su2_records:
            if rec.singularity_class is not SingularityClass.TANGENTIAL:
                continue
            value = second_order_transversality(su2, rec)
            assert value > 1e-3
            # closed-form chart geometry gives exactly 1/2 on this stratum
            assert value == pytest.approx(0.5, rel=1e-6)

    def test_positive_at_sl2_tangential_point(self, sl2, sl2_records):
        value = second_order_transversality(sl2, sl2_records[0])
        assert value > 1e-3

    def test_kernel_sign_flip_stability(self, su2, su2_records):
        rec = su2_records[0]
        value = second_order_transversality(su2, rec)
        flipped = second_order_transversality(
            su2, replace(rec, kernel_basis=(-rec.kernel_basis[0],)))
        assert flipped == pytest.approx(value, rel=1e-4)

    def test_kernel_length_changes_neither_value_nor_class(self, su2, su2_records):
        # the certificate renormalizes the kernel it is handed, as classify's
        # docstring promises: three times the unit kernel gives the same
        rec = su2_records[0]
        assert rec.singularity_class is SingularityClass.TANGENTIAL
        scaled = replace(rec, kernel_basis=(3.0 * rec.kernel_basis[0],))
        assert second_order_transversality(su2, scaled) == pytest.approx(
            second_order_transversality(su2, rec), rel=1e-12)
        assert classify(su2, scaled) is SingularityClass.TANGENTIAL

    def test_zero_on_an_order_zero_record(self, su2, su2_records):
        # order 0 means the scan found no rank drop: the certificate is 0.0
        # without a stencil, even at a covector where the chart drops rank
        rec = su2_records[0]
        assert second_order_transversality(su2, rec) > SECOND_ORDER_TOL
        assert second_order_transversality(su2, replace(rec, order=0)) == 0.0

    def test_zero_at_full_rank_point(self, su2):
        d = _unit(SU2_RAY)
        regular = ConjugateRecord(
            s=3.0, covector=3.0 * d, stratum="C1", order=1,
            kernel_basis=(np.array([0.0, 1.0, 0.0]),),
            f_values=(1.0, 1.0),
            singularity_class=SingularityClass.UNDETERMINED)
        assert second_order_transversality(su2, regular) == 0.0


class TestFoldWitness:
    DELTA = 1e-3

    def _check_witness(self, adapter, record, witness):
        assert witness.image_distance <= 1e-9
        assert witness.separation >= self.DELTA / 4.0
        cov = record.covector
        assert np.linalg.norm(witness.covector_a - cov) <= self.DELTA
        assert np.linalg.norm(witness.covector_b - cov) <= self.DELTA
        # recompute endpoint coincidence directly from the chart
        pa = np.asarray(adapter.chart(witness.covector_a), float)
        pb = np.asarray(adapter.chart(witness.covector_b), float)
        assert np.linalg.norm(pa - pb) <= 1e-9

    def test_su2_fold_witness(self, su2, su2_records):
        for rec in su2_records:
            if rec.singularity_class is not SingularityClass.FOLD:
                continue
            self._check_witness(su2, rec, fold_witness(su2, rec, self.DELTA))

    def test_sl2_fold_witness(self, sl2, sl2_records):
        rec = sl2_records[1]
        self._check_witness(sl2, rec, fold_witness(sl2, rec, self.DELTA))

    def test_grushin_fold_witness(self, grushin, grushin_fold_records):
        for rec in grushin_fold_records:
            self._check_witness(grushin, rec,
                                fold_witness(grushin, rec, self.DELTA))

    def test_rejects_non_fold_record(self, su2, su2_records):
        with pytest.raises(InvalidInput):
            fold_witness(su2, su2_records[0], self.DELTA)

    @pytest.mark.parametrize("delta", [0.0, -1e-3, float("inf"), float("nan")])
    def test_rejects_bad_delta(self, su2, su2_records, delta):
        # named as the bad argument, before any arithmetic warns on it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="delta must be positive and finite"):
                fold_witness(su2, su2_records[1], delta)

    def test_no_witness_at_regular_point(self, su2, su2_records):
        # a regular covector dressed up as a fold: the chart is injective
        # there, so the two-preimage search must fail rather than fabricate
        d = _unit(SU2_RAY)
        fake = replace(su2_records[1], covector=3.0 * d, s=3.0)
        with pytest.raises(WitnessNotFound) as info:
            fold_witness(su2, fake, self.DELTA)
        # the message names the margins the offset a = delta/2 reached; here
        # the solve lands back on the first covector
        message = str(info.value)
        margins = re.findall(r"a=(\S+): image distance (\S+), separation (\S+), "
                             r"reach (\S+?)[;)]", message)
        assert [m[0] for m in margins] == ["0.0005"]
        for _, dist, separation, reach in margins:
            assert float(dist) <= 1e-9
            assert float(separation) < self.DELTA / 4.0
            assert float(reach) <= self.DELTA
        assert "separation >= 0.00025" in message

    @pytest.mark.parametrize("field,value,match", [
        ("kernel_basis", (np.zeros(3),), "record kernel"),
        ("kernel_basis", (np.array([np.nan, 1.0, 0.0]),), "record kernel"),
        ("kernel_basis", (np.array([0.0, np.inf, 0.0]),), "record kernel"),
        ("covector", np.array([np.nan, 0.0, 1.0]), "finite record covector"),
        ("covector", np.array([1.0, -np.inf, 1.0]), "finite record covector"),
    ], ids=["zero-kernel", "nan-kernel", "inf-kernel", "nan-covector", "inf-covector"])
    def test_bad_record_field_is_named(self, su2, su2_records, field, value, match):
        # the suite turns RuntimeWarnings into errors, so a division by the
        # zero norm would fail here before any InvalidInput
        def chart(cov):
            raise AssertionError("fold_witness called the chart on a bad record")

        fold = next(rec for rec in su2_records
                    if rec.singularity_class is SingularityClass.FOLD)
        with pytest.raises(InvalidInput, match=match) as info:
            fold_witness(replace(su2, chart=chart), replace(fold, **{field: value}), self.DELTA)
        assert repr(np.asarray(value[0] if field == "kernel_basis" else value)) in str(info.value)

    @pytest.mark.parametrize("error", [InvalidInput, DegenerateCovector])
    def test_differential_that_raises_is_a_failed_solve(self, sl2, sl2_records, error):
        # as where the frame is undefined (H = 0): the offset reports a
        # failed solve, and no witness is made up
        def chart_jacobian(cov):
            raise error("differential undefined here")

        with pytest.raises(WitnessNotFound) as info:
            fold_witness(replace(sl2, chart_jacobian=chart_jacobian), sl2_records[1],
                         self.DELTA)
        assert re.findall(r"a=(\S+): solve failed", str(info.value)) == ["0.0005"]

    def test_makes_no_fd_jacobian_call(self, monkeypatch, su2, sl2, grushin, su2_records,
                                       sl2_records, grushin_fold_records):
        # the partner solve starts from chart_jacobian, not from finite differences
        def forbidden(*args, **kwargs):
            raise AssertionError("fold_witness made a finite-difference call")

        for module, name in ((oracles_module, "fd_jacobian"), (numeric_module, "fd_stencil"),
                             (numeric_module, "fd_columns")):
            monkeypatch.setattr(module, name, forbidden)
            monkeypatch.setattr(singularity_module, name, forbidden, raising=False)
        for adapter, records in ((su2, su2_records), (sl2, sl2_records),
                                 (grushin, grushin_fold_records)):
            folds = [r for r in records if r.singularity_class is SingularityClass.FOLD]
            assert folds
            for rec in folds:
                fold_witness(adapter, rec, self.DELTA)


class TestNewtonPartner:
    """The partner solve's step checks, on a chart that is the identity."""

    A = 5e-4
    COV, KERN = np.array([1.0, 2.0]), np.array([0.6, 0.8])

    def _solve(self, scale):
        return singularity_module._newton_partner(
            lambda cov: cov.copy(), lambda cov: scale * np.eye(2), self.COV, self.KERN, self.A)

    @pytest.mark.parametrize("scale", [5e-324, -5e-324, float("nan")],
                             ids=["inf-step", "minus-inf-step", "nan-step"])
    def test_non_finite_step_fails(self, scale):
        # residual / 5e-324 overflows to inf; a nan differential gives nan steps
        assert self._solve(scale) is None

    def _chart_points(self, scale):
        """The points the identity chart is called at: lam_a, lam_b, then one per step."""
        points = []

        def chart(cov):
            points.append(cov.copy())
            return cov.copy()

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            singularity_module._newton_partner(
                chart, lambda cov: scale * np.eye(2), self.COV, self.KERN, self.A)
        return points

    @pytest.mark.parametrize("step", [
        (math.nan, 1.0), (1.0, math.nan), (1e200, math.nan), (math.inf, math.nan),
        (math.nan, math.inf),
    ], ids=["nan-first", "nan-last", "huge-then-nan", "inf-nan", "nan-inf"])
    def test_step_with_a_nan_fails(self, monkeypatch, step):
        # the solve spreads a NaN to every component, so it is planted:
        # a leading NaN or a component above 1e150 takes the hypot norm, nan
        # or inf, and a trailing NaN after small ones the dot norm, nan
        monkeypatch.setattr(np.linalg, "solve", lambda jac, residual: np.array(step))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self._solve(1.0) is None

    def test_step_whose_square_overflows_is_clamped(self):
        # each component is about 1e157 and finite, but its square is not:
        # a step with a component above 1e150 takes math.hypot for its norm,
        # which does not overflow, so it is clamped to 5a, with no overflow
        # warning from dot
        points = self._chart_points(1e-160)
        steps = np.diff(points[1:], axis=0)
        assert len(steps) == 50
        assert np.allclose(np.linalg.norm(steps, axis=1), 5.0 * self.A, rtol=1e-12, atol=0.0)
        # the first step goes against the residual lam_b - lam_a = -2a kern
        assert np.allclose(steps[0], 5.0 * self.A * self.KERN, rtol=1e-12, atol=0.0)

    def test_large_step_whose_square_is_finite_keeps_its_bits(self):
        # components near 1e151 square finitely; past 1e150 the step takes
        # math.hypot's norm, which on this step is np.linalg.norm's, bit for bit
        points = self._chart_points(1e-154)
        step = np.linalg.solve(1e-154 * np.eye(2), points[1] - points[0])
        expected = points[1] - step * (5.0 * self.A / np.linalg.norm(step))
        assert points[2].tobytes() == expected.tobytes()


GOLDEN_SCANS = sorted((Path(__file__).parent / "golden").glob("scan_*.json"))


def _golden_adapter(config):
    if config["structure"] == "grushin":
        return grushin_adapter(GrushinBase(config["alpha"], *config["base"]))
    return su2_adapter() if config["structure"] == "su2" else sl2_adapter()


def _assert_matches_fd(adapter, cov):
    jac = adapter.chart_jacobian(cov)
    fd = fd_jacobian(adapter.chart, cov)
    assert jac.shape == fd.shape
    assert np.abs(jac - fd).max() <= 1e-6 * max(1.0, np.abs(jac).max())


class TestChartJacobian:
    """Each adapter's closed-form differential against central differences of its chart."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([su2_adapter(), sl2_adapter()]),
           st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3))
    def test_groups_random_covectors(self, adapter, cov):
        assume(cov[0] ** 2 + cov[1] ** 2 >= 1e-2)
        _assert_matches_fd(adapter, np.array(cov))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0]), st.sampled_from([0.0, 0.3, -0.5, 1.0]),
           st.floats(-6.0, 6.0), st.floats(0.1, 6.0), st.sampled_from([1.0, -1.0]))
    def test_grushin_random_covectors(self, alpha, x0, u0, v0, sign):
        # |v0| >= 0.1 keeps the stencil off the v0 = 0 seam, where the
        # closed form cancels terms of order 1/v0, and |u0| >= 0.1 at x0 = 0
        # off the rest point H = 0, where the chart is not smooth for alpha > 1
        assume(x0 != 0.0 or abs(u0) >= 0.1)
        adapter = grushin_adapter(GrushinBase(alpha, x0, 0.0))
        _assert_matches_fd(adapter, np.array([u0, sign * v0]))

    @pytest.mark.parametrize("path", GOLDEN_SCANS, ids=lambda path: path.stem)
    def test_golden_scan_records(self, path):
        golden = json.loads(path.read_text())
        adapter = _golden_adapter(golden["config"])
        for result in golden["results"]:
            for rec in result["records"]:
                _assert_matches_fd(adapter, np.array(rec["covector"]))


class TestWitnessCost:
    """Chart evaluations per fold witness.

    The partner solve takes the adapter's closed-form differential
    (chart_jacobian), which costs no chart evaluation, once and steps on it
    by the chord method, so a witness costs the two starting evaluations and
    one evaluation per step: 3 on the SU(2) and Grushin rays, and on the long
    SL(2) ray 4.4 on average and at most 12.
    """

    DELTA = 1e-3

    @staticmethod
    def _counting(adapter):
        calls = [0]

        def chart(cov):
            calls[0] += 1
            return adapter.chart(cov)

        return replace(adapter, chart=chart), calls

    def _witness_costs(self, adapter, records):
        counted, calls = self._counting(adapter)
        costs, offsets = [], []
        for rec in records:
            calls[0] = 0
            witness = fold_witness(counted, rec, self.DELTA)
            costs.append(calls[0])
            offsets.append(float(np.linalg.norm(witness.covector_a - rec.covector)))
        return costs, offsets

    def test_long_sl2_ray(self, sl2):
        folds = [rec for rec in scan_ray(sl2, SL2_RAY, 4000.0)
                 if rec.singularity_class is SingularityClass.FOLD and rec.s >= 3000.0]
        assert len(folds) >= 10
        costs, offsets = self._witness_costs(sl2, folds)
        assert sum(costs) / len(costs) <= 5.0
        assert max(costs) <= 12
        # every witness succeeds at the first offset, a = delta / 2
        assert offsets == pytest.approx([self.DELTA / 2.0] * len(folds), rel=1e-9)

    def test_su2_ray(self, su2, su2_records):
        folds = [rec for rec in su2_records
                 if rec.singularity_class is SingularityClass.FOLD]
        assert len(folds) == 2
        costs, _ = self._witness_costs(su2, folds)
        assert max(costs) <= 3

    def test_grushin_ray(self, grushin, grushin_fold_records):
        folds = [rec for rec in grushin_fold_records
                 if rec.singularity_class is SingularityClass.FOLD]
        assert folds
        costs, _ = self._witness_costs(grushin, folds)
        assert max(costs) <= 3


WITNESS_GOLDEN = Path(__file__).parent / "golden" / "witness_folds.json"
# the Fold witnesses whose bits the golden file holds: (name, adapter config,
# direction, s_max, smallest radius witnessed), all at delta = 1e-3
WITNESS_CASES = (
    ("su2", {"structure": "su2"}, SU2_RAY, 20.0, 0.0),
    ("sl2", {"structure": "sl2"}, SL2_RAY, 14.0, 0.0),
    ("grushin", {"structure": "grushin", "alpha": 2.5, "base": [0.5, 0.0]},
     (math.cos(0.9), math.sin(0.9)), 20.0, 0.0),
    ("sl2-long", {"structure": "sl2"}, SL2_RAY, 4000.0, 3000.0),
)


def _witness_hexes(config, direction, s_max, s_min):
    """float.hex of each Fold's witness fields on the ray, at delta = 1e-3."""
    adapter = _golden_adapter(config)
    hexes = []
    for rec in scan_ray(adapter, direction, s_max):
        if rec.singularity_class is not SingularityClass.FOLD or rec.s < s_min:
            continue
        witness = fold_witness(adapter, rec, 1e-3)
        hexes.append({
            "s": rec.s.hex(),
            "covector_a": [float(c).hex() for c in witness.covector_a],
            "covector_b": [float(c).hex() for c in witness.covector_b],
            "image_distance": witness.image_distance.hex(),
            "separation": witness.separation.hex(),
        })
    return hexes


class TestWitnessGolden:
    """Fold witnesses bit for bit against tests/golden/witness_folds.json.

    The CLI prints no witness, so no CLI golden guards these bits; the file
    holds json.dumps({name: _witness_hexes(...)}) over WITNESS_CASES.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(WITNESS_GOLDEN.read_text())

    @pytest.mark.parametrize("name,config,direction,s_max,s_min", WITNESS_CASES,
                             ids=[case[0] for case in WITNESS_CASES])
    def test_witness_bits(self, golden, name, config, direction, s_max, s_min):
        expected = golden[name]
        assert expected
        assert _witness_hexes(config, direction, s_max, s_min) == expected


class TestRegularityIsomorphism:
    """The kernel Jacobi momentum's chart image escapes the FD image at every record.

    The vertical Jacobi datum spanning the kernel at an order-one conjugate
    covector has a field that vanishes at both ends; its endpoint momentum,
    mapped into the chart, must have more than INDEPENDENCE of its norm
    outside the image of the FD differential (the regularity isomorphism).
    The momentum comes from the closed-form Jacobi solution, the image from
    rank_nullspace(fd_jacobian(adapter.chart, cov)): two routes.
    """

    INDEPENDENCE = 1e-3

    @staticmethod
    def _composed_image(structure, cov):
        """The kernel Jacobi datum, its momentum at t=1 and its chart image, step by step."""
        if structure == "grushin":
            base = GrushinBase(1.0, 1.0, 0.0)
            p0 = np.asarray(grushin_kernel(base, cov)[0], dtype=float)
            coords = grushin_jacobi(base, cov, JacobiCoords(p=tuple(p0), x=(0.0, 0.0)), 1.0)
            return np.eye(2) @ np.asarray(coords.p, dtype=float)
        module = su2_module if structure == "su2" else sl2_module
        r = curvature(module._EPS, *finite_covector(cov, 3))
        p0 = rank_nullspace(vertical_to_endpoint_matrix(r)).nullspace_basis[0]
        init = JacobiCoords(p=tuple(p0), x=(0.0, 0.0, 0.0))
        p1 = np.asarray(module._GROUP.jacobi(cov, init, 1.0).p, dtype=float)
        return module._GROUP.frame_images(cov) @ p1

    def _assert_escapes(self, structure, adapter, records):
        assert records and all(rec.order == 1 for rec in records)
        for rec in records:
            cov = np.asarray(rec.covector, dtype=float)
            vec = self._composed_image(structure, cov)
            complement = rank_nullspace(fd_jacobian(adapter.chart, cov)).image_complement
            assert complement.shape[1] > 0
            assert (np.linalg.norm(complement.T @ vec)
                    > self.INDEPENDENCE * np.linalg.norm(vec) > 0.0)

    def test_su2_records(self, su2, su2_records):
        self._assert_escapes("su2", su2, su2_records)

    def test_sl2_records(self, sl2, sl2_records):
        self._assert_escapes("sl2", sl2, sl2_records)

    def test_grushin_records(self, grushin, grushin_fold_records):
        self._assert_escapes("grushin", grushin, grushin_fold_records)


def _counted_strata(adapter, calls):
    """The adapter with the calls of its ray restrictions' g and g_rows counted in calls."""

    def ray_strata(d):
        strata = adapter.ray_strata(d)

        def g(idx, s):
            calls["g"] += 1
            return strata.g(idx, s)

        def g_rows(s):
            calls["g_rows"] += 1
            calls["rows"] = calls.get("rows", 0) + s.size
            return strata.g_rows(s)

        return strata._replace(g=g, g_rows=g_rows)

    return replace(adapter, ray_strata=ray_strata)


@pytest.mark.parametrize("adapter,direction", [
    (su2_adapter(), SU2_RAY),
    (su2_adapter(), (1.0, 1.0, 0.0)),
    (sl2_adapter(), SL2_RAY),
    (sl2_adapter(), (0.2, 0.5, 1.3)),
    (grushin_adapter(GrushinBase(1.0, 0.0, 0.0)), (0.3, 1.0)),
    (grushin_adapter(GrushinBase(2.5, 0.5, 0.0)), (math.cos(0.9), math.sin(0.9))),
    (grushin_adapter(GrushinBase(3.0, -2.0, 0.0)), (-1.0, 0.3)),
    # v0^2 underflows up to s ~ 0.15: the straight line there, the oscillator after
    (grushin_adapter(GrushinBase(1.0, 0.5, 0.0)), (1.0, 1e-161)),
    # v0^2 underflows on the whole ray: every value is the covector route's
    (grushin_adapter(GrushinBase(2.0, 0.5, 0.0)), (1.0, 1e-300)),
], ids=["su2", "su2-planar", "sl2", "sl2-tilted", "grushin-axis", "grushin",
        "grushin-negative-x0", "grushin-mixed", "grushin-straight"])
def test_ray_strata_rows_equal_g(adapter, direction):
    # scan_ray takes its grid and its lockstep steps from g_rows and its
    # scalar Brent steps from g, so the two must agree to the bit
    strata = adapter.ray_strata(_unit(direction))
    rng = np.random.default_rng(7)
    radii = np.concatenate([np.linspace(1e-3, 60.0, 400), rng.uniform(0.0, 60.0, 200),
                            rng.uniform(0.0, 0.3, 100)])
    rows = strata.g_rows(radii)
    scalar = [[strata.g(idx, s) for idx in range(len(adapter.stratum_names))]
              for s in radii.tolist()]
    assert rows.shape == (radii.size, len(adapter.stratum_names))
    assert rows.tobytes() == np.array(scalar).tobytes()


class _Counted:
    """Wraps one adapter hook and counts its calls."""

    def __init__(self, hook):
        self.hook, self.calls = hook, 0

    def __call__(self, *args):
        self.calls += 1
        return self.hook(*args)


@pytest.mark.parametrize("name,adapter,direction,s_max", [
    ("su2", su2_adapter(), SU2_RAY, 20.0),
    ("sl2", sl2_adapter(), SL2_RAY, 14.0),
    ("grushin", grushin_adapter(GrushinBase(1.0, 1.0, 0.0)), (0.4, 1.0), 10.0),
], ids=["su2", "sl2", "grushin"])
def test_every_adapter_hook_is_called(name, adapter, direction, s_max):
    # a hook nothing calls is one more thing each new structure must write
    counters = {f.name: _Counted(getattr(adapter, f.name)) for f in fields(adapter)
                if callable(getattr(adapter, f.name))}
    counted = replace(adapter, **counters)
    records = scan_ray(counted, direction, s_max)
    folds = [rec for rec in records if rec.singularity_class is SingularityClass.FOLD]
    assert folds
    fold_witness(counted, folds[0], 1e-3)
    assert {hook: c.calls for hook, c in counters.items() if c.calls == 0} == {}
