"""The scan grid in one array call agrees with the scalar stratum functions.

scan_ray samples a ray's grid with one adapter.record_fields call that has no
order-one row and polishes each bracket with the scalar adapter.conj_f. The
reference here is the scalar loop, one conj_f call per grid node. On a list
of edge rays (components that underflow, Grushin's straight-line branch,
H = 0 on the first nodes, angles next to the vertical, w0 = 0) the array
values must equal it bit for bit, and scan_ray must return the same records,
or raise the same exception with the same message, with either grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from srfolds import SingularityClass, grushin_adapter, scan_ray, sl2_adapter, su2_adapter
from srfolds.grushin import GrushinBase
from srfolds.numeric import DEFAULT_SCAN_POINTS, scan_nodes
from srfolds.singularity import RAY_ORIGIN_OFFSET

S_MAX = 30.0
NEAR_VERTICAL = math.pi / 2.0 + 1e-9
GRUSHIN_DIRECTIONS = [(1.0, 1e-8), (1.0, 1e-170), (1.0, 1e-300),
                      (math.cos(NEAR_VERTICAL), math.sin(NEAR_VERTICAL)),
                      (-1.0, 0.3), (1e-160, 1.0), (-1e-160, 1.0)]
GRUSHIN_CASES = list(itertools.product((1.0, 1.5, 2.0, 3.0, 4.0), (0.0, 0.5, 2.0, -2.0),
                                       GRUSHIN_DIRECTIONS))
GROUP_DIRECTIONS = [(1e-160, 0.0, 1.0), (0.0, 1e-161, 1.0), (1.0, 0.0, 0.5),
                    (1.0, 0.0, 2.0), (1.0, 0.0, 0.0), (0.6, 0.8, 0.0)]
GROUP_CASES = list(itertools.product(("su2", "sl2"), GROUP_DIRECTIONS))


def _scalar_grid(adapter):
    """The adapter with its f-values taken one scalar conj_f call per row.

    Order-one rows still take their kernel and gradient from the adapter's
    own record_fields, one row at a time after that row's conj_f, so the
    scalar loop's first raise stays first.
    """

    def record_fields(covs, strata, order_one):
        n = covs.shape[0]
        f_values = np.empty((n, len(adapter.stratum_names)))
        kernels, grads = np.empty((n, adapter.fiber_dim)), np.empty((n, adapter.fiber_dim))
        for i, cov in enumerate(covs):
            f_values[i] = [float(v) for v in adapter.conj_f(cov)]
            if order_one[i]:
                _, kernel, grad = adapter.record_fields(covs[i:i + 1], strata[i:i + 1],
                                                        order_one[i:i + 1])
                kernels[i], grads[i] = kernel[0], grad[0]
        return f_values, kernels, grads

    return replace(adapter, record_fields=record_fields)


def _outcome(call):
    """What call() returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as err:  # noqa: BLE001 - the exception itself is compared
        return type(err), str(err)


def _records(adapter, direction):
    def scan():
        return [(rec.s, rec.stratum, rec.order, rec.singularity_class,
                 rec.covector.tobytes(), tuple(k.tobytes() for k in rec.kernel_basis),
                 np.array(rec.f_values).tobytes())
                for rec in scan_ray(adapter, direction, S_MAX)]
    return _outcome(scan)


def _grid(adapter, direction):
    d = np.asarray(direction, dtype=float)
    nodes = scan_nodes(S_MAX * RAY_ORIGIN_OFFSET, S_MAX, DEFAULT_SCAN_POINTS)
    covs = nodes[:, np.newaxis] * (d / np.linalg.norm(d))
    strata, order_one = np.zeros(len(covs), dtype=int), np.zeros(len(covs), dtype=bool)
    return _outcome(lambda: adapter.record_fields(covs, strata, order_one)[0].T.tobytes())


def _check(adapter, direction):
    reference = _scalar_grid(adapter)
    assert _grid(adapter, direction) == _grid(reference, direction)
    assert _records(adapter, direction) == _records(reference, direction)


@pytest.mark.parametrize("alpha,x0,direction", GRUSHIN_CASES, ids=str)
def test_grushin_edge_rays(alpha, x0, direction):
    _check(grushin_adapter(GrushinBase(alpha, x0, 0.0)), direction)


@pytest.mark.parametrize("structure,direction", GROUP_CASES, ids=str)
def test_group_edge_rays(structure, direction):
    _check(su2_adapter() if structure == "su2" else sl2_adapter(), direction)


def test_edge_rays_cover_the_raise_and_straight_branches():
    # H underflows to 0 on the first nodes: the scan raises, as the scalar loop does
    for adapter, direction in [(su2_adapter(), (1e-160, 0.0, 1.0)),
                               (sl2_adapter(), (0.0, 1e-161, 1.0)),
                               (grushin_adapter(GrushinBase(1.0, 0.0, 0.0)), (1e-160, 1.0))]:
        kind, message = _records(adapter, direction)
        assert kind.__name__ == "DegenerateCovector" and "H = 0" in message
    # v0^2 underflows on every node: Grushin's straight line, where f is exactly 0
    adapter = grushin_adapter(GrushinBase(2.0, 0.5, 0.0))
    assert not np.frombuffer(_grid(adapter, (1.0, 1e-300))).any()


def test_order_zero_record_survives():
    records = scan_ray(grushin_adapter(GrushinBase(3.0, -2.0, 0.0)), (1.0, 1e-8), S_MAX)
    assert [(rec.order, rec.singularity_class) for rec in records] == [
        (0, SingularityClass.NOT_SINGULAR)]
