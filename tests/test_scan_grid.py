"""The scan's nodes in one array call agree with the scalar stratum functions.

scan_ray samples a ray's nodes (the uniform grid, or the restriction's own
nodes) with one g_rows call of the adapter's restriction to the ray
(ray_strata) and polishes each bracket with its scalar g (on these rays,
which have too few brackets for the lockstep polish). The reference here is
the scalar loop, one g call per node. On a list of edge rays (components
that underflow, Grushin's straight-line branch, H = 0 at the start of the
scan, angles next to the vertical, w0 = 0) the array values must equal it
bit for bit, and scan_ray must return the same records, or raise the same
exception with the same message, either way. A ray that ray_strata turns
away (None: r <= 0, H = 0, v0 = 0) has no nodes and no records.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from srfolds import grushin_adapter, scan_ray, sl2_adapter, su2_adapter
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
    """The adapter with its ray nodes sampled one scalar g call per node and stratum."""

    def ray_strata(d):
        strata = adapter.ray_strata(d)
        if strata is None:
            return None
        n = len(adapter.stratum_names)

        def g_rows(s):
            return np.array([[strata.g(idx, x) for idx in range(n)]
                             for x in s.tolist()]).reshape(s.size, n)

        return strata._replace(g_rows=g_rows)

    return replace(adapter, ray_strata=ray_strata)


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
    strata = adapter.ray_strata(d / np.linalg.norm(d))
    # a ray with no conjugate covector has no restriction, and no nodes
    if strata is None:
        return None
    lo = S_MAX * RAY_ORIGIN_OFFSET

    def values():
        nodes = (scan_nodes(lo, S_MAX, DEFAULT_SCAN_POINTS) if strata.nodes is None
                 else strata.nodes(lo, S_MAX))
        return strata.g_rows(nodes).T.tobytes()

    return _outcome(values)


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
    # H underflows to 0 at the start of the scan: the scan raises, either way,
    # the InvalidInput that names s_max and the scalar stratum function's reason
    for adapter, direction in [(su2_adapter(), (1e-160, 0.0, 1.0)),
                               (sl2_adapter(), (0.0, 1e-161, 1.0)),
                               (grushin_adapter(GrushinBase(1.0, 0.0, 0.0)), (1e-160, 1.0))]:
        kind, message = _records(adapter, direction)
        assert kind.__name__ == "InvalidInput" and "H = 0" in message
        assert message.startswith(f"s_max = {S_MAX!r} is too small")
    # v0^2 underflows on every node: Grushin's straight line, where f is exactly 0
    adapter = grushin_adapter(GrushinBase(2.0, 0.5, 0.0))
    assert not np.frombuffer(_grid(adapter, (1.0, 1e-300))).any()

