"""The public surface: what srfolds exports, and what its decision layer takes.

The fold/tangential decision is a fixed policy (PAIRING_TOL, SECOND_ORDER_TOL,
SECOND_ORDER_STEP, INDEPENDENCE_TOL in singularity.py and
DEFAULT_RANK_TOL_FACTOR in numeric.py), printed by the CLI in every
tolerances block. These tests keep it from growing per-call knobs again.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srfolds
from srfolds.numeric import rank_nullspace
from srfolds.singularity import (classify, regularity_isomorphism_check,
                                 scan_ray, second_order_transversality)


def test_every_exported_name_resolves_once():
    names = srfolds.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(srfolds, name)]
    assert missing == []


@pytest.mark.parametrize("fn,params", [
    # scan_points and root_tol shape the root search, not the decision
    (scan_ray, ["adapter", "direction", "s_max", "scan_points", "root_tol"]),
    (classify, ["adapter", "record"]),
    (second_order_transversality, ["adapter", "record"]),
    (regularity_isomorphism_check, ["adapter", "record"]),
    (rank_nullspace, ["M"]),
    (srfolds.su2_kernel, ["cov"]),
    (srfolds.sl2_kernel, ["cov"]),
    (srfolds.grushin_kernel, ["base", "cov"]),
], ids=lambda value: getattr(value, "__name__", None))
def test_decision_layer_takes_no_tolerance_or_step(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_import_leaves_scipy_integrate_unloaded():
    # the ODE solver and quadrature serve only the oracles: numeric imports
    # scipy.integrate inside integrate and quad, and cli looks the scipy
    # version up when it prints it
    env = dict(os.environ)
    src = str(Path(srfolds.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    probe = "import sys, srfolds, srfolds.cli; print('scipy.integrate' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
