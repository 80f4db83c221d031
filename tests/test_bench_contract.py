"""The benchmark's tracer can still wrap every boundary its per-layer metrics read.

perfbench/tracer.py wraps names inside srfolds modules (for example
`srfolds.alphatrig._table_cached`). When the package loses one of them the
tracer skips it and the metrics that only it feeds are reported as null.
These tests install the tracer against the package as it is and check that
every per-layer metric listed in BENCHMARK.json is measured, and that after
a short traced run of the benchmark's own operation each one the tracer feeds
is a finite number that JSON carries. They read perfbench/ and BENCHMARK.json
and edit neither.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
BENCH_MODULES = ("tracer", "run", "calibrate", "ops", "workloads")


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    import run
    import tracer
    yield run, tracer
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def test_every_per_layer_metric_is_measured(bench_modules):
    run, tracer = bench_modules
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    t = tracer.Tracer().install()
    try:
        measured = set(t.measured)
    finally:
        t.uninstall()
    unmeasured = [metric["name"] for metric in spec["per_layer"]
                  if run.measured_by(metric["name"]) not in (None, *measured)]
    assert unmeasured == []


def test_traced_layer_metrics_are_finite_numbers(bench_modules):
    # a traced run whose per-layer figure is null or NaN does not print a
    # parseable result line, so every figure the tracer feeds must be a number
    run, tracer = bench_modules
    import ops
    import srfolds
    from workloads import Ray
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    adapters = {("su2", 1.0, 0.0): srfolds.su2_adapter(),
                ("grushin", 1.5, 0.5): srfolds.grushin_adapter(
                    srfolds.GrushinBase(1.5, 0.5, 0.0))}
    # the SU(2) ray holds a Fold at s = 8.99, whose witness evaluates su2_exp
    rays = [Ray(0, "su2", (1.0, 0.0, 0.5), 12.0),
            Ray(1, "grushin", (0.4, 1.0), 8.0, alpha=1.5, x0=0.5)]
    t = tracer.Tracer().install()
    try:
        records = srfolds.scan_ray(adapters[("su2", 1.0, 0.0)], rays[0].direction,
                                   rays[0].s_max)
    finally:
        t.uninstall()
    assert any(rec.singularity_class is srfolds.SingularityClass.FOLD for rec in records)
    # the scan itself evaluates its stencils in array calls
    assert run.layer_metrics(t, tracer.Tracer(), 1)["su2.exp.calls"] == 0
    t = tracer.Tracer().install()
    try:
        for ray in rays:
            ops.scan_op(srfolds, adapters, ray)
    finally:
        t.uninstall()
    metrics = run.layer_metrics(t, tracer.Tracer(), len(rays))
    assert metrics["singularity.scan_ray.calls"] == 2
    assert metrics["singularity.fold_witness.calls"] > 0
    assert metrics["su2.exp.calls"] > 0 and metrics["grushin.exp.calls"] > 0
    for metric in spec["per_layer"]:
        name = metric["name"]
        if run.measured_by(name) is None:
            # cli.*, selftest.run_s and trace.overhead_frac come from the CLI
            # runs and the plain pass, not from the tracer
            continue
        value = metrics[name]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
    assert json.loads(json.dumps(metrics, allow_nan=False)) == metrics
