"""The benchmark's tracer can still wrap every boundary its per-layer metrics read.

perfbench/tracer.py wraps names inside srfolds modules (for example
`srfolds.alphatrig._table_cached`). When the package loses one of them the
tracer skips it and the metrics that only it feeds are reported as null.
This test installs the tracer against the package as it is and checks that
every per-layer metric listed in BENCHMARK.json is measured. It reads
perfbench/ and BENCHMARK.json and edits neither.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracer", "run", "calibrate"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import run
    import tracer
    yield run, tracer
    for name in ("tracer", "run", "calibrate"):
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
