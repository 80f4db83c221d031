"""Smoke test of the benchmark itself, outside the tier-1 suite.

    python3 perfbench/smoke.py

Runs every workload once at the smallest size (--seconds 1, one pass over its pool),
checks the shape of the result line against BENCHMARK.json, shows that the
checker accepts correct answers and flags a planted wrong radius, a missing
and an extra record and a wrong class, and that the benchmark exits nonzero
without a result where the package sources are absent. Exit code 0 when all
of it holds. Takes a few minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402
from run import WORKLOADS  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def run_workload(root: Path, workload: str, trace: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=300)


def check_result_line(workload: str, proc: subprocess.CompletedProcess, spec: dict,
                      trace: int) -> None:
    expect(proc.returncode == 0, f"{workload} trace={trace} exits 0 ({proc.stderr[-300:]})")
    if proc.returncode != 0:
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys")
    expect(result["correct"] is True, f"{workload}: correct")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{workload}: attempted >= 1")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == units, f"{workload}: every metric with its unit")
    if trace:
        expect(all(v["value"] is not None for v in result["metrics"].values()),
               f"{workload}: the tracer measured every per-layer metric")
    else:
        expect(all(v["value"] > 0 for v in result["metrics"].values()),
               f"{workload}: end-to-end metrics are positive")


def check_checker() -> None:
    import srfolds
    want = reference.group_expected("su2", (1.0, 0.0, 0.5), 20.0)
    good = [(p.s, p.stratum, 1, p.cls) for p in want]
    expect(reference.compare(good, want) == [], "checker accepts the closed-form SU(2) radii")
    planted = [(good[0][0] + 1e-5, *good[0][1:]), *good[1:]]
    expect(bool(reference.compare(planted, want)), "checker flags a radius moved by 1e-5")
    expect(bool(reference.compare(good[1:], want)), "checker flags a missing record")
    extra = sorted(good + [(7.0, "C0", 1, "Fold")])
    expect(bool(reference.compare(extra, want)), "checker flags an extra record")
    wrong_class = [(*good[0][:3], "Fold"), *good[1:]]
    expect(bool(reference.compare(wrong_class, want)), "checker flags a wrong class")

    base = srfolds.GrushinBase(alpha=1.5, x0=0.5, y0=0.0)
    direction = (math.cos(0.9), math.sin(0.9))
    records = [(r.s, r.stratum, r.order, r.singularity_class.value)
               for r in srfolds.scan_ray(srfolds.grushin_adapter(base), direction, 20.0)]
    [want] = reference.grushin_expected([(1.5, 0.5, direction, 20.0)])
    expect(reference.compare(records, want) == [],
           "Grushin ODE reference agrees with the scan on a healthy ray")
    planted = [(records[0][0] + 1e-5, *records[0][1:]), *records[1:]]
    expect(bool(reference.compare(planted, want)), "checker flags a moved Grushin radius")


def check_without_sources(spec_text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "BENCHMARK.json").write_text(spec_text)
        shutil.copytree(HERE, root / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_workload(root, "group_rays")
        last = proc.stdout.strip().splitlines()[-1:] if proc.stdout.strip() else []
        expect(proc.returncode != 0 and not any(line.startswith("{") for line in last),
               "exits nonzero without a result where src/ is absent")


def main() -> int:
    spec_text = (ROOT / "BENCHMARK.json").read_text()
    spec = json.loads(spec_text)
    check_checker()
    for workload in WORKLOADS:
        check_result_line(workload, run_workload(ROOT, workload), spec, 0)
    check_result_line("grushin_rays", run_workload(ROOT, "grushin_rays", 1), spec, 1)
    check_without_sources(spec_text)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
