"""Run every workload over several seeds and summarize each metric.

    python3 perfbench/collect.py [--seeds 1-10] [--workloads a,b] [--trace-seeds 1]
                                 [--out perfbench/baseline/FILE.json]

Runs are sequential, one process at a time, over all three workloads unless
--workloads says otherwise. Each run's metrics are printed by name and unit,
including the ones that take no bound (fail_frac, the per-command CLI
medians). For every workload and metric it then reports the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median next
to the metric's bound; traced runs add each layer's share of the summed
per-layer self time.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = "grushin_rays,group_rays,cli_cold"
# "name = value unit" lines of run.py
_PRINTED = re.compile(r"^([A-Za-z][\w.]*) = (\S+) (\S+)$")


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    context = next((json.loads(line[len("# context "):]) for line in lines
                    if line.startswith("# context ")), {})
    wall = next((line for line in lines if line.startswith("# wall-clock: ")), "")
    context["wall"] = {k: float(v) for k, v in re.findall(r"(\w+) ([\d.e+-]+)[,;]", wall)}
    context["printed"] = {m.group(1): (float(m.group(2)), m.group(3)) for m in
                          map(_PRINTED.match, lines[:-1]) if m}
    return json.loads(lines[-1]), context


def summary(values: list[float], bound: float | None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    out = {"median": med, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / med if med else None, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def self_time_shares(metrics: dict) -> dict:
    self_s = {k[:-len(".self_s")]: v["value"] for k, v in metrics.items()
              if k.endswith(".self_s") and v["value"] is not None}
    total = sum(self_s.values())
    return {k: v / total for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])
            if total and v > 0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report: dict = {"run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, contexts = [], []
        for seed in seeds_of(args.seeds):
            result, context = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            contexts.append(context)
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}, "
                  + ", ".join(f"{k} = {v:.6g} {unit}"
                              for k, (v, unit) in context["printed"].items()),
                  flush=True)
        entry = {
            "context": {k: contexts[0].get(k) for k in ("nproc", "cpu", "versions")},
            "seeds": seeds_of(args.seeds),
            "operations": [c.get("operations") for c in contexts],
            "records_verified": [c.get("records_verified") for c in contexts],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": {name: summary([r["metrics"][name]["value"] for r in runs], bounds[name])
                        for name in runs[0]["metrics"]},
            "wall_clock": {name: summary([c["wall"][name] for c in contexts], None)
                           for name in contexts[0].get("wall", {})},
            "unbounded": {name: summary([c["printed"][name][0] for c in contexts], None)
                          for name in contexts[0]["printed"] if name not in bounds},
        }
        for name, s in [*entry["metrics"].items(), *entry["unbounded"].items(),
                        *((f"{k} (wall)", v) for k, v in entry["wall_clock"].items())]:
            print(f"  {workload} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']} bound {s.get('bound')}", flush=True)
        if args.trace_seeds:
            traced = {}
            for seed in seeds_of(args.trace_seeds):
                result, _ = run_once(workload, seed, args.seconds, 1)
                traced[str(seed)] = {
                    "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    "self_time_share": self_time_shares(result["metrics"])}
                shares = traced[str(seed)]["self_time_share"]
                print(f"  {workload} traced seed {seed}: "
                      + ", ".join(f"{k} {v:.3f}" for k, v in list(shares.items())[:8]),
                      flush=True)
            entry["traced"] = traced
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
