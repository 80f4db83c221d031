"""srfolds benchmark: verified conjugate records per second, end to end and per layer.

    python3 perfbench/run.py --workload grushin_rays --seed 1 --seconds 20 --trace 0

Run from the repository root. One process, one client, a closed loop and no
threads; the process and its children are pinned to one CPU. Each operation
scans one ray and certifies every Fold record with fold_witness(delta=1e-3)
(grushin_rays, group_rays), or is one fresh `python -m srfolds.cli` process
(cli_cold). After the timed loop every answer is checked against
reference.py, a route that shares no code with the scan path. A wrong,
missing or extra record, a raise or a nonzero exit fails the operation, and
only the records of operations that pass are counted.

With --trace 0 the last line holds the end-to-end metrics of BENCHMARK.json;
with --trace 1 it holds the per-layer metrics, from a separate run over a
fixed number of rounds, once plain and once traced. The lines before it give
the run's context, every failed operation, wall-clock figures and the
metrics that take no bound (fail_frac, the per-command CLI medians).

Ray timings are in reference seconds (see calibrate.py). setup_s is the CPU
time of fresh set-up processes in units of a reference import run between
them (see measure_setup). cli_cold times whole fresh processes in wall
seconds; its spread on a shared host reaches the largest allowed bound, so
BENCHMARK.json does not list it, and the traced run of every workload
measures the CLI layer.

A run cycles a fixed pool of rounds made from the seed, in whole rounds,
until --seconds have passed and every round of the pool has run once. So
`attempted` is the number of distinct operations in the pool and `failed`
the number of those whose answer was wrong on any of their runs: both are
the same for a seed however fast the host is.

`correct` is true when every operation was checked and the checker flagged a
wrong radius planted in a copy of one answer. Operations whose answers are
wrong are counted in `failed`, named on the lines above, and all their runs
are left out of the throughput and latency metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("grushin_rays", "group_rays", "cli_cold")
SETUP_REPEATS = 7
# CPU seconds of setup_probe.py's reference import (numpy, scipy.integrate,
# scipy.optimize) at about its fastest on a shared 2-core Intel Xeon host
REFERENCE_IMPORT_S = 0.65
# rounds in a run's pool: one pass takes about half of a 20-second run on a
# 2-core Intel Xeon host, and the Grushin ODE reference (about half a scan
# per ray) checks each distinct ray once
POOL_ROUNDS = {"grushin_rays": 2, "group_rays": 10, "cli_cold": 1}
# rounds run by a traced run, so its counts are the same for a given seed
TRACE_ROUNDS = {"grushin_rays": 1, "group_rays": 4, "cli_cold": 1}
CHILD_TIMEOUT_S = 120.0
PLANTED_OFFSET = 1e-5


@dataclass
class Outcome:
    op: object
    start: float
    wall: float
    records: tuple = ()
    error: str | None = None
    problems: list[str] = field(default_factory=list)
    stdout: str = ""
    latency: float = 0.0  # reference seconds for in-process work, else wall seconds
    route: str = ""  # a fresh process or in-process, for CLI calls

    @property
    def key(self) -> tuple:
        """The distinct operation this is a run of."""
        return (self.route, self.op)

    @property
    def ok(self) -> bool:
        return not self.problems


# ---- helpers ---------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SRFOLDS_THREADS", None)
    paths = [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args: list[str]) -> tuple[int, str, str, float, float]:
    """A fresh interpreter on args: (exit code, stdout, stderr, start, wall seconds).

    Raises subprocess.TimeoutExpired after CHILD_TIMEOUT_S, with the child
    killed and reaped.
    """
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr, start, perf_counter() - start


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with >= 10 samples beyond it.

    With fewer than 20 samples that percentile falls below the median, which
    then stands in for it.
    """
    pct = max(50.0, 100.0 * (1.0 - 10.0 / len(values)))
    return pct, percentile(values, pct)


def summarize(records) -> tuple:
    return tuple((float(r.s), r.stratum, int(r.order), r.singularity_class.value)
                 for r in records)


def probe_cpu_s(kind: str) -> float:
    code, out, err, _, _ = run_child([str(HERE / "setup_probe.py"), kind])
    if code != 0:
        raise RuntimeError(f"set-up probe {kind} failed: {err.strip()}")
    return float(out.strip().splitlines()[-1])


def measure_setup(workload: str, lines: list[str]) -> float:
    """Median set-up time over fresh interpreters, in reference seconds.

    The host's speed for import-heavy work drifts by a fifth within a minute,
    and the calibration kernel cannot run inside a fresh interpreter. So each
    set-up's CPU seconds are divided by the mean of a reference import (the
    libraries srfolds builds on, without srfolds) run just before and just
    after it, and multiplied by REFERENCE_IMPORT_S.
    """
    refs = [probe_cpu_s("reference")]
    cpu, times = [], []
    for _ in range(SETUP_REPEATS):
        cpu.append(probe_cpu_s(workload))
        refs.append(probe_cpu_s("reference"))
        times.append(cpu[-1] * REFERENCE_IMPORT_S / (0.5 * (refs[-2] + refs[-1])))
    lines.append(f"# set-up: median {statistics.median(cpu):.6g} CPU s over {SETUP_REPEATS} "
                 f"fresh interpreters; reference import median {statistics.median(refs):.6g} "
                 f"CPU s")
    return statistics.median(times)


def context(api, args) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import srfolds.cli as cli
    versions = cli._versions() if hasattr(cli, "_versions") else {
        "srfolds": api.__version__, "python": platform.python_version()}
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "pinned_cpu": sorted(os.sched_getaffinity(0)), "cpu": cpu, "versions": versions}


def distinct(outcomes: list[Outcome]) -> tuple[int, list[Outcome]]:
    """(distinct operations, the first failed run of each one that failed on any run)."""
    runs: dict[tuple, Outcome | None] = {}
    for o in outcomes:
        if runs.get(o.key) is None:
            runs[o.key] = None if o.ok else o
    return len(runs), [o for o in runs.values() if o is not None]


def report_failures(outcomes: list[Outcome], limit: int = 20) -> list[str]:
    _, failed = distinct(outcomes)
    runs = {}
    for o in outcomes:
        runs[o.key] = runs.get(o.key, 0) + 1
    lines = [f"# FAILED {o.op.label()} ({runs[o.key]} runs): {'; '.join(o.problems[:3])}"
             + (f" (+{len(o.problems) - 3} more)" if len(o.problems) > 3 else "")
             for o in failed[:limit]]
    if len(failed) > limit:
        lines.append(f"# ... {len(failed) - limit} more failed operations")
    return lines


def planted_flagged(records, expected) -> bool:
    """The checker must reject a copy of correct records with the first radius moved by 1e-5."""
    import reference
    moved = [(records[0][0] + PLANTED_OFFSET, *records[0][1:]), *records[1:]]
    return bool(reference.compare(moved, expected))


def run_rounds(pool: list[list], seconds: float | None, run_op, cal=None) -> list[Outcome]:
    """Whole rounds of the pool, cycled until `seconds` have passed and each has run.

    Stopping between rounds keeps the input mix exact; running the whole
    pool keeps the set of distinct operations fixed. With seconds None the
    pool runs once. With a calibrator, its kernel runs throughout and each
    latency is scaled to reference seconds; without one the latency is the
    wall time.
    """
    outcomes = []
    with cal if cal is not None else contextlib.nullcontext():
        start = perf_counter()
        for done, ops_of_round in enumerate(itertools.cycle(pool), 1):
            outcomes += [run_op(op) for op in ops_of_round]
            if done >= len(pool) and (seconds is None or perf_counter() - start >= seconds):
                break
    for o in outcomes:
        o.latency = o.wall if cal is None else cal.scaled(o.start, o.wall)
    return outcomes


def end_to_end(outcomes: list[Outcome], setup_s: float, peak_rss_mb: float, cal,
               lines: list[str]) -> dict:
    verified = [o for o in outcomes if o.ok]
    if not verified:
        raise RuntimeError("no operation verified; latency metrics are undefined")
    records = sum(len(o.records) for o in verified)
    attempted, failed = distinct(outcomes)
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    for attr in ("latency", "wall"):
        busy = sum(getattr(o, attr) for o in outcomes)
        latency_ms = [getattr(o, attr) * 1e3 for o in verified]
        pct, tail_ms = tail(latency_ms)
        values = {"records_per_s": records / busy,
                  "ray_ms_p50": statistics.median(latency_ms), "ray_ms_tail": tail_ms}
        if attr == "latency":
            metrics.update(values)
        elif cal is not None:
            lines.append("# wall-clock: " + ", ".join(f"{k} {v:.6g}" for k, v in values.items())
                         + f"; timed {busy:.3f} s")
    lines.append(f"# operations {attempted} distinct, {len(failed)} of them failed; "
                 f"runs {len(outcomes)}, verified {len(verified)}, verified records "
                 f"{records}, records returned {sum(len(o.records) for o in outcomes)}")
    lines.append(f"# ray_ms_tail is p{pct:.4g} of {len(latency_ms)} verified operations")
    if cal is not None:
        factors = [REFERENCE_S / c for c in cal.samples]
        lines.append(f"# host speed (reference/kernel time): median "
                     f"{statistics.median(factors):.3f}, range {min(factors):.3f}-"
                     f"{max(factors):.3f} over {len(factors)} samples")
    lines.append(f"fail_frac = {len(failed) / attempted:.6g} ratio")
    return metrics


# ---- ray workloads ----------------------------------------------------------

def ray_runner(api, adapters, tracer=None):
    import ops

    def run_op(ray) -> Outcome:
        if tracer is not None:
            tracer.ray_id = ray.ray_id
        t0 = perf_counter()
        try:
            records, error = ops.scan_op(api, adapters, ray), None
        except Exception as exc:  # a raise fails the operation; the loop goes on
            records, error = [], f"raised {type(exc).__name__}: {exc}"
        return Outcome(ray, t0, perf_counter() - t0, summarize(records), error)

    return run_op


def check_rays(outcomes: list[Outcome]) -> bool:
    """Fill problems for every operation; True when a planted radius is flagged."""
    import reference
    grushin = list({o.op.ray_id: o.op for o in outcomes if o.op.structure == "grushin"}.values())
    expected = dict(zip((ray.ray_id for ray in grushin), reference.grushin_expected(
        [(ray.alpha, ray.x0, ray.direction, ray.s_max) for ray in grushin])))

    def expected_of(ray):
        if ray.ray_id not in expected:
            expected[ray.ray_id] = reference.group_expected(ray.structure, ray.direction,
                                                            ray.s_max)
        return expected[ray.ray_id]

    planted = False
    for o in outcomes:
        want = expected_of(o.op)
        o.problems = [o.error] if o.error else reference.compare(o.records, want)
        if not planted and o.records and not o.problems:
            planted = planted_flagged(o.records, want)
    return planted


def pool_of(workload: str, seed: int) -> list[list]:
    """The rounds a run of the workload cycles, made from the seed."""
    import workloads
    rounds = {"grushin_rays": workloads.grushin_rounds, "group_rays": workloads.group_rounds,
              "cli_cold": workloads.cli_rounds}[workload](seed)
    return workloads.take_rounds(rounds, POOL_ROUNDS[workload])


def ray_workload(api, args):
    import ops
    if args.trace:
        return traced_rays(api, args)
    lines: list[str] = []
    setup_s = measure_setup(args.workload, lines)
    adapters = ops.set_up(api, args.workload)
    cal = Calibrator()
    outcomes = run_rounds(pool_of(args.workload, args.seed), args.seconds,
                          ray_runner(api, adapters), cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = check_rays(outcomes)
    metrics = end_to_end(outcomes, setup_s, peak_rss_mb, cal, lines)
    bisection = sum(o.op.bisection for o in outcomes)
    lines.append(f"# rays with alpha != 1 and x0 != 0 (the inputs that reach arc_alpha's "
                 f"bisection): {bisection}/{len(outcomes)}")
    return metrics, outcomes, correct, lines


def traced_rays(api, args):
    import ops
    from tracer import Tracer
    warm = Tracer().install()
    try:
        adapters = ops.set_up(api, args.workload)
    finally:
        warm.uninstall()
    rounds = pool_of(args.workload, args.seed)[:TRACE_ROUNDS[args.workload]]
    rays = [ray for r in rounds for ray in r]
    cal = Calibrator()
    plain = run_rounds(rounds, None, ray_runner(api, adapters), cal)
    tracer = Tracer().install()
    try:
        traced = run_rounds(rounds, None, ray_runner(api, adapters, tracer), cal)
    finally:
        tracer.uninstall()
    correct = check_rays(traced)
    metrics = layer_metrics(tracer, warm, len(rays))
    metrics["trace.overhead_frac"] = overhead(plain, traced)
    lines = [f"# {len(rays)} operations run plain, then traced"]
    cli_metrics, cli_outcomes, cli_lines = cli_layer(args.seed)
    metrics.update(cli_metrics)
    lines += cli_lines
    correct = check_cli(cli_outcomes) and correct
    return metrics, traced + cli_outcomes, correct, lines + tracer_lines(tracer)


def overhead(plain: list[Outcome], traced: list[Outcome]) -> float:
    """Share of verified records per second lost to tracing, over the same operations."""
    return 1.0 - sum(o.latency for o in plain) / sum(o.latency for o in traced)


def measured_by(metric: str) -> str | None:
    """What the tracer must have wrapped for a per-layer metric to be measured.

    None for the metrics that the tracer does not feed.
    """
    if metric.startswith(("cli.", "selftest.", "trace.")):
        return None
    if metric == "grushin.bisection_ray_share":
        return "alphatrig.bisection"
    if metric.startswith("singularity.records.") or metric == "singularity.order_mismatch":
        return "singularity.scan_ray"
    layer, figure = metric.rsplit(".", 1)
    if layer == "numeric.find_roots" and figure not in ("calls", "self_s"):
        return "numeric.find_roots.counts"
    return layer


def tracer_lines(tracer) -> list[str]:
    return [f"# tracer could not wrap {name}" for name in tracer.missing]


def layer_metrics(tracer, warm, operations: int) -> dict:
    """Per-layer calls and self time of the traced pass over `operations` rays or calls.

    alpha-trig tables, quadrature and ODE integration also run while setting
    up, so their figures include the warm-up traced by `warm`. A metric whose
    boundary the tracer could not wrap is None: not measured.
    """
    from tracer import LAYER_SPANS
    totals = tracer.layer_totals()
    setup_totals = warm.layer_totals()
    metrics = {}
    for name in LAYER_SPANS:
        calls, self_s = totals.get(name, (0, 0.0))
        if name in ("numeric.integrate", "numeric.quad"):
            more_calls, more_s = setup_totals.get(name, (0, 0.0))
            calls, self_s = calls + more_calls, self_s + more_s
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    builds, build_s = warm.table_builds()
    more_builds, more_s = tracer.table_builds()
    metrics["alphatrig.table.builds"] = builds + more_builds
    metrics["alphatrig.table.build_s"] = build_s + more_s
    metrics.update(tracer.counters)
    brackets = tracer.counters["numeric.find_roots.brackets"]
    accepted = tracer.counters["numeric.find_roots.accepted"]
    metrics["numeric.find_roots.accept_ratio"] = accepted / brackets if brackets else 0.0
    metrics["grushin.bisection_ray_share"] = len(tracer.bisection_rays) / operations
    for name in list(metrics):
        source = measured_by(name)
        if source is not None and source not in tracer.measured:
            metrics[name] = None
    return metrics


# ---- cli_cold ---------------------------------------------------------------

def run_cold(call) -> Outcome:
    t0 = perf_counter()
    try:
        code, stdout, stderr, t0, wall = run_child(["-m", "srfolds.cli", *call.argv])
        error = None if code == 0 else f"exit {code}: {stderr.strip()[-200:]}"
    except subprocess.TimeoutExpired:
        error, stdout, wall = f"timed out after {CHILD_TIMEOUT_S:g} s", "", perf_counter() - t0
    return Outcome(call, t0, wall, error=error, stdout=stdout, route="cold")


_SCAN_HEAD = re.compile(r"^direction (\S+): (\d+) conjugate covector")
_SCAN_ROW = re.compile(r"^\s+s=(\S+)\s+stratum=(\S+)\s+order=(\d+)\s+class=(\S+)")
_SELFTEST_TAIL = re.compile(r"^(\d+)/(\d+) checks passed$")


def parse_scan(text: str) -> list[tuple]:
    blocks = []
    for line in text.splitlines():
        if _SCAN_HEAD.match(line):
            blocks.append([])
        elif (row := _SCAN_ROW.match(line)) and blocks:
            s, stratum, order, cls = row.groups()
            blocks[-1].append((float(s), stratum, int(order), cls))
    return [tuple(b) for b in blocks]


def check_cli(outcomes: list[Outcome]) -> bool:
    """Fill problems for every call; True when a planted radius is flagged."""
    import reference
    scans = [o for o in outcomes if o.op.command == "conj-scan" and not o.error]
    rays = [(o.op.alpha, o.op.x0, d, o.op.s_max) for o in scans for d in o.op.directions]
    flat = iter(reference.grushin_expected(rays))
    expected = {id(o): [next(flat) for _ in o.op.directions] for o in scans}
    planted = False
    for o in outcomes:
        if o.error:
            o.problems = [o.error]
            continue
        call = o.op
        if call.command == "expmap":
            want = reference.expmap_expected(call.structure, call.covector,
                                             alpha=call.alpha, x0=call.x0)
            got = dict(line.split(" = ") for line in o.stdout.strip().splitlines())
            for key, value in want.items():
                if key not in got:
                    o.problems.append(f"missing {key}")
                elif abs(float(got[key]) - value) > 1e-6 * max(1.0, abs(value)):
                    o.problems.append(f"{key} = {got[key]}, reference {value:.12g}")
        elif call.command == "conj-scan":
            blocks = parse_scan(o.stdout)
            if len(blocks) != len(call.directions):
                o.problems.append(f"{len(blocks)} direction blocks for "
                                  f"{len(call.directions)} directions")
                continue
            for d, block, want in zip(call.directions, blocks, expected[id(o)]):
                problems = reference.compare(block, want)
                o.problems += [f"dir {d[0]:.6g},{d[1]:.6g}: {p}" for p in problems]
                if not planted and block and not problems:
                    planted = planted_flagged(block, want)
            o.records = tuple(r for b in blocks for r in b)
        else:
            last = o.stdout.strip().splitlines()[-1] if o.stdout.strip() else ""
            match = _SELFTEST_TAIL.match(last)
            if not match or match.group(1) != match.group(2):
                o.problems.append(f"selftest summary {last!r}")
    return planted


def command_medians(outcomes: list[Outcome]) -> dict:
    out = {}
    for command, key, scale in (("expmap", "expmap_ms_p50", 1e3),
                                ("conj-scan", "conj_scan_s_p50", 1.0),
                                ("selftest", "selftest_s_p50", 1.0)):
        times = [o.latency * scale for o in outcomes if o.ok and o.op.command == command]
        out[key] = statistics.median(times) if times else 0.0
    return out


def cli_workload(api, args):
    if args.trace:
        return traced_cli(api, args)
    lines: list[str] = []
    setup_s = measure_setup("cli_cold", lines)
    outcomes = run_rounds(pool_of("cli_cold", args.seed), args.seconds, run_cold)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    correct = check_cli(outcomes)
    metrics = end_to_end(outcomes, setup_s, peak_rss_mb, None, lines)
    medians = command_medians(outcomes)
    lines += [f"expmap_ms_p50 = {medians['expmap_ms_p50']:.6g} ms",
              f"conj_scan_s_p50 = {medians['conj_scan_s_p50']:.6g} s",
              f"selftest_s_p50 = {medians['selftest_s_p50']:.6g} s"]
    return metrics, outcomes, correct, lines


def main_runner(cli, tracer=None):
    def run_op(call) -> Outcome:
        if tracer is not None:
            tracer.ray_id = call.call_id
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(call.argv))
        return Outcome(call, t0, perf_counter() - t0, stdout=out.getvalue(),
                       error=None if code == 0 else f"exit {code}", route="in-process")

    return run_op


def _child_wall(args: list[str]) -> float:
    code, _, err, _, wall = run_child(args)
    if code != 0:
        raise RuntimeError(f"{args} exited {code}: {err.strip()}")
    return wall


def cli_layer(seed: int) -> tuple[dict, list[Outcome], list[str]]:
    """The CLI layer's metrics from one round of cli_cold calls, in wall seconds.

    Cold: each call in a fresh interpreter, plus bare interpreter start and
    the package import. In-process: cli.main with warm imports, after one
    unmeasured pass that builds the alpha-trig tables.
    """
    import srfolds.cli as cli
    interp = statistics.median(_child_wall(["-c", "pass"]) for _ in range(SETUP_REPEATS))
    imported = statistics.median(
        _child_wall(["-c", "import srfolds.cli"]) for _ in range(SETUP_REPEATS))
    rounds = pool_of("cli_cold", seed)[:TRACE_ROUNDS["cli_cold"]]
    cold = run_rounds(rounds, None, run_cold)
    run_rounds(rounds, None, main_runner(cli))
    warm = run_rounds(rounds, None, main_runner(cli))
    metrics = {f"cli.{k}": v for k, v in command_medians(cold).items()}
    metrics["cli.interp_ms"] = 1e3 * interp
    metrics["cli.import_ms"] = 1e3 * (imported - interp)
    metrics["cli.main_ms"] = 1e3 * statistics.median(
        o.latency for o in warm if o.op.command == "expmap")
    metrics["selftest.run_s"] = statistics.median(
        o.latency for o in warm if o.op.command == "selftest")
    lines = [f"# CLI layer: {len(cold)} cold calls, then the same calls in-process"]
    return metrics, cold, lines


def traced_cli(api, args):
    import srfolds.cli as cli
    from tracer import Tracer
    metrics, cold, lines = cli_layer(args.seed)
    rounds = pool_of("cli_cold", args.seed)[:TRACE_ROUNDS["cli_cold"]]
    plain = run_rounds(rounds, None, main_runner(cli))
    tracer = Tracer().install()
    try:
        traced = run_rounds(rounds, None, main_runner(cli, tracer))
    finally:
        tracer.uninstall()
    # cli_layer's in-process passes built the tables, so none are built here
    metrics.update(layer_metrics(tracer, Tracer(), len(traced)))
    metrics["trace.overhead_frac"] = overhead(plain, traced)
    correct = check_cli(cold) and check_cli(traced)
    return metrics, cold + traced, correct, lines + tracer_lines(tracer)


# ---- main -------------------------------------------------------------------

def emit(spec: dict, args, metrics: dict, outcomes: list[Outcome], correct: bool,
         lines: list[str], ctx: dict) -> None:
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for metric in wanted:
        name = metric["name"]
        if name not in metrics:
            raise RuntimeError(f"metric {name} is not produced by this benchmark")
        if metrics[name] is None:
            if not args.trace:
                raise RuntimeError(f"metric {name} was not measured")
            lines.append(f"# {name} not measured: the tracer could not wrap its boundary")
        out[name] = {"value": metrics[name], "unit": metric["unit"]}
    attempted, failed = distinct(outcomes)
    ctx["operations"] = attempted
    ctx["runs"] = len(outcomes)
    ctx["records_verified"] = sum(len(o.records) for o in outcomes if o.ok)
    print("# context " + json.dumps(ctx, sort_keys=True))
    for line in lines + report_failures(outcomes):
        print(line)
    if not args.trace:
        for metric in wanted:
            print(f"{metric['name']} = {out[metric['name']]['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": len(failed), "metrics": out}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "srfolds" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout that holds src/srfolds and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    os.environ.pop("SRFOLDS_THREADS", None)
    # one CPU for this process and its children, so the calibration kernel
    # samples the speed of the core the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(HERE)]
    import srfolds as api
    ctx = context(api, args)
    runner = cli_workload if args.workload == "cli_cold" else ray_workload
    metrics, outcomes, correct, lines = runner(api, args)
    emit(spec, args, metrics, outcomes, correct, lines, ctx)
    return 0


if __name__ == "__main__":
    sys.exit(main())
