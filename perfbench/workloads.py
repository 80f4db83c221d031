"""Seeded inputs for the three workloads.

Every workload is an endless sequence of rounds; a round covers the workload's
whole input mix once, in a seeded order, with fresh seeded directions. A run
cycles a pool of the first rounds (run.POOL_ROUNDS) and times whole rounds,
so a run of any length sees the mix in fixed proportions and the same
distinct operations. The program only ever sees the generated rays and
argument lists.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

GRUSHIN_ALPHAS = (1.0, 1.5, 2.0, 2.5, 3.0)
GRUSHIN_X0S = (0.0, 0.3, -0.3, 0.5, 1.0)
GRUSHIN_S_MAX = (20.0, 60.0)
# the scan's grid node at s_max * 1e-4 = 0.002 underflows conj_f to exactly 0.0
SPURIOUS_GRUSHIN = dict(alpha=3.0, x0=0.0, direction=(math.cos(0.9), math.sin(0.9)),
                        s_max=20.0)
# the default 400-point scan misses roots on these rays (grid step 10 > 2 pi)
LONG_SU2 = (1.0, 0.0, 0.5)
LONG_SL2 = (1.0, 0.0, 2.0)
# the README's Grushin base, used by the CLI conj-scan
CLI_ALPHA, CLI_X0 = 1.5, 0.5
CLI_SCAN_DIRECTIONS = 8
WITNESS_DELTA = 1e-3


@dataclass(frozen=True)
class Ray:
    """One scan operation: scan_ray on the ray, then fold_witness on each Fold."""

    ray_id: int
    structure: str
    direction: tuple[float, ...]
    s_max: float
    alpha: float = 1.0
    x0: float = 0.0
    note: str = ""

    @property
    def bisection(self) -> bool:
        """True when grushin_exp reaches arc_alpha's bisection (alpha != 1, x0 != 0)."""
        return self.structure == "grushin" and self.alpha != 1.0 and self.x0 != 0.0

    def label(self) -> str:
        d = ",".join(f"{c:.6g}" for c in self.direction)
        extra = f" alpha={self.alpha:g} x0={self.x0:g}" if self.structure == "grushin" else ""
        note = f" [{self.note}]" if self.note else ""
        return f"#{self.ray_id} {self.structure}{extra} dir=({d}) s_max={self.s_max:g}{note}"


@dataclass(frozen=True)
class CliCall:
    """One fresh `python -m srfolds.cli` invocation and what its check needs."""

    call_id: int
    command: str
    argv: tuple[str, ...]
    structure: str = ""
    covector: tuple[float, ...] = ()
    alpha: float = 1.0
    x0: float = 0.0
    directions: tuple[tuple[float, float], ...] = ()
    s_max: float = 10.0

    def label(self) -> str:
        return f"#{self.call_id} srfolds {' '.join(self.argv)}"


# |v0| >= MIN_V0 keeps v0 != 0 with a bounded oscillator amplitude
MIN_V0 = 0.2
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _grushin_direction(u: float) -> tuple[float, float]:
    """The unit direction at fraction u in [0, 1) of the arcs where |v0| >= MIN_V0."""
    a = math.asin(MIN_V0)
    half = math.pi - 2.0 * a
    t = u * 2.0 * half
    theta = a + t if t < half else math.pi + a + (t - half)
    return (math.cos(theta), math.sin(theta))


def _su2_direction(rng: np.random.Generator) -> tuple[float, float, float]:
    while True:
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        if abs(d[2]) >= 0.1 and d[0] ** 2 + d[1] ** 2 > 0.01:
            return tuple(float(c) for c in d)


def _sl2_direction(rng: np.random.Generator, r_lo: float, r_hi: float):
    """Unit direction with r = w^2 - u^2 - v^2 drawn uniformly from [r_lo, r_hi]."""
    r = rng.uniform(r_lo, r_hi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    planar = math.sqrt((1.0 - r) / 2.0)
    w = math.copysign(math.sqrt((1.0 + r) / 2.0), rng.uniform(-1.0, 1.0))
    return (planar * math.cos(phi), planar * math.sin(phi), w)


def grushin_rounds(seed: int) -> Iterator[list[Ray]]:
    """Every (alpha, x0, s_max) once with a seeded direction, plus the spurious-record ray.

    Each combination starts at a seeded angle and steps by the golden ratio of
    the allowed arcs from round to round, so a few rounds already spread its
    directions evenly and runs of different seeds see alike mixes.
    """
    rng = np.random.default_rng(seed)
    ids = itertools.count()
    combos = list(itertools.product(GRUSHIN_ALPHAS, GRUSHIN_X0S, GRUSHIN_S_MAX))
    starts = rng.uniform(0.0, 1.0, size=len(combos))
    for k in itertools.count():
        rays = [Ray(next(ids), "grushin", _grushin_direction((u0 + k * GOLDEN) % 1.0),
                    s_max, alpha, x0)
                for (alpha, x0, s_max), u0 in zip(combos, starts)]
        rays.append(Ray(next(ids), "grushin", SPURIOUS_GRUSHIN["direction"],
                        SPURIOUS_GRUSHIN["s_max"], SPURIOUS_GRUSHIN["alpha"],
                        SPURIOUS_GRUSHIN["x0"], note="conj_f underflow at s=0.002"))
        yield [rays[i] for i in rng.permutation(len(rays))]


def group_rounds(seed: int) -> Iterator[list[Ray]]:
    """Short, medium and long SU(2)/SL(2) rays, w0 = 0 and gated r <= 0 rays."""
    rng = np.random.default_rng(seed)
    ids = itertools.count()
    while True:
        specs = [
            ("su2", _su2_direction(rng), 20.0, ""),
            ("su2", _su2_direction(rng), 20.0, ""),
            ("su2", (lambda p: (math.cos(p), math.sin(p), 0.0))(rng.uniform(0, 2 * math.pi)),
             20.0, "w0=0, C0 Undetermined"),
            ("su2", _su2_direction(rng), 400.0, ""),
            ("su2", LONG_SU2, 4000.0, "long ray"),
            ("sl2", _sl2_direction(rng, 0.15, 0.85), 20.0, ""),
            ("sl2", _sl2_direction(rng, 0.15, 0.85), 20.0, ""),
            ("sl2", _sl2_direction(rng, 0.15, 0.85), 400.0, ""),
            ("sl2", LONG_SL2, 4000.0, "long ray"),
            ("sl2", _sl2_direction(rng, -0.9, -0.02),
             float(rng.choice([20.0, 400.0, 4000.0])), "gated r<=0"),
        ]
        rays = [Ray(next(ids), st, tuple(d), s_max, note=note)
                for st, d, s_max, note in specs]
        yield [rays[i] for i in rng.permutation(len(rays))]


def warmup_rays(workload: str) -> list[Ray]:
    """One short ray per distinct (structure, alpha) the workload uses."""
    d2 = (math.cos(0.9), math.sin(0.9))
    if workload == "grushin_rays":
        return [Ray(-1, "grushin", d2, 20.0, alpha, 0.0) for alpha in GRUSHIN_ALPHAS]
    if workload == "group_rays":
        return [Ray(-1, "su2", (0.6, 0.0, 0.8), 20.0), Ray(-1, "sl2", (0.3, 0.2, 1.0), 20.0)]
    return []


def adapter_keys(workload: str) -> list[tuple]:
    """The adapters a workload's set-up constructs: (structure, alpha, x0)."""
    if workload == "grushin_rays":
        return [("grushin", a, x) for a in GRUSHIN_ALPHAS for x in GRUSHIN_X0S]
    if workload == "group_rays":
        return [("su2", 1.0, 0.0), ("sl2", 1.0, 0.0)]
    return []


def _fmt(values) -> str:
    # passed as --flag=value, so a leading minus sign is not read as an option
    return ",".join(repr(float(v)) for v in values)


def cli_rounds(seed: int) -> Iterator[list[CliCall]]:
    """expmap on each structure, an 8-direction Grushin conj-scan and selftest."""
    rng = np.random.default_rng(seed)
    ids = itertools.count()
    while True:
        alpha = float(rng.choice(GRUSHIN_ALPHAS))
        x0 = float(rng.choice(GRUSHIN_X0S))
        u = float(rng.uniform(-1.5, 1.5))
        v = float(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0]))
        calls = [CliCall(next(ids), "expmap",
                         ("expmap", "--structure=grushin", f"--alpha={alpha!r}",
                          f"--base={_fmt((x0, 0.0))}", f"--covector={_fmt((u, v))}"),
                         structure="grushin", covector=(u, v), alpha=alpha, x0=x0)]
        for structure in ("su2", "sl2"):
            cov = tuple(float(c) for c in rng.uniform(-2.0, 2.0, size=3))
            calls.append(CliCall(next(ids), "expmap",
                                 ("expmap", f"--structure={structure}",
                                  f"--covector={_fmt(cov)}"),
                                 structure=structure, covector=cov))
        directions = tuple(_grushin_direction(u) for u in rng.uniform(0.0, 1.0, CLI_SCAN_DIRECTIONS))
        argv = ["conj-scan", "--structure=grushin", f"--alpha={CLI_ALPHA!r}",
                f"--base={_fmt((CLI_X0, 0.0))}"]
        argv += [f"--direction={_fmt(d)}" for d in directions]
        calls.append(CliCall(next(ids), "conj-scan", tuple(argv), structure="grushin",
                             alpha=CLI_ALPHA, x0=CLI_X0, directions=directions))
        calls.append(CliCall(next(ids), "selftest", ("selftest",)))
        yield [calls[i] for i in rng.permutation(len(calls))]


def take_rounds(rounds: Iterator[list], n_rounds: int) -> list[list]:
    """The next n_rounds rounds."""
    return [next(rounds) for _ in range(n_rounds)]
