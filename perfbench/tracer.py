"""Spans around the calls that cross srfolds module boundaries.

The tracer replaces, for the length of a traced run, the names one srfolds
module imported from another (for example the `find_roots` that
`singularity` imported from `numeric`) with wrappers that record a span:
(name, start, end, parent span, ray id). Spans stay in memory; a layer's self
time is the duration of its spans minus the part covered by their child spans.
Nothing under src/ is edited. A name that a later version of the package no
longer has is skipped and listed in `missing`; the metrics that only it feeds
are then reported as not measured, never as 0.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, layer span); the module is the caller whose imported
# name is wrapped
BOUNDARIES = [
    ("srfolds.grushin", "sin_cos_alpha", "alphatrig.sin_cos"),
    ("srfolds.selftest", "sin_cos_alpha", "alphatrig.sin_cos"),
    ("srfolds.grushin", "grushin_exp", "grushin.exp"),
    ("srfolds.selftest", "grushin_exp", "grushin.exp"),
    ("srfolds.cli", "grushin_exp", "grushin.exp"),
    ("srfolds.grushin", "grushin_conj_f", "grushin.conj_f"),
    ("srfolds.grushin", "grushin_conj_grad", "grushin.grad_kernel"),
    ("srfolds.grushin", "grushin_kernel", "grushin.grad_kernel"),
    ("srfolds.su2", "su2_exp", "su2.exp"),
    ("srfolds.selftest", "su2_exp", "su2.exp"),
    ("srfolds.cli", "su2_exp", "su2.exp"),
    ("srfolds.su2", "su2_chart", "su2.chart"),
    ("srfolds.sl2", "sl2_exp", "sl2.exp"),
    ("srfolds.selftest", "sl2_exp", "sl2.exp"),
    ("srfolds.cli", "sl2_exp", "sl2.exp"),
    ("srfolds.sl2", "sl2_chart", "sl2.chart"),
    ("srfolds.sl2", "sc_pair", "scfun.sc_pair"),
    ("srfolds.scfun", "sc_pair", "scfun.sc_pair"),
    ("srfolds.singularity", "fd_jacobian", "numeric.fd_jacobian"),
    ("srfolds.selftest", "fd_jacobian", "numeric.fd_jacobian"),
    ("srfolds.singularity", "rank_nullspace", "numeric.rank_nullspace"),
    ("srfolds.su2", "rank_nullspace", "numeric.rank_nullspace"),
    ("srfolds.sl2", "rank_nullspace", "numeric.rank_nullspace"),
    ("srfolds.alphatrig", "integrate", "numeric.integrate"),
    ("srfolds.grushin", "integrate", "numeric.integrate"),
    ("srfolds.selftest", "integrate", "numeric.integrate"),
    ("srfolds.alphatrig", "quad", "numeric.quad"),
    ("srfolds.singularity", "classify", "singularity.classify"),
    ("srfolds.singularity", "second_order_transversality", "singularity.second_order"),
    ("srfolds", "fold_witness", "singularity.fold_witness"),
    ("srfolds.selftest", "fold_witness", "singularity.fold_witness"),
]
SCAN_BOUNDARIES = [("srfolds", "scan_ray"), ("srfolds.cli", "scan_ray"),
                   ("srfolds.selftest", "scan_ray")]
ROOT_BOUNDARIES = [("srfolds.singularity", "find_roots"), ("srfolds.selftest", "find_roots")]
ARC_BOUNDARIES = [("srfolds.grushin", "arc_alpha"), ("srfolds.selftest", "arc_alpha")]
TABLE_BOUNDARY = ("srfolds.alphatrig", "_table_cached")
# the quarter-period evaluation that arc_alpha's bisection repeats
BISECTION_STEP = ("srfolds.alphatrig", "_eval_quarter")

COUNTERS = ["singularity.records.fold", "singularity.records.tangential",
            "singularity.records.undetermined", "singularity.order_mismatch",
            "numeric.find_roots.grid_evals", "numeric.find_roots.brent_evals",
            "numeric.find_roots.brackets", "numeric.find_roots.accepted",
            "numeric.find_roots.pole_rejects", "numeric.find_roots.dips"]
LAYER_SPANS = sorted({name for _, _, name in BOUNDARIES} | {
    "alphatrig.arc", "singularity.scan_ray", "numeric.find_roots"})


class Tracer:
    """Records spans and counters while installed; restores every name on uninstall."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter(dict.fromkeys(COUNTERS, 0))
        self.ray_id = None
        # ray ids with at least one bisection step inside arc_alpha
        self.bisection_rays: set = set()
        # what was wrapped: span names, plus "numeric.find_roots.counts" and
        # "alphatrig.bisection" for the figures that need more than a span
        self.measured: set[str] = set()
        # "module.attr" of every boundary that could not be wrapped
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []
        self._in_arc = 0
        self._scan_points = None

    # -- installation -------------------------------------------------------
    def _patch(self, module_name: str, attr: str, make, measures: str) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        wrapped = None if original is None else make(original)
        if wrapped is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, wrapped)
        self._patches.append((module, attr, original))
        self.measured.add(measures)

    def install(self) -> "Tracer":
        for module_name, attr, name in BOUNDARIES:
            self._patch(module_name, attr, lambda f, n=name: self._wrap(n, f), name)
        for module_name, attr in SCAN_BOUNDARIES:
            self._patch(module_name, attr, self._wrap_scan, "singularity.scan_ray")
        for module_name, attr in ROOT_BOUNDARIES:
            self._patch(module_name, attr, self._wrap_find_roots, "numeric.find_roots")
        numeric = importlib.import_module("srfolds.numeric")
        self._scan_points = getattr(numeric, "DEFAULT_SCAN_POINTS", None)
        if self._scan_points is None:
            self.missing.append("srfolds.numeric.DEFAULT_SCAN_POINTS")
        elif "numeric.find_roots" in self.measured:
            self.measured.add("numeric.find_roots.counts")
        for module_name, attr in ARC_BOUNDARIES:
            self._patch(module_name, attr, self._wrap_arc, "alphatrig.arc")
        if "alphatrig.arc" in self.measured:
            self._patch(*BISECTION_STEP, self._wrap_bisection_step, "alphatrig.bisection")
        self._patch(*TABLE_BOUNDARY, self._wrap_table, "alphatrig.table")
        return self

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- spans --------------------------------------------------------------
    def _wrap(self, name: str, fn, keep=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if keep is None or keep():
                    spans[idx] = (name, start, end, parent, self.ray_id)

        return traced

    def _wrap_arc(self, fn):
        inner = self._wrap("alphatrig.arc", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._in_arc += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._in_arc -= 1

        return traced

    def _wrap_bisection_step(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._in_arc:
                self.bisection_rays.add(self.ray_id)
            return fn(*args, **kwargs)

        return traced

    def _wrap_table(self, fn):
        info = getattr(fn, "cache_info", None)
        if info is None:
            return None
        state = {}

        def built() -> bool:
            return info().misses != state["misses"]

        inner = self._wrap("alphatrig.table", fn, keep=built)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state["misses"] = info().misses
            return inner(*args, **kwargs)

        return traced

    def _wrap_scan(self, fn):
        inner = self._wrap("singularity.scan_ray", fn)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            records = inner(*args, **kwargs)
            for rec in records:
                counters["singularity.records." + rec.singularity_class.value.lower()] += 1
                if rec.order != 1:
                    # every conjugate point of these structures has analytic order one
                    counters["singularity.order_mismatch"] += 1
            return records

        return traced

    # -- find_roots counters ------------------------------------------------
    def _wrap_find_roots(self, fn):
        inner = self._wrap("numeric.find_roots", fn)
        counters = self.counters

        @functools.wraps(fn)
        def traced(g, lo, hi, *args, **kwargs):
            # the first scan_points evaluations are the uniform grid, the rest
            # polish brackets (Brent) or even-order dips
            grid_size = kwargs.get("scan_points", args[0] if args else self._scan_points)
            grid: list[float] = []
            polish = [0]

            def counted(x):
                value = g(x)
                if grid_size is None or len(grid) < grid_size:
                    grid.append(value)
                else:
                    polish[0] += 1
                return value

            hits = inner(counted, lo, hi, *args, **kwargs)
            brackets = sum(1 for a, b in zip(grid, grid[1:])
                           if a != 0.0 and b != 0.0 and (a > 0.0) != (b > 0.0))
            exact = sum(1 for a in grid if a == 0.0)
            bracketed = sum(1 for h in hits if getattr(h, "bracketed", True))
            accepted = max(0, bracketed - exact)
            counters["numeric.find_roots.grid_evals"] += len(grid)
            counters["numeric.find_roots.brent_evals"] += polish[0]
            counters["numeric.find_roots.brackets"] += brackets
            counters["numeric.find_roots.accepted"] += accepted
            counters["numeric.find_roots.pole_rejects"] += max(0, brackets - accepted)
            counters["numeric.find_roots.dips"] += len(hits) - bracketed
            return hits

        return traced

    # -- reports ------------------------------------------------------------
    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds)} over every recorded span."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        totals: dict[str, list] = {}
        for idx, span in enumerate(spans):
            if span is None:
                continue
            entry = totals.setdefault(span[0], [0, 0.0])
            entry[0] += 1
            entry[1] += (span[2] - span[1]) - covered[idx]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def table_builds(self) -> tuple[int, float]:
        """(alpha-table builds, their total wall seconds including children)."""
        builds = [s for s in self.spans if s is not None and s[0] == "alphatrig.table"]
        return len(builds), sum(s[2] - s[1] for s in builds)
