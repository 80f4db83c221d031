"""The operation a ray workload times, and the set-up it needs.

Imported only after `srfolds` is, so a set-up probe can time the package
import from a fresh interpreter.
"""

from __future__ import annotations

from workloads import WITNESS_DELTA, Ray, adapter_keys, warmup_rays


def build_adapters(api, workload: str) -> dict[tuple, object]:
    """One adapter per (structure, alpha, x0) the workload scans."""
    adapters = {}
    for structure, alpha, x0 in adapter_keys(workload):
        if structure == "grushin":
            adapters[(structure, alpha, x0)] = api.grushin_adapter(
                api.GrushinBase(alpha=alpha, x0=x0, y0=0.0))
        elif structure == "su2":
            adapters[(structure, alpha, x0)] = api.su2_adapter()
        else:
            adapters[(structure, alpha, x0)] = api.sl2_adapter()
    return adapters


def adapter_for(adapters: dict, ray: Ray):
    return adapters[(ray.structure, ray.alpha, ray.x0)]


def scan_op(api, adapters: dict, ray: Ray) -> list:
    """scan_ray on the ray, then fold_witness on every Fold record."""
    adapter = adapter_for(adapters, ray)
    records = api.scan_ray(adapter, ray.direction, ray.s_max)
    for rec in records:
        if rec.singularity_class is api.SingularityClass.FOLD:
            api.fold_witness(adapter, rec, WITNESS_DELTA)
    return records


def set_up(api, workload: str) -> dict:
    """Adapters plus one warm-up ray per distinct (structure, alpha)."""
    adapters = build_adapters(api, workload)
    for ray in warmup_rays(workload):
        api.scan_ray(adapter_for(adapters, ray), ray.direction, ray.s_max)
    return adapters
