"""Record and fold-witness counts, and one SHA-256 of their bits, over the benchmark's ray pools.

    python3 tools/pool_hashes.py --seeds 1-10

Run from a checkout; the script finds src/ and perfbench/ next to its own
folder. For each ray workload it takes the pool of rounds that
perfbench/run.py cycles at each seed (run.pool_of, which builds them from
perfbench/workloads.py), scans every ray of it with the benchmark's
adapters, and certifies each Fold record with fold_witness at the
benchmark's delta, as the benchmark's operation does. It prints one line
per workload: the number of records, of Fold witnesses and of raises, and a
SHA-256 over every record field (s, stratum, order, class, covector, kernel
basis, f-values) and every witness field (both covectors, the image
distance, the separation), in pool order. A scan or witness that raises a
library error enters the hash as its type and message; any other exception
stops the script. Two checkouts that
print the same lines produced the same records and witnesses, bit for bit.
Nothing under perfbench/ is written.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("grushin_rays", "group_rays")


def _seeds(text: str) -> list[int]:
    """'N' or 'N-M' as the list of seeds N..M."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(text)
    return seeds


def _feed(digest, *parts) -> None:
    """Each part's bits, with a separator: strings as UTF-8, numbers as float64."""
    for part in parts:
        if isinstance(part, str):
            digest.update(part.encode())
        else:
            digest.update(np.asarray(part, dtype=float).tobytes())
        digest.update(b"\x00")


def _raised(digest, exc: Exception) -> None:
    _feed(digest, "raise", type(exc).__name__, str(exc))


def pool_line(api, run, ops, workload: str, seeds: list[int]) -> str:
    adapters = ops.build_adapters(api, workload)
    digest = hashlib.sha256()
    records = witnesses = raises = 0
    for seed in seeds:
        for ray in (ray for rnd in run.pool_of(workload, seed) for ray in rnd):
            _feed(digest, "ray", ray.label())
            adapter = ops.adapter_for(adapters, ray)
            try:
                found = api.scan_ray(adapter, ray.direction, ray.s_max)
            except api.SrfoldsError as exc:
                _raised(digest, exc)
                raises += 1
                continue
            for rec in found:
                records += 1
                _feed(digest, "record", rec.s, rec.stratum, rec.order,
                      rec.singularity_class.value, rec.covector, *rec.kernel_basis,
                      rec.f_values)
                if rec.singularity_class is not api.SingularityClass.FOLD:
                    continue
                try:
                    wit = api.fold_witness(adapter, rec, ops.WITNESS_DELTA)
                except api.SrfoldsError as exc:
                    _raised(digest, exc)
                    raises += 1
                    continue
                witnesses += 1
                _feed(digest, "witness", wit.covector_a, wit.covector_b,
                      wit.image_distance, wit.separation)
    return (f"{workload} seeds {seeds[0]}-{seeds[-1]}: {records} records, "
            f"{witnesses} witnesses, {raises} raises, sha256 {digest.hexdigest()}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default="1-10",
                        help="seeds as N or N-M (default 1-10)")
    args = parser.parse_args(argv)
    # perfbench/ is only read: no bytecode is cached next to it
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import srfolds as api
    import ops
    import run
    for workload in WORKLOADS:
        print(pool_line(api, run, ops, workload, args.seeds), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
