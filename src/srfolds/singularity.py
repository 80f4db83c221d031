"""Conjugate-locus scanning and Whitney-type classification, generic over structures.

A geometric structure plugs in through StructureAdapter: a chart presentation of
its fiber exponential (endpoint of the unit-time geodesic as a function of the
initial covector), analytic stratum functions whose zeros along a ray mark the
conjugate covectors, analytic gradients and kernel vectors, and a hook into its
closed-form Jacobi solution.

Classification at an order-one conjugate covector follows the transversality
dichotomy: when the active stratum's gradient pairs nontrivially with the kernel
direction, the singularity is a fold; when the pairing vanishes, the certificate
for the tangential (xz-type) normal form is a nonzero mixed second derivative
along the radial (Euler) direction and the kernel direction, projected outside
the image of the differential. Anything that fails both certificates, or that an
adapter explicitly excludes, is reported as Undetermined rather than guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidInput, WitnessNotFound
from .numeric import (DEFAULT_ROOT_TOL, DEFAULT_SCAN_POINTS, RankResult, check_root_tol,
                      fd_columns, fd_jacobian, fd_stencil, find_roots, rank_nullspace,
                      row_dots, scan_nodes)

# The classification policy is fixed. conj-scan prints PAIRING_TOL and
# SECOND_ORDER_TOL, with numeric.DEFAULT_RANK_TOL_FACTOR, in its tolerances.
# |<grad, kernel>| / (|grad| |kernel|) above this means transversal (fold)
PAIRING_TOL = 1e-6
# projected mixed second derivative above this certifies the tangential form
SECOND_ORDER_TOL = 1e-3
# step of the four-point stencil of the second-order certificate
SECOND_ORDER_STEP = 1e-4
# share of the kernel Jacobi momentum outside Im(d exp) that certifies regularity
INDEPENDENCE_TOL = 1e-3
# relative offset of the first scan node from the ray origin
RAY_ORIGIN_OFFSET = 1e-4


class SingularityClass(Enum):
    NOT_SINGULAR = "NotSingular"
    FOLD = "Fold"
    TANGENTIAL = "Tangential"
    UNDETERMINED = "Undetermined"


def _never(cov: np.ndarray, stratum: str) -> bool:
    return False


@dataclass(frozen=True)
class StructureAdapter:
    """Hooks a geometric structure into the generic scanner and classifier.

    chart_at(center) returns the chart presentation of the fiber exponential
    near `center` (the covector under study): a function mapping a covector to
    the chart coordinates, as a float array, of its time-one endpoint. The
    chart is selected once, when chart_at is called, so finite differences
    never straddle a chart switch and each evaluation costs one exponential.
    chart_array(centers, points) is the same map over arrays: centers of
    shape (N, fiber_dim) and points of shape (N, m, fiber_dim) give an array
    of shape (N, m, chart_dim) whose row [i, j] equals
    chart_at(centers[i])(points[i, j]) bit for bit (or it raises what that
    scalar call raises). The record build evaluates every finite-difference
    and second-order stencil of a ray through it, and classify and the other
    record checks call the same build, so bitwise agreement is what keeps a
    record's order, kernel basis and class the same whichever route made it.
    conj_f returns the tuple of stratum function values aligned with
    stratum_names; conj_f_array(covs) evaluates them at every row of an
    (n, fiber_dim) array of covectors in one array call and returns an
    (n_strata, n) array whose entries equal conj_f's bit for bit (or raises
    what conj_f raises at the first row where it raises): scan_ray samples its
    grid with it, and Brent and the residual gate use conj_f, so both must
    agree for the brackets to hold.

    record_fields(covs, strata, order_one) gives the analytic fields of a
    ray's records in array calls: for (n, fiber_dim) covectors, their stratum
    indices into stratum_names and a mask of the order-one rows, it returns
    the f-values (n, n_strata), as conj_f gives them, and on the order-one
    rows the unit kernel vectors (n, fiber_dim) and the gradients (n,
    fiber_dim) of each row's stratum function; their other rows are not
    read. Each value equals the structure's scalar function bit for bit, and
    it raises what the scalar sequence (conj_f, then on order-one rows the
    kernel and the gradient) raises at the first row where it raises; a row
    of order 0 or 2 raises only where conj_f does. A structure with one
    stratum function gets index 0 for every record, whatever its label.

    ray_gate(direction) says whether covectors along the ray can be conjugate
    at all; undetermined(cov, stratum) marks points the classification theory
    deliberately excludes. A planar structure (fiber_dim == 2) has no
    separate stratum functions: the scanner names each of its records that
    has a kernel/gradient pairing C0 (transversal, above PAIRING_TOL) or C1.

    kernel_jacobi_image(cov) feeds regularity_isomorphism_check from the
    structure's closed-form Jacobi solution: it takes the vertical Jacobi
    datum spanning the kernel at a conjugate covector, propagates its
    momentum to t=1 and returns that momentum's image in the chart at the
    endpoint.
    """

    name: str
    fiber_dim: int
    chart_at: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]
    chart_array: Callable[[np.ndarray, np.ndarray], np.ndarray]
    conj_f: Callable[[np.ndarray], tuple]
    conj_f_array: Callable[[np.ndarray], np.ndarray]
    record_fields: Callable[[np.ndarray, np.ndarray, np.ndarray],
                            tuple[np.ndarray, np.ndarray, np.ndarray]]
    stratum_names: tuple[str, ...]
    ray_gate: Callable[[np.ndarray], bool]
    kernel_jacobi_image: Callable[[np.ndarray], np.ndarray]
    undetermined: Callable[[np.ndarray, str], bool] = field(default=_never)


@dataclass(frozen=True)
class ConjugateRecord:
    """One conjugate covector found on a ray, with its cross-validated order."""

    s: float
    covector: np.ndarray
    stratum: str
    order: int
    kernel_basis: tuple[np.ndarray, ...]
    f_values: tuple[float, ...]
    singularity_class: SingularityClass


@dataclass(frozen=True)
class FoldWitness:
    """Two distinct covectors near a fold whose endpoints coincide."""

    covector_a: np.ndarray
    covector_b: np.ndarray
    image_distance: float
    separation: float


def _stratum_indices(adapter: StructureAdapter, strata: Sequence[str]) -> np.ndarray:
    """Each stratum's index into adapter.stratum_names; 0 on a one-function structure."""
    names = adapter.stratum_names
    if len(names) == 1:
        return np.zeros(len(strata), dtype=int)
    return np.array([names.index(stratum) for stratum in strata])


def _pairings(grads: np.ndarray, kerns: np.ndarray,
              order_one: np.ndarray) -> list[Optional[float]]:
    """<grad, kernel> / (|grad| |kernel|) on each order-one row.

    None on the other rows and where the denominator is 0 or not finite.
    """
    with np.errstate(all="ignore"):
        denom = np.sqrt(row_dots(grads, grads)) * np.sqrt(row_dots(kerns, kerns))
        pairing = row_dots(grads, kerns) / denom
    usable = order_one & (denom != 0.0) & np.isfinite(denom)
    return [p if ok else None for p, ok in zip(pairing.tolist(), usable.tolist())]


def _rank_reports(adapter: StructureAdapter, covs: np.ndarray) -> list[RankResult]:
    """The FD rank report of the chart Jacobian at each row of covs.

    fd_jacobian's central-difference stencil around every covector goes
    through one chart_array call, each row in the chart selected at its own
    covector, and the stacked Jacobians through one rank_nullspace call. Each
    report equals rank_nullspace(fd_jacobian(adapter.chart_at(cov), cov)).
    """
    points, steps = fd_stencil(covs)
    return rank_nullspace(fd_columns(adapter.chart_array(covs, points), steps))


def _unit_direction(direction: Sequence[float], fiber_dim: int) -> np.ndarray:
    """direction / |direction|, also where |direction| overflows or underflows.

    Such a direction is first scaled by the power of two that brings its
    largest component into [0.5, 1), which is exact; every other direction
    is divided by its norm as it is.
    """
    d = np.asarray(direction, dtype=float)
    if d.shape != (fiber_dim,):
        raise InvalidInput(f"direction must have {fiber_dim} components, got shape {d.shape}")
    with np.errstate(over="ignore", under="ignore"):
        norm_d = float(np.linalg.norm(d))
    if (norm_d == 0.0 or math.isinf(norm_d)) and np.isfinite(d).all() and d.any():
        d = np.ldexp(d, -math.frexp(float(np.max(np.abs(d))))[1])
        norm_d = float(np.linalg.norm(d))
    if norm_d == 0.0 or not np.isfinite(norm_d):
        raise InvalidInput("direction must be a nonzero finite vector")
    return d / norm_d


def scan_ray(adapter: StructureAdapter, direction: Sequence[float], s_max: float, *,
             scan_points: int = DEFAULT_SCAN_POINTS,
             root_tol: float = DEFAULT_ROOT_TOL) -> list[ConjugateRecord]:
    """Conjugate covectors on the ray {s * direction : 0 < s <= s_max}, classified.

    Roots of each stratum function are located by a scan-and-bracket search:
    one conj_f_array call samples every stratum on the scan grid, and Brent
    polishes each sign change with the scalar conj_f. Every root is
    cross-validated by the finite-difference rank of the chart exponential
    before it becomes a record; the records of all strata are built together
    (_build_records). Records are sorted by s.
    """
    d = _unit_direction(direction, adapter.fiber_dim)
    if not (s_max > 0.0 and np.isfinite(s_max)):
        raise InvalidInput(f"s_max must be positive and finite, got {s_max}")
    check_root_tol(root_tol)
    if not adapter.ray_gate(d):
        return []
    lo = s_max * RAY_ORIGIN_OFFSET
    grid = adapter.conj_f_array(scan_nodes(lo, s_max, scan_points)[:, np.newaxis] * d)
    hits: list[tuple[float, str]] = []
    for idx, stratum in enumerate(adapter.stratum_names):
        def g(s: float, _i: int = idx) -> float:
            return float(adapter.conj_f(s * d)[_i])
        hits += [(hit.value, stratum) for hit in find_roots(
            g, lo, s_max, scan_points=scan_points, tol=root_tol, grid_values=grid[idx])]
    records = _build_records(adapter, d, hits) if hits else []
    records.sort(key=lambda rec: rec.s)
    return records


def _build_records(adapter: StructureAdapter, d: np.ndarray,
                   hits: list[tuple[float, str]]) -> list[ConjugateRecord]:
    """The records at the radii s (on their strata) of the unit ray d.

    One _rank_reports pass gives every record's order and FD kernel, one
    record_fields call the analytic f-values, kernels and gradients, and
    _decide certifies the records that need the second-order test together.
    A planar record with a pairing is named C0 or C1 by it.
    """
    covs = np.array([s * d for s, _ in hits])
    strata = [stratum for _, stratum in hits]
    rank_infos = _rank_reports(adapter, covs)
    orders = [adapter.fiber_dim - info.numeric_rank for info in rank_infos]
    order_one = np.array(orders) == 1
    f_values, kernels, grads = adapter.record_fields(
        covs, _stratum_indices(adapter, strata), order_one)
    pairings = _pairings(grads, kernels, order_one)
    kernel_bases = [(kern,) if one else tuple(info.nullspace_basis)
                    for kern, one, info in zip(kernels, order_one.tolist(), rank_infos)]
    classes = _decide(adapter, covs, strata, orders, kernel_bases, pairings, rank_infos)
    records = []
    for i, (s, stratum) in enumerate(hits):
        if adapter.fiber_dim == 2 and pairings[i] is not None:
            stratum = "C0" if abs(pairings[i]) > PAIRING_TOL else "C1"
        records.append(ConjugateRecord(
            s=float(s), covector=covs[i], stratum=stratum, order=orders[i],
            kernel_basis=kernel_bases[i], f_values=tuple(f_values[i].tolist()),
            singularity_class=classes[i]))
    return records


def classify(adapter: StructureAdapter, record: ConjugateRecord) -> SingularityClass:
    """Fold / Tangential / Undetermined for an order-one record; NotSingular at order 0.

    Fold when the normalized pairing exceeds PAIRING_TOL; otherwise, on a
    three-dimensional fiber, Tangential when the second-order certificate
    exceeds SECOND_ORDER_TOL. On a planar structure a pairing under the
    tolerance gives Undetermined.

    The decision depends only on directions, not magnitudes: the pairing is
    normalized by |grad| |kernel|, and the second-order certificate is a norm of
    a projection, so rescaling gradient or kernel vectors cannot flip the class.
    scan_ray reaches the same decision through the same build, over all the
    records of a ray at once; here the record's own kernel is paired with the
    gradient, and an order-one record at a covector the structure does not
    accept as conjugate raises as the build does.
    """
    cov = np.asarray(record.covector, dtype=float)[np.newaxis]
    rank_infos = _rank_reports(adapter, cov)
    order_one = np.array([record.order == 1])
    pairings = [None]
    if record.order == 1:
        _, _, grads = adapter.record_fields(
            cov, _stratum_indices(adapter, [record.stratum]), order_one)
        kern = np.asarray(record.kernel_basis[0], dtype=float)[np.newaxis]
        pairings = _pairings(grads, kern, order_one)
    return _decide(adapter, cov, [record.stratum], [record.order], [record.kernel_basis],
                   pairings, rank_infos)[0]


def _decide(adapter: StructureAdapter, covs: np.ndarray, strata: list[str],
            orders: list[int], kernel_bases: list[tuple[np.ndarray, ...]],
            pairings: list[Optional[float]],
            rank_infos: list[RankResult]) -> list[SingularityClass]:
    """classify's decision for each record, from its pairing and FD rank report.

    The records the pairing leaves open share one _second_orders call.
    """
    classes = [_pairing_class(adapter, cov, stratum, order, pairing)
               for cov, stratum, order, pairing in zip(covs, strata, orders, pairings)]
    pending = [i for i, cls in enumerate(classes) if cls is None]
    values = _second_orders(adapter, covs[pending], [kernel_bases[i][0] for i in pending],
                            [rank_infos[i] for i in pending])
    for i, value in zip(pending, values):
        classes[i] = (SingularityClass.TANGENTIAL if value > SECOND_ORDER_TOL
                      else SingularityClass.UNDETERMINED)
    return classes


def _pairing_class(adapter: StructureAdapter, cov: np.ndarray, stratum: str, order: int,
                   pairing: Optional[float]) -> Optional[SingularityClass]:
    """The class when the order and the pairing settle it; None when the second order must."""
    if order == 0:
        return SingularityClass.NOT_SINGULAR
    if order != 1:
        return SingularityClass.UNDETERMINED
    if adapter.undetermined(cov, stratum):
        return SingularityClass.UNDETERMINED
    if pairing is None:
        return SingularityClass.UNDETERMINED
    if abs(pairing) > PAIRING_TOL:
        return SingularityClass.FOLD
    if adapter.fiber_dim == 2:
        # plane-to-plane maps have folds and cusps (Whitney); the mixed
        # second derivative certifies the group's tangential form and cannot
        # tell a cusp, or a fold next to one, from it
        return SingularityClass.UNDETERMINED
    return None


def second_order_transversality(adapter: StructureAdapter,
                                record: ConjugateRecord) -> float:
    """Norm of the mixed radial/kernel second derivative outside Im(d chart).

    With chart = adapter.chart_at(cov), evaluates d^2/ds dr of
    (s, r) -> chart((1+s)(cov + r k)) at (0, 0) by a four-point central stencil
    of step SECOND_ORDER_STEP and projects it onto the orthogonal complement of
    the image of the differential. Returns 0.0 when the differential has full
    rank (no complement to project onto).
    """
    if record.order < 1:
        return 0.0
    cov = np.asarray(record.covector, dtype=float)[np.newaxis]
    return _second_orders(adapter, cov, [record.kernel_basis[0]], _rank_reports(adapter, cov))[0]


def _second_orders(adapter: StructureAdapter, covs: np.ndarray, kerns: list[np.ndarray],
                   rank_infos: list[RankResult]) -> list[float]:
    """The second-order value at each covector along its kernel vector, from its FD rank report.

    The four-point stencils of every covector whose differential has an
    image complement go through one chart_array call; any other gets 0.0.
    """
    values = [0.0] * len(rank_infos)
    live = [i for i, info in enumerate(rank_infos) if info.image_complement.shape[1]]
    if not live:
        return values
    covs = covs[live]
    kerns = np.array([np.asarray(kerns[i], dtype=float) for i in live])
    kerns = kerns / np.sqrt(row_dots(kerns, kerns))[:, np.newaxis]
    step = SECOND_ORDER_STEP
    points = np.stack([(1.0 + sgn_s * step) * (covs + sgn_r * step * kerns)
                       for sgn_s, sgn_r in ((1, 1), (1, -1), (-1, 1), (-1, -1))], axis=1)
    ends = adapter.chart_array(covs, points)
    mixed = ends[:, 0] - ends[:, 1] - ends[:, 2] + ends[:, 3]
    mixed /= 4.0 * step * step
    for i, vec in zip(live, mixed):
        values[i] = float(np.linalg.norm(rank_infos[i].image_complement.T @ vec))
    return values


def fold_witness(adapter: StructureAdapter, record: ConjugateRecord,
                 delta: float) -> FoldWitness:
    """Two covectors within delta of the fold whose endpoints coincide to 1e-9.

    Steps +-a along the kernel direction and solves for the full covector on
    the far side until both images agree, certifying non-injectivity of the
    exponential in every neighbourhood of the fold point. The solve is
    quasi-Newton: one FD Jacobian, then Broyden updates (see _newton_partner).
    Offsets a = delta/2, delta/3, delta/4 are tried in turn; when none meets
    the gates, WitnessNotFound names the image distance and the separation
    reached at each.
    """
    if record.singularity_class is not SingularityClass.FOLD:
        raise InvalidInput("fold_witness requires a record classified as Fold")
    if not (delta > 0.0):
        raise InvalidInput(f"delta must be positive, got {delta}")
    cov = np.asarray(record.covector, dtype=float)
    kern = np.asarray(record.kernel_basis[0], dtype=float)
    kern = kern / np.linalg.norm(kern)
    chart = adapter.chart_at(cov)
    margins = []
    for a in (delta / 2.0, delta / 3.0, delta / 4.0):
        pair = _newton_partner(chart, cov, kern, a)
        if pair is None:
            margins.append(f"a={a:.3g}: solve failed")
            continue
        lam_a, lam_b, dist = pair
        separation = float(np.linalg.norm(lam_a - lam_b))
        reach = float(max(np.linalg.norm(lam_a - cov), np.linalg.norm(lam_b - cov)))
        if dist <= 1e-9 and separation >= delta / 4.0 and reach <= delta:
            return FoldWitness(covector_a=lam_a, covector_b=lam_b,
                               image_distance=dist, separation=separation)
        margins.append(f"a={a:.3g}: image distance {dist:.3g}, "
                       f"separation {separation:.3g}, reach {reach:.3g}")
    raise WitnessNotFound(
        f"no coincident endpoint pair within delta={delta} of the fold covector; "
        "the record may be misclassified (need image distance <= 1e-09, "
        f"separation >= {delta / 4.0:.3g}, reach <= delta; "
        + "; ".join(margins) + ")")


def _newton_partner(chart, cov: np.ndarray, kern: np.ndarray, a: float):
    """Quasi-Newton solve for the partner covector across the fold line, or None.

    Targets the image of cov + a kern from cov - a kern. One FD Jacobian is
    built, and only if the first residual misses 1e-13; each step then
    applies Broyden's rank-one secant update J += (dr - J dx) dx^T / (dx.dx)
    instead of rebuilding it. Steps are clamped to 5a. Returns
    (lam_a, lam_b, dist) with dist the norm of the last residual.
    """
    lam_a = cov + a * kern
    target = chart(lam_a)
    lam_b = cov - a * kern
    residual = chart(lam_b) - target
    dist = float(np.linalg.norm(residual))
    jac = None
    for _ in range(50):
        if dist <= 1e-13:
            break
        try:
            if jac is None:
                jac = fd_jacobian(chart, lam_b, h=1e-7)
            step_vec = np.linalg.solve(jac, residual)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step_vec)):
            return None
        step_norm = float(np.linalg.norm(step_vec))
        if step_norm > 5.0 * a:
            step_vec *= 5.0 * a / step_norm
        lam_b = lam_b - step_vec
        new_residual = chart(lam_b) - target
        dist = float(np.linalg.norm(new_residual))
        dx_dx = float(step_vec @ step_vec)
        if dist > 1e-13 and dx_dx > 0.0:
            # secant condition J dx = dr with dx = -step_vec
            jac -= np.outer(new_residual - residual + jac @ step_vec, step_vec) / dx_dx
        residual = new_residual
    return lam_a, lam_b, dist


def regularity_isomorphism_check(adapter: StructureAdapter,
                                 record: ConjugateRecord) -> bool:
    """True when the kernel Jacobi datum's endpoint momentum escapes Im(d exp).

    Takes the chart image of the endpoint momentum of the vertical Jacobi
    datum whose field vanishes at both ends (adapter.kernel_jacobi_image) and
    tests its linear independence from the image of the differential: the
    part outside it must exceed INDEPENDENCE_TOL of the vector's norm.
    """
    if record.order != 1:
        raise InvalidInput("regularity check requires an order-one record")
    cov = np.asarray(record.covector, dtype=float)
    vec = np.asarray(adapter.kernel_jacobi_image(cov), dtype=float)
    norm_vec = float(np.linalg.norm(vec))
    if norm_vec == 0.0:
        return False
    complement = _rank_reports(adapter, cov[np.newaxis])[0].image_complement
    if complement.shape[1] == 0:
        return False
    return bool(np.linalg.norm(complement.T @ vec) > INDEPENDENCE_TOL * norm_vec)
