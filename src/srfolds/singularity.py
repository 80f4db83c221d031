"""Conjugate-locus scanning and Whitney-type classification, generic over structures.

A geometric structure plugs in through StructureAdapter: a chart presentation of
its fiber exponential (endpoint of the unit-time geodesic as a function of the
initial covector), analytic stratum functions whose zeros along a ray mark the
conjugate covectors, analytic gradients and kernel vectors, and the chart's
closed-form differential, which steps the fold witnesses.

Classification at an order-one conjugate covector follows the transversality
dichotomy: when the active stratum's gradient pairs nontrivially with the kernel
direction, the singularity is a fold; when the pairing vanishes, the certificate
for the tangential (xz-type) normal form is a nonzero mixed second derivative
along the radial (Euler) direction and the kernel direction, projected outside
the image of the differential. Anything that fails both certificates, or that an
adapter explicitly excludes, is reported as Undetermined rather than guessed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateCovector, InvalidInput, WitnessNotFound
# find_roots is not called here; perfbench/tracer.py wraps this name as the
# root-search boundary
from .numeric import (DEFAULT_ROOT_TOL, DEFAULT_SCAN_POINTS, check_root_tol, fd_columns,
                      fd_stencil, find_roots, find_roots_lockstep, node_roots, rank_nullspace,
                      row_dots, scan_nodes, sign_brackets, vector_norm)

# The classification policy is fixed. conj-scan prints PAIRING_TOL and
# SECOND_ORDER_TOL, with numeric.DEFAULT_RANK_TOL_FACTOR, in its tolerances.
# |<grad, kernel>| / (|grad| |kernel|) above this means transversal (fold)
PAIRING_TOL = 1e-6
# projected mixed second derivative above this certifies the tangential form
SECOND_ORDER_TOL = 1e-3
# relative stratum residual under which a kernel accepts a covector as conjugate
KERNEL_RESIDUAL_TOL = 1e-8
# step of the four-point stencil of the second-order certificate
SECOND_ORDER_STEP = 1e-4
# relative offset of the first scan node from the ray origin
RAY_ORIGIN_OFFSET = 1e-4
# sign-change brackets, over all strata of a ray, from which scan_ray polishes
# them in lockstep (find_roots_lockstep); fewer take the scalar Brent on g.
# A lockstep step costs one g_rows call and some seventy array
# operations however few brackets are open, so it pays only on rays with
# many. Lockstep over scalar scan_ray time (min of 21 interleaved runs,
# measured twice on a 2-core Xeon) reads 1.03-1.06 at 43 brackets and
# 0.98-1.00 at 49 on SU(2), 0.97-1.02 at 45 and 0.97-0.99 at 52 on SL(2),
# and 1.00-1.08 at 40 and 0.95-0.99 at 46 on Grushin (alpha = 2.5, x0 = 0
# and 0.3; measured when Grushin rays were still evaluated per covector)
LOCKSTEP_MIN_BRACKETS = 48


class SingularityClass(Enum):
    NOT_SINGULAR = "NotSingular"
    FOLD = "Fold"
    TANGENTIAL = "Tangential"
    UNDETERMINED = "Undetermined"


def _never(cov: np.ndarray, stratum: str) -> bool:
    return False


class RayStrata(NamedTuple):
    """A structure's stratum functions restricted to the ray {s d : s > 0}.

    g(idx, s) is stratum function idx at the covector s d, and g_rows(s)
    the values (m, n_strata) of every stratum function at the m radii of a
    1-d array s, equal to g bit for bit (or it raises what g raises at the
    first radius where g raises). nodes(lo, hi) gives the ascending radii,
    the last of them hi, between which scan_ray brackets the roots on
    [lo, hi], or raises DegenerateCovector where the covector at lo has no
    stratum values; None takes the uniform scan_nodes(lo, hi, scan_points).
    A ray with no conjugate covector gets None from the adapter instead.
    """

    g: Callable[[int, float], float]
    g_rows: Callable[[np.ndarray], np.ndarray]
    nodes: Callable[[float, float], np.ndarray] | None = None


@dataclass(frozen=True)
class StructureAdapter:
    """Hooks a geometric structure into the generic scanner and classifier.

    chart(cov) gives the chart coordinates, as a float array, of the time-one
    endpoint of a covector: the fiber exponential in one presentation valid
    everywhere, so finite differences never straddle a chart switch. It may
    immerse the target in more coordinates than fiber_dim (a group matrix's
    four entries); rank, kernel and the complement of the image are read
    there. chart_jacobian(cov) is chart's differential at cov, a
    (chart_dim, fiber_dim) array from the structure's closed forms; it is
    the chord matrix of fold_witness's partner solve (_newton_partner),
    evaluated at most once per witness, and may raise InvalidInput or
    DegenerateCovector where it is not defined.
    chart_array(points) is the same map over arrays: points of shape
    (N, m, fiber_dim) give an array of shape (N, m, chart_dim) whose row
    [i, j] equals chart(points[i, j]) bit for bit (or it raises what that
    scalar call raises, at the first row where it raises). The record build
    evaluates every finite-difference and second-order stencil of a ray
    through it, and classify and the other record checks call the same
    build, so bitwise agreement is what keeps a record's order, kernel basis
    and class the same whichever route made it.
    ray_strata(d) gives the stratum functions, aligned with stratum_names,
    restricted to the ray of the unit direction d (RayStrata), or None on
    a ray with no conjugate covector, which then has no records. scan_ray
    samples the ray's nodes with one g_rows call, and Brent polishes the
    brackets of a ray with few of them on g, and those of a ray with
    LOCKSTEP_MIN_BRACKETS or more in lockstep, one g_rows call per step;
    its last values are the residuals. So g and g_rows must agree bit for
    bit for the brackets and the radii to hold. record_fields(covs, strata,
    order_one) gives the stratum function values and the other analytic
    fields at arbitrary covectors, in array calls: for (n, fiber_dim)
    covectors, their stratum indices into stratum_names and a mask of the
    order-one rows, it returns the f-values (n, n_strata), and on the
    order-one rows the unit kernel vectors (n, fiber_dim) and the gradients
    (n, fiber_dim) of each row's stratum function; their other rows are not
    read, and need not be computed. Each value equals the structure's
    scalar function bit for bit, and it raises what the scalar sequence
    (the f-values, then on order-one rows the kernel and the gradient)
    raises at the first row where it raises; a row of order 0 or 2 raises
    only where the f-values do. A structure with one stratum function gets
    index 0 for every record, whatever its label. scan_ray builds a ray's
    records with one record_fields call. "Array calls" names the interface,
    not the evaluation: the groups evaluate chart_array and record_fields
    in array passes, and Grushin, whose calls carry a few dozen stencil
    points and a handful of records, loops over its scalar form.

    undetermined(cov, stratum) marks points the classification theory
    deliberately excludes. A planar structure (fiber_dim == 2) has no
    separate stratum functions: the scanner names each of its records that
    has a kernel/gradient pairing C0 (transversal, above PAIRING_TOL) or C1.
    """

    name: str
    fiber_dim: int
    chart: Callable[[np.ndarray], np.ndarray]
    chart_jacobian: Callable[[np.ndarray], np.ndarray]
    chart_array: Callable[[np.ndarray], np.ndarray]
    ray_strata: Callable[[np.ndarray], RayStrata | None]
    record_fields: Callable[[np.ndarray, np.ndarray, np.ndarray],
                            tuple[np.ndarray, np.ndarray, np.ndarray]]
    stratum_names: tuple[str, ...]
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
    unknown = set(strata) - set(names)
    if unknown:
        raise InvalidInput(f"unknown stratum {sorted(unknown)[0]!r} for {adapter.name}; "
                           f"expected one of {names}")
    return np.array([names.index(stratum) for stratum in strata])


def _pairings(grads: np.ndarray, kerns: np.ndarray, order_one: np.ndarray) -> np.ndarray:
    """<grad, kernel> / (|grad| |kernel|) on each order-one row.

    NaN on the other rows and where the denominator is 0 or not finite.
    """
    with np.errstate(all="ignore"):
        denom = np.sqrt(row_dots(grads, grads)) * np.sqrt(row_dots(kerns, kerns))
        pairing = row_dots(grads, kerns) / denom
    return np.where(order_one & (denom != 0.0) & np.isfinite(denom), pairing, np.nan)


def _rank_reports(adapter: StructureAdapter, covs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The FD rank reports of the chart Jacobians at the rows of covs, as arrays.

    oracles.fd_jacobian's central-difference stencil around every covector
    goes through one chart_array call, and the stacked Jacobians through one
    rank_nullspace call, whose (u, singular_values, vh, ranks, tolerances)
    row i equals rank_nullspace(fd_jacobian(adapter.chart, cov)) at
    cov = covs[i].
    """
    points, steps = fd_stencil(covs)
    return rank_nullspace(fd_columns(adapter.chart_array(points), steps))


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
    """Conjugate covectors on the ray {s * direction : lo <= s <= s_max}, classified.

    lo is s_max * RAY_ORIGIN_OFFSET. Roots of each stratum function are
    located by a bracket search on the adapter's restriction of the strata
    to the ray (ray_strata, None on a ray with no records), between the
    nodes the restriction chooses. scan_points sets the uniform nodes from
    lo to s_max of a group ray and of a Grushin ray whose direction is off
    the oscillator branch; a Grushin ray whose geodesics oscillate brackets
    between the poles of tan_alpha and ignores it, though it is checked on
    every ray. One g_rows call samples every stratum at the nodes. With
    fewer than LOCKSTEP_MIN_BRACKETS sign changes over all strata, Brent
    polishes each with the scalar g (node_roots); with more, all of them are polished
    together, one g_rows call per Brent step (find_roots_lockstep), to the
    same roots bit for bit. Every root is cross-validated by the
    finite-difference rank of the chart exponential before it becomes a
    record; the records of all strata are built together (_build_records).
    Records are sorted by s. An s_max so small that the energy of the
    covectors at lo underflows raises InvalidInput.
    """
    d = _unit_direction(direction, adapter.fiber_dim)
    if not (s_max > 0.0 and np.isfinite(s_max)):
        raise InvalidInput(f"s_max must be positive and finite, got {s_max}")
    check_root_tol(root_tol)
    strata = adapter.ray_strata(d)
    if strata is None:
        return []
    lo = s_max * RAY_ORIGIN_OFFSET
    # checks scan_points on every ray, also where the restriction's nodes ignore it
    uniform = scan_nodes(lo, s_max, scan_points)
    g, g_rows, nodes = strata
    try:
        xs = uniform if nodes is None else nodes(lo, s_max)
        values = g_rows(xs).T
    except DegenerateCovector as exc:
        # ray_strata let the ray in, so its energy is positive: it underflows
        raise InvalidInput(f"s_max = {s_max!r} is too small: the energy of the covectors "
                           f"at the start of the scan grid underflows ({exc})") from exc
    if sign_brackets(values)[0].size >= LOCKSTEP_MIN_BRACKETS:
        found = find_roots_lockstep(g, g_rows, xs, values, root_tol)
    else:
        found = [node_roots(functools.partial(g, idx), xs, values[idx], root_tol)
                 for idx in range(len(adapter.stratum_names))]
    hits = [(hit.value, stratum)
            for stratum, roots in zip(adapter.stratum_names, found) for hit in roots]
    records = _build_records(adapter, d, hits) if hits else []
    records.sort(key=lambda rec: rec.s)
    return records


def _build_records(adapter: StructureAdapter, d: np.ndarray,
                   hits: list[tuple[float, str]]) -> list[ConjugateRecord]:
    """The records at the radii s (on their strata) of the unit ray d.

    One _rank_reports pass gives every record's order and FD kernel, one
    record_fields call the analytic f-values, kernels and gradients, and
    _decide classifies the records together. A planar record with a pairing
    is named C0 or C1 by it.
    """
    covs = np.array([s * d for s, _ in hits])
    strata = [stratum for _, stratum in hits]
    u, _, vh, ranks, _ = _rank_reports(adapter, covs)
    orders = adapter.fiber_dim - ranks
    order_one = orders == 1
    f_values, kernels, grads = adapter.record_fields(
        covs, _stratum_indices(adapter, strata), order_one)
    pairings = _pairings(grads, kernels, order_one)
    classes = _decide(adapter, covs, strata, orders, kernels, pairings, u, ranks)
    records = []
    for i, (s, stratum) in enumerate(hits):
        if adapter.fiber_dim == 2 and not math.isnan(pairings[i]):
            stratum = "C0" if abs(pairings[i]) > PAIRING_TOL else "C1"
        order, rank = int(orders[i]), int(ranks[i])
        records.append(ConjugateRecord(
            s=float(s), covector=covs[i], stratum=stratum, order=order,
            kernel_basis=(kernels[i],) if order == 1 else tuple(vh[i, rank:].copy()),
            f_values=tuple(f_values[i].tolist()), singularity_class=classes[i]))
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
    u, _, _, ranks, _ = _rank_reports(adapter, cov)
    orders = np.array([record.order])
    # the kernel and the pairing are read on order-one rows only
    kern, pairings = np.full_like(cov, np.nan), np.full(1, np.nan)
    if record.order == 1:
        _, _, grads = adapter.record_fields(
            cov, _stratum_indices(adapter, [record.stratum]), orders == 1)
        kern = np.asarray(record.kernel_basis[0], dtype=float)[np.newaxis]
        pairings = _pairings(grads, kern, orders == 1)
    return _decide(adapter, cov, [record.stratum], orders, kern, pairings, u, ranks)[0]


def _decide(adapter: StructureAdapter, covs: np.ndarray, strata: list[str],
            orders: np.ndarray, kerns: np.ndarray, pairings: np.ndarray,
            u: np.ndarray, ranks: np.ndarray) -> list[SingularityClass]:
    """classify's decision for each record, by masks over its order, pairing and FD rank report.

    The records the pairing leaves open share one _second_orders call.
    """
    paired = (orders == 1) & ~np.isnan(pairings)
    for i in np.flatnonzero(orders == 1):
        paired[i] &= not adapter.undetermined(covs[i], strata[i])
    fold = paired & (np.abs(pairings) > PAIRING_TOL)
    # plane-to-plane maps have folds and cusps (Whitney); the mixed second
    # derivative certifies the group's tangential form and cannot tell a
    # cusp, or a fold next to one, from it
    pending = paired & ~fold & (adapter.fiber_dim != 2)
    classes = np.full(len(strata), SingularityClass.UNDETERMINED, dtype=object)
    classes[orders == 0] = SingularityClass.NOT_SINGULAR
    classes[fold] = SingularityClass.FOLD
    tangential = _second_orders(adapter, covs[pending], kerns[pending], u[pending],
                                ranks[pending]) > SECOND_ORDER_TOL
    classes[np.flatnonzero(pending)[tangential]] = SingularityClass.TANGENTIAL
    return classes.tolist()


def second_order_transversality(adapter: StructureAdapter,
                                record: ConjugateRecord) -> float:
    """Norm of the mixed radial/kernel second derivative outside Im(d chart).

    Evaluates d^2/ds dr of (s, r) -> adapter.chart((1+s)(cov + r k)) at
    (0, 0) by a four-point central stencil of step SECOND_ORDER_STEP and
    projects it onto the orthogonal complement of the image of the
    differential. Returns 0.0 when the differential has full rank.
    """
    # a stratum the structure does not have is rejected, as classify rejects it
    _stratum_indices(adapter, [record.stratum])
    if record.order < 1:
        return 0.0
    cov = np.asarray(record.covector, dtype=float)[np.newaxis]
    u, _, _, ranks, _ = _rank_reports(adapter, cov)
    kern = np.asarray(record.kernel_basis[0], dtype=float)[np.newaxis]
    return float(_second_orders(adapter, cov, kern, u, ranks)[0])


def _second_orders(adapter: StructureAdapter, covs: np.ndarray, kerns: np.ndarray,
                   u: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The second-order value at each covector along its kernel, from its _rank_reports u and rank.

    The four-point stencils of every covector whose differential drops rank
    go through one chart_array call; any other gets 0.0.
    """
    values = np.zeros(len(covs))
    live = ranks < adapter.fiber_dim
    if not live.any():
        return values
    covs, kerns = covs[live], kerns[live]
    kerns = kerns / np.sqrt(row_dots(kerns, kerns))[:, np.newaxis]
    step = SECOND_ORDER_STEP
    points = np.stack([(1.0 + sgn_s * step) * (covs + sgn_r * step * kerns)
                       for sgn_s, sgn_r in ((1, 1), (1, -1), (-1, 1), (-1, -1))], axis=1)
    ends = adapter.chart_array(points)
    mixed = ends[:, 0] - ends[:, 1] - ends[:, 2] + ends[:, 3]
    mixed /= 4.0 * step * step
    values[live] = _complement_norms(u[live], ranks[live], mixed)
    return values


def _complement_norms(u: np.ndarray, ranks: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """np.linalg.norm(u[i][:, ranks[i]:].T @ vecs[i]) for each row, bit for bit.

    The rows of each rank share one stacked product on their u[..., rank:]
    slice; a product with every column of u, masked afterwards, may round
    differently.
    """
    norms = np.empty(len(ranks))
    for rank in set(ranks.tolist()):
        rows = ranks == rank
        complement = u[rows][:, :, rank:].swapaxes(-1, -2)
        projected = (complement @ vecs[rows][:, :, np.newaxis])[:, :, 0]
        norms[rows] = np.sqrt(row_dots(projected, projected))
    return norms


def fold_witness(adapter: StructureAdapter, record: ConjugateRecord,
                 delta: float) -> FoldWitness:
    """Two covectors within delta of the fold whose endpoints coincide to 1e-9.

    Steps +-a, a = delta/2, along the kernel direction and solves for the
    full covector on the far side until both images agree, certifying
    non-injectivity of the exponential in every neighbourhood of the fold
    point. The solve is the chord method: the adapter's analytic
    differential (chart_jacobian), evaluated once and kept for every step
    (see _newton_partner). When the pair misses the gates, WitnessNotFound
    names the image distance, the separation and the reach it got to; a
    smaller delta takes a smaller step. A record covector with a component
    that is not finite, or a kernel whose norm is 0 or not finite, raises
    InvalidInput before any chart call.
    """
    if record.singularity_class is not SingularityClass.FOLD:
        raise InvalidInput("fold_witness requires a record classified as Fold")
    if not (delta > 0.0 and math.isfinite(delta)):
        raise InvalidInput(f"delta must be positive and finite, got {delta}")
    cov = np.asarray(record.covector, dtype=float)
    if not all(map(math.isfinite, cov.tolist())):
        raise InvalidInput(f"fold_witness needs a finite record covector, got {cov!r}")
    kern = np.asarray(record.kernel_basis[0], dtype=float)
    kern_norm = vector_norm(kern)
    if not (kern_norm > 0.0 and math.isfinite(kern_norm)):
        raise InvalidInput("fold_witness needs a record kernel whose norm is nonzero "
                           f"and finite, got {kern!r}")
    kern = kern / kern_norm
    a = delta / 2.0
    pair = _newton_partner(adapter.chart, adapter.chart_jacobian, cov, kern, a)
    if pair is None:
        margin = f"a={a:.3g}: solve failed"
    else:
        lam_a, lam_b, dist = pair
        separation = vector_norm(lam_a - lam_b)
        reach = max(vector_norm(lam_a - cov), vector_norm(lam_b - cov))
        if dist <= 1e-9 and separation >= delta / 4.0 and reach <= delta:
            return FoldWitness(covector_a=lam_a, covector_b=lam_b,
                               image_distance=dist, separation=separation)
        margin = (f"a={a:.3g}: image distance {dist:.3g}, "
                  f"separation {separation:.3g}, reach {reach:.3g}")
    raise WitnessNotFound(
        f"no coincident endpoint pair within delta={delta} of the fold covector; "
        "the record may be misclassified (need image distance <= 1e-09, "
        f"separation >= {delta / 4.0:.3g}, reach <= delta; {margin})")


def _newton_partner(chart, chart_jacobian, cov: np.ndarray, kern: np.ndarray, a: float):
    """Chord solve for the partner covector across the fold line, or None.

    Targets the image of cov + a kern from cov - a kern. The chord matrix
    is chart_jacobian at cov - a kern, taken only if the first residual
    misses 1e-13, and every step solves that one matrix (np.linalg.solve
    on a square chart, least squares where the chart has more coordinates
    than the fiber) until the residual meets 1e-13 or 50 steps are taken.
    Steps are clamped to 5a; a step with a component above 1e150, whose
    squared norm may overflow, takes math.hypot for its norm. A differential
    that raises InvalidInput or DegenerateCovector, a singular solve or a
    non-finite step gives None.
    Returns (lam_a, lam_b, dist) with dist the norm of the last residual.
    """
    lam_a = cov + a * kern
    target = chart(lam_a)
    lam_b = cov - a * kern
    residual = chart(lam_b) - target
    dist = vector_norm(residual)
    jac = None
    for _ in range(50):
        if dist <= 1e-13:
            break
        try:
            if jac is None:
                jac = chart_jacobian(lam_b)
            if jac.shape[0] == jac.shape[1]:
                step_vec = np.linalg.solve(jac, residual)
            else:
                step_vec = np.linalg.lstsq(jac, residual, rcond=None)[0]
        except (np.linalg.LinAlgError, InvalidInput, DegenerateCovector):
            return None
        components = step_vec.tolist()
        if max(map(abs, components)) <= 1e150:
            step_norm = vector_norm(step_vec)
        else:
            # a component whose square may overflow in dot, an inf, or a
            # leading nan: hypot neither overflows nor warns, and gives inf
            # or nan for a step with an inf or a nan
            step_norm = math.hypot(*components)
        if not math.isfinite(step_norm):
            return None
        if step_norm > 5.0 * a:
            step_vec *= 5.0 * a / step_norm
        lam_b = lam_b - step_vec
        residual = chart(lam_b) - target
        dist = vector_norm(residual)
    return lam_a, lam_b, dist

