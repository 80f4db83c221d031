"""The independent routes the closed forms are checked against: ODE, quadrature, FD.

Contract-checked wrappers around scipy.integrate, which integrate and quad
import on first use, so importing this module loads no scipy module, and the
central-difference Jacobian of one function at one point (fd_jacobian), on
the record build's stencil. The self-test battery, alphatrig's quadrature
form of pi_alpha and the test suite call them; no scan, witness or
exponential does. The defaults are tight: the integrator runs at rel 1e-10 /
abs 1e-12 and quadrature at 1e-10 unless a caller loosens them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInput, NonConvergence, StepFailure
from .numeric import DEFAULT_ROOT_TOL, fd_columns, fd_stencil

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-12


@dataclass(frozen=True)
class OdeProblem:
    """First-order IVP y' = vector_field(t, y), y(t0) = initial_state, on t_span."""

    dimension: int
    vector_field: Callable[[float, np.ndarray], np.ndarray]
    initial_state: np.ndarray
    t_span: tuple[float, float]

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidInput(f"dimension must be >= 1, got {self.dimension}")
        if len(self.initial_state) != self.dimension:
            raise InvalidInput(
                f"initial_state length {len(self.initial_state)} != dimension {self.dimension}")
        if not self.t_span[0] < self.t_span[1]:
            raise InvalidInput(f"t_span must be increasing, got {self.t_span}")


class Trajectory:
    """Dense ODE solution; callable at any t inside the integrated span."""

    def __init__(self, sol, t_span: tuple[float, float]):
        self._sol = sol
        self.t_span = t_span

    def __call__(self, t: float) -> np.ndarray:
        lo, hi = self.t_span
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise InvalidInput(f"t={t} outside integrated span {self.t_span}")
        return np.atleast_1d(self._sol(t))

    @property
    def end(self) -> np.ndarray:
        return self(self.t_span[1])


def integrate(problem: OdeProblem,
              rel_tol: float = DEFAULT_REL_TOL,
              abs_tol: float = DEFAULT_ABS_TOL) -> Trajectory:
    """Integrate an OdeProblem with an embedded RK5(4) pair, dense output.

    Raises StepFailure if the integrator cannot reach the end of the span.
    """
    for tol in (rel_tol, abs_tol):
        if not (0.0 < tol <= 1e-2):
            raise InvalidInput(f"tolerance {tol} outside (0, 1e-2]")
    from scipy.integrate import solve_ivp

    y0 = np.asarray(problem.initial_state, dtype=float)
    res = solve_ivp(problem.vector_field, problem.t_span, y0, method="RK45",
                    rtol=rel_tol, atol=abs_tol, dense_output=True)
    if not res.success:
        raise StepFailure(f"integration failed on {problem.t_span}: {res.message}")
    return Trajectory(res.sol, tuple(problem.t_span))


def quad(f: Callable[[float], float], a: float, b: float,
         tol: float = DEFAULT_ROOT_TOL) -> float:
    """Adaptive quadrature of f over [a, b]; the error estimate must meet tol."""
    from scipy.integrate import quad as _quad

    out = _quad(f, a, b, epsabs=tol, epsrel=tol, limit=200, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3 or abserr > max(tol, tol * abs(value)):
        raise NonConvergence(
            f"quadrature error estimate {abserr:.3e} exceeds tol {tol:.3e} on [{a}, {b}]")
    return value


def fd_jacobian(F: Callable[[np.ndarray], np.ndarray], x: Sequence[float],
                h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of F at x; step scaled per coordinate."""
    points, steps = fd_stencil(np.asarray(x, dtype=float), h)
    values = np.array([np.asarray(F(p), dtype=float) for p in points])
    # row-major, as callers have always received it: products and solves
    # with a transposed view may round differently
    return np.ascontiguousarray(fd_columns(values, steps))
