"""Per-(point, cluster) membership solver.

For a cluster with dispersion ``gamma`` and sparsity parameters ``(lam, p)``,
the optimal membership of a point at squared distance ``d`` is governed by

    f(u) = d + gamma*ln(u) + lam*p*u**(p-1),

the derivative of the per-term cost.  f has a unique minimum at

    u_hat = ((lam/gamma)*p*(1-p))**(1/(1-p))

and at most two roots in (0, 1].  With w = u**(p-1), f(u) = 0 reads
(-a*w)*exp(-a*w) = z for a = (1-p)*lam*p/gamma and z = -a*exp((1-p)*d/gamma).
When f(u_hat) < 0 the larger root takes the principal branch W0 of the
Lambert W function, -a*w = W0(z); as ln(-W0(z)) = ln(-z) - W0(z), it is

    u2 = exp(-d/gamma + W0(z)/(1-p)).

The membership is u2 if u2 is at least the threshold
u_min = (lam*(1-p)/gamma)**(1/(1-p)) and 0 otherwise.  The solver decides
this by the equivalent radius test d <= R^2 with

    R^2 = gamma/(1-p) * (-ln(lam*(1-p)/gamma) - p),

a quantity that depends only on (gamma, lam, p).  The d == R^2 boundary
takes the nonzero branch (closed ball), where u2 = u_min; the root is
clamped to at least u_min so rounding cannot take it below the band.  With
lam == 0 the solver reduces to exp(-d/gamma): u_min = 0, u_max = 1 and the
radius is infinite, so every point keeps a positive membership.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidParameterError",
    "ClusterSolverContext",
    "build_context",
    "solve_membership_batch",
    "radius_squared",
]

# Halley steps for W0; from the starting points in _lambert_w0 three reach
# the float floor over the whole branch.
_HALLEY_STEPS = 3


class InvalidParameterError(ValueError):
    """Raised when (gamma, lam, p) give a nonpositive influence radius."""


@dataclass(frozen=True)
class ClusterSolverContext:
    """Precomputed per-cluster quantities for the membership solver.

    Attributes
    ----------
    u_hat : float
        Location of the unique minimum of f.
    u_min : float
        Smallest attainable nonzero membership.
    u_max : float
        Largest attainable nonzero membership (root of f at d = 0).
    radius_sq : float
        Squared influence radius; ``inf`` when ``lam == 0``.
    """

    gamma: float
    lam: float
    p: float
    u_hat: float
    u_min: float
    u_max: float
    radius_sq: float


def radius_squared(gamma: float, lam: float, p: float) -> float:
    """Squared influence radius for the given parameters (inf for lam == 0)."""
    if lam == 0.0:
        return math.inf
    return (gamma / (1.0 - p)) * (-math.log(lam * (1.0 - p) / gamma) - p)


def _lambert_w0(z: np.ndarray) -> np.ndarray:
    """Principal branch W0 of the Lambert W function on [-1/e, 0].

    Halley iteration (Corless et al., "On the Lambert W function", Adv.
    Comput. Math. 5, 1996), started from the branch-point series for
    z < -0.25 and from z*(1-z) otherwise.  At the branch point z = -1/e
    (q = 0) the start is W0 = -1 and every step is skipped, not divided by
    zero; a z rounded past it is treated the same way.
    """
    q = np.sqrt(np.maximum(2.0 * (1.0 + math.e * z), 0.0))
    w = np.where(z < -0.25, -1.0 + q * (1.0 - q * (1.0 / 3.0 - q * (11.0 / 72.0))), z * (1.0 - z))
    for _ in range(_HALLEY_STEPS):
        ew = np.exp(w)
        residual = w * ew - z
        num = 2.0 * (w + 1.0) * residual
        den = 2.0 * (w + 1.0) ** 2 * ew - (w + 2.0) * residual
        w = w - np.divide(num, den, out=np.zeros_like(w), where=den != 0.0)
    return w


def _largest_root(d: np.ndarray, gamma: float, lam: float, p: float) -> np.ndarray:
    """Closed-form larger root u2 of f (module docstring) for each entry of d.

    Needs lam > 0 and d <= R^2, where z is at or above -1/e.
    """
    one_minus_p = 1.0 - p
    # ln(-z), capped at -1 so z never passes the branch point -1/e
    log_minus_z = np.minimum(math.log(one_minus_p * lam * p / gamma) + one_minus_p * d / gamma, -1.0)
    return np.exp(_lambert_w0(-np.exp(log_minus_z)) / one_minus_p - d / gamma)


def build_context(gamma: float, lam: float, p: float) -> ClusterSolverContext:
    """Derive all per-cluster solver quantities from (gamma, lam, p).

    Raises
    ------
    InvalidParameterError
        If the squared influence radius is nonpositive, i.e. the parameters
        violate the positivity requirement lam*(1-p)/gamma < e**(-p)
        (equivalently K < p*e**(2*(1-p)) when lam is derived from K).
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not lam >= 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")

    if lam == 0.0:
        return ClusterSolverContext(
            gamma=float(gamma),
            lam=0.0,
            p=float(p),
            u_hat=0.0,
            u_min=0.0,
            u_max=1.0,
            radius_sq=math.inf,
        )

    inv = 1.0 / (1.0 - p)
    u_hat = ((lam / gamma) * p * (1.0 - p)) ** inv
    u_min = (lam * (1.0 - p) / gamma) ** inv
    r_sq = radius_squared(gamma, lam, p)
    if not r_sq > 0:
        raise InvalidParameterError(
            f"nonpositive influence radius (R^2 = {r_sq}): gamma={gamma}, lam={lam}, p={p} "
            f"violate the radius-positivity bound lam*(1-p)/gamma < e^(-p) "
            f"(equivalently K < p*e^(2*(1-p)))"
        )

    return ClusterSolverContext(
        gamma=float(gamma),
        lam=float(lam),
        p=float(p),
        u_hat=u_hat,
        u_min=u_min,
        u_max=float(_largest_root(np.zeros(1), gamma, lam, p)[0]),
        radius_sq=r_sq,
    )


def solve_membership_batch(d: np.ndarray, ctx: ClusterSolverContext) -> np.ndarray:
    """Vectorised two-branch membership update for an array of squared distances.

    Each entry is the larger root of f, at least u_min, when d <= R^2, and 0
    otherwise.  A negative or NaN distance raises ``ValueError``.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.size and not d.min() >= 0:  # NaN fails the comparison too
        raise ValueError("squared distances must be nonnegative and not NaN")
    if ctx.lam == 0.0:
        return np.exp(-d / ctx.gamma)
    out = np.zeros_like(d)
    inside = d <= ctx.radius_sq
    if inside.any():
        out[inside] = np.maximum(_largest_root(d[inside], ctx.gamma, ctx.lam, ctx.p), ctx.u_min)
    return out
