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

The kernel computes in place: each intermediate of the root lives in a row
of a workspace, and each expression keeps the operation order of its plain
array form, so the memberships are the same bits as that form gives.  A
caller that solves many columns of the same length, as a run does for every
cluster at every step, allocates the workspace once (``_workspace``) and
passes it as ``_work``.  The solve then copies its distance column once into
a contiguous row and runs every later pass on contiguous memory; the one
array it allocates holds the distances inside the ball, which numpy cannot
gather into a given array.  Without ``_work`` each call allocates its own
workspace.
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

# Rows of a solver workspace: the distances in and memberships out, six rows
# of the root's intermediates and one of flags (see _workspace).
_WORK_ROWS = 8


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


def _u_min(gamma: float, lam: float, p: float) -> float:
    """Smallest nonzero membership, reached at d == R^2: (lam*(1-p)/gamma)**(1/(1-p))."""
    return (lam * (1.0 - p) / gamma) ** (1.0 / (1.0 - p))


def _workspace(n: int) -> np.ndarray:
    """Scratch for :func:`solve_membership_batch` on up to n distances.

    Row 0 takes the distances and returns the memberships, rows 1-6 hold
    the root's intermediates, and the last row is read as eight rows of
    flags.  A caller that solves many columns of n points allocates it once
    and passes it as ``_work``.
    """
    return np.empty((_WORK_ROWS, n))


def _lambert_w0(z: np.ndarray, work: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """Principal branch W0 of the Lambert W function on [-1/e, 0].

    Halley iteration (Corless et al., "On the Lambert W function", Adv.
    Comput. Math. 5, 1996), started from the branch-point series for
    z < -0.25 and from z*(1-z) otherwise.  At the branch point z = -1/e
    (q = 0) the start is W0 = -1 and every step is exactly 0, not a division
    by zero; a z rounded past it is treated the same way.

    In place: W0 of the k entries of z goes into ``work[0, :k]``, which is
    returned; ``work[1:5, :k]`` and ``flag[:k]`` (bool) are scratch.  Each
    expression keeps the operation order of its textbook form, so the
    result does not depend on the buffers.
    """
    k = z.size
    w, ew, residual, a, b = (row[:k] for row in work[:5])
    flag = flag[:k]
    # q = sqrt(max(2*(1 + e*z), 0)); the series -1 + q*(1 - q*(1/3 - q*11/72))
    np.multiply(z, math.e, out=a)
    np.add(a, 1.0, out=a)
    np.multiply(a, 2.0, out=a)
    np.maximum(a, 0.0, out=a)
    np.sqrt(a, out=a)
    np.multiply(a, 11.0 / 72.0, out=b)
    np.subtract(1.0 / 3.0, b, out=b)
    np.multiply(a, b, out=b)
    np.subtract(1.0, b, out=b)
    np.multiply(a, b, out=b)
    np.add(b, -1.0, out=b)
    np.subtract(1.0, z, out=w)
    np.multiply(z, w, out=w)
    np.less(z, -0.25, out=flag)
    np.copyto(w, b, where=flag)
    for _ in range(_HALLEY_STEPS):
        np.exp(w, out=ew)
        np.multiply(w, ew, out=residual)
        np.subtract(residual, z, out=residual)  # w*e^w - z
        np.add(w, 1.0, out=a)
        np.multiply(a, a, out=b)
        np.multiply(b, 2.0, out=b)
        np.multiply(b, ew, out=b)
        np.add(w, 2.0, out=ew)
        np.multiply(ew, residual, out=ew)
        np.subtract(b, ew, out=b)  # den = 2*(w+1)**2*e^w - (w+2)*residual
        np.multiply(a, 2.0, out=a)
        np.multiply(a, residual, out=a)  # num = 2*(w+1)*residual
        np.equal(b, 0.0, out=flag)
        if flag.any():  # 0/1: the step is exactly 0 where den == 0
            np.copyto(a, 0.0, where=flag)
            np.copyto(b, 1.0, where=flag)
        np.divide(a, b, out=a)
        np.subtract(w, a, out=w)
    return w


def _largest_root(
    d: np.ndarray, gamma: float, lam: float, p: float, work: np.ndarray, flag: np.ndarray
) -> np.ndarray:
    """Closed-form larger root u2 of f (module docstring) for each entry of d.

    Needs lam > 0 and d <= R^2, where z is at or above -1/e.  In place: the
    k roots go into ``work[1, :k]``, which is returned; ``work[:6, :k]`` and
    ``flag[:k]`` are scratch, and d is only read.
    """
    k = d.size
    one_minus_p = 1.0 - p
    z = work[0, :k]
    # ln(-z) = ln((1-p)*lam*p/gamma) + (1-p)*d/gamma, capped at -1 so z never
    # passes the branch point -1/e
    np.multiply(d, one_minus_p, out=z)
    np.divide(z, gamma, out=z)
    np.add(z, math.log(one_minus_p * lam * p / gamma), out=z)
    np.minimum(z, -1.0, out=z)
    np.exp(z, out=z)
    np.negative(z, out=z)
    w = _lambert_w0(z, work[1:6], flag)
    # exp(W0(z)/(1-p) - d/gamma)
    np.divide(w, one_minus_p, out=w)
    np.divide(d, gamma, out=z)
    np.subtract(w, z, out=w)
    np.exp(w, out=w)
    return w


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

    u_hat = ((lam / gamma) * p * (1.0 - p)) ** (1.0 / (1.0 - p))
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
        u_min=_u_min(gamma, lam, p),
        u_max=float(_largest_root(np.zeros(1), gamma, lam, p, np.empty((6, 1)), np.empty(1, dtype=bool))[0]),
        radius_sq=r_sq,
    )


def solve_membership_batch(
    d: np.ndarray, ctx: ClusterSolverContext, *, _work: np.ndarray | None = None
) -> np.ndarray:
    """Vectorised two-branch membership update for an array of squared distances.

    Each entry is the larger root of f, at least u_min, when d <= R^2, and 0
    otherwise.  A negative or NaN distance raises ``ValueError``.

    ``_work``, a :func:`_workspace` of at least ``d.size`` columns, holds
    every intermediate: d is read once, into row 0, and the result is
    returned in that row, valid until the next call with the same
    workspace.  Without it the result is a new array.
    """
    d = np.asarray(d, dtype=np.float64)
    n = d.size
    if _work is None:
        u = np.array(d, order="C").reshape(n)
        work = np.empty((_WORK_ROWS - 1, n))
    else:
        u, work = _work[0, :n], _work[1:]
        np.copyto(u.reshape(d.shape), d)
    if n and not u.min() >= 0:  # NaN fails the comparison too
        raise ValueError("squared distances must be nonnegative and not NaN")
    if ctx.lam == 0.0:
        # exp(-d/gamma)
        np.negative(u, out=u)
        np.divide(u, ctx.gamma, out=u)
        np.exp(u, out=u)
        return u.reshape(d.shape)
    flags = work[-1].view(np.bool_).reshape(8, -1)
    inside = np.less_equal(u, ctx.radius_sq, out=flags[0, :n])
    # numpy cannot compact into a given array, so the distances inside are new
    root = _largest_root(u[inside], ctx.gamma, ctx.lam, ctx.p, work[:6], flags[1])
    np.maximum(root, ctx.u_min, out=root)
    u.fill(0.0)
    u[inside] = root
    return u.reshape(d.shape)
