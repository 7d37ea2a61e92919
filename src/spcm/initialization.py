"""Starting state: fuzzy c-means representatives, dispersions, sparsity weight.

The run begins from the fixed point of a standard fuzzy c-means (FCM) pass.
Each cluster's dispersion is the FCM-membership-weighted mean of squared
distances to its representative,

    gamma_j = sum_i u_ij * d_ij / sum_i u_ij,

and the sparsity weight is

    lam = K * gamma_bar / (p*(1-p)*e**(2-p)),      gamma_bar = min_j gamma_j,

with a user constant K.  ``validate_K`` checks K against every bound that
keeps the solver well behaved:

  (a) K < p*e**(2*(1-p))                     -- all influence radii positive;
  (b) K <= p*e**((2-mu_max)*(1-p))           -- every cluster keeps at least
      one active point after the first membership update (activation bound);
  (c) K <= (gamma_j/gamma_bar)*p*e**((2-mu_j)*(1-p)) per cluster -- the
      cluster's own closest point stays active;
  (d) an advisory uniqueness interval of K values under which each active
      set admits at most one fixed point.

Here mu_j = min_i d_ij / gamma_j is the scaled squared distance of the
closest point to representative j, and mu_max = max_j mu_j.  K = 0 (so
lam = 0) is the non-sparse PCM start, for which every bound is vacuous.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import DataSet, squared_distances

__all__ = [
    "DegenerateDataError",
    "FcmConfig",
    "InitReport",
    "run_fcm",
    "fcm_start",
    "compute_gammas",
    "compute_lambda",
    "compute_mu",
    "radius_bound",
    "activation_bound",
    "default_K",
    "validate_K",
    "initialize",
]


class DegenerateDataError(ValueError):
    """Raised when the data cannot support a positive dispersion estimate."""


@dataclass(frozen=True)
class FcmConfig:
    """Fuzzy c-means settings: fuzzifier, stopping rule, iteration cap, seed."""

    fuzzifier: float = 2.0
    tol: float = 1e-6
    max_iters: int = 300
    seed: int = 0

    def __post_init__(self):
        if not 1 < self.fuzzifier < math.inf:
            raise ValueError(f"fuzzifier must be finite and exceed 1, got {self.fuzzifier}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters}")
        if not 0 <= self.seed < math.inf:
            raise ValueError(f"seed must be nonnegative and finite, got {self.seed}")
        if not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed}")


def _seed_representatives(points: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-weighted random selection of m data points (greedy seeding)."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(m - 1):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Row sums of an (N, m) array as m - 1 elementwise column adds in index
    order, the order numpy's ``sum(axis=1)`` uses for fewer than 8 columns.
    On a boolean array the adds are logical ors: ``any(axis=1)``."""
    total = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        total += a[:, j]
    return total


def _fcm_weights(d2: np.ndarray, fuzzifier: float) -> np.ndarray:
    """FCM memberships of rows with no zero distance; overwrites ``d2``."""
    # floor keeps the inverse power finite for near-coincident points
    w = np.maximum(d2, 1e-18, out=d2) ** (-1.0 / (fuzzifier - 1.0))
    return w / _row_sums(w)[:, None]


def _fcm_memberships(points: np.ndarray, centers: np.ndarray, fuzzifier: float) -> np.ndarray:
    d2 = squared_distances(points, centers)
    exact = d2 == 0.0
    hit = _row_sums(exact)
    if not hit.any():
        return _fcm_weights(d2, fuzzifier)
    u = np.zeros_like(d2)
    u[hit] = exact[hit] / exact[hit].sum(axis=1, keepdims=True)
    u[~hit] = _fcm_weights(d2[~hit], fuzzifier)
    return u


def run_fcm(X: DataSet, m: int, config: FcmConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Fuzzy c-means fixed point: (representatives, memberships).

    Membership rows are nonnegative and sum to 1; the result is deterministic
    for a fixed seed.  Failure to converge within the iteration cap is
    reported with a warning and the last iterate is returned.
    """
    if config is None:
        config = FcmConfig()
    if not 1 <= m <= X.n_points:
        raise ValueError(f"cluster count must satisfy 1 <= m <= {X.n_points}, got {m}")
    rng = np.random.default_rng(config.seed)
    points = X.points
    centers = _seed_representatives(points, m, rng)
    q = config.fuzzifier
    converged = False
    for _ in range(config.max_iters):
        u = _fcm_memberships(points, centers, q)
        w = u**q
        new_centers = (w.T @ points) / w.sum(axis=0)[:, None]
        displacement = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if displacement < config.tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"fuzzy c-means did not converge within {config.max_iters} iterations; "
            "returning the last iterate",
            RuntimeWarning,
            stacklevel=2,
        )
    u = _fcm_memberships(points, centers, q)
    return centers, u


def compute_gammas(X: DataSet, theta0: np.ndarray, u_fcm: np.ndarray) -> np.ndarray:
    """Membership-weighted mean squared distance to each representative."""
    u_fcm = np.asarray(u_fcm, dtype=np.float64)
    column_sums = u_fcm.sum(axis=0)
    if (column_sums <= 0).any():
        j = int(np.argmax(column_sums <= 0))
        raise DegenerateDataError(f"membership column {j} has nonpositive sum")
    d2 = squared_distances(X.points, np.asarray(theta0, dtype=np.float64))
    gammas = (u_fcm * d2).sum(axis=0) / column_sums
    if (gammas <= 0).any():
        j = int(np.argmax(gammas <= 0))
        raise DegenerateDataError(
            f"cluster {j} has zero dispersion (all weighted points coincide with its "
            "representative); a positive gamma is required"
        )
    return gammas


def fcm_start(
    X: DataSet, m: int, fcm: FcmConfig | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """FCM fixed point and what the start derives from it:
    (representatives, FCM memberships, gammas, mu)."""
    theta0, u_fcm = run_fcm(X, m, fcm)
    gammas = compute_gammas(X, theta0, u_fcm)
    return theta0, u_fcm, gammas, compute_mu(X, theta0, gammas)


def compute_lambda(gammas: np.ndarray, K: float, p: float) -> float:
    """Sparsity weight lam = K*gamma_bar/(p*(1-p)*e**(2-p))."""
    if not K > 0:
        raise ValueError(f"K must be positive, got {K}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    gamma_bar = float(np.min(gammas))
    return K * gamma_bar / (p * (1.0 - p) * math.exp(2.0 - p))


def compute_mu(X: DataSet, theta0: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Scaled squared distance of the closest point to each representative."""
    d2 = squared_distances(X.points, np.asarray(theta0, dtype=np.float64))
    return d2.min(axis=0) / np.asarray(gammas, dtype=np.float64)


def radius_bound(p: float) -> float:
    """Largest K keeping every influence radius positive: p*e**(2*(1-p))."""
    return p * math.exp(2.0 * (1.0 - p))


def activation_bound(p: float, mu_max: float) -> float:
    """Largest K guaranteeing at least one active point per cluster:
    p*e**((2-mu_max)*(1-p)).  Never exceeds :func:`radius_bound` for
    mu_max >= 0."""
    return p * math.exp((2.0 - mu_max) * (1.0 - p))


def default_K(p: float, mu_max: float) -> float:
    """Default K policy: 0.9 at p = 0.5, otherwise 0.66 of the activation
    bound (which keeps every other bound satisfied with margin)."""
    if p == 0.5:
        return 0.9
    return 0.66 * activation_bound(p, mu_max)


@dataclass(frozen=True)
class InitReport:
    """Initialization summary and the outcome of every K bound check."""

    gammas: np.ndarray
    lam: float
    K: float
    p: float
    mu: np.ndarray
    mu_max: float
    radius_bound: float
    activation_bound: float
    radius_bound_ok: bool
    activation_bound_ok: bool
    per_cluster_bounds_ok: bool
    uniqueness_range: tuple[float, float] | None
    K_in_uniqueness_range: bool | None
    warnings: tuple[str, ...]
    theta0: np.ndarray | None = field(default=None, repr=False)


def validate_K(
    K: float,
    gammas: np.ndarray,
    p: float,
    mu: np.ndarray,
    theta0: np.ndarray | None = None,
) -> InitReport:
    """Check K against every parameter bound; failures are warnings, not errors."""
    gammas = np.asarray(gammas, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if not K > 0:
        raise ValueError(f"K must be positive, got {K}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    if gammas.shape != mu.shape:
        raise ValueError(f"gammas shape {gammas.shape} does not match mu shape {mu.shape}")

    gamma_bar = float(gammas.min())
    gamma_max = float(gammas.max())
    mu_max = float(mu.max())
    lam = compute_lambda(gammas, K, p)

    r_bound = radius_bound(p)
    a_bound = activation_bound(p, mu_max)
    per_cluster = (gammas / gamma_bar) * p * np.exp((2.0 - mu) * (1.0 - p))

    notes: list[str] = []
    radius_ok = K < r_bound
    if not radius_ok:
        notes.append(
            f"K = {K} is not below the radius-positivity bound p*e^(2*(1-p)) = {r_bound}; "
            "some influence radius is nonpositive"
        )
    activation_ok = K <= a_bound
    if not activation_ok:
        notes.append(
            f"K = {K} exceeds the activation bound p*e^((2-mu_max)*(1-p)) = {a_bound}; "
            "a cluster may start with no active point"
        )
    per_cluster_ok = bool((K <= per_cluster).all())
    if not per_cluster_ok:
        bad = np.nonzero(K > per_cluster)[0]
        notes.append(
            f"K = {K} exceeds the per-cluster activation bound for clusters {bad.tolist()}; "
            "their closest points may start inactive"
        )

    # The interval below is nonempty exactly when the dispersion ratio stays
    # under e**((1-p)**2/2); a larger ratio pushes its lower endpoint past the
    # radius bound, so no K can satisfy it and none is reported.
    ratio = gamma_max / gamma_bar
    uniqueness_range: tuple[float, float] | None = None
    k_in_range: bool | None = None
    if ratio < math.exp((1.0 - p) ** 2 / 2.0):
        lo = ratio * p * math.exp(2.0 - (1.0 + p) ** 2 / 2.0)
        uniqueness_range = (lo, r_bound)
        k_in_range = lo <= K <= r_bound

    return InitReport(
        gammas=gammas,
        lam=lam,
        K=float(K),
        p=float(p),
        mu=mu,
        mu_max=mu_max,
        radius_bound=r_bound,
        activation_bound=a_bound,
        radius_bound_ok=radius_ok,
        activation_bound_ok=activation_ok,
        per_cluster_bounds_ok=per_cluster_ok,
        uniqueness_range=uniqueness_range,
        K_in_uniqueness_range=k_in_range,
        warnings=tuple(notes),
        theta0=theta0,
    )


def initialize(
    X: DataSet,
    m: int,
    p: float = 0.5,
    K: float | None = None,
    fcm: FcmConfig | None = None,
) -> InitReport:
    """Full initialization: FCM representatives, gammas, lam, and bound checks.

    ``K = 0`` starts the non-sparse run: lam = 0, so every radius and K bound
    is infinite and nothing is checked.
    """
    theta0, _, gammas, mu = fcm_start(X, m, fcm)
    if K == 0.0:
        return InitReport(
            gammas=gammas,
            lam=0.0,
            K=0.0,
            p=p,
            mu=mu,
            mu_max=float(mu.max()),
            radius_bound=math.inf,
            activation_bound=math.inf,
            radius_bound_ok=True,
            activation_bound_ok=True,
            per_cluster_bounds_ok=True,
            uniqueness_range=None,
            K_in_uniqueness_range=None,
            warnings=(),
            theta0=theta0,
        )
    if K is None:
        K = default_K(p, float(mu.max()))
    return validate_K(K, gammas, p, mu, theta0=theta0)
