"""Shared domain types and the sparse possibilistic clustering cost function.

The cost of a configuration decomposes into independent per-(point, cluster)
terms

    h(u; d) = u*d + gamma*(u*ln(u) - u) + lam*u**p,    0 < p < 1,

with ``d`` the squared Euclidean distance between the point and the cluster
representative and the convention h(0; d) = 0, made exact by an explicit
branch in the N x m term matrix that :func:`total_cost` sums.  All types are
immutable after construction and all operations are pure, so everything here
is safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DataSet",
    "ModelState",
    "MembershipMatrix",
    "total_cost",
    "squared_distances",
]


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def squared_distances(points: np.ndarray, representatives: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (N, m).

    Squared distances are formed directly (no norm-then-square) so no
    redundant square root is taken.
    """
    points = np.asarray(points, dtype=np.float64)
    representatives = np.asarray(representatives, dtype=np.float64)
    diff = points[:, None, :] - representatives[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


@dataclass(frozen=True)
class DataSet:
    """N points in l-dimensional real space, with a cached bounding box."""

    points: np.ndarray
    bbox_min: np.ndarray = field(init=False, repr=False)
    bbox_max: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.points, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"need at least one point and one dimension, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"non-finite coordinate at point {bad[0]}, dimension {bad[1]}")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)
        object.__setattr__(self, "bbox_min", _frozen_array(arr.min(axis=0)))
        object.__setattr__(self, "bbox_max", _frozen_array(arr.max(axis=0)))

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_dims(self) -> int:
        return self.points.shape[1]

    @property
    def bbox_diagonal(self) -> float:
        return float(np.linalg.norm(self.bbox_max - self.bbox_min))


@dataclass(frozen=True)
class ModelState:
    """Representatives, per-cluster dispersions, and the sparsity parameters.

    Parameters
    ----------
    representatives : (m, l) array
        One representative vector per cluster.
    gammas : (m,) array
        Positive per-cluster dispersion parameters.
    lam : float
        Nonnegative sparsity weight; ``lam == 0`` is the non-sparse regime
        where memberships have the closed form exp(-d/gamma).
    p : float
        Sparsity exponent, strictly inside (0, 1).
    """

    representatives: np.ndarray
    gammas: np.ndarray
    lam: float
    p: float
    gamma_bar: float = field(init=False, repr=False)

    def __post_init__(self):
        reps = _frozen_array(self.representatives)
        gam = _frozen_array(self.gammas)
        if reps.ndim != 2 or reps.shape[0] < 1:
            raise ValueError(f"representatives must be a nonempty (m, l) array, got shape {reps.shape}")
        if gam.shape != (reps.shape[0],):
            raise ValueError(f"gammas shape {gam.shape} does not match {reps.shape[0]} clusters")
        if not (np.isfinite(reps).all() and np.isfinite(gam).all()):
            raise ValueError("representatives and gammas must be finite")
        if (gam <= 0).any():
            raise ValueError("every gamma must be strictly positive")
        if not self.lam >= 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie strictly inside (0, 1), got {self.p}")
        object.__setattr__(self, "representatives", reps)
        object.__setattr__(self, "gammas", gam)
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "gamma_bar", float(gam.min()))

    @property
    def n_clusters(self) -> int:
        return self.representatives.shape[0]

    @property
    def n_dims(self) -> int:
        return self.representatives.shape[1]


@dataclass(frozen=True)
class MembershipMatrix:
    """N x m degrees of compatibility, each in [0, 1].

    Nonzero entries produced by the solver additionally lie inside the
    attainable band [u_min_j, u_max_j] of their cluster (up to rounding);
    that band is a solver property and is checked there, not here.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"membership matrix must be 2-d, got ndim={arr.ndim}")
        if not np.isfinite(arr).all():
            raise ValueError("memberships must be finite")
        if (arr < 0).any() or (arr > 1).any():
            raise ValueError("memberships must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def n_clusters(self) -> int:
        return self.values.shape[1]


def _term_matrix(X: DataSet, U: MembershipMatrix, state: ModelState) -> np.ndarray:
    u = U.values
    if u.shape[0] != X.n_points:
        raise ValueError(f"membership rows ({u.shape[0]}) do not match points ({X.n_points})")
    if u.shape[1] != state.n_clusters:
        raise ValueError(f"membership columns ({u.shape[1]}) do not match clusters ({state.n_clusters})")
    if X.n_dims != state.n_dims:
        raise ValueError(f"point dimension ({X.n_dims}) does not match representatives ({state.n_dims})")
    d = squared_distances(X.points, state.representatives)
    # log evaluated only where u > 0; zero entries contribute exactly 0
    log_u = np.log(np.where(u > 0, u, 1.0))
    return u * d + state.gammas[None, :] * (u * log_u - u) + state.lam * u**state.p


def total_cost(X: DataSet, U: MembershipMatrix, state: ModelState) -> float:
    """Full cost, accumulated points-outer / clusters-inner.

    The accumulation order is fixed so traces are bit-reproducible on a given
    platform.
    """
    terms = _term_matrix(X, U, state)
    return float(terms.sum(axis=1).sum())

