"""Shared domain types and the sparse possibilistic clustering cost function.

The cost of a configuration decomposes into independent per-(point, cluster)
terms

    h(u; d) = u*d + gamma*(u*ln(u) - u) + lam*u**p,    0 < p < 1,

with ``d`` the squared Euclidean distance between the point and the cluster
representative and the convention h(0; d) = 0: :func:`total_cost` evaluates
h, and so its log and power, on the active entries (u > 0) only, and an
inactive entry contributes exactly 0.  Both kernels stream column by column:
:func:`squared_distances` builds no N x m x l temporary and returns a
C-contiguous (N, m) array (into ``out`` when given), and the cost sums each
cluster's active terms and adds the m sums.  The u-only terms of h (its log
and power) can be taken once and passed to :func:`total_cost` for each set
of representatives that prices the same memberships, as the loop's step
does for its two costs.  All types are immutable after construction and all
operations are pure, so everything here is safe to evaluate concurrently.
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


# Points per block of the distance kernel: its scratch vectors (64 KiB each)
# and the block of points it reads stay in cache.
_BLOCK = 8192


def squared_distances(
    points: np.ndarray, representatives: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Pairwise squared Euclidean distances as a C-contiguous (N, m) array.

    ``points`` is (N, l) and ``representatives`` is (m, l), with the same
    l >= 1; any other shape raises ``ValueError``.  As in numpy, ``out``
    receives the result and is returned; it must be a C-contiguous float64
    (N, m) array, otherwise ``ValueError``.  Squared distances are
    formed directly (no norm-then-square), one block of points and one
    coordinate at a time, so no N x m x l difference array is built; the
    squares of the coordinates are added left to right.
    """
    points = np.asarray(points, dtype=np.float64)
    representatives = np.asarray(representatives, dtype=np.float64)
    if (
        points.ndim != 2
        or representatives.ndim != 2
        or points.shape[1] != representatives.shape[1]
        or points.shape[1] < 1
    ):
        raise ValueError(
            f"points {points.shape} and representatives {representatives.shape} "
            "must be (N, l) and (m, l) arrays with the same l >= 1"
        )
    n, l = points.shape
    shape = (n, representatives.shape[0])
    if out is None:
        out = np.empty(shape)
    elif not (
        isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64 and out.flags.c_contiguous
    ):
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    total, square = np.empty((2, min(n, _BLOCK)))
    for start in range(0, n, _BLOCK):
        coords = points[start : start + _BLOCK].T
        b = coords.shape[1]
        acc, sq = total[:b], square[:b]
        for j, theta in enumerate(representatives.tolist()):
            col = out[start : start + b, j]
            for k in range(l):
                # coordinate 0 starts the sum and each later one adds to it;
                # the last operation writes the result's column
                dest = acc if k == 0 else sq
                np.subtract(coords[k], theta[k], out=dest)
                np.multiply(dest, dest, out=col if l == 1 else dest)
                if k > 0:
                    np.add(acc, sq, out=col if k == l - 1 else acc)
    return out


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
        self._freeze(np.array(self.values, dtype=np.float64))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> MembershipMatrix:
        """Validate and freeze a float64 array that no one else writes to, in
        place of a copy."""
        matrix = object.__new__(cls)
        matrix._freeze(arr)
        return matrix

    def _freeze(self, arr: np.ndarray) -> None:
        if arr.ndim != 2:
            raise ValueError(f"membership matrix must be 2-d, got ndim={arr.ndim}")
        # one min and one max decide; NaN fails both, and the slow checks only name the error
        if arr.size and not (arr.min() >= 0 and arr.max() <= 1):
            if not np.isfinite(arr).all():
                raise ValueError("memberships must be finite")
            raise ValueError("memberships must lie in [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def n_clusters(self) -> int:
        return self.values.shape[1]


def _active(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row indices and values of a membership column's active (u > 0) entries."""
    active = np.flatnonzero(col > 0)
    return active, col[active]


def _cost_terms(
    columns: list[tuple[np.ndarray, np.ndarray]], state: ModelState
) -> list[tuple[np.ndarray, ...]]:
    """Each column's active indices and values (see :func:`_active`) with its
    u-only terms of h: gamma*(u*ln(u) - u) and lam*u**p."""
    return [
        (active, u_a, gamma * (u_a * np.log(u_a) - u_a), state.lam * u_a**state.p)
        for (active, u_a), gamma in zip(columns, state.gammas)
    ]


def total_cost(
    X: DataSet,
    U: MembershipMatrix,
    state: ModelState,
    *,
    _terms: list[tuple[np.ndarray, ...]] | None = None,
) -> float:
    """Full cost: the sum of h over every (point, cluster) entry.

    Each cluster's column sums its active entries' terms (u*d + entropy) +
    sparsity, and the column sums are added in cluster order, so a given
    input gives the same bits on every call on a given platform.  Log and
    power run on the active entries (u > 0) only; an inactive entry adds
    exactly 0.

    ``_terms``, the :func:`_cost_terms` of ``U`` under ``state``'s gammas,
    lam and p, lets a caller that prices one ``U`` at several
    representative arrays take the log and power once.
    """
    u = U.values
    if u.shape[0] != X.n_points:
        raise ValueError(f"membership rows ({u.shape[0]}) do not match points ({X.n_points})")
    if u.shape[1] != state.n_clusters:
        raise ValueError(f"membership columns ({u.shape[1]}) do not match clusters ({state.n_clusters})")
    if X.n_dims != state.n_dims:
        raise ValueError(f"point dimension ({X.n_dims}) does not match representatives ({state.n_dims})")
    if _terms is None:
        _terms = _cost_terms([_active(u[:, j]) for j in range(u.shape[1])], state)
    d = squared_distances(X.points, state.representatives)
    cost = 0.0
    for j, (active, u_a, entropy, sparsity) in enumerate(_terms):
        term = u_a * d[active, j]
        term += entropy
        term += sparsity
        cost += float(term.sum())
    return cost
