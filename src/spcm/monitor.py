"""Fixed-point diagnostics for a terminated run.

A genuine fixed point (u*, theta*) of one cluster satisfies, over its active
points,

    sum_i u_i * (theta* - x_i) = 0        (representative stationarity)
    d_i + gamma*ln(u_i) + lam*p*u_i**(p-1) = 0   for every active i,

and the second-derivative matrix of the per-cluster cost, restricted to the
active coordinates (u_1..u_k, theta_1..theta_l), is

    [ diag(g_1..g_k)   2*(theta_q - x_iq) ]
    [   (symmetric)     2*sum_i(u_i)*I_l  ]      g_i = gamma/u_i - lam*p*(1-p)*u_i**(p-2)

(g_i = gamma/u_i when lam = 0), an arrowhead with blocks g (k), C = 2*(theta -
x_i) (k x l) and s = 2*sum_i(u_i).  The checks never build this (k+l)^2
matrix.  It is positive definite exactly when every g_i > 0 and the l x l
Schur complement S = s*I - C^T diag(1/g) C is, which a Cholesky factorisation
of S decides; lambda_min(S) is reported as the margin.  The quadratic form is
sampled over a small valley around the fixed point (where the cost is
provably convex for a radius eps below 0.5*sqrt((1-p)*gamma/2), or
0.5*sqrt(gamma/2) when lam = 0) as sum g*u'^2 + 2*(u'C).theta' +
s*|theta'|^2, in O(k*l) per sample.  The sampler draws candidates only until
it has the samples it keeps and skips the random stream past the rest, so
its samples and the generator's later draws are those of drawing every
candidate.  It draws them, and the forms are evaluated, in blocks of at most
``_BLOCK_BYTES`` (256 KiB), so a cluster's check holds one (n, k) array of
kept samples and nothing else of that size.  Finally the geometry is
checked: active points lie inside the cluster's influence ball, inactive
points outside.
:func:`assemble_hessian` keeps the dense matrix as a reference.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import DataSet, MembershipMatrix, ModelState, squared_distances
from .membership import _u_min, radius_squared

__all__ = [
    "MonitorSettings",
    "FixedPointReport",
    "gradient_residual",
    "assemble_hessian",
    "epsilon_bound",
    "check_fixed_point",
]


@dataclass(frozen=True)
class MonitorSettings:
    """Tolerances and sampling budget for :func:`check_fixed_point`."""

    grad_tol: float = 1e-6
    ball_samples: int = 1000
    epsilon_factor: float = 0.99
    perturb_scale: float = 0.05
    cross_samples: int = 16
    seed: int = 7

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol}")
        for name in ("ball_samples", "cross_samples", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value}")
        if not 0.0 < self.epsilon_factor <= 1.0:
            raise ValueError(f"epsilon_factor must lie in (0, 1], got {self.epsilon_factor}")
        if not 0 < self.perturb_scale < math.inf:
            raise ValueError(f"perturb_scale must be positive and finite, got {self.perturb_scale}")


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of every fixed-point check."""

    grad_norm: float
    grad_ok: bool
    hessian_ok: bool
    valley_ok: bool
    epsilon_bound: float
    active_counts: np.ndarray
    geometric_ok: bool
    per_cluster_hessian_ok: tuple[bool, ...]
    # lambda_min of the Schur complement when every g > 0, else min g, and
    # -inf for a cluster with no active point: positive for the clusters
    # that pass, up to rounding at zero
    per_cluster_pd_margin: tuple[float, ...]
    # admissible valley samples found (at most MonitorSettings.ball_samples)
    per_cluster_valley_samples: tuple[int, ...]
    # the smallest quadratic form the valley check evaluated, over the
    # fixed-point forms and the interior probes together; inf when it
    # evaluated none
    per_cluster_valley_min_form: tuple[float, ...]


def _membership_values(U) -> np.ndarray:
    return U.values if isinstance(U, MembershipMatrix) else np.asarray(U, dtype=np.float64)


def gradient_residual(X: DataSet, state: ModelState, U) -> float:
    """Largest stationarity violation across clusters.

    Per cluster this is the max of the representative equation residual
    (max norm of sum_i u_i*(theta - x_i)) and the largest |f(u_i)| over
    active points; it vanishes exactly at a fixed point.
    """
    values = _membership_values(U)
    d2 = squared_distances(X.points, state.representatives)
    worst = 0.0
    for j in range(state.n_clusters):
        col = values[:, j]
        active = col > 0
        if not active.any():
            raise ValueError(f"cluster {j} has no active points; residual undefined")
        u = col[active]
        theta_part = np.abs(u @ (state.representatives[j] - X.points[active])).max()
        f_vals = (
            d2[active, j]
            + state.gammas[j] * np.log(u)
            + state.lam * state.p * u ** (state.p - 1.0)
        )
        worst = max(worst, float(theta_part), float(np.abs(f_vals).max()))
    return worst


def _arrowhead_blocks(
    points: np.ndarray, u: np.ndarray, theta: np.ndarray, gamma: float, lam: float, p: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """The blocks (g, C, s) of one cluster's active-block Hessian
    [[diag(g), C], [C^T, s*I]] at memberships ``u`` of the active ``points``
    and representative ``theta``."""
    g = gamma / u - lam * p * (1.0 - p) * u ** (p - 2.0)
    C = 2.0 * (theta[None, :] - points)  # (k, l)
    s = 2.0 * u.sum()
    return g, C, s


def _arrowhead_forms(
    g: np.ndarray, C: np.ndarray, s: float, u: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Quadratic forms z^T H z of the arrowhead with blocks (g, C, s), one per
    row z = (u[r], theta[r]); O(rows*k*l) with no (k+l)^2 matrix, a block of
    rows at a time so that no temporary outgrows ``_BLOCK_BYTES``."""
    rows = _block_rows(g.size)
    forms = np.empty(u.shape[0])
    square = np.empty((min(rows, u.shape[0]), g.size))
    for a in range(0, u.shape[0], rows):
        u_b, th_b = u[a:a + rows], theta[a:a + rows]
        u_sq = np.multiply(u_b, u_b, out=square[:len(u_b)])
        cross = np.einsum("rq,rq->r", u_b @ C, th_b)
        forms[a:a + rows] = u_sq @ g + 2.0 * cross + s * np.einsum("rq,rq->r", th_b, th_b)
    return forms


def _schur_complement(g: np.ndarray, C: np.ndarray, s: float) -> np.ndarray:
    """S = s*I - C^T diag(1/g) C for g > 0: the arrowhead is positive definite
    exactly when S is (Boyd & Vandenberghe, Convex Optimization, A.5.5)."""
    W = C / np.sqrt(g)[:, None]
    S = -(W.T @ W)
    S[np.diag_indices_from(S)] += s
    return S


def assemble_hessian(X: DataSet, state: ModelState, U, cluster: int) -> np.ndarray:
    """Second-derivative matrix of one cluster's cost on its active block.

    Coordinates are the active memberships (in point-index order) followed by
    the representative components; shape (k+l, k+l).  This is the dense
    reference; :func:`check_fixed_point` works on the blocks directly.
    """
    values = _membership_values(U)
    active = np.nonzero(values[:, cluster] > 0)[0]
    k = active.size
    if k < 1:
        raise ValueError(f"cluster {cluster} has no active points")
    g, C, s = _arrowhead_blocks(
        X.points[active], values[active, cluster], state.representatives[cluster],
        float(state.gammas[cluster]), state.lam, state.p,
    )
    l = C.shape[1]
    H = np.zeros((k + l, k + l))
    H[np.arange(k), np.arange(k)] = g
    H[:k, k:] = C
    H[k:, :k] = C.T
    H[k:, k:] = s * np.eye(l)
    return H


def epsilon_bound(state: ModelState, cluster: int) -> float:
    """Valley radius below which local convexity is guaranteed."""
    gamma = float(state.gammas[cluster])
    scale = (1.0 - state.p) if state.lam > 0 else 1.0
    return 0.5 * np.sqrt(scale * gamma / 2.0)


# The valley check draws its candidates, and evaluates its forms, in blocks
# of at most this many bytes, so its working set stays cache-sized at any k.
_BLOCK_BYTES = 2**18


def _block_rows(k: int) -> int:
    """Rows of k doubles in one block."""
    return max(1, _BLOCK_BYTES // (8 * k))


def _is_positive_definite(H: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(H)
        return True
    except np.linalg.LinAlgError:
        return False


def _skip_doubles(rng: np.random.Generator, count: int) -> None:
    """Move ``rng`` past ``count`` doubles as if ``rng.uniform`` had drawn them.

    Each double takes one 64-bit output, which ``advance`` skips; ``advance``
    also clears the 32-bit half that a bounded ``integers`` draw may have
    buffered, and its flag, which doubles never touch, so both are put back.
    """
    bitgen = rng.bit_generator
    before = bitgen.state
    bitgen.advance(count)
    bitgen.state = {**bitgen.state, "has_uint32": before["has_uint32"], "uinteger": before["uinteger"]}


def _valley_samples(
    X: DataSet,
    u_star: np.ndarray,
    theta_star: np.ndarray,
    active: np.ndarray,
    lo: float,
    hi: float,
    eps: float,
    n: int,
    scale: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (u', theta') pairs with u' in the attainable band and the
    weighted mean of u' within eps of theta*; theta' is that weighted mean.

    Each pass stands for max(n, 4*(n - found)) candidate rows at half the
    previous step; the result is the first n admissible ones in draw order.
    A pass draws its rows in rounds (n - found rows, then twice as many,
    never past the pass), each round in blocks of at most ``_BLOCK_BYTES``,
    and stops at the n-th admissible row.  It skips the stream of the rows
    it never draws, so the generator ends where drawing every row would
    leave it; the skip needs a bit generator whose ``advance(d)`` passes d
    doubles, as PCG64 (``default_rng``) does.  The kept rows are copied into
    one (n, k) array, the only array of the cluster's size.
    """
    pts = X.points[active]
    k = u_star.size
    u_kept, th_kept = np.empty((n, k)), np.empty((n, theta_star.size))
    block_rows = _block_rows(k)
    found = 0
    step = scale
    while found < n and step > 1e-12:
        draw = max(n, 4 * (n - found))
        drawn, stop, rows = 0, 0, n - found
        while found < n and drawn < draw:
            if drawn == stop:  # the next round: twice the last one's rows, never past the pass
                stop, rows = min(drawn + rows, draw), 2 * rows
            block = rng.uniform(-step, step, size=(min(block_rows, stop - drawn), k))
            block += 1.0
            block *= u_star
            np.clip(block, lo, hi, out=block)
            means = block @ pts
            means /= block.sum(axis=1)[:, None]
            keep = np.flatnonzero(np.linalg.norm(means - theta_star, axis=1) < eps)[: n - found]
            u_kept[found:found + keep.size] = block[keep]
            th_kept[found:found + keep.size] = means[keep]
            found += keep.size
            drawn += block.shape[0]
        if drawn < draw:
            _skip_doubles(rng, (draw - drawn) * k)
        step *= 0.5
    return u_kept[:found], th_kept[:found]


def check_fixed_point(
    X: DataSet,
    state: ModelState,
    U,
    settings: MonitorSettings | None = None,
) -> FixedPointReport:
    """Run every diagnostic against a terminated state.

    Failures are report fields, never exceptions: the gradient residual
    (``inf`` when a cluster has no active point) and its tolerance flag,
    per-cluster positive-definiteness (g > 0 and a Cholesky factorisation
    of the l x l Schur complement), the sampled quadratic-form positivity
    over the convexity valley, with each cluster's smallest form (both
    against the fixed-point Hessian and against Hessians at sampled interior
    states, whose pairwise separation can reach twice the sampling radius),
    and the ball geometry of
    active/inactive points.  A cluster with no active point fails every
    check but the geometry, which is still checked over its points.  No
    (k+l) x (k+l) matrix is built: every check works on the blocks (g, C, s).
    """
    if settings is None:
        settings = MonitorSettings()
    values = _membership_values(U)
    rng = np.random.default_rng(settings.seed)
    lam, p = state.lam, state.p
    counts = (values > 0).sum(axis=0)

    # a cluster with no active point has no residual: report it as unbounded
    grad = gradient_residual(X, state, U) if counts.all() else math.inf
    d2 = squared_distances(X.points, state.representatives)

    per_cluster_pd: list[bool] = []
    pd_margins: list[float] = []
    sample_counts: list[int] = []
    min_forms: list[float] = []
    valley_ok = True
    geometric_ok = True
    eps_values: list[float] = []

    for j in range(state.n_clusters):
        is_active = values[:, j] > 0
        active = np.nonzero(is_active)[0]
        pts = X.points[active]
        u_star = values[active, j]
        theta_star = state.representatives[j]
        gamma = float(state.gammas[j])
        eps_values.append(epsilon_bound(state, j))
        r_sq = radius_squared(gamma, lam, p)

        if active.size == 0:
            # no active block: no Hessian and no valley; only the geometry is checked
            per_cluster_pd.append(False)
            pd_margins.append(-math.inf)
            sample_counts.append(0)
            min_forms.append(math.inf)
            valley_ok = False
            if not (d2[:, j] > r_sq).all():
                geometric_ok = False
            continue

        g, C, s = _arrowhead_blocks(pts, u_star, theta_star, gamma, lam, p)
        if (g > 0).all():
            S = _schur_complement(g, C, s)
            per_cluster_pd.append(_is_positive_definite(S))
            pd_margins.append(float(np.linalg.eigvalsh(S)[0]))
        else:
            per_cluster_pd.append(False)
            pd_margins.append(float(g.min()))

        eps_j = settings.epsilon_factor * eps_values[-1]

        # Axis directions: the diagonal of the Hessian must be positive.
        if (g <= 0).any() or s <= 0:
            valley_ok = False

        # Quadratic form at sampled valley points against the fixed-point Hessian.
        if lam > 0:
            lo = _u_min(gamma, lam, p)
            hi = 1.0
        else:
            lo, hi = 1e-12, 1.0
        u_samp, th_samp = _valley_samples(
            X, u_star, theta_star, active, lo, hi, eps_j,
            settings.ball_samples, settings.perturb_scale, rng,
        )
        n_samp = u_samp.shape[0]
        sample_counts.append(n_samp)
        if settings.ball_samples > 0 and n_samp == 0:
            # no admissible sample: the state is too far from stationarity
            # for the valley to exist; never report a vacuous pass
            valley_ok = False
        min_form = float(_arrowhead_forms(g, C, s, u_samp, th_samp).min()) if n_samp else math.inf

        # Interior variant: Hessians at sampled states, probed with other
        # sampled points (separations up to twice the radius).  Samples keep
        # u' >= lo > 0, so the active set is unchanged.
        for t in range(min(settings.cross_samples, n_samp)):
            g_t, C_t, s_t = _arrowhead_blocks(pts, u_samp[t], th_samp[t], gamma, lam, p)
            probe = rng.integers(0, n_samp, size=min(8, n_samp))
            forms = _arrowhead_forms(g_t, C_t, s_t, u_samp[probe], th_samp[probe])
            min_form = min(min_form, float(forms.min()))
        del u_samp, th_samp  # one cluster's samples alive at a time
        min_forms.append(min_form)
        if min_form <= 0:
            valley_ok = False

        # Geometry: active points inside the influence ball, inactive outside.
        if (d2[is_active, j] > r_sq).any():
            geometric_ok = False
        if not (d2[~is_active, j] > r_sq).all():
            geometric_ok = False

    return FixedPointReport(
        grad_norm=grad,
        grad_ok=grad < settings.grad_tol,
        hessian_ok=all(per_cluster_pd),
        valley_ok=valley_ok,
        epsilon_bound=float(min(eps_values)),
        active_counts=counts,
        geometric_ok=geometric_ok,
        per_cluster_hessian_ok=tuple(per_cluster_pd),
        per_cluster_pd_margin=tuple(pd_margins),
        per_cluster_valley_samples=tuple(sample_counts),
        per_cluster_valley_min_form=tuple(min_forms),
    )
