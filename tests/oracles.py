"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's own code paths: costs are
accumulated by naive double loops, roots come from a dense grid scan refined
by Brent's method or from bisection to float resolution (the threshold form
of the membership update decides on the root, not on the ball), and second
derivatives come from central finite differences of the cost.  The
weighted Cauchy-Schwarz inequality of the convexity argument is checked
directly.  The einsum distance kernel, the full-matrix cost terms and the
full-matrix FCM membership step are the original implementations, kept as
the references for the library's streaming ones; the allocating membership
solver is the reference for the in-place one, and the allocating FCM start
(seeding, iteration, gammas, mu) for the buffered one.  The dense
fixed-point monitor at the end is the original full-matrix implementation,
kept as the reference for the library's structured one, and the per-cell
CSV writer for the vectorised one.
"""

import math

import numpy as np
from scipy.optimize import brentq

from spcm.core import MembershipMatrix, ModelState, squared_distances
from spcm.membership import radius_squared
from spcm.monitor import MonitorSettings, epsilon_bound, gradient_residual


def per_cell_csv(array, header=None) -> str:
    """The text ``spcm.cli.emit_csv`` writes, formatted one cell at a time
    as the shortest round-trip decimal of the cell as a float."""
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(np.asarray(array))]
    return "".join(line + "\n" for line in lines)


def naive_point_term(d, u, gamma, lam, p):
    if u == 0.0:
        return 0.0
    return u * d + gamma * (u * math.log(u) - u) + lam * u**p


def naive_total_cost(points, U, reps, gammas, lam, p):
    """Double loop over single terms, points outer."""
    total = 0.0
    for i in range(points.shape[0]):
        for j in range(reps.shape[0]):
            d = float(((points[i] - reps[j]) ** 2).sum())
            total += naive_point_term(d, float(U[i, j]), float(gammas[j]), lam, p)
    return total


def nonsparse_cost(points, U, reps, gammas):
    """Independently coded non-sparse objective: the weighted-distance sum
    plus the per-cluster entropy term, grouped cluster-major."""
    first = 0.0
    for i in range(points.shape[0]):
        for j in range(reps.shape[0]):
            d = float(((points[i] - reps[j]) ** 2).sum())
            first += float(U[i, j]) * d
    second = 0.0
    for j in range(reps.shape[0]):
        acc = 0.0
        for i in range(points.shape[0]):
            u = float(U[i, j])
            if u > 0:
                acc += u * math.log(u) - u
        second += float(gammas[j]) * acc
    return first + second


def einsum_squared_distances(points: np.ndarray, representatives: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (N, m).

    Squared distances are formed directly (no norm-then-square) so no
    redundant square root is taken.
    """
    points = np.asarray(points, dtype=np.float64)
    representatives = np.asarray(representatives, dtype=np.float64)
    diff = points[:, None, :] - representatives[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def full_term_matrix(X, U, state) -> np.ndarray:
    """The N x m matrix of cost terms h(u_ij; d_ij), log and power taken on
    every entry; ``full_term_matrix(...).sum(axis=1).sum()`` is the cost."""
    u = U.values
    if u.shape[0] != X.n_points:
        raise ValueError(f"membership rows ({u.shape[0]}) do not match points ({X.n_points})")
    if u.shape[1] != state.n_clusters:
        raise ValueError(f"membership columns ({u.shape[1]}) do not match clusters ({state.n_clusters})")
    if X.n_dims != state.n_dims:
        raise ValueError(f"point dimension ({X.n_dims}) does not match representatives ({state.n_dims})")
    d = einsum_squared_distances(X.points, state.representatives)
    # log evaluated only where u > 0; zero entries contribute exactly 0
    log_u = np.log(np.where(u > 0, u, 1.0))
    return u * d + state.gammas[None, :] * (u * log_u - u) + state.lam * u**state.p


def full_fcm_memberships(points: np.ndarray, centers: np.ndarray, fuzzifier: float) -> np.ndarray:
    """FCM memberships from the full N x m distance matrix, with numpy
    reductions along the cluster axis."""
    d2 = einsum_squared_distances(points, centers)
    u = np.zeros_like(d2)
    exact = d2 == 0.0
    hit = exact.any(axis=1)
    if hit.any():
        u[hit] = exact[hit] / exact[hit].sum(axis=1, keepdims=True)
    rest = ~hit
    if rest.any():
        # floor keeps the inverse power finite for near-coincident points
        w = np.maximum(d2[rest], 1e-18) ** (-1.0 / (fuzzifier - 1.0))
        u[rest] = w / w.sum(axis=1, keepdims=True)
    return u


# ---------------------------------------------------------------------------
# FCM start: the allocating implementation that the buffered one in
# spcm.initialization replaced, kept verbatim (names prefixed ``reference_``;
# the error and warning branches, which leave every output alone, left out) as
# the reference for centres, memberships, gammas and mu, which the package's
# start matches within the numerical contract (``contract.py``).


def reference_seed_representatives(points: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
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


def reference_row_sums(a: np.ndarray) -> np.ndarray:
    """Row sums of an (N, m) array as m - 1 elementwise column adds in index
    order, the order numpy's ``sum(axis=1)`` uses for fewer than 8 columns.
    On a boolean array the adds are logical ors: ``any(axis=1)``."""
    total = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        total += a[:, j]
    return total


def reference_fcm_weights(d2: np.ndarray, fuzzifier: float) -> np.ndarray:
    """FCM memberships of rows with no zero distance; overwrites ``d2``."""
    # floor keeps the inverse power finite for near-coincident points
    w = np.maximum(d2, 1e-18, out=d2) ** (-1.0 / (fuzzifier - 1.0))
    return w / reference_row_sums(w)[:, None]


def reference_fcm_memberships(points: np.ndarray, centers: np.ndarray, fuzzifier: float) -> np.ndarray:
    d2 = squared_distances(points, centers)
    exact = d2 == 0.0
    hit = reference_row_sums(exact)
    if not hit.any():
        return reference_fcm_weights(d2, fuzzifier)
    u = np.zeros_like(d2)
    u[hit] = exact[hit] / exact[hit].sum(axis=1, keepdims=True)
    u[~hit] = reference_fcm_weights(d2[~hit], fuzzifier)
    return u


def reference_run_fcm(X, m: int, config) -> tuple[np.ndarray, np.ndarray]:
    """Fuzzy c-means fixed point: (representatives, memberships)."""
    if not 1 <= m <= X.n_points:
        raise ValueError(f"cluster count must satisfy 1 <= m <= {X.n_points}, got {m}")
    rng = np.random.default_rng(config.seed)
    points = X.points
    centers = reference_seed_representatives(points, m, rng)
    q = config.fuzzifier
    for _ in range(config.max_iters):
        u = reference_fcm_memberships(points, centers, q)
        w = u**q
        new_centers = (w.T @ points) / w.sum(axis=0)[:, None]
        displacement = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if displacement < config.tol:
            break
    u = reference_fcm_memberships(points, centers, q)
    return centers, u


def reference_compute_gammas(X, theta0: np.ndarray, u_fcm: np.ndarray) -> np.ndarray:
    """Membership-weighted mean squared distance to each representative."""
    u_fcm = np.asarray(u_fcm, dtype=np.float64)
    column_sums = u_fcm.sum(axis=0)
    d2 = squared_distances(X.points, np.asarray(theta0, dtype=np.float64))
    return (u_fcm * d2).sum(axis=0) / column_sums


def reference_compute_mu(X, theta0: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Scaled squared distance of the closest point to each representative."""
    d2 = squared_distances(X.points, np.asarray(theta0, dtype=np.float64))
    return d2.min(axis=0) / np.asarray(gammas, dtype=np.float64)


def grid_largest_root(d, gamma, lam, p, n=20000):
    """Dense grid scan of f(u) = d + gamma*ln(u) + lam*p*u**(p-1) on (0, 1],
    refined by Brent's method on the last sign-change bracket.

    The grid is geometric from 1e-300, so roots far below 1/n are found; its
    cell ratio (3.5 % at n = 20000) always separates the two roots, whose
    ratio exceeds u_min/u_hat >= e.

    Returns (root or None, number of sign changes found).
    """
    u = np.geomspace(1e-300, 1.0, n)
    f = d + gamma * np.log(u) + lam * p * u ** (p - 1.0)
    signs = np.sign(f)
    changes = np.nonzero(np.diff(signs) != 0)[0]
    if changes.size == 0:
        return None, 0

    def scalar_f(x):
        return d + gamma * math.log(x) + lam * p * x ** (p - 1.0)

    i = changes[-1]
    root = brentq(scalar_f, u[i], u[i + 1], xtol=1e-14)
    return root, int(changes.size)


def bisect_largest_root(d, gamma, lam, p):
    """Larger root of f on (u_hat, 1] for each entry of d, by bisection until
    every bracket collapses to float resolution.

    f is strictly increasing on (u_hat, 1] with f(1) = d + lam*p > 0; the
    caller passes only entries with f(u_hat) < 0.
    """
    d = np.asarray(d, dtype=np.float64)
    lo = np.full_like(d, ((lam / gamma) * p * (1.0 - p)) ** (1.0 / (1.0 - p)))
    hi = np.ones_like(d)
    while True:
        mid = 0.5 * (lo + hi)
        open_ = (lo < mid) & (mid < hi)
        if not open_.any():
            return mid
        negative = d + gamma * np.log(mid) + lam * p * mid ** (p - 1.0) < 0.0
        lo = np.where(open_ & negative, mid, lo)
        hi = np.where(open_ & ~negative, mid, hi)


# The allocating membership solver, kept verbatim as the reference for the
# library's in-place kernel (the HALLEY_STEPS constant stands in for the
# module's _HALLEY_STEPS).
HALLEY_STEPS = 3


def reference_lambert_w0(z: np.ndarray) -> np.ndarray:
    """Principal branch W0 of the Lambert W function on [-1/e, 0].

    Halley iteration (Corless et al., "On the Lambert W function", Adv.
    Comput. Math. 5, 1996), started from the branch-point series for
    z < -0.25 and from z*(1-z) otherwise.  At the branch point z = -1/e
    (q = 0) the start is W0 = -1 and every step is skipped, not divided by
    zero; a z rounded past it is treated the same way.
    """
    q = np.sqrt(np.maximum(2.0 * (1.0 + math.e * z), 0.0))
    w = np.where(z < -0.25, -1.0 + q * (1.0 - q * (1.0 / 3.0 - q * (11.0 / 72.0))), z * (1.0 - z))
    for _ in range(HALLEY_STEPS):
        ew = np.exp(w)
        residual = w * ew - z
        num = 2.0 * (w + 1.0) * residual
        den = 2.0 * (w + 1.0) ** 2 * ew - (w + 2.0) * residual
        w = w - np.divide(num, den, out=np.zeros_like(w), where=den != 0.0)
    return w


def reference_largest_root(d: np.ndarray, gamma: float, lam: float, p: float) -> np.ndarray:
    """Closed-form larger root u2 of f (module docstring) for each entry of d.

    Needs lam > 0 and d <= R^2, where z is at or above -1/e.
    """
    one_minus_p = 1.0 - p
    # ln(-z), capped at -1 so z never passes the branch point -1/e
    log_minus_z = np.minimum(math.log(one_minus_p * lam * p / gamma) + one_minus_p * d / gamma, -1.0)
    return np.exp(reference_lambert_w0(-np.exp(log_minus_z)) / one_minus_p - d / gamma)


def reference_solve_membership_batch(d: np.ndarray, ctx) -> np.ndarray:
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
        out[inside] = np.maximum(reference_largest_root(d[inside], ctx.gamma, ctx.lam, ctx.p), ctx.u_min)
    return out


def f_value(u, d, ctx):
    """Cost derivative f(u) = d + gamma*ln(u) + lam*p*u**(p-1) for one
    cluster context; raises for u <= 0."""
    if not u > 0:
        raise ValueError(f"f is only defined for u > 0, got {u}")
    return d + ctx.gamma * math.log(u) + ctx.lam * ctx.p * u ** (ctx.p - 1.0)


def threshold_membership(d, ctx):
    """Threshold form of the membership update (lam > 0): the larger root of
    f, by bisection, when f(u_hat; d) < 0 and that root is at least u_min;
    0 otherwise.

    The bisection is :func:`bisect_largest_root` on one scalar: the same
    bracket (u_hat, 1] and the same stop rule, run until the bracket
    collapses to float resolution.
    """
    if not f_value(ctx.u_hat, d, ctx) < 0.0:
        return 0.0
    lo = ((ctx.lam / ctx.gamma) * ctx.p * (1.0 - ctx.p)) ** (1.0 / (1.0 - ctx.p))
    hi = 1.0
    while True:
        root = 0.5 * (lo + hi)
        if not lo < root < hi:
            break
        if f_value(root, d, ctx) < 0.0:
            lo = root
        else:
            hi = root
    return root if root >= ctx.u_min else 0.0


def weighted_cauchy_schwarz_holds(u, u_prime, rtol: float = 1e-12) -> bool:
    """Whether (sum u')**2 <= (sum u) * (sum u'**2/u) for positive vectors.

    The inequality always holds mathematically (it is Cauchy-Schwarz applied
    to sqrt(u) and u'/sqrt(u)); ``rtol`` absorbs rounding in the equality
    case u' == u.
    """
    u = np.asarray(u, dtype=np.float64)
    u_prime = np.asarray(u_prime, dtype=np.float64)
    if u.shape != u_prime.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {u_prime.shape}")
    if (u <= 0).any() or (u_prime <= 0).any():
        raise ValueError("both vectors must be strictly positive")
    lhs = float(u_prime.sum()) ** 2
    rhs = float(u.sum()) * float((u_prime**2 / u).sum())
    return lhs <= rhs * (1.0 + rtol)


def fd_hessian(func, x0, h=1e-5):
    """Central-difference Hessian of a scalar function."""
    x0 = np.asarray(x0, dtype=np.float64)
    n = x0.size
    H = np.zeros((n, n))
    f0 = func(x0)
    E = np.eye(n) * h
    for i in range(n):
        H[i, i] = (func(x0 + E[i]) - 2.0 * f0 + func(x0 - E[i])) / h**2
        for j in range(i + 1, n):
            v = (
                func(x0 + E[i] + E[j])
                - func(x0 + E[i] - E[j])
                - func(x0 - E[i] + E[j])
                + func(x0 - E[i] - E[j])
            ) / (4.0 * h**2)
            H[i, j] = H[j, i] = v
    return H


def cluster_cost_fn(points_active, gamma, lam, p):
    """Per-cluster cost as a function of the stacked vector (u_1..u_k, theta)."""
    k = points_active.shape[0]

    def cost(z):
        u = z[:k]
        theta = z[k:]
        d = ((points_active - theta[None, :]) ** 2).sum(axis=1)
        return float((u * d + gamma * (u * np.log(u) - u) + lam * u**p).sum())

    return cost


def fd_cluster_hessian(points_active, gamma, lam, p, u, theta, h=1e-5):
    """Finite-difference Hessian of the per-cluster cost, conditioned for
    large active sets.

    A joint second difference of the full cost has a rounding floor of about
    4*eps*|J|/h**2, which breaks the 1e-4 tolerance once |J| grows with the
    active count.  The cost is a sum of terms coupling only (u_i, theta), so
    each entry can be differenced on the single term that carries it:

    - u_i/u_i entries: scalar central second difference of that term;
    - theta entries: the cost is exactly quadratic in theta, so a wide step
      gives the exact value up to rounding;
    - u_i/theta entries: four-point mixed difference of the single term,
      also exact up to rounding (the term is linear in u_i times quadratic
      in theta).
    """
    points_active = np.asarray(points_active, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    k, l = u.size, theta.size
    H = np.zeros((k + l, k + l))

    def term(ui, th, xi):
        d = float(((xi - th) ** 2).sum())
        return ui * d + gamma * (ui * math.log(ui) - ui) + lam * ui**p

    for i in range(k):
        hi = min(h, 0.5 * u[i])
        xi = points_active[i]
        H[i, i] = (term(u[i] + hi, theta, xi) - 2.0 * term(u[i], theta, xi) + term(u[i] - hi, theta, xi)) / hi**2

    def theta_cost(th):
        d = ((points_active - th[None, :]) ** 2).sum(axis=1)
        return float((u * d + gamma * (u * np.log(u) - u) + lam * u**p).sum())

    ht = 1e-3
    E = np.eye(l) * ht
    f0 = theta_cost(theta)
    for q in range(l):
        H[k + q, k + q] = (theta_cost(theta + E[q]) - 2.0 * f0 + theta_cost(theta - E[q])) / ht**2
        for r in range(q + 1, l):
            v = (
                theta_cost(theta + E[q] + E[r])
                - theta_cost(theta + E[q] - E[r])
                - theta_cost(theta - E[q] + E[r])
                + theta_cost(theta - E[q] - E[r])
            ) / (4.0 * ht**2)
            H[k + q, k + r] = H[k + r, k + q] = v

    for i in range(k):
        hi = min(h, 0.5 * u[i])
        xi = points_active[i]
        for q in range(l):
            v = (
                term(u[i] + hi, theta + E[q], xi)
                - term(u[i] + hi, theta - E[q], xi)
                - term(u[i] - hi, theta + E[q], xi)
                + term(u[i] - hi, theta - E[q], xi)
            ) / (4.0 * hi * ht)
            H[i, k + q] = H[k + q, i] = v
    return H


# ---------------------------------------------------------------------------
# Dense fixed-point monitor: the original implementation, which assembles each
# cluster's full (k+l)x(k+l) Hessian, factorises it with Cholesky and
# evaluates the valley quadratic forms with a three-operand einsum.  The
# library's structured monitor must reach the same verdicts on the same random
# stream.  Only the Hessian/valley code is kept here; the gradient residual,
# valley radius and influence radius come from the library unchanged.


def _dense_membership_values(U) -> np.ndarray:
    return U.values if isinstance(U, MembershipMatrix) else np.asarray(U, dtype=np.float64)


def dense_assemble_hessian(X, state, U, cluster: int) -> np.ndarray:
    values = _dense_membership_values(U)
    active = np.nonzero(values[:, cluster] > 0)[0]
    k = active.size
    if k < 1:
        raise ValueError(f"cluster {cluster} has no active points")
    u = values[active, cluster]
    gamma = float(state.gammas[cluster])
    lam, p = state.lam, state.p
    theta = state.representatives[cluster]
    l = theta.size

    g = gamma / u - lam * p * (1.0 - p) * u ** (p - 2.0)
    H = np.zeros((k + l, k + l))
    H[np.arange(k), np.arange(k)] = g
    cross = 2.0 * (theta[None, :] - X.points[active])  # (k, l)
    H[:k, k:] = cross
    H[k:, :k] = cross.T
    H[k:, k:] = 2.0 * u.sum() * np.eye(l)
    return H


def _dense_is_positive_definite(H: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(H)
        return True
    except np.linalg.LinAlgError:
        return False


def dense_valley_samples(X, u_star, theta_star, active, lo, hi, eps, n, scale, rng):
    pts = X.points[active]
    u_set = np.empty((0, u_star.size))
    th_set = np.empty((0, theta_star.size))
    step = scale
    while u_set.shape[0] < n and step > 1e-12:
        draw = max(n, 4 * (n - u_set.shape[0]))
        cand = u_star[None, :] * (1.0 + rng.uniform(-step, step, size=(draw, u_star.size)))
        cand = np.clip(cand, lo, hi)
        sums = cand.sum(axis=1)
        means = (cand @ pts) / sums[:, None]
        keep = np.linalg.norm(means - theta_star[None, :], axis=1) < eps
        u_set = np.vstack([u_set, cand[keep]])
        th_set = np.vstack([th_set, means[keep]])
        step *= 0.5
    return u_set[:n], th_set[:n]


def dense_check_fixed_point(X, state, U, settings=None) -> dict:
    """The dense monitor; returns the report fields it shares with
    :class:`spcm.monitor.FixedPointReport` as a dict."""
    if settings is None:
        settings = MonitorSettings()
    values = _dense_membership_values(U)
    rng = np.random.default_rng(settings.seed)

    grad = gradient_residual(X, state, U)
    d2 = squared_distances(X.points, state.representatives)

    per_cluster_pd: list[bool] = []
    valley_ok = True
    geometric_ok = True
    eps_values: list[float] = []
    counts = (values > 0).sum(axis=0)

    for j in range(state.n_clusters):
        active = np.nonzero(values[:, j] > 0)[0]
        u_star = values[active, j]
        theta_star = state.representatives[j]

        H = dense_assemble_hessian(X, state, U, j)
        pd = _dense_is_positive_definite(H)
        per_cluster_pd.append(pd)

        eps_j = settings.epsilon_factor * epsilon_bound(state, j)
        eps_values.append(epsilon_bound(state, j))

        # Axis directions: the diagonal of H must be positive.
        if (np.diag(H) <= 0).any():
            valley_ok = False

        # Quadratic form at sampled valley points against the fixed-point matrix.
        if state.lam > 0:
            lo = (state.lam * (1.0 - state.p) / float(state.gammas[j])) ** (1.0 / (1.0 - state.p))
            hi = 1.0
        else:
            lo, hi = 1e-12, 1.0
        u_samp, th_samp = dense_valley_samples(
            X, u_star, theta_star, active, lo, hi, eps_j,
            settings.ball_samples, settings.perturb_scale, rng,
        )
        Z = np.hstack([u_samp, th_samp])
        if settings.ball_samples > 0 and Z.shape[0] == 0:
            # no admissible sample: the state is too far from stationarity
            # for the valley to exist; never report a vacuous pass
            valley_ok = False
        if Z.shape[0]:
            forms = np.einsum("si,ij,sj->s", Z, H, Z)
            if (forms <= 0).any():
                valley_ok = False

        # Interior variant: matrices assembled at sampled states, probed with
        # other sampled points (separations up to twice the radius).
        n_cross = min(settings.cross_samples, u_samp.shape[0])
        for s in range(n_cross):
            mod_values = values.copy()
            mod_values[active, j] = u_samp[s]
            reps = state.representatives.copy()
            reps[j] = th_samp[s]
            state_s = ModelState(reps, state.gammas, state.lam, state.p)
            H_s = dense_assemble_hessian(X, state_s, mod_values, j)
            probe = Z[rng.integers(0, Z.shape[0], size=min(8, Z.shape[0]))]
            if (np.einsum("si,ij,sj->s", probe, H_s, probe) <= 0).any():
                valley_ok = False

        # Geometry: active points inside the influence ball, inactive outside.
        r_sq = radius_squared(float(state.gammas[j]), state.lam, state.p)
        inactive = np.setdiff1d(np.arange(X.n_points), active)
        if (d2[active, j] > r_sq).any():
            geometric_ok = False
        if inactive.size and not (d2[inactive, j] > r_sq).all():
            geometric_ok = False

    return dict(
        grad_norm=grad,
        grad_ok=grad < settings.grad_tol,
        hessian_ok=all(per_cluster_pd),
        valley_ok=valley_ok,
        epsilon_bound=float(min(eps_values)),
        active_counts=counts,
        geometric_ok=geometric_ok,
        per_cluster_hessian_ok=tuple(per_cluster_pd),
    )
