"""End-to-end acceptance suite.

Every test enforces one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (visible with ``pytest -v -s``).  The
benchmark family is twenty seeded 3-blob datasets (N = 165: three
unit-triangle blobs of 50 points, sigma 0.1, plus 10% background noise),
clustered with p = 0.5, K = 0.9 and a representative-displacement stopping
threshold of 1e-7 (stricter than the required 1e-6, which sharpens the
gradient residual at termination).
"""

import math

import numpy as np
import pytest

import spcm
from spcm.core import squared_distances
from spcm.driver import SolverConfig, run, run_pcm2
from spcm.initialization import activation_bound, compute_lambda, radius_bound, validate_K
from spcm.membership import build_context, radius_squared, solve_membership_batch
from spcm.monitor import check_fixed_point, weighted_cauchy_schwarz_holds

from conftest import make_noise_benchmark
from oracles import f_value, fd_cluster_hessian, grid_largest_root, threshold_membership

SEEDS = tuple(range(20))
CONFIG = SolverConfig(p=0.5, K=0.9, theta_tol=1e-7, max_iters=500)


def _report(number: int, name: str, ok: bool, detail: str = ""):
    line = f"acceptance criterion {number:2d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bench_runs():
    runs = []
    for seed in SEEDS:
        m = 3 if seed % 2 == 0 else 4
        X, labels = make_noise_benchmark(seed)
        result = run(X, m, CONFIG)
        runs.append({"seed": seed, "m": m, "X": X, "labels": labels, "result": result})
    return runs


@pytest.fixture(scope="module")
def monitor_reports(bench_runs):
    return [check_fixed_point(r["X"], r["result"].state, r["result"].membership) for r in bench_runs]


def test_criterion_01_strict_descent(bench_runs):
    """Cost falls strictly every iteration, in both half-steps."""
    violations = 0
    for r in bench_runs:
        for rec in r["result"].trace:
            slack = 1e-12 * abs(rec.cost)
            if rec.cost_before is not None:
                if not rec.cost_after_u < rec.cost_before + slack:
                    violations += 1
                if not rec.cost < rec.cost_before + slack:
                    violations += 1
            if not rec.cost < rec.cost_after_u + slack:
                violations += 1
    _report(1, "strict descent", violations == 0, f"(violations: {violations})")


def test_criterion_02_fixed_point_convergence(bench_runs, monitor_reports):
    """Every run converges within the cap with a stationary, geometrically
    consistent final state."""
    ok = True
    worst = 0.0
    for r, report in zip(bench_runs, monitor_reports):
        result = r["result"]
        ok &= result.termination == "converged"
        ok &= result.n_iterations <= 500
        ok &= result.trace[-1].max_delta_theta < 1e-6
        resid = spcm.gradient_residual(r["X"], result.state, result.membership)
        worst = max(worst, resid)
        ok &= resid < 1e-6
        ok &= report.geometric_ok
    _report(2, "fixed-point convergence", ok, f"(worst residual: {worst:.3g})")


def test_criterion_03_branch_equivalence():
    """Threshold form and radius form of the update agree everywhere."""
    rng = np.random.default_rng(2024)
    mismatches = 0
    worst_gap = 0.0
    for _ in range(10_000):
        p = rng.uniform(0.1, 0.9)
        gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        K = rng.uniform(0.2, 0.99) * radius_bound(p)
        lam = compute_lambda(np.array([gamma]), K, p)
        ctx = build_context(gamma, lam, p)
        d = float(rng.uniform(0.0, 1.5 * ctx.radius_sq))
        a = threshold_membership(d, ctx)
        b = solve_membership_batch(np.array([d]), ctx)[0]
        if (a > 0) != (b > 0):
            mismatches += 1
        elif a > 0:
            worst_gap = max(worst_gap, abs(a - b))
    _report(
        3,
        "branch equivalence",
        mismatches == 0 and worst_gap <= 1e-8,
        f"(mismatches: {mismatches}, worst value gap: {worst_gap:.3g})",
    )


def test_criterion_04_root_solver_against_grid_oracle():
    """Closed-form roots match an independent dense-grid + Brent oracle.

    p spans [0.1, 0.9]; the oracle scans a geometric grid because above
    p ~ 0.86 the larger root can fall below 5e-5, where a linear grid of
    20,000 points starts.
    """
    rng = np.random.default_rng(99)
    checked = 0
    ok = True
    worst_gap = 0.0
    worst_resid = 0.0
    while checked < 1000:
        p = rng.uniform(0.1, 0.9)
        gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        K = rng.uniform(0.4, 0.95) * radius_bound(p)
        lam = compute_lambda(np.array([gamma]), K, p)
        ctx = build_context(gamma, lam, p)
        d = float(rng.uniform(0.0, ctx.radius_sq))
        if d + f_value(ctx.u_hat, 0.0, ctx) >= 0:
            continue
        checked += 1
        oracle_root, sign_changes = grid_largest_root(d, gamma, lam, p, n=20_000)
        ok &= sign_changes <= 2
        if oracle_root is None:
            ok = False
            continue
        root = float(solve_membership_batch(np.array([d]), ctx)[0])
        worst_gap = max(worst_gap, abs(root - oracle_root))
        resid = abs(d + gamma * math.log(root) + lam * p * root ** (p - 1.0))
        worst_resid = max(worst_resid, resid / (1.0 + d))
        ok &= abs(root - oracle_root) <= 1e-8
        ok &= resid < 1e-7 * (1.0 + d)
    _report(
        4,
        "root solver vs grid oracle",
        ok,
        f"(worst root gap: {worst_gap:.3g}, worst scaled |f|: {worst_resid:.3g})",
    )


def test_criterion_05_membership_bounds(bench_runs):
    """Every nonzero membership stays inside its cluster's attainable band."""
    ok = True
    for r in bench_runs:
        result = r["result"]
        state = result.state
        contexts = [
            build_context(float(g), state.lam, state.p)
            for g in state.gammas
        ]
        for j, ctx in enumerate(contexts):
            col = result.membership.values[:, j]
            nz = col[col > 0]
            if nz.size:
                ok &= bool(nz.min() >= ctx.u_min - 1e-9)
                ok &= bool(nz.max() <= ctx.u_max + 1e-9)
        ok &= all(rec.u_bounds_ok for rec in result.trace)
    _report(5, "membership bounds", ok)


def test_criterion_06_nonsparse_consistency():
    """The lam = 0 driver tracks the sparse driver with lam = 1e-12, and its
    memberships are the closed form exactly, at every iteration."""
    ok = True
    worst_gap = 0.0
    for seed in range(5):
        X, _ = make_noise_benchmark(seed)
        res0 = run_pcm2(X, 3, CONFIG)
        # choose K so the sparse run's selected weight is exactly 1e-12
        gamma_bar = float(res0.init_report.gammas.min())
        K = 1e-12 * 0.5 * 0.5 * math.exp(1.5) / gamma_bar
        res1 = run(X, 3, SolverConfig(p=0.5, K=K, theta_tol=1e-7, max_iters=500))
        ok &= abs(res1.state.lam - 1e-12) < 1e-27
        ok &= abs(res0.n_iterations - res1.n_iterations) <= 1
        n = min(res0.n_iterations, res1.n_iterations)
        gap = max(abs(res0.trace[t].cost - res1.trace[t].cost) for t in range(n))
        worst_gap = max(worst_gap, gap)
        ok &= gap < 1e-4

        # replay: memberships at every iteration are exp(-d/gamma), bitwise
        gammas = res0.state.gammas
        theta = res0.init_report.theta0
        for rec in res0.trace:
            U = np.exp(-squared_distances(X.points, theta) / gammas[None, :])
            theta = np.vstack([(U[:, j] @ X.points) / U[:, j].sum() for j in range(3)])
            ok &= np.array_equal(theta, rec.theta)
        ok &= np.array_equal(
            res0.membership.values,
            np.exp(-squared_distances(X.points, res0.trace[-2].theta if res0.n_iterations > 1 else res0.init_report.theta0) / gammas[None, :]),
        )
    _report(6, "nonsparse consistency", ok, f"(worst per-iteration cost gap: {worst_gap:.3g})")


def test_criterion_07_hessian_validity(bench_runs, monitor_reports):
    """Analytic second derivatives match finite differences at every fixed
    point; all are positive definite and valley samples stay positive."""
    ok = True
    worst = 0.0
    for r, report in zip(bench_runs, monitor_reports):
        result = r["result"]
        ok &= report.hessian_ok
        ok &= report.valley_ok  # 1000 samples, eps = 0.99 * bound (defaults)
        state = result.state
        U = result.membership.values
        for j in range(state.n_clusters):
            active = np.nonzero(U[:, j] > 0)[0]
            H = spcm.assemble_hessian(r["X"], state, result.membership, j)
            H_fd = fd_cluster_hessian(
                r["X"].points[active], float(state.gammas[j]), state.lam, state.p,
                U[active, j], state.representatives[j],
            )
            gap = np.abs(H_fd - H) / (np.abs(H) + 1e-4)
            worst = max(worst, float(gap.max()))
            ok &= bool(np.allclose(H_fd, H, rtol=1e-4, atol=1e-4))
    _report(7, "hessian validity", ok, f"(worst mixed-relative gap: {worst:.3g})")


def test_criterion_08_parameter_bounds_fuzz():
    """Radius positivity below the K bound; activation below B(p); the
    standard (p, K) = (0.5, 0.9) choice is accepted."""
    rng = np.random.default_rng(11)
    ok = True
    n_radius = n_activation = 0
    for _ in range(10_000):
        p = rng.uniform(0.05, 0.95)
        ratios = np.concatenate([[1.0], rng.uniform(1.0, 5.0, size=2)])
        gamma_bar = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
        gammas = gamma_bar * ratios
        mu = rng.uniform(0.0, 2.0, size=3)
        b_of_p = activation_bound(p, float(mu.max()))
        K = rng.uniform(0.2, 1.1) * b_of_p
        lam = compute_lambda(gammas, K, p)
        if K < radius_bound(p):
            n_radius += 1
            ok &= all(radius_squared(float(g), lam, p) > 0 for g in gammas)
        if K <= b_of_p:
            n_activation += 1
            for j in range(3):
                ctx = build_context(float(gammas[j]), lam, p)
                ok &= solve_membership_batch(np.array([mu[j] * gammas[j]]), ctx)[0] > 0
    ok &= abs(activation_bound(0.5, 0.0) - 1.359) < 1e-3
    ok &= activation_bound(0.5, 0.0) == radius_bound(0.5)
    report = validate_K(0.9, np.array([1.0, 1.3]), 0.5, np.array([0.01, 0.02]))
    ok &= report.warnings == ()
    _report(
        8,
        "parameter bounds fuzz",
        ok,
        f"(radius checks: {n_radius}, activation checks: {n_activation})",
    )


def test_criterion_09_noise_rejection():
    """On the 10%-noise benchmark, noise points beyond every influence ball
    end with all-zero membership rows and the retained representatives match
    distinct blob means to 0.1*sigma."""
    X, labels = make_noise_benchmark(seed=10)
    result = run(X, 4, CONFIG)
    state = result.state
    d2 = squared_distances(X.points, state.representatives)
    r_sq = np.array([radius_squared(float(g), state.lam, state.p) for g in state.gammas])
    noise = labels == -1
    beyond_all = (d2 > r_sq[None, :]).all(axis=1)
    population = noise & beyond_all
    zero_rows = (result.membership.values == 0).all(axis=1)
    frac = float(zero_rows[population].mean()) if population.any() else 0.0

    means = np.array([X.points[labels == b].mean(axis=0) for b in range(3)])
    reps = result.dedup.representatives
    nearest = np.array([int(np.linalg.norm(means - rep, axis=1).argmin()) for rep in reps])
    dists = np.array([float(np.linalg.norm(means[nearest[i]] - reps[i])) for i in range(len(reps))])

    ok = population.sum() > 0
    ok &= frac >= 0.95
    ok &= len(reps) == 3 and len(set(nearest.tolist())) == 3
    ok &= bool(dists.max() <= 0.1 * 0.1)
    _report(
        9,
        "noise rejection",
        ok,
        f"(zero-row fraction: {frac:.2f} of {int(population.sum())}, worst mean gap: {dists.max():.4f})",
    )


def test_criterion_10_weighted_cauchy_schwarz_fuzz():
    """The discriminant inequality is never violated; equality at u' == u."""
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100_000):
        k = int(rng.integers(1, 17))
        u = rng.uniform(1e-6, 1.0, size=k)
        v = rng.uniform(1e-6, 1.0, size=k)
        ok &= weighted_cauchy_schwarz_holds(u, v)
    for _ in range(100):
        k = int(rng.integers(1, 17))
        u = rng.uniform(1e-6, 1.0, size=k)
        lhs = float(u.sum()) ** 2
        rhs = float(u.sum()) * float((u**2 / u).sum())
        ok &= weighted_cauchy_schwarz_holds(u, u)
        ok &= abs(lhs - rhs) <= 1e-12 * abs(rhs)
    _report(10, "weighted Cauchy-Schwarz fuzz", ok)
