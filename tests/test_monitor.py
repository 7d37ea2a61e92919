import tracemalloc

import numpy as np
import pytest

import spcm.monitor
from spcm.core import DataSet, MembershipMatrix, ModelState
from spcm.driver import SolverConfig, run, run_pcm2
from spcm.initialization import compute_lambda
from spcm.membership import build_context, solve_membership_batch
from spcm.monitor import (
    MonitorSettings,
    _arrowhead_blocks,
    _arrowhead_forms,
    _is_positive_definite,
    _schur_complement,
    _valley_samples,
    assemble_hessian,
    check_fixed_point,
    epsilon_bound,
    gradient_residual,
)

from conftest import make_noise_benchmark
from contract import assert_within_contract
from oracles import (
    cluster_cost_fn,
    dense_check_fixed_point,
    dense_valley_samples,
    fd_hessian,
    weighted_cauchy_schwarz_holds,
)


@pytest.fixture(scope="module")
def converged():
    X, _ = make_noise_benchmark(seed=5)
    result = run(X, 3, SolverConfig(K=0.9, theta_tol=1e-7))
    assert result.termination == "converged"
    return X, result


def random_cluster_state(rng, k=5, l=2):
    """A valid (not necessarily stationary) single-cluster configuration."""
    pts = rng.normal(size=(k, l))
    gamma = float(rng.uniform(0.5, 2.0))
    K = float(rng.uniform(0.3, 0.9)) * 0.5 * np.e
    lam = compute_lambda(np.array([gamma]), K, 0.5)
    ctx = build_context(gamma, lam, 0.5)
    u = rng.uniform(ctx.u_min * 1.2, ctx.u_max, size=(k, 1))
    theta = pts.mean(axis=0) + rng.normal(scale=0.05, size=l)
    state = ModelState(theta[None, :], [gamma], lam, 0.5)
    return DataSet(pts), state, MembershipMatrix(u), ctx


class TestGradientResidual:
    def test_converged_run_is_stationary(self, converged):
        X, result = converged
        assert gradient_residual(X, result.state, result.membership) < 1e-6

    def test_perturbation_scales_linearly(self, converged):
        X, result = converged
        reps = result.state.representatives.copy()
        reps[0, 0] += 0.1
        moved = ModelState(reps, result.state.gammas, result.state.lam, result.state.p)
        resid = gradient_residual(X, moved, result.membership)
        total_u = result.membership.values[:, 0].sum()
        assert resid > 1e-6
        assert resid == pytest.approx(0.1 * total_u, rel=0.2)

    def test_pcm2_membership_part_is_analytic_zero(self):
        X, _ = make_noise_benchmark(seed=6)
        result = run_pcm2(X, 3, SolverConfig(theta_tol=1e-7))
        state, U = result.state, result.membership.values
        # exp(-d/gamma) satisfies d + gamma*ln(u) = 0 up to rounding at the
        # representatives the memberships were solved from
        from spcm.core import squared_distances

        thetas = [result.init_report.theta0] + [rec.theta for rec in result.trace]
        d2 = squared_distances(X.points, thetas[result.n_iterations - 1])
        f = d2 + state.gammas[None, :] * np.log(U)
        assert np.abs(f).max() < 1e-12
        assert gradient_residual(X, state, result.membership) < 1e-6

    def test_requires_active_clusters(self):
        X = DataSet([[0.0], [1.0]])
        state = ModelState([[0.5]], [1.0], 0.1, 0.5)
        with pytest.raises(ValueError):
            gradient_residual(X, state, MembershipMatrix(np.zeros((2, 1))))

    def test_descent_iterates_are_not_stationary(self, converged):
        # replay the run: every pre-convergence iterate keeps a positive
        # residual, and clearly-moving iterates exceed the stationarity tol
        X, result = converged
        from spcm.driver import spcm_step
        from spcm.core import ModelState as MS

        report = result.init_report
        state = MS(report.theta0, report.gammas, report.lam, 0.5)
        for rec in result.trace[:-1]:
            U, state, _ = spcm_step(X, state)
            resid = gradient_residual(X, state, U)
            assert resid > 0
            if rec.max_delta_theta > 1e-4:
                assert resid > 1e-6


class TestAssembleHessian:
    def test_single_point_at_representative(self):
        X = DataSet([[0.3, 0.2]])
        gamma, K = 1.0, 0.9
        lam = compute_lambda(np.array([gamma]), K, 0.5)
        ctx = build_context(gamma, lam, 0.5)
        state = ModelState([[0.3, 0.2]], [gamma], lam, 0.5)
        U = MembershipMatrix([[ctx.u_max]])
        H = assemble_hessian(X, state, U, 0)
        g = gamma / ctx.u_max - lam * 0.5 * 0.5 * ctx.u_max ** (0.5 - 2)
        want = np.diag([g, 2 * ctx.u_max, 2 * ctx.u_max])
        np.testing.assert_allclose(H, want, rtol=1e-14, atol=1e-14)
        assert g >= (1 - 0.5) * gamma / ctx.u_max - 1e-12

    def test_symmetric_pair_matches_finite_differences(self):
        X = DataSet([[-0.3, 0.0], [0.3, 0.0]])
        gamma = 1.0
        lam = compute_lambda(np.array([gamma]), 0.9, 0.5)
        ctx = build_context(gamma, lam, 0.5)
        u = solve_membership_batch(np.array([0.09]), ctx)[0]
        state = ModelState([[0.0, 0.0]], [gamma], lam, 0.5)
        U = MembershipMatrix([[u], [u]])
        H = assemble_hessian(X, state, U, 0)
        cost = cluster_cost_fn(X.points, gamma, lam, 0.5)
        H_fd = fd_hessian(cost, np.array([u, u, 0.0, 0.0]))
        np.testing.assert_allclose(H_fd, H, rtol=1e-4, atol=1e-4)

    def test_structure_on_random_states(self, rng):
        for _ in range(5):
            X, state, U, _ = random_cluster_state(rng)
            H = assemble_hessian(X, state, U, 0)
            k = X.n_points
            np.testing.assert_array_equal(H, H.T)
            # membership block strictly diagonal, representative block scaled identity
            np.testing.assert_array_equal(H[:k, :k] - np.diag(np.diag(H[:k, :k])), 0.0)
            np.testing.assert_allclose(
                H[k:, k:], 2 * U.values.sum() * np.eye(2), rtol=1e-14
            )
            np.testing.assert_allclose(
                H[:k, k:], 2 * (state.representatives[0][None, :] - X.points), rtol=1e-14
            )

    def test_matches_finite_differences_on_random_states(self, rng):
        for _ in range(8):
            k = int(rng.integers(2, 7))
            l = int(rng.integers(1, 4))
            X, state, U, _ = random_cluster_state(rng, k=k, l=l)
            H = assemble_hessian(X, state, U, 0)
            cost = cluster_cost_fn(X.points, float(state.gammas[0]), state.lam, state.p)
            z0 = np.concatenate([U.values[:, 0], state.representatives[0]])
            H_fd = fd_hessian(cost, z0)
            np.testing.assert_allclose(H_fd, H, rtol=1e-4, atol=1e-4)

    def test_membership_curvature_lower_bound(self, rng):
        # g = gamma/u - lam*p*(1-p)*u**(p-2) >= (1-p)*gamma/u above the threshold
        for _ in range(200):
            p = rng.uniform(0.1, 0.9)
            gamma = float(rng.uniform(0.1, 3.0))
            K = rng.uniform(0.2, 0.99) * p * np.exp(2 * (1 - p))
            lam = compute_lambda(np.array([gamma]), K, p)
            ctx = build_context(gamma, lam, p)
            u = rng.uniform(ctx.u_min * (1 + 1e-9), ctx.u_max)
            g = gamma / u - lam * p * (1 - p) * u ** (p - 2)
            assert g >= (1 - p) * gamma / u - 1e-9 * gamma / u


class TestCheckFixedPoint:
    def test_converged_run_passes_all_checks(self, converged):
        X, result = converged
        report = check_fixed_point(X, result.state, result.membership)
        assert report.grad_ok
        assert report.hessian_ok
        assert report.valley_ok
        assert report.geometric_ok
        assert all(report.per_cluster_hessian_ok)
        assert (report.active_counts >= 1).all()
        assert report.per_cluster_valley_samples == (1000, 1000, 1000)
        assert all(margin > 0 for margin in report.per_cluster_pd_margin)
        assert report.epsilon_bound == pytest.approx(
            min(epsilon_bound(result.state, j) for j in range(3)), rel=1e-15
        )

    def test_single_active_point_fixed_point(self):
        gamma = 1.0
        lam = compute_lambda(np.array([gamma]), 0.9, 0.5)
        ctx = build_context(gamma, lam, 0.5)
        X = DataSet([[0.3, 0.2]])
        state = ModelState([[0.3, 0.2]], [gamma], lam, 0.5)
        U = MembershipMatrix([[ctx.u_max]])
        report = check_fixed_point(X, state, U)
        assert report.grad_norm < 1e-10
        assert report.hessian_ok and report.valley_ok and report.geometric_ok

    def test_non_fixed_state_flagged(self, converged):
        X, result = converged
        reps = result.state.representatives.copy()
        reps[0] += 0.05
        moved = ModelState(reps, result.state.gammas, result.state.lam, result.state.p)
        report = check_fixed_point(X, moved, result.membership, MonitorSettings(ball_samples=50))
        assert not report.grad_ok
        assert report.grad_norm > 1e-6

    def test_cluster_without_active_points_is_reported_not_raised(self, converged):
        X, result = converged
        values = result.membership.values.copy()
        values[:, 1] = 0.0
        report = check_fixed_point(X, result.state, MembershipMatrix(values))
        assert report.grad_norm == np.inf
        assert not (report.grad_ok or report.hessian_ok or report.valley_ok)
        assert report.per_cluster_hessian_ok == (True, False, True)
        assert report.per_cluster_pd_margin[1] == -np.inf
        assert report.per_cluster_valley_samples == (1000, 0, 1000)
        assert report.active_counts[1] == 0 and (report.active_counts[[0, 2]] > 0).all()
        # the points that were active sit inside the ball, now as inactive points
        assert not report.geometric_ok

    def test_cluster_without_active_points_keeps_its_geometry_check(self, converged):
        X, result = converged
        reps = result.state.representatives.copy()
        reps[1] = X.bbox_max + 10.0  # every point far outside this cluster's ball
        state = ModelState(reps, result.state.gammas, result.state.lam, result.state.p)
        values = result.membership.values.copy()
        values[:, 1] = 0.0
        report = check_fixed_point(X, state, MembershipMatrix(values), MonitorSettings(ball_samples=50))
        assert report.geometric_ok
        assert report.grad_norm == np.inf and not report.valley_ok
        assert not report.per_cluster_hessian_ok[1] and report.per_cluster_valley_samples[1] == 0

    def test_valley_min_form_is_the_smallest_form_evaluated(self, converged, monkeypatch):
        X, result = converged
        forms = []
        real = spcm.monitor._arrowhead_forms
        monkeypatch.setattr(spcm.monitor, "_arrowhead_forms", lambda *args: forms.append(real(*args)) or forms[-1])
        settings = MonitorSettings(ball_samples=40, cross_samples=3)
        report = check_fixed_point(X, result.state, result.membership, settings)
        per_cluster = 1 + settings.cross_samples
        want = [float(np.concatenate(forms[j * per_cluster:(j + 1) * per_cluster]).min()) for j in range(3)]
        assert report.per_cluster_valley_min_form == tuple(want)
        assert report.valley_ok and all(form > 0 for form in want)

    def test_valley_min_form_is_inf_where_no_form_was_evaluated(self, converged):
        X, result = converged
        values = result.membership.values.copy()
        values[:, 1] = 0.0
        report = check_fixed_point(X, result.state, MembershipMatrix(values), MonitorSettings(ball_samples=50))
        assert report.per_cluster_valley_min_form[1] == np.inf
        assert all(np.isfinite(report.per_cluster_valley_min_form[j]) for j in (0, 2))
        report = check_fixed_point(X, result.state, result.membership, MonitorSettings(ball_samples=0))
        assert report.per_cluster_valley_min_form == (np.inf,) * 3

    def test_valley_min_form_sees_a_sampler_shifted_by_one_double(self, converged, monkeypatch):
        # skipping one double short of the undrawn candidates shifts every
        # later draw; no verdict or count changes, but the smallest form does
        X, result = converged
        settings = MonitorSettings(ball_samples=200)
        report = check_fixed_point(X, result.state, result.membership, settings)
        real = spcm.monitor._skip_doubles
        monkeypatch.setattr(spcm.monitor, "_skip_doubles", lambda rng, count: real(rng, count - 1))
        shifted = check_fixed_point(X, result.state, result.membership, settings)
        for name in ("valley_ok", "per_cluster_valley_samples", "per_cluster_pd_margin", "grad_norm"):
            assert getattr(shifted, name) == getattr(report, name), name
        assert shifted.per_cluster_valley_min_form != report.per_cluster_valley_min_form

    def test_epsilon_bound_formula(self):
        state = ModelState([[0.0]], [1.0], 0.5, 0.5)
        assert epsilon_bound(state, 0) == pytest.approx(0.25, rel=1e-15)
        pcm2_state = ModelState([[0.0]], [1.0], 0.0, 0.5)
        assert epsilon_bound(pcm2_state, 0) == pytest.approx(0.5 * np.sqrt(0.5), rel=1e-15)


class TestMonitorSettings:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("grad_tol", 0.0),
            ("grad_tol", -1e-6),
            ("ball_samples", -5),
            ("cross_samples", -3),
            ("epsilon_factor", 0.0),
            ("epsilon_factor", 1.5),
            ("perturb_scale", 0.0),
            ("perturb_scale", -0.05),
            ("ball_samples", 2.5),
            ("cross_samples", 1.5),
            ("seed", -1),
            ("seed", 1.5),
            ("perturb_scale", np.inf),
            ("grad_tol", np.inf),
        ],
    )
    def test_rejects_values_that_corrupt_verdicts(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            MonitorSettings(**{field: value})

    def test_accepts_boundary_values(self):
        MonitorSettings(ball_samples=0, cross_samples=0, epsilon_factor=1.0)


def _cluster_blocks(X, state, U, j=0):
    values = U.values
    active = values[:, j] > 0
    return _arrowhead_blocks(
        X.points[active], values[active, j], state.representatives[j],
        float(state.gammas[j]), state.lam, state.p,
    )


class CountingGenerator:
    """A ``default_rng`` that counts what its ``uniform`` draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.rows_drawn = 0
        self.doubles_drawn = 0

    def uniform(self, low, high, size):
        self.rows_drawn += size[0]
        self.doubles_drawn += int(np.prod(size))
        return self.rng.uniform(low, high, size=size)


def _valley_args(converged, n, scale, eps_factor):
    """``_valley_samples`` arguments, less the generator, for each cluster of a converged run."""
    X, result = converged
    state, values = result.state, result.membership.values
    for j in range(state.n_clusters):
        active = np.nonzero(values[:, j] > 0)[0]
        lo = (state.lam * (1 - state.p) / state.gammas[j]) ** (1 / (1 - state.p))
        eps = eps_factor * epsilon_bound(state, j)
        yield X, values[active, j], state.representatives[j], active, lo, 1.0, eps, n, scale


class TestStructuredHessian:
    def test_forms_match_dense_quadratic_forms(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 12))
            l = int(rng.integers(1, 5))
            X, state, U, _ = random_cluster_state(rng, k=k, l=l)
            H = assemble_hessian(X, state, U, 0)
            Z = rng.uniform(0.0, 1.0, size=(50, k + l))
            Z[:, k:] += state.representatives[0]
            dense = np.einsum("si,ij,sj->s", Z, H, Z)
            forms = _arrowhead_forms(*_cluster_blocks(X, state, U), Z[:, :k], Z[:, k:])
            np.testing.assert_allclose(forms, dense, rtol=1e-12)

    def test_schur_test_agrees_with_dense_cholesky(self, rng):
        seen = set()
        for _ in range(60):
            k = int(rng.integers(1, 8))
            l = int(rng.integers(1, 4))
            X, state, U, _ = random_cluster_state(rng, k=k, l=l)
            # spread the points so that some Hessians are indefinite
            X = DataSet(X.points * rng.uniform(0.2, 3.0))
            g, C, s = _cluster_blocks(X, state, U)
            H = assemble_hessian(X, state, U, 0)
            assert (g > 0).all()
            S = _schur_complement(g, C, s)
            pd = _is_positive_definite(S)
            assert pd == _is_positive_definite(H)
            assert (np.linalg.eigvalsh(S if pd else H)[0] > 0) == pd
            seen.add(pd)
        assert seen == {True, False}

    @pytest.mark.parametrize("n", [1000, 50])
    @pytest.mark.parametrize("scale", [0.05, 3.0])
    def test_valley_sampler_reproduces_dense_sampler(self, converged, n, scale):
        # the samples and the generator's end state are exact; theta' is a
        # weighted mean from a block's own product, which BLAS may round
        # differently from the oracle's product of the pass's full shape
        X, result = converged
        state, values = result.state, result.membership.values
        for j in range(state.n_clusters):
            active = np.nonzero(values[:, j] > 0)[0]
            lo = (state.lam * (1 - state.p) / state.gammas[j]) ** (1 / (1 - state.p))
            eps = 0.99 * epsilon_bound(state, j)
            args = (X, values[active, j], state.representatives[j], active, lo, 1.0, eps, n, scale)
            rng_new, rng_old = np.random.default_rng(3), np.random.default_rng(3)
            u_new, th_new = _valley_samples(*args, rng_new)
            u_old, th_old = dense_valley_samples(*args, rng_old)
            np.testing.assert_array_equal(u_new, u_old)
            assert rng_new.bit_generator.state == rng_old.bit_generator.state
            assert_within_contract(th_new, th_old, "theta")

    @pytest.mark.parametrize(
        "n, scale, eps_factor",
        [(1000, 0.05, 0.99), (50, 0.05, 0.99), (1000, 3.0, 0.99), (50, 3.0, 0.99), (0, 0.05, 0.99),
         (50, 3.0, 0.01), (1000, 0.5, 0.01)],
    )
    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered-uint32"])
    def test_valley_sampler_leaves_the_generator_where_the_dense_sampler_does(
        self, converged, n, scale, eps_factor, buffered
    ):
        # eps_factor 0.01 admits a fraction of each round, so later rounds
        # and passes run; a bounded integers draw first leaves half of a
        # 64-bit output buffered, which skipping the stream must keep
        for j, args in enumerate(_valley_args(converged, n, scale, eps_factor)):
            rng_new, rng_old = CountingGenerator(3), np.random.default_rng(3)
            if buffered:
                rng_new.rng.integers(0, 10)
                rng_old.integers(0, 10)
            u_new, _ = _valley_samples(*args, rng_new)
            u_old, _ = dense_valley_samples(*args, rng_old)
            np.testing.assert_array_equal(u_new, u_old)
            assert rng_new.bit_generator.state == rng_old.bit_generator.state, j
            if eps_factor < 0.1:
                # the first pass drew all of its 4n rows, so it took more
                # than one round, and a second pass followed
                assert rng_new.rows_drawn > 4 * n

    def test_valley_sampler_keeps_a_consumed_buffered_half(self, converged):
        # two bounded integers draws buffer a 32-bit half and then consume it;
        # the spent half stays in the state, which drawing doubles never touches
        for args in _valley_args(converged, 50, 0.05, 0.99):
            rng_new, rng_old = np.random.default_rng(3), np.random.default_rng(3)
            for rng in (rng_new, rng_old):
                rng.integers(0, 10, size=2)
            assert not rng_new.bit_generator.state["has_uint32"] and rng_new.bit_generator.state["uinteger"]
            _valley_samples(*args, rng_new)
            dense_valley_samples(*args, rng_old)
            assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_valley_sampler_draws_no_more_than_it_keeps(self, converged):
        # every candidate is admissible here, so only the n kept rows are drawn
        n = 1000
        for args in _valley_args(converged, n, 0.05, 0.99):
            rng = CountingGenerator(3)
            u_samp, _ = _valley_samples(*args, rng)
            k = args[1].size
            assert u_samp.shape == (n, k)
            assert rng.doubles_drawn == n * k

    def test_valley_check_holds_one_sample_array_at_a_time(self):
        # at k = 20,000 active points the sampler and the forms on its samples
        # allocate little beyond the (n, k) array of kept samples
        rng = np.random.default_rng(0)
        k, n = 20_000, 200
        pts = rng.normal(scale=0.1, size=(k, 2))
        u = rng.uniform(0.2, 0.9, size=k)
        theta = (u @ pts) / u.sum()
        bound = 1.25 * n * k * 8 + spcm.monitor._BLOCK_BYTES
        tracemalloc.start()
        try:
            u_samp, th_samp = _valley_samples(
                DataSet(pts), u, theta, np.arange(k), 1e-3, 1.0, 0.05, n, 0.05, np.random.default_rng(1)
            )
            sampler_peak = tracemalloc.get_traced_memory()[1]
            g, C, s = _arrowhead_blocks(pts, u, theta, 0.1, 0.0, 0.5)
            tracemalloc.reset_peak()
            forms = _arrowhead_forms(g, C, s, u_samp, th_samp)
            forms_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert u_samp.shape == (n, k) and (forms > 0).all()
        assert sampler_peak <= bound, sampler_peak
        assert forms_peak <= bound, forms_peak

    def test_interior_probes_use_the_hessian_at_each_sampled_state(self, converged, monkeypatch):
        X, result = converged
        state, values = result.state, result.membership.values
        calls = []
        real = spcm.monitor._arrowhead_forms

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(spcm.monitor, "_arrowhead_forms", spy)
        settings = MonitorSettings(ball_samples=20, cross_samples=3)
        check_fixed_point(X, state, result.membership, settings)
        per_cluster = 1 + settings.cross_samples
        assert len(calls) == state.n_clusters * per_cluster
        for j in range(state.n_clusters):
            (*_, u_samp, th_samp), *probes = calls[j * per_cluster:(j + 1) * per_cluster]
            active = values[:, j] > 0
            for t, (g, C, s, u_probe, th_probe) in enumerate(probes):
                moved = values.copy()
                moved[active, j] = u_samp[t]
                reps = state.representatives.copy()
                reps[j] = th_samp[t]
                H = assemble_hessian(X, ModelState(reps, state.gammas, state.lam, state.p), moved, j)
                k = g.size
                np.testing.assert_array_equal(g, np.diag(H)[:k])
                np.testing.assert_array_equal(C, H[:k, k:])
                assert s == H[k, k]
                # probes are (u', theta') rows of the sample set
                rows = [np.flatnonzero((u_samp == row).all(axis=1))[0] for row in u_probe]
                np.testing.assert_array_equal(th_probe, th_samp[rows])

    def test_check_never_assembles_the_dense_matrix(self, converged, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense Hessian assembled")

        monkeypatch.setattr(spcm.monitor, "assemble_hessian", refuse)
        X, result = converged
        report = check_fixed_point(X, result.state, result.membership, MonitorSettings(ball_samples=50))
        assert report.hessian_ok and report.valley_ok


GRID_FIELDS = (
    "grad_norm", "grad_ok", "hessian_ok", "valley_ok", "epsilon_bound",
    "active_counts", "geometric_ok", "per_cluster_hessian_ok",
)


@pytest.fixture(scope="module")
def monitor_grid():
    """Structured and dense reports over p, both algorithms, m and shifts of
    representative 0 (the shifted states fail several checks)."""
    X, _ = make_noise_benchmark(seed=5)
    settings = MonitorSettings(ball_samples=200)
    cases = []
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for algorithm in (run, run_pcm2):
            for m in (3, 4):
                result = algorithm(X, m, SolverConfig(p=p))
                for shift in (0.0, 0.02, 0.3):
                    reps = result.state.representatives.copy()
                    reps[0] += shift
                    state = ModelState(reps, result.state.gammas, result.state.lam, result.state.p)
                    cases.append((
                        (p, algorithm.__name__, m, shift),
                        check_fixed_point(X, state, result.membership, settings),
                        dense_check_fixed_point(X, state, result.membership, settings),
                    ))
    return cases


class TestDenseEquivalence:
    def test_reports_equal_dense_monitor(self, monitor_grid):
        for case, report, dense in monitor_grid:
            for name in GRID_FIELDS:
                np.testing.assert_array_equal(getattr(report, name), dense[name], err_msg=f"{case} {name}")

    def test_grid_covers_failing_verdicts(self, monitor_grid):
        for name in ("grad_ok", "hessian_ok", "valley_ok", "geometric_ok"):
            assert {getattr(report, name) for _, report, _ in monitor_grid} == {True, False}, name

    def test_pd_margin_sign_agrees_with_verdict(self, monitor_grid):
        for case, report, _ in monitor_grid:
            assert len(report.per_cluster_pd_margin) == len(report.per_cluster_hessian_ok)
            for margin, ok in zip(report.per_cluster_pd_margin, report.per_cluster_hessian_ok):
                assert (margin > 0) == ok, case


class TestWeightedCauchySchwarz:
    def test_equality_when_equal(self, rng):
        u = rng.uniform(0.1, 1.0, size=8)
        assert weighted_cauchy_schwarz_holds(u, u)
        lhs = u.sum() ** 2
        rhs = u.sum() * (u**2 / u).sum()
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_singleton_always_equal(self):
        assert weighted_cauchy_schwarz_holds([0.4], [0.9])

    def test_fuzz_never_violated(self, rng):
        for _ in range(10_000):
            k = int(rng.integers(1, 17))
            u = rng.uniform(1e-6, 1.0, size=k)
            v = rng.uniform(1e-6, 1.0, size=k)
            assert weighted_cauchy_schwarz_holds(u, v)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            weighted_cauchy_schwarz_holds([0.0, 1.0], [1.0, 1.0])
