import math

import numpy as np
import pytest

from spcm.cli import BlobSpec, default_centers, generate_blobs
from spcm.core import DataSet, MembershipMatrix, ModelState, squared_distances, total_cost
from spcm.driver import (
    ActiveSetEmptyError,
    SolverConfig,
    deduplicate,
    run,
    run_pcm2,
    spcm_step,
    update_theta,
)
from spcm.initialization import DegenerateDataError, compute_lambda
from spcm.membership import InvalidParameterError, radius_squared
from spcm.monitor import check_fixed_point

from conftest import make_noise_benchmark


def symmetric_pair_state(lam_factor=0.9):
    """Single cluster, two points symmetric about the representative."""
    X = DataSet([[-0.3, 0.0], [0.3, 0.0]])
    gamma = 1.0
    lam = compute_lambda(np.array([gamma]), lam_factor, 0.5)
    state = ModelState([[0.0, 0.0]], [gamma], lam, 0.5)
    return X, state


class TestUpdateTheta:
    def test_equal_weights_give_centroid(self, rng):
        pts = rng.normal(size=(9, 2))
        X = DataSet(pts)
        got = update_theta(X, np.full(9, 0.37))
        np.testing.assert_allclose(got, pts.mean(axis=0), rtol=1e-12)

    def test_one_hot_returns_the_point(self):
        X = DataSet([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(update_theta(X, np.array([0.0, 1.0])), [3.0, 4.0])
        # single active point with fractional weight: equal up to division rounding
        np.testing.assert_allclose(update_theta(X, np.array([0.0, 0.8])), [3.0, 4.0], rtol=1e-15)

    def test_weighted_mean(self):
        X = DataSet([[0.0, 0.0], [1.0, 0.0]])
        got = update_theta(X, np.array([0.2, 0.8]))
        np.testing.assert_allclose(got, [0.8, 0.0], rtol=1e-15)

    def test_all_zero_column_raises(self):
        X = DataSet([[0.0], [1.0]])
        with pytest.raises(ActiveSetEmptyError):
            update_theta(X, np.zeros(2))


class TestSpcmStep:
    def test_symmetric_pair_fixed_point(self):
        X, state = symmetric_pair_state()
        U, state_next, _ = spcm_step(X, state)
        assert U.values[0, 0] == U.values[1, 0] > 0
        np.testing.assert_allclose(state_next.representatives, [[0.0, 0.0]], atol=1e-15)

    def test_idempotent_at_fixed_point(self, blob_benchmark):
        X, _ = blob_benchmark
        result = run(X, 3, SolverConfig(K=0.9, theta_tol=1e-12, max_iters=200))
        U1, state1, _ = spcm_step(X, result.state)
        assert np.abs(U1.values - result.membership.values).max() < 1e-9
        assert np.abs(state1.representatives - result.state.representatives).max() < 1e-9

    def test_cost_chain_matches_recomputation(self, blob_benchmark):
        X, _ = blob_benchmark
        result = run(X, 3, SolverConfig(K=0.9, max_iters=1, theta_tol=1e-12))
        state0 = ModelState(
            result.init_report.theta0, result.init_report.gammas, result.init_report.lam, 0.5
        )
        U, state1, record = spcm_step(X, state0)
        assert record.cost_after_u == total_cost(X, U, state0)
        assert record.cost == total_cost(X, U, state1)
        assert record.cost < record.cost_after_u

    def test_cost_before_computed_from_previous_membership(self):
        X, state = symmetric_pair_state()
        U0 = MembershipMatrix(np.array([[0.5], [0.5]]))
        _, _, record = spcm_step(X, state, cost_before=total_cost(X, U0, state))
        assert record.cost_before == total_cost(X, U0, state)

    def test_active_set_emptied_raises(self):
        # radius shrunk to ~0 by pushing K against its upper bound
        X = DataSet([[-0.3, 0.0], [0.3, 0.0]])
        gamma = 1.0
        K = (1 - 1e-9) * 0.5 * math.e
        lam = compute_lambda(np.array([gamma]), K, 0.5)
        state = ModelState([[0.0, 0.0]], [gamma], lam, 0.5)
        assert radius_squared(gamma, lam, 0.5) < 0.09
        with pytest.raises(ActiveSetEmptyError) as err:
            spcm_step(X, state)
        assert err.value.cluster == 0


class TestRun:
    def test_blobs_recovered(self):
        X, labels = make_noise_benchmark(seed=2)
        result = run(X, 3, SolverConfig(K=0.9, theta_tol=1e-7))
        assert result.termination == "converged"
        means = np.array([X.points[labels == b].mean(axis=0) for b in range(3)])
        for rep in result.dedup.representatives:
            assert np.linalg.norm(means - rep, axis=1).min() < 0.1 * 0.1

    def test_noise_beyond_all_radii_has_zero_rows(self):
        X, labels = make_noise_benchmark(seed=2)
        result = run(X, 3, SolverConfig(K=0.9, theta_tol=1e-7))
        d2 = ((X.points[:, None, :] - result.state.representatives[None]) ** 2).sum(-1)
        r_sq = np.array(
            [radius_squared(float(g), result.state.lam, 0.5) for g in result.state.gammas]
        )
        beyond = (d2 > r_sq[None, :]).all(axis=1)
        noise_beyond = beyond & (labels == -1)
        assert noise_beyond.sum() > 0
        assert (result.membership.values[noise_beyond] == 0).all(axis=1).all()

    def test_duplicate_representatives_merged(self):
        X, _ = make_noise_benchmark(seed=10)
        result = run(X, 4, SolverConfig(K=0.9, theta_tol=1e-7))
        assert result.termination == "converged"
        assert len(result.dedup.kept) == 3
        merged = [j for j, r in result.dedup.mapping.items() if r != j]
        assert len(merged) == 1

    def test_trace_bookkeeping(self):
        X, _ = make_noise_benchmark(seed=4)
        result = run(X, 3, SolverConfig(K=0.9, theta_tol=1e-7))
        assert result.n_iterations == len(result.trace)
        assert result.trace[0].cost_before is None
        for prev, rec in zip(result.trace, result.trace[1:]):
            assert rec.cost_before == prev.cost
            assert rec.t == prev.t + 1
        last = result.trace[-1]
        assert last.max_delta_theta < 1e-7

    def test_strict_descent_and_certificates(self):
        X, _ = make_noise_benchmark(seed=4)
        result = run(X, 3, SolverConfig(K=0.9, theta_tol=1e-7))
        for rec in result.trace:
            slack = 1e-12 * abs(rec.cost)
            if rec.cost_before is not None:
                assert rec.cost_after_u < rec.cost_before + slack
                assert rec.cost < rec.cost_before + slack
            assert rec.cost < rec.cost_after_u + slack
            assert rec.u_step_decreased in (None, True)
            assert rec.theta_step_decreased
            assert rec.u_bounds_ok
            assert rec.theta_in_bbox
            assert (rec.active_counts >= 1).all()

    def test_iteration_cap_termination(self):
        X, _ = make_noise_benchmark(seed=4)
        result = run(X, 3, SolverConfig(K=0.9, max_iters=2, theta_tol=1e-12))
        assert result.termination == "iteration-cap"
        assert result.n_iterations == 2

    def test_coincident_points_rejected_as_degenerate(self):
        # a zero-dispersion cluster cannot seed the sparsity weight
        X = DataSet([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DegenerateDataError):
            run(X, 1, SolverConfig(K=0.9))

    def test_radius_bound_rejected_by_the_config(self):
        # rejected before any FCM work, not later inside build_context
        with pytest.raises(InvalidParameterError, match="radius-positivity") as err:
            SolverConfig(K=1.5)
        assert "K = 1.5" in str(err.value)

    def test_high_p_run_passes_the_monitor(self):
        # p = 0.9 puts the accepted roots near the branch point of W0; the
        # fixed point must satisfy every monitor check, stationarity included
        X, _ = generate_blobs(BlobSpec(default_centers(3), 300), seed=10)
        result = run(X, 3, SolverConfig(p=0.9))
        assert result.termination == "converged"
        report = check_fixed_point(X, result.state, result.membership)
        assert report.grad_ok, report.grad_norm
        assert report.hessian_ok and report.valley_ok and report.geometric_ok

    def test_active_set_violation_carries_trace(self):
        X, _ = make_noise_benchmark(seed=0)
        with pytest.raises(ActiveSetEmptyError) as err:
            run(X, 3, SolverConfig(K=(1 - 1e-9) * 0.5 * math.e, theta_tol=1e-7))
        assert err.value.iteration == 0
        assert err.value.trace == ()


class TestRunPcm2:
    def test_all_points_active_every_iteration(self):
        X, _ = make_noise_benchmark(seed=3)
        result = run_pcm2(X, 3, SolverConfig(theta_tol=1e-7))
        assert (result.init_report.K, result.state.lam) == (0.0, 0.0)
        assert (result.membership.values > 0).all()
        for rec in result.trace:
            assert (rec.active_counts == X.n_points).all()

    def test_memberships_are_closed_form(self):
        X, _ = make_noise_benchmark(seed=3)
        result = run_pcm2(X, 3, SolverConfig(theta_tol=1e-7))
        # U of the final record was solved at the previous representatives
        thetas = [result.init_report.theta0] + [rec.theta for rec in result.trace]
        d2 = squared_distances(X.points, thetas[result.n_iterations - 1])
        want = np.exp(-d2 / result.state.gammas[None, :])
        np.testing.assert_array_equal(result.membership.values, want)

    def test_strictly_decreasing_cost(self):
        X, _ = make_noise_benchmark(seed=3)
        result = run_pcm2(X, 3, SolverConfig(theta_tol=1e-7))
        costs = [rec.cost for rec in result.trace]
        assert all(b < a for a, b in zip(costs, costs[1:]))

    def test_symmetric_pair_fixed_point(self):
        X = DataSet([[-0.4, 0.0], [0.4, 0.0]])
        state = ModelState([[0.0, 0.0]], [1.0], 0.0, 0.5)
        U, state_next, _ = spcm_step(X, state)
        np.testing.assert_allclose(state_next.representatives, [[0.0, 0.0]], atol=1e-16)
        want = math.exp(-0.16)
        np.testing.assert_allclose(U.values, [[want], [want]], rtol=1e-15)


class TestDeduplicate:
    def test_identical_columns_merge(self):
        state = ModelState([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]], [1.0, 1.0, 1.0], 0.1, 0.5)
        U = np.array([[0.9, 0.4, 0.0], [0.2, 0.7, 0.3]])
        result = deduplicate(state, U, threshold=1e-6)
        assert result.mapping == {0: 0, 1: 0, 2: 2}
        assert result.kept == (0, 2)
        # merged column is the pointwise maximum
        np.testing.assert_array_equal(result.membership[:, 0], [0.9, 0.7])
        np.testing.assert_array_equal(result.membership[:, 1], U[:, 2])
        np.testing.assert_array_equal(result.representatives, [[0.0, 0.0], [5.0, 5.0]])

    def test_distant_representatives_untouched(self, rng):
        reps = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
        state = ModelState(reps, np.ones(3), 0.1, 0.5)
        U = rng.uniform(0.2, 1.0, size=(5, 3))
        result = deduplicate(state, U, threshold=0.5)
        assert result.mapping == {0: 0, 1: 1, 2: 2}
        np.testing.assert_array_equal(result.membership, U)

