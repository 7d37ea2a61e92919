import math

import numpy as np
import pytest
from mpmath import mp

from spcm.core import DataSet
from spcm.initialization import (
    DegenerateDataError,
    FcmConfig,
    activation_bound,
    compute_gammas,
    compute_lambda,
    compute_mu,
    default_K,
    initialize,
    radius_bound,
    run_fcm,
    validate_K,
    _fcm_memberships,
)
from spcm.membership import build_context, radius_squared, solve_membership_batch

from oracles import full_fcm_memberships

mp.dps = 50


class TestRunFcm:
    def test_one_point_per_cluster(self):
        X = DataSet([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        theta, u = run_fcm(X, 3, FcmConfig(seed=1))
        # representatives land exactly on the (distinct) data points
        matched = {tuple(row) for row in theta}
        assert matched == {(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)}
        assert set(np.unique(u)) == {0.0, 1.0}
        np.testing.assert_allclose(u.sum(axis=1), 1.0)

    def test_two_separated_blobs(self, rng):
        a = rng.normal(0, 0.1, (20, 2))
        b = rng.normal(0, 0.1, (20, 2)) + [10.0, 0.0]
        X = DataSet(np.vstack([a, b]))
        theta, u = run_fcm(X, 2, FcmConfig(seed=5))
        means = np.array([a.mean(axis=0), b.mean(axis=0)])
        for mean in means:
            assert np.linalg.norm(theta - mean, axis=1).min() < 0.1
        np.testing.assert_allclose(u.sum(axis=1), 1.0, atol=1e-12)
        assert (u >= 0).all()

    def test_single_cluster_is_exact_centroid(self):
        X = DataSet([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        theta, u = run_fcm(X, 1, FcmConfig(seed=0))
        np.testing.assert_array_equal(theta[0], X.points.mean(axis=0))
        np.testing.assert_array_equal(u, np.ones((3, 1)))

    def test_deterministic_per_seed(self, rng):
        pts = rng.normal(size=(40, 2))
        X = DataSet(pts)
        t1, u1 = run_fcm(X, 3, FcmConfig(seed=9))
        t2, u2 = run_fcm(X, 3, FcmConfig(seed=9))
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(u1, u2)

    def test_nonconvergence_warns(self, rng):
        X = DataSet(rng.normal(size=(50, 2)))
        with pytest.warns(RuntimeWarning, match="did not converge"):
            run_fcm(X, 4, FcmConfig(seed=0, max_iters=1))

    def test_cluster_count_bounds(self):
        X = DataSet([[0.0], [1.0]])
        with pytest.raises(ValueError):
            run_fcm(X, 3)
        with pytest.raises(ValueError):
            run_fcm(X, 0)


class TestFcmMemberships:
    """The column-wise membership step against the full-matrix oracle."""

    @pytest.mark.parametrize("fuzzifier", [1.5, 2.0, 3.0])
    def test_matches_full_matrix_form(self, rng, fuzzifier):
        points = rng.normal(size=(500, 2))
        centers = rng.normal(size=(4, 2))
        u = _fcm_memberships(points, centers, fuzzifier)
        np.testing.assert_array_equal(u, full_fcm_memberships(points, centers, fuzzifier))

    @pytest.mark.parametrize("fuzzifier", [1.5, 2.0, 3.0])
    def test_points_on_a_center_match_full_matrix_form(self, rng, fuzzifier):
        points = rng.normal(size=(200, 2))
        centers = points[[3, 17, 17, 120]]  # two coincident centres split their point evenly
        u = _fcm_memberships(points, centers, fuzzifier)
        np.testing.assert_array_equal(u, full_fcm_memberships(points, centers, fuzzifier))
        np.testing.assert_array_equal(u[[3, 17, 120]], [[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 1]])


class TestComputeGammas:
    def test_two_points_opposite_sides(self):
        X = DataSet([[2.0], [-2.0]])
        theta = np.array([[0.0]])
        u = np.ones((2, 1))
        np.testing.assert_allclose(compute_gammas(X, theta, u), [4.0])

    def test_one_hot_memberships(self, rng):
        pts = rng.normal(size=(6, 2))
        theta = rng.normal(size=(2, 2))
        u = np.zeros((6, 2))
        u[:3, 0] = 1.0
        u[3:, 1] = 1.0
        got = compute_gammas(X := DataSet(pts), theta, u)
        want0 = np.mean([((pts[i] - theta[0]) ** 2).sum() for i in range(3)])
        want1 = np.mean([((pts[i] - theta[1]) ** 2).sum() for i in range(3, 6)])
        np.testing.assert_allclose(got, [want0, want1], rtol=1e-14)

    def test_random_instance_matches_weighted_mean(self, rng):
        pts = rng.normal(size=(10, 2))
        theta = rng.normal(size=(3, 2))
        u = rng.uniform(0.01, 1.0, size=(10, 3))
        got = compute_gammas(DataSet(pts), theta, u)
        for j in range(3):
            num = sum(u[i, j] * ((pts[i] - theta[j]) ** 2).sum() for i in range(10))
            assert got[j] == pytest.approx(num / u[:, j].sum(), rel=1e-12)

    def test_zero_column_rejected(self):
        X = DataSet([[0.0], [1.0]])
        with pytest.raises(DegenerateDataError, match="column"):
            compute_gammas(X, np.array([[0.5]]), np.zeros((2, 1)))

    def test_coincident_points_rejected(self):
        X = DataSet([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DegenerateDataError, match="dispersion"):
            compute_gammas(X, np.array([[1.0, 1.0]]), np.ones((2, 1)))


class TestComputeLambda:
    def test_reference_value(self):
        got = compute_lambda(np.array([1.0]), 0.9, 0.5)
        want = float(mp.mpf("0.9") / (mp.mpf("0.25") * mp.exp(mp.mpf("1.5"))))
        assert got == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(0.8032685765343474, rel=1e-15)

    def test_linear_in_K(self):
        base = compute_lambda(np.array([1.3]), 0.4, 0.6)
        assert compute_lambda(np.array([1.3]), 0.8, 0.6) == 2.0 * base

    def test_linear_in_gamma_bar(self):
        base = compute_lambda(np.array([1.0, 3.0]), 0.9, 0.5)
        assert compute_lambda(np.array([2.0, 3.0]), 0.9, 0.5) == 2.0 * base

    def test_vanishing_K_reaches_zero(self):
        assert compute_lambda(np.array([1.0]), 1e-300, 0.5) < 1e-290

    def test_uses_smallest_gamma(self):
        a = compute_lambda(np.array([0.5, 10.0]), 0.9, 0.5)
        b = compute_lambda(np.array([0.5]), 0.9, 0.5)
        assert a == b


class TestValidateK:
    def test_standard_choice_passes_everything(self):
        report = validate_K(0.9, np.array([1.0, 1.2]), 0.5, np.array([0.01, 0.005]))
        assert report.radius_bound_ok and report.activation_bound_ok and report.per_cluster_bounds_ok
        assert report.warnings == ()
        assert report.activation_bound == pytest.approx(1.3523621706397261, rel=1e-13)
        assert report.radius_bound == pytest.approx(0.5 * math.e, rel=1e-15)

    def test_radius_bound_violation_reported(self):
        report = validate_K(1.5, np.array([1.0]), 0.5, np.array([0.01]))
        assert not report.radius_bound_ok
        assert any("radius-positivity" in w for w in report.warnings)

    def test_flat_activation_bound_at_mu_two(self):
        # exponent (2 - mu_max) vanishes, so the bound is exactly p
        report = validate_K(0.49, np.array([1.0]), 0.5, np.array([2.0]))
        assert report.activation_bound == pytest.approx(0.5, rel=1e-15)
        assert report.activation_bound_ok

    def test_activation_below_radius_bound(self, rng):
        for _ in range(300):
            p = rng.uniform(0.05, 0.95)
            mu_max = rng.uniform(0.0, 3.0)
            assert activation_bound(p, mu_max) <= radius_bound(p) + 1e-15

    def test_uniqueness_range(self):
        # ratio 1 < 2*e**0.125, so the interval applies at p = 0.5
        report = validate_K(1.25, np.array([1.0, 1.0]), 0.5, np.array([0.01, 0.01]))
        lo, hi = report.uniqueness_range
        assert lo == pytest.approx(1.1994376469835490, rel=1e-13)
        assert hi == pytest.approx(0.5 * math.e, rel=1e-14)
        assert report.K_in_uniqueness_range is True
        # the default K = 0.9 sits below the interval: advisory only
        report2 = validate_K(0.9, np.array([1.0, 1.0]), 0.5, np.array([0.01, 0.01]))
        assert report2.K_in_uniqueness_range is False

    def test_uniqueness_range_absent_for_large_ratio(self):
        report = validate_K(0.9, np.array([1.0, 50.0]), 0.5, np.array([0.01, 0.01]))
        assert report.uniqueness_range is None
        assert report.K_in_uniqueness_range is None

    def test_uniqueness_range_never_empty(self):
        # ratio 2.0 at p = 0.5 pushes the lower endpoint past the radius
        # bound, so no interval is reported rather than an empty one
        report = validate_K(0.9, np.array([1.0, 2.0]), 0.5, np.array([0.01, 0.01]))
        assert report.uniqueness_range is None
        # just inside e**((1-p)**2/2) ~ 1.1331: interval exists and is ordered
        report2 = validate_K(0.9, np.array([1.0, 1.13]), 0.5, np.array([0.01, 0.01]))
        lo, hi = report2.uniqueness_range
        assert lo < hi

    def test_per_cluster_bound(self):
        # cluster with mu close to 2 and gamma == gamma_bar binds first
        report = validate_K(1.0, np.array([1.0, 1.0]), 0.5, np.array([1.9, 0.0]))
        assert not report.per_cluster_bounds_ok
        assert any("per-cluster" in w for w in report.warnings)


class TestDefaultK:
    def test_reference_p(self):
        assert default_K(0.5, 0.02) == 0.9

    def test_other_p_scales_activation_bound(self):
        assert default_K(0.3, 0.1) == pytest.approx(0.66 * activation_bound(0.3, 0.1), rel=1e-15)
        assert default_K(0.3, 0.1) < radius_bound(0.3)


class TestInitialize:
    def test_full_report_on_blobs(self, blob_benchmark):
        X, _ = blob_benchmark
        report = initialize(X, 3, p=0.5, K=0.9, fcm=FcmConfig(seed=0))
        assert report.theta0.shape == (3, 2)
        assert (report.gammas > 0).all()
        assert report.lam == compute_lambda(report.gammas, 0.9, 0.5)
        assert report.warnings == ()
        np.testing.assert_allclose(
            report.mu, compute_mu(X, report.theta0, report.gammas), rtol=1e-15
        )

    def test_K_zero_is_the_nonsparse_start(self, blob_benchmark):
        X, _ = blob_benchmark
        sparse = initialize(X, 3, K=0.9)
        report = initialize(X, 3, K=0.0)
        assert (report.K, report.lam) == (0.0, 0.0)
        assert report.radius_bound == report.activation_bound == math.inf
        assert report.uniqueness_range is None and report.warnings == ()
        np.testing.assert_array_equal(report.theta0, sparse.theta0)
        np.testing.assert_array_equal(report.gammas, sparse.gammas)
        np.testing.assert_array_equal(report.mu, sparse.mu)

    def test_positive_radius_under_bound(self, rng):
        # wherever K stays below the radius bound, every cluster radius is positive
        for _ in range(2000):
            p = rng.uniform(0.05, 0.95)
            ratios = np.concatenate([[1.0], rng.uniform(1.0, 5.0, size=2)])
            gammas = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0)))) * ratios
            K = rng.uniform(0.05, 0.999) * radius_bound(p)
            lam = compute_lambda(gammas, K, p)
            for g in gammas:
                assert radius_squared(float(g), lam, p) > 0

    def test_activation_bound_keeps_closest_point_active(self, rng):
        # K <= B(p): one membership pass leaves every cluster's closest point active
        for _ in range(500):
            p = rng.uniform(0.05, 0.95)
            ratios = np.concatenate([[1.0], rng.uniform(1.0, 5.0, size=2)])
            gammas = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0)))) * ratios
            mu = rng.uniform(0.0, 2.0, size=3)
            K = rng.uniform(0.05, 1.0) * activation_bound(p, float(mu.max()))
            lam = compute_lambda(gammas, K, p)
            for j in range(3):
                ctx = build_context(float(gammas[j]), lam, p)
                assert solve_membership_batch(np.array([mu[j] * gammas[j]]), ctx)[0] > 0
