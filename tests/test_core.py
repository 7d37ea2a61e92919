import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp

from spcm.core import _BLOCK, DataSet, MembershipMatrix, ModelState, squared_distances, total_cost
from spcm.driver import SolverConfig, run, run_pcm2, spcm_step

from oracles import einsum_squared_distances, full_term_matrix, naive_total_cost, nonsparse_cost

mp.dps = 50


def high_precision_term(d, u, gamma, lam, p):
    """50-digit scalar evaluation of u*d + gamma*(u*ln(u) - u) + lam*u**p."""
    d, u, gamma, lam, p = map(mp.mpf, (repr(d), repr(u), repr(gamma), repr(lam), repr(p)))
    if u == 0:
        return 0.0
    return float(u * d + gamma * (u * mp.log(u) - u) + lam * u**p)


def point_term_cost(d, u, gamma, lam, p):
    """h(u; d) as the total cost of one point at squared distance d from the
    one representative."""
    state = ModelState([[math.sqrt(d)]], [gamma], lam, p)
    return total_cost(DataSet([[0.0]]), MembershipMatrix([[u]]), state)


class TestPointTermCost:
    def test_zero_membership_is_exactly_zero(self):
        assert point_term_cost(3.7, 0.0, 1.0, 0.8, 0.5) == 0.0
        assert point_term_cost(0.0, 0.0, 2.0, 0.0, 0.3) == 0.0

    def test_unit_membership_no_sparsity(self):
        # 0 + 1*(0 - 1) + 0
        assert point_term_cost(0.0, 1.0, 1.0, 0.0, 0.5) == -1.0

    def test_matches_high_precision_reference(self):
        got = point_term_cost(1.0, 0.5, 1.0, 0.8, 0.5)
        want = high_precision_term(1.0, 0.5, 1.0, 0.8, 0.5)
        assert got == pytest.approx(want, rel=1e-15)
        # frozen from the 50-digit evaluation of 0.5*1 + (0.5*ln(0.5) - 0.5) + 0.8*sqrt(0.5)
        assert got == pytest.approx(0.21911183466926536, rel=1e-15)

    def test_membership_domain_errors(self):
        with pytest.raises(ValueError):
            point_term_cost(1.0, -0.1, 1.0, 0.8, 0.5)
        with pytest.raises(ValueError):
            point_term_cost(1.0, 1.1, 1.0, 0.8, 0.5)

    def test_continuous_at_zero_from_above(self):
        vals = [abs(point_term_cost(2.0, u, 1.0, 0.8, 0.5)) for u in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-5


class TestTotalCost:
    def _random_instance(self, rng, n, m, l=2):
        points = rng.normal(size=(n, l))
        reps = rng.normal(size=(m, l))
        gammas = rng.uniform(0.5, 2.0, size=m)
        U = rng.uniform(0.0, 1.0, size=(n, m))
        U[rng.uniform(size=(n, m)) < 0.3] = 0.0  # exercise the zero branch
        return DataSet(points), MembershipMatrix(U), ModelState(reps, gammas, 0.8, 0.5)

    def test_all_zero_memberships(self, rng):
        X, U, state = self._random_instance(rng, 6, 3)
        zero = MembershipMatrix(np.zeros_like(U.values))
        assert total_cost(X, zero, state) == 0.0

    def test_single_point_single_cluster(self):
        X = DataSet([[1.0, 2.0]])
        state = ModelState([[1.0, 2.0]], [1.0], 0.0, 0.5)
        assert total_cost(X, MembershipMatrix([[1.0]]), state) == -1.0

    def test_matches_naive_double_loop(self, rng):
        X, U, state = self._random_instance(rng, 5, 2)
        want = naive_total_cost(X.points, U.values, state.representatives, state.gammas, state.lam, state.p)
        assert total_cost(X, U, state) == pytest.approx(want, rel=1e-13)

    def test_decomposition_into_cluster_costs(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 21))
            m = int(rng.integers(1, 5))
            X, U, state = self._random_instance(rng, n, m)
            total = total_cost(X, U, state)
            naive = naive_total_cost(X.points, U.values, state.representatives, state.gammas, state.lam, state.p)
            assert total == pytest.approx(naive, rel=1e-12, abs=1e-12 * n * m)

    def test_zero_sparsity_reduces_to_nonsparse_objective(self, rng):
        X, U, _ = self._random_instance(rng, 12, 3)
        gammas = rng.uniform(0.5, 2.0, size=3)
        reps = rng.normal(size=(3, 2))
        state = ModelState(reps, gammas, 0.0, 0.5)
        want = nonsparse_cost(X.points, U.values, reps, gammas)
        assert total_cost(X, U, state) == pytest.approx(want, rel=1e-12)

    def test_dimension_mismatch(self, rng):
        X, U, state = self._random_instance(rng, 5, 2)
        with pytest.raises(ValueError):
            total_cost(X, MembershipMatrix(U.values[:, :1]), state)
        with pytest.raises(ValueError):
            total_cost(DataSet(X.points[:3]), U, state)


class TestDomainTypes:
    def test_dataset_bounding_box_recomputation(self, rng):
        pts = rng.normal(size=(30, 3))
        X = DataSet(pts)
        np.testing.assert_array_equal(X.bbox_min, pts.min(axis=0))
        np.testing.assert_array_equal(X.bbox_max, pts.max(axis=0))
        assert X.n_points == 30 and X.n_dims == 3

    def test_dataset_rejects_bad_input(self):
        with pytest.raises(ValueError):
            DataSet(np.empty((0, 2)))
        with pytest.raises(ValueError):
            DataSet([[1.0, float("nan")]])
        with pytest.raises(ValueError):
            DataSet([1.0, 2.0])

    def test_dataset_is_immutable(self):
        X = DataSet([[1.0, 2.0]])
        with pytest.raises(ValueError):
            X.points[0, 0] = 5.0

    def test_model_state_caches_gamma_bar(self):
        state = ModelState([[0.0], [1.0]], [2.0, 0.7], 0.1, 0.5)
        assert state.gamma_bar == 0.7

    def test_model_state_validation(self):
        with pytest.raises(ValueError):
            ModelState([[0.0]], [0.0], 0.1, 0.5)  # gamma must be positive
        with pytest.raises(ValueError):
            ModelState([[0.0]], [1.0], -0.1, 0.5)
        with pytest.raises(ValueError):
            ModelState([[0.0]], [1.0], 0.1, 1.0)
        with pytest.raises(ValueError):
            ModelState([[0.0]], [1.0, 2.0], 0.1, 0.5)

    def test_membership_matrix_validation(self):
        with pytest.raises(ValueError):
            MembershipMatrix([[1.2]])
        with pytest.raises(ValueError):
            MembershipMatrix([[-0.1]])

    def test_squared_distances(self, rng):
        pts = rng.normal(size=(7, 3))
        reps = rng.normal(size=(2, 3))
        d = squared_distances(pts, reps)
        for i in range(7):
            for j in range(2):
                assert d[i, j] == pytest.approx(((pts[i] - reps[j]) ** 2).sum(), rel=1e-14)


class TestStreamingKernels:
    """The streaming kernels against the original full-array ones in oracles."""

    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize(("n", "m"), [(1, 1), (1, 3), (7, 1), (7, 4), (2 * _BLOCK + 5, 3), (_BLOCK, 4)])
    def test_distances_bit_identical_to_einsum_at_low_dimension(self, rng, n, m, l):
        pts = rng.normal(scale=10.0, size=(n, l))
        reps = rng.normal(size=(m, l))
        d = squared_distances(pts, reps)
        assert d.shape == (n, m) and d.dtype == np.float64 and d.flags.c_contiguous
        np.testing.assert_array_equal(d, einsum_squared_distances(pts, reps))

    @pytest.mark.parametrize(("n", "m"), [(1, 1), (2 * _BLOCK + 5, 4)])
    def test_distances_match_einsum_at_sixteen_dimensions(self, rng, n, m):
        pts = rng.normal(scale=10.0, size=(n, 16))
        reps = rng.normal(size=(m, 16))
        d = squared_distances(pts, reps)
        assert d.flags.c_contiguous
        np.testing.assert_allclose(d, einsum_squared_distances(pts, reps), rtol=1e-14, atol=0)

    def test_distances_do_not_depend_on_input_layout(self, rng):
        pts = rng.normal(size=(40, 6))[::2, ::2]
        reps = np.asfortranarray(rng.normal(size=(3, 3)))
        d = squared_distances(pts, reps)
        assert d.flags.c_contiguous
        np.testing.assert_array_equal(d, squared_distances(np.ascontiguousarray(pts), np.ascontiguousarray(reps)))

    @pytest.mark.parametrize(
        ("points_shape", "reps_shape"),
        [
            pytest.param((5, 2), (3, 3), id="fewer-point-coordinates"),
            pytest.param((5, 3), (3, 2), id="fewer-representative-coordinates"),
            pytest.param((5,), (3, 1), id="1d-points"),
            pytest.param((5, 1), (3,), id="1d-representatives"),
            pytest.param((5, 0), (3, 0), id="no-coordinates"),
        ],
    )
    def test_distances_reject_mismatched_shapes(self, points_shape, reps_shape):
        with pytest.raises(ValueError) as err:
            squared_distances(np.zeros(points_shape), np.zeros(reps_shape))
        assert str(points_shape) in str(err.value) and str(reps_shape) in str(err.value)

    def test_distances_allocate_no_difference_array(self, rng):
        n, m, l = 20_000, 4, 16
        pts = rng.normal(size=(n, l))
        reps = rng.normal(size=(m, l))
        tracemalloc.start()
        try:
            squared_distances(pts, reps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * m * l * 8 / 4

    @pytest.mark.parametrize("solver", [run, run_pcm2])
    @pytest.mark.parametrize(("m", "p"), [(3, 0.5), (4, 0.5), (3, 0.2), (3, 0.9)])
    def test_cost_bit_identical_to_full_matrix_on_a_run_trace(self, blob_benchmark, solver, m, p):
        X, _ = blob_benchmark
        result = solver(X, m, SolverConfig(p=p))
        assert result.n_iterations > 5
        report = result.init_report
        state = ModelState(report.theta0, report.gammas, report.lam, p)
        for record in result.trace:
            U, state_next, replayed = spcm_step(X, state)
            assert replayed.cost == record.cost and replayed.cost_after_u == record.cost_after_u
            for s, cost in ((state, record.cost_after_u), (state_next, record.cost)):
                assert cost == total_cost(X, U, s) == float(full_term_matrix(X, U, s).sum(axis=1).sum())
            state = state_next

    def test_inactive_entries_take_no_log(self):
        X = DataSet([[0.0], [1.0], [3.0]])
        state = ModelState([[0.5], [2.0]], [1.0, 2.0], 0.3, 0.5)
        U = MembershipMatrix([[1.0, 0.0], [0.0, 0.0], [0.25, 1e-300]])
        with np.errstate(all="raise"):
            cost = total_cost(X, U, state)
        assert cost == float(full_term_matrix(X, U, state).sum(axis=1).sum())
