import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp
from scipy.special import lambertw

from spcm.initialization import compute_lambda, radius_bound
from spcm.membership import (
    InvalidParameterError,
    _lambert_w0,
    _largest_root,
    _workspace,
    build_context,
    radius_squared,
    solve_membership_batch,
)

from oracles import (
    bisect_largest_root,
    f_value,
    grid_largest_root,
    reference_lambert_w0,
    reference_largest_root,
    reference_solve_membership_batch,
    threshold_membership,
)

mp.dps = 50

# Context from the worked example gamma=1, lam=0.80325, p=0.5.
GAMMA, LAM, P = 1.0, 0.80325, 0.5


@pytest.fixture(scope="module")
def ctx():
    return build_context(GAMMA, LAM, P)


def random_context(rng, p_lo=0.1, p_hi=0.9, k_lo=0.2, k_hi=0.99):
    p = rng.uniform(p_lo, p_hi)
    gamma = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
    K = rng.uniform(k_lo, k_hi) * radius_bound(p)
    lam = compute_lambda(np.array([gamma]), K, p)
    return build_context(gamma, lam, p)


def solve_one(d, ctx):
    return float(solve_membership_batch(np.array([d]), ctx)[0])


class TestFValue:
    def test_at_one(self, ctx):
        # ln(1) = 0 and 1**(p-1) = 1 leave d + lam*p
        c = build_context(1.0, 0.8, 0.5)
        assert f_value(1.0, 0.0, c) == pytest.approx(0.4, rel=1e-15)

    def test_matches_high_precision_reference(self, ctx):
        want = float(mp.log(mp.mpf("0.25")) + mp.mpf("0.80325") * mp.mpf("0.5") * mp.mpf("0.25") ** mp.mpf("-0.5"))
        assert f_value(0.25, 0.0, ctx) == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(-0.5830443611198906, rel=1e-15)

    def test_minimum_at_u_hat(self, ctx):
        f_hat = f_value(ctx.u_hat, 0.7, ctx)
        assert f_value(ctx.u_hat * 0.9, 0.7, ctx) >= f_hat
        assert f_value(ctx.u_hat * 1.1, 0.7, ctx) >= f_hat

    def test_diverges_near_zero(self, ctx):
        # lam*p*u**(p-1) dominates: ~0.4e6 at u = 1e-12 for these parameters
        assert f_value(1e-12, 0.0, ctx) > 1e5
        assert f_value(1e-14, 0.0, ctx) > f_value(1e-12, 0.0, ctx)

    def test_rejects_nonpositive_membership(self, ctx):
        with pytest.raises(ValueError):
            f_value(0.0, 1.0, ctx)
        with pytest.raises(ValueError):
            f_value(-0.5, 1.0, ctx)


class TestBuildContext:
    def test_worked_example(self, ctx):
        # u_min = (0.80325*0.5)**2, u_hat = (0.80325*0.25)**2,
        # R^2 = 2*(-ln(0.401625) - 0.5); frozen from 50-digit evaluation
        assert ctx.u_min == pytest.approx(0.161302640625, rel=1e-14)
        assert ctx.u_hat == pytest.approx(0.04032566015625, rel=1e-14)
        assert ctx.radius_sq == pytest.approx(0.8244729230922290, rel=1e-13)
        assert ctx.u_max == pytest.approx(0.5938138413728542, rel=1e-12)

    def test_root_at_u_max(self, ctx):
        assert abs(f_value(ctx.u_max, 0.0, ctx)) < 1e-10

    def test_stationary_at_u_hat(self, ctx):
        # analytic derivative of f, scaled by u/gamma
        fprime = ctx.gamma / ctx.u_hat - ctx.lam * ctx.p * (1 - ctx.p) * ctx.u_hat ** (ctx.p - 2)
        assert abs(fprime) * ctx.u_hat / ctx.gamma < 1e-8

    def test_zero_sparsity_limit(self):
        c = build_context(2.0, 0.0, 0.5)
        assert (c.u_min, c.u_max, c.radius_sq) == (0.0, 1.0, math.inf)

    def test_band_ordering(self, rng):
        for _ in range(200):
            c = random_context(rng)
            assert 0 < c.u_hat < c.u_min < c.u_max <= 1.0
            assert c.radius_sq > 0

    def test_nonpositive_radius_rejected(self):
        # lam*(1-p)/gamma above e**(-p) flips the radius sign
        with pytest.raises(InvalidParameterError, match="radius-positivity"):
            build_context(1.0, 2.0, 0.5)

    def test_radius_squared_helper(self, ctx):
        assert radius_squared(GAMMA, LAM, P) == ctx.radius_sq
        assert radius_squared(1.0, 0.0, 0.5) == math.inf


class TestSolveMembership:
    def test_zero_distance_zero_sparsity(self):
        c = build_context(1.5, 0.0, 0.5)
        assert solve_one(0.0, c) == 1.0

    def test_beyond_radius_is_zero(self, ctx):
        assert solve_one(ctx.radius_sq * 1.01, ctx) == 0.0
        assert solve_one(100.0, ctx) == 0.0

    def test_matches_grid_oracle(self, ctx):
        root, changes = grid_largest_root(0.4, GAMMA, LAM, P, n=10**6)
        assert changes <= 2
        got = solve_one(0.4, ctx)
        assert got == pytest.approx(root, abs=1e-8)
        # frozen from the high-precision root of 0.4 + ln(u) + 0.401625*u**-0.5
        assert got == pytest.approx(0.33485763699367714, abs=1e-8)

    def test_at_most_two_sign_changes(self, rng):
        for _ in range(5):
            c = random_context(rng, p_lo=0.3, p_hi=0.7)
            d = rng.uniform(0, -f_value(c.u_hat, 0.0, c))
            _, changes = grid_largest_root(d, c.gamma, c.lam, c.p, n=10**6)
            assert changes <= 2

    def test_monotone_nonincreasing_in_distance(self, ctx):
        grid = np.linspace(0.0, ctx.radius_sq, 64)
        vals = [solve_one(d, ctx) for d in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_bound_compliance(self, rng):
        for _ in range(50):
            c = random_context(rng)
            for d in rng.uniform(0, 1.5 * c.radius_sq, size=8):
                u = solve_one(float(d), c)
                if u > 0:
                    assert c.u_min - 1e-9 <= u <= c.u_max + 1e-9

    def test_root_residual_small(self, rng):
        for _ in range(100):
            c = random_context(rng, p_lo=0.3, p_hi=0.7, k_lo=0.4, k_hi=0.95)
            d = float(rng.uniform(0, c.radius_sq))
            u = solve_one(d, c)
            if u > 0:
                assert abs(f_value(u, d, c)) < 1e-7 * (1.0 + d)

    def test_negative_distance_rejected(self, ctx):
        with pytest.raises(ValueError):
            solve_one(-0.1, ctx)

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_nan_distance_rejected(self, lam):
        # a NaN used to come back as membership 0 (lam > 0) or NaN (lam = 0)
        c = build_context(1.0, lam, 0.5)
        with pytest.raises(ValueError, match="nonnegative and not NaN"):
            solve_membership_batch(np.array([0.0, np.nan]), c)
        with pytest.raises(ValueError, match="nonnegative and not NaN"):
            solve_membership_batch(np.array([-1e-300, 1.0]), c)

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_negative_zero_and_empty_accepted(self, lam):
        c = build_context(1.0, lam, 0.5)
        assert solve_one(-0.0, c) == solve_one(0.0, c) > 0
        assert solve_membership_batch(np.empty(0), c).shape == (0,)


class TestRadiusForm:
    def test_boundary_returns_threshold_membership(self, ctx):
        # at d == R^2 the root is exactly u_min; the boundary keeps the nonzero branch
        u = solve_one(ctx.radius_sq, ctx)
        assert u == pytest.approx(ctx.u_min, abs=1e-8)
        assert u > 0

    def test_zero_sparsity_closed_form(self):
        c = build_context(0.7, 0.0, 0.5)
        for d in (0.0, 0.3, 2.1):
            assert solve_one(d, c) == pytest.approx(math.exp(-d / 0.7), rel=1e-15)

    def test_decision_agreement_with_threshold_form(self, rng):
        agree_values = []
        for _ in range(2000):
            c = random_context(rng)
            d = float(rng.uniform(0, 1.5 * c.radius_sq))
            a = threshold_membership(d, c)
            b = solve_one(d, c)
            assert (a > 0) == (b > 0)
            if a > 0:
                agree_values.append(abs(a - b))
        assert max(agree_values) < 1e-8


class TestClosedFormRoot:
    @pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
    def test_accepted_roots_match_bisection_and_lambertw(self, p, rng):
        for _ in range(20):
            c = random_context(rng, p_lo=p, p_hi=p)
            d = rng.uniform(0.0, 1.2 * c.radius_sq, size=50)
            u = solve_membership_batch(d, c)
            kept = u > 0
            np.testing.assert_array_equal(kept, d <= c.radius_sq)
            d, u = d[kept], u[kept]
            np.testing.assert_allclose(u, bisect_largest_root(d, c.gamma, c.lam, p), rtol=1e-12, atol=0)
            # scipy's W0, through the log form u2 = exp((ln(-W0) - ln a)/(p-1))
            a = (1.0 - p) * c.lam * p / c.gamma
            w = lambertw(-a * np.exp((1.0 - p) * d / c.gamma)).real
            np.testing.assert_allclose(u, np.exp((np.log(-w) - math.log(a)) / (p - 1.0)), rtol=1e-12, atol=0)

    def test_boundary_distances_raise_no_float_error(self, rng):
        # d = 0, then d = R^2 and d = -f(u_hat; 0) (where z = -1/e) with their float neighbours
        for p in np.linspace(0.05, 0.95, 19):
            for _ in range(20):
                with np.errstate(all="raise"):
                    c = random_context(rng, p_lo=p, p_hi=p)
                edges = np.array([c.radius_sq, -f_value(c.u_hat, 0.0, c)])
                d = np.concatenate([[0.0], edges, np.nextafter(edges, np.inf), np.nextafter(edges, 0.0)])
                with np.errstate(all="raise"):
                    u = solve_membership_batch(d, c)
                nz = u[u > 0]
                assert (nz >= c.u_min).all() and (nz <= c.u_max * (1.0 + 1e-12)).all()
                assert u[0] == c.u_max and u[1] >= c.u_min
                # the closed ball decides at R^2 and at both of its float neighbours
                at_radius = [1, 3, 5]
                np.testing.assert_array_equal(u[at_radius] > 0, d[at_radius] <= c.radius_sq)


class TestPcm2Membership:
    def test_sparse_solver_approaches_closed_form(self):
        # vanishing sparsity: the root tracks exp(-d/gamma)
        gamma = 1.0
        c = build_context(gamma, 1e-12, 0.5)
        for d in np.linspace(0.0, 10.0 * gamma, 50):
            u = solve_one(float(d), c)
            assert abs(u - math.exp(-d / gamma)) < 1e-4


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()  # signed zeros too


class TestInPlaceKernel:
    """The in-place kernel reproduces the allocating one bit for bit."""

    PS = [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95]

    def test_lambert_w0_at_the_branch_point_and_the_series_switch(self):
        branch = -math.exp(-1.0)
        z = np.concatenate([
            [branch, np.nextafter(branch, -np.inf), np.nextafter(branch, 0.0), -1.0 / math.e],
            np.nextafter(-0.25, [-np.inf, 0.0]), [-0.25, 0.0, -0.0],
            np.linspace(branch, 0.0, 1001),
        ])
        work, flag = np.empty((5, z.size)), np.empty(z.size, dtype=bool)
        with np.errstate(all="raise"):
            want = reference_lambert_w0(z)
            got = _lambert_w0(z, work, flag)
        assert_same_bits(got, want)
        assert got[0] == -1.0 and got[1] == -1.0

    @pytest.mark.parametrize("p", PS)
    def test_largest_root(self, p, rng):
        for _ in range(10):
            c = random_context(rng, p_lo=p, p_hi=p)
            d = np.concatenate([[0.0, c.radius_sq], rng.uniform(0.0, c.radius_sq, size=300)])
            with np.errstate(all="raise"):
                want = reference_largest_root(d, c.gamma, c.lam, c.p)
                got = _largest_root(d, c.gamma, c.lam, c.p, np.empty((6, d.size)), np.empty(d.size, dtype=bool))
            assert_same_bits(got, want)

    @pytest.mark.parametrize("p", PS)
    def test_solve_on_strided_columns(self, p, rng):
        work = _workspace(400)
        for _ in range(10):
            c = random_context(rng, p_lo=p, p_hi=p)
            d2 = rng.uniform(0.0, 1.5 * c.radius_sq, size=(400, 3))
            d2[:3, 1] = [0.0, c.radius_sq, np.nextafter(c.radius_sq, np.inf)]
            d = d2[:, 1]
            with np.errstate(all="raise"):
                want = reference_solve_membership_batch(d, c)
                assert_same_bits(solve_membership_batch(d, c, _work=work), want)
                assert_same_bits(solve_membership_batch(d, c), want)

    def test_solve_without_sparsity_and_on_empty_input(self, rng):
        work = _workspace(50)
        for c in (build_context(0.7, 0.0, 0.5), build_context(0.7, 0.2, 0.5)):
            for d in (rng.uniform(0.0, 5.0, size=(50, 2))[:, 0], np.empty(0)):
                with np.errstate(all="raise"):
                    want = reference_solve_membership_batch(d, c)
                    assert_same_bits(solve_membership_batch(d, c, _work=work), want)
                    assert_same_bits(solve_membership_batch(d, c), want)

    def test_reused_workspace_leaks_no_stale_rows(self, rng):
        # the active count falls, then rises, and the input length changes too
        c = random_context(rng, p_lo=0.5, p_hi=0.5)
        work = _workspace(1000)
        for n, share_inside in [(1000, 0.9), (1000, 0.2), (600, 0.0), (1000, 1.0), (300, 0.5), (1000, 0.7)]:
            d = rng.uniform(0.0, c.radius_sq, size=n)
            outside = rng.random(n) >= share_inside
            d[outside] = rng.uniform(1.01, 3.0, size=outside.sum()) * c.radius_sq
            with np.errstate(all="raise"):
                assert_same_bits(solve_membership_batch(d, c, _work=work), reference_solve_membership_batch(d, c))

    def test_solve_allocates_no_input_sized_array(self, rng):
        n = 20_000
        c = build_context(1.0, 0.3, 0.5)
        d = rng.uniform(0.0, c.radius_sq, size=(n, 3))[:, 0]  # every point inside the ball
        work = _workspace(n)
        solve_membership_batch(d, c, _work=work)
        tracemalloc.start()
        try:
            solve_membership_batch(d, c, _work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * 8
