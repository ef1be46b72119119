import tracemalloc

import numpy as np
import pytest
import mpmath
from math import gamma as gamma_fn

from hkgeo import bessel
from hkgeo.bessel import (
    bessel_ode_residual,
    dirichlet_form_mc,
    empirical_hitting,
    generator_symmetry,
    hitting_prob,
    hyp0f1,
    hyp0f1_regularized,
    quadrature_E,
    radial_form_mc,
    simulate_besq_batch,
    smooth_bump_radial,
)
from hkgeo.randmeas import IntensityParams


def besq_exact_terminal(theta, x0, t, rng, n):
    """Exact draws of x_t via the time-changed standard squared Bessel of
    dimension 2 theta: x_t = y_{t/2}, y_s ~ s * chi'^2(2 theta, x0/s), sampled
    as a Poisson(x0/(2s)) mixture of Gamma(theta + N, 2) variables."""
    s = t / 2.0
    lam = x0 / s
    pois = rng.poisson(lam / 2.0, size=n)
    return s * rng.gamma(theta + pois, 2.0)


class TestEuler:
    def test_moments(self):
        # E[x_T] = x0 + theta T,  Var[x_T] = 2 x0 T + theta T^2
        theta, x0, T, dt, n = 1.5, 1.0, 1.0, 1e-3, 10_000
        rng = np.random.default_rng(0)
        paths, t, clipped = simulate_besq_batch(theta, x0, T, dt, rng, n)
        assert paths.shape == (n, len(t)) and t[0] == 0.0 and np.all(np.diff(t) > 0)
        xT = paths[:, -1]
        se_mean = xT.std(ddof=1) / np.sqrt(n)
        assert abs(xT.mean() - (x0 + theta * T)) <= 3 * se_mean
        var = xT.var(ddof=1)
        se_var = np.sqrt(np.var((xT - xT.mean()) ** 2, ddof=1) / n)
        assert abs(var - (2 * x0 * T + theta * T**2)) <= 3 * se_var

    def test_absorbing_at_zero_drift_zero(self):
        rng = np.random.default_rng(1)
        paths, _, _ = simulate_besq_batch(0.0, 0.0, 1.0, 1e-2, rng, 1)
        assert np.all(paths == 0.0)

    def test_paths_nonnegative_and_clipping_vanishes(self):
        rng = np.random.default_rng(2)
        paths, _, clipped_coarse = simulate_besq_batch(1.0, 1.0, 1.0, 1e-2, rng, 2000)
        assert np.all(paths >= 0)
        _, _, clipped_fine = simulate_besq_batch(1.0, 1.0, 1.0, 1e-4, np.random.default_rng(2), 2000)
        assert clipped_fine <= clipped_coarse

    def test_deterministic_for_fixed_seed(self):
        a, _, _ = simulate_besq_batch(1.0, 0.5, 1.0, 1e-2, np.random.default_rng(3), 1)
        b, _, _ = simulate_besq_batch(1.0, 0.5, 1.0, 1e-2, np.random.default_rng(3), 1)
        assert np.array_equal(a, b)

    def test_exact_sampler_agrees_with_euler(self):
        theta, x0, T = 2.0, 0.7, 1.0
        n = 20_000
        e_paths, _, _ = simulate_besq_batch(theta, x0, T, 1e-3, np.random.default_rng(4), n)
        exact = besq_exact_terminal(theta, x0, T, np.random.default_rng(5), n)
        m1, s1 = e_paths[:, -1].mean(), e_paths[:, -1].std(ddof=1) / np.sqrt(n)
        m2, s2 = exact.mean(), exact.std(ddof=1) / np.sqrt(n)
        assert abs(m1 - m2) <= 3 * np.hypot(s1, s2)
        assert exact.mean() == pytest.approx(x0 + theta * T, abs=3 * s2)

    def test_no_paths_rejected(self):
        with pytest.raises(ValueError, match="n_paths"):
            simulate_besq_batch(1.0, 1.0, 1.0, 1e-2, np.random.default_rng(0), 0)

    def test_memory_peak_near_normals_plus_paths(self):
        # the Euler loop transposes the normals one block at a time: no
        # whole-matrix copy of the normals and no C-order copy of the paths
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            paths, _, _ = simulate_besq_batch(1.5, 1.0, 1.0, 1e-3, rng, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        normals_bytes = paths.shape[0] * (paths.shape[1] - 1) * 8
        assert peak <= 1.2 * (normals_bytes + paths.nbytes)


class TestHitting:
    def test_log_scale_midpoint(self):
        a, b = 0.5, 2.0
        x = np.sqrt(a * b)
        assert hitting_prob(1.0, a, x, b) == pytest.approx(0.5)

    def test_recurrence_theta_leq_one(self):
        # b -> inf: probability of hitting a tends to 1
        assert hitting_prob(0.7, 0.5, 1.0, 1e9) == pytest.approx(1.0, abs=1e-3)

    def test_transience_theta_above_one(self):
        theta, a, x = 3.0, 0.5, 1.0
        limit = x ** (1 - theta) / a ** (1 - theta)
        assert hitting_prob(theta, a, x, 1e9) == pytest.approx(limit, rel=1e-4)

    def test_ordering_validation(self):
        with pytest.raises(ValueError):
            hitting_prob(1.0, 1.0, 0.5, 2.0)

    @pytest.mark.parametrize("theta", [1 - 1e-12, 1 + 1e-12, 1 - 1e-8, 1 + 1e-8, 0.7, 1.5])
    @pytest.mark.parametrize("a, x, b", [(0.5, 1.0, 2.0), (0.3, 1.1, 4.0)])
    def test_matches_mpmath_near_theta_one(self, theta, a, x, b):
        # (b^k - x^k) / (b^k - a^k), k = 1 - theta, at 50 digits: the
        # difference of powers cancels in floating point as theta -> 1
        with mpmath.workdps(50):
            k = 1 - mpmath.mpf(theta)
            a, x, b = (mpmath.mpf(v) for v in (a, x, b))
            exact = float((b**k - x**k) / (b**k - a**k))
        assert hitting_prob(theta, float(a), float(x), float(b)) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("a, x, b", [(0.5, 3.0, 2.0), (0.5, 0.2, 2.0), (0.5, 2.0, 2.0), (0.0, 1.0, 2.0)])
    def test_empirical_ordering_validation(self, a, x, b):
        with pytest.raises(ValueError, match="0 < a < x < b"):
            empirical_hitting(1.0, a, x, b, 2.5e-4, 10, np.random.default_rng(0))

    def test_empirical_workload_counts(self):
        # the perfbench montecarlo call, counts pinned
        res = empirical_hitting(1.5, 0.5, 1.0, 2.0, 2.5e-4, 1000, np.random.default_rng(118))
        assert res == {"hit_a": 409, "hit_b": 591, "unresolved": 0, "n": 1000}

    @pytest.mark.parametrize("theta", [0.5, 1.0, 1.5, 3.0])
    def test_empirical_frequencies_match_scale_formula(self, theta):
        a, x, b = 0.5, 1.0, 2.0
        n = 10_000
        res = empirical_hitting(theta, a, x, b, 2.5e-4, n, np.random.default_rng(6))
        assert res["unresolved"] == 0
        p_hat = res["hit_a"] / n
        p = hitting_prob(theta, a, x, b)
        se = np.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) <= 3 * se + 0.01  # discretization slack at dt=2.5e-4


class TestQuadrature:
    def test_exponential_closed_form(self):
        # chi = e^{-t}: E^theta = Gamma(theta+1) / (Gamma(theta) 2^{theta+1})
        for theta in (0.7, 1.0, 2.5):
            val = quadrature_E(theta, lambda t: -np.exp(-t), cap=60.0)
            assert val == pytest.approx(theta / 2 ** (theta + 1), rel=1e-8)

    def test_constant_is_zero(self):
        assert quadrature_E(1.5, lambda t: 0.0, cap=10.0) == 0.0

    def test_smooth_truncated_identity(self):
        # chi'(t) = 1 on the bump support: value = int t^theta bump'...; here
        # take chi' = bump and compare against direct quadrature on two grids
        theta = 1.3
        bump = smooth_bump_radial(1.0, 2.0)
        v1 = quadrature_E(theta, bump.d1, cap=2.5)
        v2 = quadrature_E(theta, bump.d1, cap=7.0)  # different domain split
        assert v1 == pytest.approx(v2, rel=1e-8)

    def test_panel_rule_is_exact_to_its_degree(self):
        # the Kronrod value is exact through degree 31 and the Gauss value
        # through 19, so their distance vanishes there; both fail one degree up
        for d in range(32):
            exact = (2.0 ** (d + 1) - 0.5 ** (d + 1)) / (d + 1)
            value, err = bessel._gk21(lambda t: t**d, 0.5, 2.0)
            assert abs(value - exact) <= 4e-16 * exact, d
            assert (err <= 4e-16 * exact) == (d <= 19), d
        value, _ = bessel._gk21(lambda t: t**32, -1.0, 1.0)
        assert abs(value - 2.0 / 33) > 1e-12

    @pytest.mark.parametrize("theta", [0.5, 1.5, 2.0, 3.0])
    def test_matches_scipy_quad_on_the_library_integrals(self, theta, monkeypatch):
        # every integral that radial_form_mc and validate bessel take, against
        # scipy's QUADPACK at the tolerance and panel limit it was called with
        from scipy.integrate import quad

        integrals = []
        integrate = bessel._integrate

        def spy(f, lo, hi):
            integrals.append((f, lo, hi, integrate(f, lo, hi)))
            return integrals[-1][-1]

        monkeypatch.setattr(bessel, "_integrate", spy)
        quadrature_E(theta, smooth_bump_radial(1.0, 2.0).d1, cap=2.2)
        generator_symmetry(theta, smooth_bump_radial(0.8, 2.2), smooth_bump_radial(1.0, 2.6))
        assert len(integrals) == 3
        for f, lo, hi, value in integrals:
            oracle = quad(f, lo, hi, epsabs=0.0, epsrel=bessel.QUAD_RTOL, limit=400)[0]
            assert value == pytest.approx(oracle, rel=1e-12, abs=0)

    def test_raises_when_the_panels_run_out(self, monkeypatch):
        monkeypatch.setattr(bessel, "QUAD_MAX_PANELS", 1)
        with pytest.raises(RuntimeError, match="quadrature did not reach relative 1e-8"):
            quadrature_E(1.5, smooth_bump_radial(1.0, 2.0).d1, cap=2.2)


class TestGeneratorSymmetry:
    def test_bump_pair_residual(self):
        theta = 1.5
        f = smooth_bump_radial(0.8, 2.2)
        g = smooth_bump_radial(1.0, 2.6)
        resid, scale = generator_symmetry(theta, f, g)
        assert resid <= 1e-7 * scale

    def test_disjoint_supports_both_zero(self):
        f = smooth_bump_radial(0.5, 1.0)
        g = smooth_bump_radial(2.0, 3.0)
        resid, _ = generator_symmetry(1.0, f, g)
        assert resid <= 1e-12

    def test_linear_g_reduces_to_first_moment(self):
        # g linear on supp f: L g = theta g' constant; symmetry still holds
        theta = 2.0
        f = smooth_bump_radial(1.0, 2.0)
        from hkgeo.bessel import RadialTestFunction

        g = RadialTestFunction(lambda t: t, lambda t: 1.0, lambda t: 0.0, support=(0.5, 2.5))
        resid, scale = generator_symmetry(theta, f, g)
        assert resid <= 1e-7 * scale

    def test_either_integral_missing_its_tolerance_raises(self, monkeypatch):
        from hkgeo.bessel import RadialTestFunction

        f = smooth_bump_radial(0.8, 2.2)
        g = smooth_bump_radial(1.0, 2.6)
        # only the integral against the generator sees g'', and 400 panels
        # cannot resolve 10^5 oscillations of it
        wild = RadialTestFunction(g.f, g.d1, lambda t: np.sin(1e6 * t), support=g.support)
        with pytest.raises(RuntimeError, match="quadrature did not reach relative 1e-8"):
            generator_symmetry(1.5, f, wild)
        monkeypatch.setattr(bessel, "QUAD_MAX_PANELS", 1)
        with pytest.raises(RuntimeError, match="quadrature did not reach relative 1e-8"):
            generator_symmetry(1.5, f, g)


class TestHypergeometric:
    def test_value_at_zero(self):
        assert hyp0f1(1.7, 0.0) == 1.0

    def test_matches_mpmath(self):
        for a in (0.5, 1.0, 2.5):
            for z in (0.1, 1.0, 3.0):
                assert hyp0f1(a, z) == pytest.approx(float(mpmath.hyp0f1(a, z)), rel=1e-12)

    def test_regularized_matches_mpmath(self):
        for a in (0.5, 2.0, -1.0):  # includes a pole of Gamma
            for z in (0.3, 2.0):
                expected = float(
                    mpmath.nsum(
                        lambda k: mpmath.rgamma(a + k) * z**k / mpmath.factorial(k),
                        [0, mpmath.inf],
                    )
                )
                assert hyp0f1_regularized(a, z) == pytest.approx(expected, rel=1e-10)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            hyp0f1(0.0, 1.0)
        # 1/Gamma(a) overflows a float below a = -171.6
        with pytest.raises(ValueError, match="a >= -170"):
            hyp0f1_regularized(-180.5, 1.0)

    @pytest.mark.parametrize(
        "fn,a,z",
        [
            # summed without the accuracy check these give 4.26e-3 (true
            # 1.29e-3), -1.03e7 (true -6.8e-4) and 5.5e7 (true -5.1e-4); at
            # 1e4 z^k / k! overflows, and at 1e6 hyp0f1's terms sum to inf
            (hyp0f1, 2.5, -400.0),
            (hyp0f1, 2.5, -1000.0),
            (hyp0f1_regularized, 2.5, -1000.0),
            (hyp0f1_regularized, 0.5, 1e4),
            (hyp0f1, 2.5, 1e6),
            # the rounding bound is 2.1e-7 of the sum, so it raises, though
            # the sum is off by only 1.3e-9
            (hyp0f1, 2.5, -100.0),
            # these passed a bound of one ulp of the largest term, though
            # off by 2.1e-8 and 8.8e-9
            (hyp0f1_regularized, 0.5, -96.5),
            (hyp0f1, 1.5, -86.5),
        ],
    )
    def test_inaccurate_series_raises(self, fn, a, z):
        with pytest.raises(RuntimeError, match="0F1 series"):
            fn(a, z)

    @pytest.mark.parametrize("z,rel", [(-10.0, 5e-15), (-30.0, 1.4e-11), (-50.0, 2e-10)])
    def test_moderate_negative_z_matches_mpmath(self, z, rel):
        assert hyp0f1(2.5, z) == pytest.approx(float(mpmath.hyp0f1(2.5, z)), rel=rel, abs=0)

    @pytest.mark.parametrize("fn", [hyp0f1, hyp0f1_regularized])
    def test_accepted_sums_are_accurate(self, fn):
        # every sum either raises or lies within 1e-8 of mpmath, on a grid that
        # runs from no cancellation (z near 0) to only refusals (z near -120)
        accepted = 0
        for a in (0.5, 1.5, 2.5, 3.0):
            for z in np.arange(-120.0, 0.0, 0.25):
                with mpmath.workdps(40):
                    exact = float(mpmath.hyp0f1(a, z) * (mpmath.rgamma(a) if fn is hyp0f1_regularized else 1))
                try:
                    value = fn(a, float(z))
                except RuntimeError:
                    continue
                accepted += 1
                assert abs(value - exact) <= 1e-8 * abs(exact), (a, z, value, exact)
        assert accepted > 1100  # 1,173 of 1,920 for either function (283-308 of 480 per a)

    def test_reciprocal_gamma_matches_scipy(self):
        from scipy.special import rgamma

        xs = np.linspace(-30.5, 171.5, 20_001).tolist()
        worst = max(abs(bessel._rgamma(x) - rgamma(x)) / abs(rgamma(x)) for x in xs)
        assert worst <= 1.2e-15  # 1.16e-15, at x = 26.363
        assert [bessel._rgamma(x) for x in (0.0, -1.0, -30.0)] == [0.0, 0.0, 0.0]
        for x in (171.7, 172.5):  # past the overflow of Gamma, by exp(-lgamma)
            assert bessel._rgamma(x) == pytest.approx(float(mpmath.rgamma(x)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("theta", [0.5, 1.5, 3.0])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_eigenfunction_residuals(self, theta, t):
        assert bessel_ode_residual(theta, t, "first") <= 1e-8
        assert bessel_ode_residual(theta, t, "second") <= 1e-8


class TestRadialIsomorphism:
    def test_radial_form_matches_quadrature(self):
        theta = 1.5
        params = IntensityParams(theta, dim=2)
        chi = smooth_bump_radial(1.0, 2.0)
        res = radial_form_mc(theta, params, chi, (0.8, 2.2), n=20_000, rng_seed=7)
        assert res["max_horizontal"] == 0.0
        assert abs(res["mc"] - res["quad"]) <= 3 * res["se"], res

    def test_constant_chi_gives_zero(self):
        theta = 1.0
        params = IntensityParams(theta, dim=1)
        from hkgeo.bessel import RadialTestFunction

        chi = RadialTestFunction(lambda t: 1.0, lambda t: 0.0, lambda t: 0.0, support=(1.0, 2.0))
        res = radial_form_mc(theta, params, chi, (0.5, 2.5), n=200, rng_seed=8)
        assert res["mc"] == 0.0 and res["quad"] == 0.0

    def test_dirichlet_form_radial_agrees_with_quadrature(self):
        theta = 1.5
        params = IntensityParams(theta, dim=2)
        chi = smooth_bump_radial(1.0, 2.0)
        from hkgeo.cylinders import CylinderFunction, OuterFunction, one_kernel

        u = CylinderFunction(
            OuterFunction(lambda a: 1.0, [lambda a: 0.0], 1),
            [one_kernel()],
            cutoff=lambda m: chi.f(m),
            cutoff_prime=lambda m: chi.d1(m),
        )
        est, se = dirichlet_form_mc(u, theta, params, (0.8, 2.2), n=20_000, rng_seed=9)
        quad4 = 4.0 * quadrature_E(theta, chi.d1, cap=2.2)
        assert abs(est - quad4) <= 3 * se

    def test_radial_projection_contraction(self):
        # E(u^rad) <= E(u) for u = chi(mass) * (c0 + f * mu); the radialization
        # replaces the potential-energy factor by its DF mean c0 + c_f mass
        theta = 2.0
        params = IntensityParams(theta, dim=2)
        chi = smooth_bump_radial(1.0, 2.0)
        rng = np.random.default_rng(10)
        from hkgeo.cylinders import (
            CylinderFunction,
            OuterFunction,
            gauss_kernel,
            one_kernel,
        )
        from hkgeo.randmeas import uniform_ball_sampler

        draw, _ = uniform_ball_sampler(2)
        nu_probe = draw(np.random.default_rng(123), 200_000)

        failures = 0
        for trial in range(20):
            kern = gauss_kernel(rng.normal(0, 0.4, 2), rng.uniform(0.6, 1.2))
            c0 = rng.uniform(0.2, 1.0)
            c_f = float(np.mean(kern.fn(nu_probe)))  # int f dnu by Monte Carlo

            u = CylinderFunction(
                OuterFunction(lambda a, c0=c0: c0 + a[0], [lambda a: 1.0], 1),
                [kern],
                cutoff=lambda m: chi.f(m),
                cutoff_prime=lambda m: chi.d1(m),
            )
            u_rad = CylinderFunction(
                OuterFunction(lambda a: 1.0, [lambda a: 0.0], 1),
                [one_kernel()],
                cutoff=lambda m, c0=c0, c_f=c_f: chi.f(m) * (c0 + c_f * m),
                cutoff_prime=lambda m, c0=c0, c_f=c_f: chi.d1(m) * (c0 + c_f * m)
                + chi.f(m) * c_f,
            )
            e_u, se_u = dirichlet_form_mc(u, theta, params, (0.8, 2.2), n=4000, rng_seed=100 + trial)
            e_rad, se_rad = dirichlet_form_mc(
                u_rad, theta, params, (0.8, 2.2), n=4000, rng_seed=100 + trial
            )
            if e_rad > e_u + 3 * np.hypot(se_u, se_rad):
                failures += 1
        assert failures == 0
