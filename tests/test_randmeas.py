import numpy as np
import pytest
from math import gamma as gamma_fn

from hkgeo import cylinders as cyl
from hkgeo import measures, randmeas
from hkgeo.measures import DiscreteMeasure, pushforward
from hkgeo.randmeas import (
    CheckReport,
    IntensityParams,
    SampleBatch,
    df_batch,
    estimate_intensity,
    gamma_batch,
    invariance_checks,
    lambda_window_mass,
    mecke_check_df,
    mecke_check_mlp,
    mlp_window_batch,
    sample_df,
    sample_gamma_measure,
    sample_lambda_window,
    sample_mlp,
    stick_weights,
)


@pytest.fixture
def params():
    return IntensityParams(2.0, dim=2)


class TestStickBreaking:
    def test_weights_sum_to_one_exactly(self, params):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = stick_weights(1.5, 1e-8, rng)
            assert q.sum() == pytest.approx(1.0, abs=1e-15)
            assert np.all(q > 0)

    def test_residual_below_tolerance(self, params):
        rng = np.random.default_rng(1)
        for _ in range(100):
            q = stick_weights(2.0, 1e-6, rng)
            assert q[-1] < 1e-6

    def test_df_sample_is_probability(self, params):
        rng = np.random.default_rng(2)
        eta = sample_df(params, 1.0, rng=rng)
        assert eta.mass == pytest.approx(1.0, abs=1e-12)

    def test_atoms_in_support_of_nu(self, params):
        rng = np.random.default_rng(3)
        eta = sample_df(params, 1.0, rng=rng)
        assert np.all(np.linalg.norm(eta.points, axis=1) <= 1.0)

    def test_sum_sq_mean_matches_beta_mean(self, params):
        # E[sum q_i^2] = 1/(1 + beta), the Beta(1, beta) mean
        rng = np.random.default_rng(4)
        beta, n = 1.0, 4000
        vals = np.array(
            [np.sum(sample_df(params, beta, rng=rng).weights ** 2) for _ in range(n)]
        )
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0 / (1.0 + beta)) <= 3 * se

    def test_reproducible(self, params):
        a = sample_df(params, 2.0, rng=np.random.default_rng(7))
        b = sample_df(params, 2.0, rng=np.random.default_rng(7))
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)


class TestLambdaWindow:
    def test_theta_one_uniform(self):
        rng = np.random.default_rng(5)
        vals = np.array([sample_lambda_window(1.0, (2.0, 3.0), rng) for _ in range(20000)])
        assert np.all((vals >= 2) & (vals <= 3))
        # KS statistic against the uniform CDF
        s = np.sort(vals)
        grid = (s - 2.0) / 1.0
        ks = np.max(np.abs(grid - np.arange(1, len(s) + 1) / len(s)))
        assert ks < 1.63 / np.sqrt(len(s))  # 1% critical value

    def test_cdf_matches_power_law(self):
        rng = np.random.default_rng(6)
        theta, a, b = 2.5, 1.0, 4.0
        n = 100_000
        vals = np.array([sample_lambda_window(theta, (a, b), rng) for _ in range(n)])
        s = np.sort(vals)
        cdf = (s**theta - a**theta) / (b**theta - a**theta)
        ks = np.max(np.abs(cdf - np.arange(1, n + 1) / n))
        assert ks < 1.63 / np.sqrt(n)

    def test_window_mass_homogeneity(self):
        # lambda_theta(c [0, r]) = c^theta lambda_theta([0, r]) analytically
        theta, c, r = 1.7, 2.0, 1.3
        assert lambda_window_mass(theta, (0, c * r)) == pytest.approx(
            c**theta * lambda_window_mass(theta, (0, r)), rel=1e-12
        )

    def test_invalid_window(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_lambda_window(1.0, (3.0, 2.0), rng)


class TestMlpSampler:
    def test_mass_in_window_and_shape_probability(self, params):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mu, w = sample_mlp(params, (1.0, 4.0), rng=rng)
            assert 1.0 <= mu.mass <= 4.0
            assert w == 1.0

    def test_mass_shape_independence(self, params):
        # sample correlation of mass with the first shape moment is ~ 0
        rng = np.random.default_rng(8)
        n = 4000
        masses = np.empty(n)
        moment = np.empty(n)
        for i in range(n):
            mu, _ = sample_mlp(params, (1.0, 4.0), rng=rng)
            masses[i] = mu.mass
            moment[i] = np.sum(mu.weights / mu.mass * mu.points[:, 0])
        corr = np.corrcoef(masses, moment)[0, 1]
        assert abs(corr) <= 3.0 / np.sqrt(n)


class TestGammaMeasure:
    def test_moments(self, params):
        rng = np.random.default_rng(9)
        n = 20000
        masses = np.array([sample_gamma_measure(params, rng=rng).mass for _ in range(n)])
        se_mean = masses.std(ddof=1) / np.sqrt(n)
        assert abs(masses.mean() - params.theta) <= 3 * se_mean
        var = masses.var(ddof=1)
        se_var = np.sqrt(np.var((masses - masses.mean()) ** 2, ddof=1) / n)
        assert abs(var - params.theta) <= 3 * se_var

    def test_damped_laplace(self, params):
        # E[e^{-mass}] = 2^{-theta} for Gamma(theta, 1)
        rng = np.random.default_rng(10)
        n = 20000
        vals = np.array(
            [np.exp(-sample_gamma_measure(params, rng=rng).mass) for _ in range(n)]
        )
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 2.0 ** (-params.theta)) <= 3 * se


class TestMeckeDF:
    def test_f_equals_stick(self, params):
        beta = 1.0
        rep = mecke_check_df(
            lambda eta, x, t: t, beta, params, n=20000, rng=np.random.default_rng(11)
        )
        assert rep.verdict
        assert rep.rhs == pytest.approx(1.0 / (1.0 + beta), abs=3 * rep.se_rhs)

    def test_f_constant(self, params):
        rep = mecke_check_df(
            lambda eta, x, t: np.ones(len(np.atleast_1d(t))),
            2.0,
            params,
            n=2000,
            rng=np.random.default_rng(12),
        )
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)

    def test_f_stick_squared(self, params):
        # E[t^2] = 2/((1+beta)(2+beta)) for Beta(1, beta)
        beta = 2.0
        rep = mecke_check_df(
            lambda eta, x, t: t**2, beta, params, n=30000, rng=np.random.default_rng(13)
        )
        closed = 2.0 / ((1.0 + beta) * (2.0 + beta))
        assert rep.verdict
        assert abs(rep.rhs - closed) <= 3 * rep.se_rhs


class TestMeckeMLP:
    def test_damped_exponential_h(self, params):
        rep = mecke_check_mlp(
            lambda s, x: np.exp(-2.0 * s), params, n=30000, rng=np.random.default_rng(14)
        )
        assert rep.verdict, rep.as_dict()

    def test_h_zero(self, params):
        rep = mecke_check_mlp(
            lambda s, x: np.zeros(len(np.atleast_1d(s))),
            params,
            n=200,
            rng=np.random.default_rng(15),
        )
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_h_linear_closed_form(self, params):
        # h(s, x) = s 1_{s <= S}: the right side has the closed form
        # theta 2^{-theta} int_0^S s e^{-2s} ds; the identity pins the lhs too
        theta = params.theta
        s_cap = 20.0
        rep = mecke_check_mlp(
            lambda s, x: s, params, n=30000, s_cap=s_cap, rng=np.random.default_rng(16)
        )
        inner = 0.25 - (s_cap / 2 + 0.25) * np.exp(-2 * s_cap)
        closed = theta * 2.0 ** (-theta) * inner
        assert abs(rep.rhs - closed) <= 3 * rep.se_rhs + 1e-10
        assert rep.verdict

    def test_beta_one_convention_fails(self, params):
        # the literal Beta(1, 1) reading of the simplicial part breaks the
        # identity for theta != 1 by the factor (1 + theta)/2
        rep = mecke_check_mlp(
            lambda s, x: s,
            params,
            n=30000,
            beta_sticks=1.0,
            rng=np.random.default_rng(17),
        )
        assert not rep.verdict
        assert rep.lhs / rep.rhs == pytest.approx(
            (1.0 + params.theta) / 2.0, rel=0.05
        )


class TestInvariance:
    def test_all_reports_pass(self, params):
        reports = invariance_checks(params, n=20000, seed=18)
        for name, rep in reports.items():
            assert rep.verdict, (name, rep.as_dict())

    def test_homogeneity_exact(self, params):
        rep = invariance_checks(params, n=10, seed=0)["homogeneity"]
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)


class TestEstimateIntensity:
    def test_recovers_theta_from_gamma_batch(self, params):
        batch = gamma_batch(params, 20000, seed=19)
        est = estimate_intensity(batch)
        assert not est["degenerate"]
        assert abs(est["theta_hat"] - params.theta) <= 3 * est["theta_se"]

    def test_nu_first_moment_matches_sampler_mean(self, params):
        batch = gamma_batch(params, 20000, seed=20)
        est = estimate_intensity(batch)
        # uniform ball: mean 0 per coordinate
        assert np.all(np.abs(est["nu_first_moment"]) <= 3 * est["nu_first_moment_se"] + 1e-3)

    def test_degenerate_zero_batch(self, params):
        zero = DiscreteMeasure(np.empty((0, 2)), [], dim=2)
        batch_like = gamma_batch(params, 10, seed=0)
        from hkgeo.randmeas import SampleBatch

        batch = SampleBatch([zero] * 10, np.ones(10), {"law": "point-mass-zero"})
        est = estimate_intensity(batch)
        assert est["degenerate"] and est["theta_hat"] == 0.0

    def test_batches_reproducible(self, params):
        a = gamma_batch(params, 50, seed=21)
        b = gamma_batch(params, 50, seed=21)
        for ma, mb in zip(a.measures, b.measures):
            assert np.array_equal(ma.points, mb.points)
            assert np.array_equal(ma.weights, mb.weights)


class TestMappingTheorem:
    def test_affine_pushforward_first_moment(self, params):
        # L_{theta, nu} pushed by an affine map matches L_{theta, f# nu}:
        # compare intensity first moments on windowed batches
        A = np.array([[1.0, 0.5], [0.0, 2.0]])
        bvec = np.array([0.3, -0.2])
        fwd = lambda p: p @ A.T + bvec

        batch = gamma_batch(params, 20000, seed=22)
        pushed = [pushforward(m, fwd) for m in batch.measures]
        from hkgeo.randmeas import SampleBatch

        pushed_batch = SampleBatch(pushed, batch.weights, {"law": "pushed"})
        est = estimate_intensity(pushed_batch)
        # f# nu has first moment A @ E[x] + b = b for the centered ball
        assert np.all(np.abs(est["nu_first_moment"] - bvec) <= 3 * est["nu_first_moment_se"] + 2e-3)


class TestAtomDistinctness:
    def test_df_atoms_never_collide(self, params):
        # diffuse nu: the sampler's atoms stay distinct, so no stick weights
        # are merged away at construction
        rng = np.random.default_rng(5)
        q = stick_weights(2.0, 1e-10, rng)
        x = params.base_sampler(rng, len(q))
        eta = sample_df(params, 2.0, 1e-10, np.random.default_rng(5))
        assert len(eta) == len(q)
        assert np.all(eta.weights > 0)


def _gradient_reference(u, points, weights):
    """The per-measure gradient loop that the batched gradient replaced."""
    hor = np.zeros(points.shape)
    ver = np.zeros(len(weights))
    args = np.array([np.sum(k.values(weights, points) * weights) for k in u.kernels])
    fval = u.outer.value(args)
    chi = u.cutoff(weights.sum()) if u.cutoff is not None else 1.0
    for i, kern in enumerate(u.kernels):
        di = u.outer.partials[i](args)
        if di == 0.0:
            continue
        hor += chi * di * kern.gradients(weights, points)
        ver += chi * di * (
            kern.values(weights, points) + weights * kern.mass_derivative(weights, points)
        )
    if u.cutoff is not None:
        ver += u.cutoff_prime(weights.sum()) * fval
    return hor, ver


def _refuse_zero(values):
    values = np.asarray(values)
    if np.any(values == 0.0):
        raise AssertionError("a zero-weight padding atom reached a user callable")
    return values


class TestMeasureBatch:
    @pytest.fixture
    def padded(self, params):
        # rows whose residual fell below the tolerance early are zero-padded
        batch = gamma_batch(params, 50, seed=30).measures
        assert np.any(batch.weights == 0.0)
        return batch

    @pytest.mark.parametrize(
        "u",
        [
            cyl.parse_cylinder("poly:0.2,1,-0.7 | gauss(0.1,-0.2,0.8)"),
            cyl.parse_cylinder("tanh_sum | mass; coord(1); bump(0,0,1.5)"),
            cyl.CylinderFunction(
                cyl.OuterFunction(lambda a: 0.3 + a[0] * a[1], [lambda a: a[1], lambda a: a[0]], 2),
                [cyl.gauss_kernel([0.2, 0.0], 0.9), cyl.mass_kernel_extended()],
                cutoff=lambda m: float(cyl.truncation_profile(m / 2.0)),
                cutoff_prime=lambda m: float(cyl.truncation_profile_prime(m / 2.0)) / 2.0,
            ),
        ],
        ids=["plain", "mass-extended", "mass-cutoff"],
    )
    def test_gradient_matches_per_measure_loop(self, padded, u):
        hor, ver = cyl.gradient(u, padded)
        assert hor.shape == padded.atom_points.shape and ver.shape == padded.atom_weights.shape
        for i in range(len(padded)):
            atoms = padded.rows == i
            ref_hor, ref_ver = _gradient_reference(u, padded.atom_points[atoms], padded.atom_weights[atoms])
            np.testing.assert_allclose(hor[atoms], ref_hor, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ver[atoms], ref_ver, rtol=0, atol=1e-12)
        # a single measure is the one-row case, aligned with its own atoms
        mu = padded[3]
        ref_hor, ref_ver = _gradient_reference(u, mu.points, mu.weights)
        one_hor, one_ver = cyl.gradient(u, mu)
        np.testing.assert_allclose(one_hor, ref_hor, rtol=0, atol=1e-12)
        np.testing.assert_allclose(one_ver, ref_ver, rtol=0, atol=1e-12)

    def test_padding_never_reaches_user_code(self, params, padded):
        rep = mecke_check_df(
            lambda eta, x, t: _refuse_zero(t), 2.0, params, n=3000, rng=np.random.default_rng(31)
        )
        assert np.any(df_batch(params, 2.0, 3000, np.random.default_rng(31)).weights == 0.0)
        assert rep.n == 3000
        mecke_check_mlp(lambda s, x: _refuse_zero(s), params, n=3000, rng=np.random.default_rng(32))
        guarded = cyl.ScalarField(
            lambda s, p: _refuse_zero(s) * 0.0 + 1.0,
            lambda s, p: np.zeros((len(s), 2)),
            ds=lambda s, p: _refuse_zero(s) * 0.0,
            kind="extended",
        )
        u = cyl.CylinderFunction(cyl.sum_outer(1), [guarded])
        hor, ver = cyl.gradient(u, padded)
        assert np.all(ver == 1.0) and not hor.any()

    def test_list_and_sampler_arrays_agree(self, params):
        batch = gamma_batch(params, 500, seed=33)
        packed = SampleBatch(list(batch.measures), batch.weights, {"law": "packed"})
        a, b = estimate_intensity(batch), estimate_intensity(packed)
        for key in ("theta_hat", "theta_se"):
            assert b[key] == pytest.approx(a[key], rel=1e-12)
        for key in ("nu_first_moment", "nu_first_moment_se"):
            np.testing.assert_allclose(b[key], a[key], rtol=1e-12, atol=1e-15)

    def test_stick_matrix_rows_sum_to_one(self):
        q = randmeas._stick_matrix(1.5, 5000, 1e-8, np.random.default_rng(34))
        assert np.max(np.abs(q.sum(axis=1) - 1.0)) <= 1e-15
        assert np.all(q[:, -1] < 1e-8)

    def test_iteration_and_indexing_yield_measures(self, padded):
        measures = list(padded)
        assert len(measures) == len(padded) == 50
        assert all(isinstance(m, DiscreteMeasure) for m in measures)
        assert measures[7].allclose(padded[7])
        np.testing.assert_allclose([m.mass for m in measures], padded.masses, rtol=1e-14)


class TestMemoryGuard:
    def test_refuses_before_allocating(self, params, monkeypatch):
        monkeypatch.setattr(measures, "_available_bytes", lambda: 1_000_000)
        drawn = []
        monkeypatch.setattr(params, "base_sampler", lambda rng, n: drawn.append(n))
        with pytest.raises(ValueError, match="bytes"):
            gamma_batch(params, 10_000, seed=0)
        with pytest.raises(ValueError, match="bytes"):
            mecke_check_df(lambda eta, x, t: t, 1.0, params, n=10_000, rng=np.random.default_rng(0))
        assert drawn == []
        # a batch that fits is drawn as before
        monkeypatch.setattr(measures, "_available_bytes", lambda: 10**9)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="bytes"):
            randmeas.df_batch(params, 1.0, 10**12, rng)
        assert rng.bit_generator.state == before

    def test_estimate_bounds_what_a_batch_holds(self, params, monkeypatch):
        # the stick matrix grows past its initial level with n, and the base
        # draws and the flattened atoms come on top; the estimate counts both
        import tracemalloc

        n = 5000
        tracemalloc.start()
        try:
            gamma_batch(params, n, seed=113)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * randmeas._batch_floats(params.dim, params.theta, n, 1e-10)
        # n = 1e5 takes about 510 MB; an estimate from the initial level and
        # d + 1 floats per atom (154 MB) let it through with 200 MB free
        monkeypatch.setattr(measures, "_available_bytes", lambda: 200 * 2**20)
        with pytest.raises(ValueError, match="bytes"):
            gamma_batch(params, 10**5, seed=113)


class TestCheckReportTiming:
    def test_runtime_and_per_sample_positive(self, params):
        rep = mecke_check_df(lambda eta, x, t: t, 1.0, params, n=200, rng=np.random.default_rng(35))
        assert rep.runtime_s > 0 and rep.per_sample_us > 0
        assert rep.per_sample_us == pytest.approx(1e6 * rep.runtime_s / 200)
        d = rep.as_dict()
        assert d["runtime_s"] == rep.runtime_s and d["per_sample_us"] == rep.per_sample_us
        for name, r in invariance_checks(params, n=200, seed=36).items():
            # the analytic homogeneity check draws no samples (n = 0)
            assert (r.runtime_s > 0) == (r.per_sample_us > 0) == (r.n > 0), name
