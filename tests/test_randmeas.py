import numpy as np
import pytest
from math import gamma as gamma_fn

from hkgeo import cylinders as cyl
from hkgeo import measures, randmeas
from hkgeo.measures import DiscreteMeasure
from hkgeo.randmeas import (
    CheckReport,
    IntensityParams,
    MeasureBatch,
    SampleBatch,
    df_batch,
    estimate_intensity,
    gamma_batch,
    invariance_checks,
    lambda_window_mass,
    mecke_check_df,
    mecke_check_mlp,
    mlp_window_batch,
)


@pytest.fixture
def params():
    return IntensityParams(2.0, dim=2)


class TestStickBreaking:
    def test_weights_sum_to_one_exactly(self, params):
        q = randmeas._stick_matrix(1.5, 50, 1e-8, np.random.default_rng(0))
        for row in q:
            assert row.sum() == pytest.approx(1.0, abs=1e-15)
            # positive sticks, then zero padding, then the positive residual
            live = np.count_nonzero(row[:-1])
            assert np.all(row[:live] > 0) and not row[live:-1].any() and row[-1] > 0

    def test_residual_below_tolerance(self, params):
        q = randmeas._stick_matrix(2.0, 100, 1e-6, np.random.default_rng(1))
        assert np.all(q[:, -1] < 1e-6)

    def test_df_sample_is_probability(self, params):
        rng = np.random.default_rng(2)
        eta = df_batch(params, 1.0, 1, rng)[0]
        assert eta.mass == pytest.approx(1.0, abs=1e-12)

    def test_atoms_in_support_of_nu(self, params):
        rng = np.random.default_rng(3)
        eta = df_batch(params, 1.0, 1, rng)[0]
        assert np.all(np.linalg.norm(eta.points, axis=1) <= 1.0)

    def test_sum_sq_mean_matches_beta_mean(self, params):
        # E[sum q_i^2] = 1/(1 + beta), the Beta(1, beta) mean
        rng = np.random.default_rng(4)
        beta, n = 1.0, 4000
        eta = df_batch(params, beta, n, rng)
        vals = eta.row_sums(eta.atom_weights**2)
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0 / (1.0 + beta)) <= 3 * se

    def test_reproducible(self, params):
        a = df_batch(params, 2.0, 1, np.random.default_rng(7))[0]
        b = df_batch(params, 2.0, 1, np.random.default_rng(7))[0]
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.weights, b.weights)


class TestLambdaWindow:
    def test_theta_one_uniform(self):
        vals = randmeas._window_masses(1.0, (2.0, 3.0), np.random.default_rng(5), 20000)
        assert np.all((vals >= 2) & (vals <= 3))
        # KS statistic against the uniform CDF
        s = np.sort(vals)
        grid = (s - 2.0) / 1.0
        ks = np.max(np.abs(grid - np.arange(1, len(s) + 1) / len(s)))
        assert ks < 1.63 / np.sqrt(len(s))  # 1% critical value

    def test_cdf_matches_power_law(self):
        theta, a, b = 2.5, 1.0, 4.0
        n = 100_000
        vals = randmeas._window_masses(theta, (a, b), np.random.default_rng(6), n)
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
            randmeas._window_masses(1.0, (3.0, 2.0), rng, 1)


class TestUniformBallSampler:
    def test_density_of_huge_points_does_not_overflow(self):
        # |x|^2 overflows beyond |x| ~ 1e154; warnings are errors here
        _, density = randmeas.uniform_ball_sampler(2)
        assert np.array_equal(density([[1e200, 0.0], [0.5, 0.5], [1.0, 0.0]]), [0.0, 1.0 / np.pi, 1.0 / np.pi])


class TestMlpSampler:
    def test_mass_in_window_and_shape_probability(self, params):
        batch = mlp_window_batch(params, (1.0, 4.0), 50, np.random.default_rng(7))
        assert isinstance(batch, MeasureBatch) and len(batch) == 50
        assert np.all((batch.masses >= 1.0) & (batch.masses <= 4.0))

    def test_mass_shape_independence(self, params):
        # sample correlation of mass with the first shape moment is ~ 0
        n = 4000
        batch = mlp_window_batch(params, (1.0, 4.0), n, np.random.default_rng(8))
        masses = batch.masses
        moment = batch.row_sums(batch.atom_weights * batch.atom_points[:, 0]) / masses
        corr = np.corrcoef(masses, moment)[0, 1]
        assert abs(corr) <= 3.0 / np.sqrt(n)


class TestGammaMeasure:
    def test_moments(self, params):
        n = 20000
        masses = gamma_batch(params, n, np.random.default_rng(9)).measures.masses
        se_mean = masses.std(ddof=1) / np.sqrt(n)
        assert abs(masses.mean() - params.theta) <= 3 * se_mean
        var = masses.var(ddof=1)
        se_var = np.sqrt(np.var((masses - masses.mean()) ** 2, ddof=1) / n)
        assert abs(var - params.theta) <= 3 * se_var

    def test_damped_laplace(self, params):
        # E[e^{-mass}] = 2^{-theta} for Gamma(theta, 1)
        n = 20000
        vals = np.exp(-gamma_batch(params, n, np.random.default_rng(10)).measures.masses)
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
        s_cap = randmeas.MECKE_S_CAP
        rep = mecke_check_mlp(lambda s, x: s, params, n=30000, rng=np.random.default_rng(16))
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
        zero = MeasureBatch(np.empty((10, 0, 2)), np.empty((10, 0)))
        batch = SampleBatch(zero, np.ones(10))
        est = estimate_intensity(batch)
        assert est["degenerate"] and est["theta_hat"] == 0.0

    def test_sample_batch_needs_a_measure_batch(self, params):
        measures = gamma_batch(params, 3, seed=0).measures
        with pytest.raises(ValueError, match="MeasureBatch"):
            SampleBatch(list(measures), np.ones(3))
        with pytest.raises(ValueError, match="equal length"):
            SampleBatch(measures, np.ones(2))
        for bad in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="finite and >= 0"):
                SampleBatch(measures, [1.0, bad, 1.0])

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
        mu = batch.measures
        pushed = MeasureBatch(fwd(mu.points.reshape(-1, 2)).reshape(mu.points.shape), mu.weights)
        pushed_batch = SampleBatch(pushed, batch.weights)
        est = estimate_intensity(pushed_batch)
        # f# nu has first moment A @ E[x] + b = b for the centered ball
        assert np.all(np.abs(est["nu_first_moment"] - bvec) <= 3 * est["nu_first_moment_se"] + 2e-3)


class TestAtomDistinctness:
    def test_df_atoms_never_collide(self, params):
        # diffuse nu: the sampler's atoms stay distinct, so no stick weights
        # are merged away at construction
        q = randmeas._stick_matrix(2.0, 1, randmeas.TRUNC_TOL, np.random.default_rng(5))[0]
        eta = df_batch(params, 2.0, 1, np.random.default_rng(5))[0]
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
            cyl.CylinderFunction(cyl.poly_outer([0.2, 1, -0.7]), [cyl.gauss_kernel([0.1, -0.2], 0.8)]),
            cyl.CylinderFunction(
                cyl.OuterFunction(
                    lambda a: float(np.tanh(np.sum(a))),
                    [lambda a: float(1.0 - np.tanh(np.sum(a)) ** 2)] * 3,
                    3,
                ),
                [cyl.mass_kernel_extended(), cyl.coordinate_kernel(1), cyl.bump_kernel([0, 0], 1.5)],
            ),
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
        )
        u = cyl.CylinderFunction(cyl.sum_outer(1), [guarded])
        hor, ver = cyl.gradient(u, padded)
        assert np.all(ver == 1.0) and not hor.any()

    def test_stick_matrix_rows_sum_to_one(self):
        # (beta, rows, trunc_tol, seed); each row's sticks are positive up to
        # where it stopped, then zero padding, then the positive residual
        for beta, n, tol, seed in ((1.5, 5000, 1e-8, 34), (1.5, 50, 1e-8, 0), (2.0, 100, 1e-6, 1)):
            q = randmeas._stick_matrix(beta, n, tol, np.random.default_rng(seed))
            assert np.max(np.abs(q.sum(axis=1) - 1.0)) <= 1e-15
            assert np.all(q[:, -1] < tol)
            live = q[:, :-1] > 0
            assert np.all(live[:, 0]) and np.all(q[:, -1] > 0)
            assert np.all(live[:, 1:] <= live[:, :-1]) and np.all(q[:, :-1][~live] == 0.0)

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

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0])
    def test_poisson_tail_sizes_the_guard_as_pdtrc_does(self, beta):
        # scipy's pdtrc(k - 1, mean) = P(N >= k) is the oracle: the same
        # column count for every n, and the same tail at every k it visits
        from scipy.special import pdtrc

        mean = -beta * np.log(1e-10)
        for n in [10**e for e in range(10)]:
            k = randmeas._truncation_level(beta, 1e-10)
            while True:
                exact = pdtrc(k - 1, mean)
                if exact > 1e-300:
                    assert abs(randmeas._poisson_tail(k, mean) - exact) <= 1e-12 * exact, (n, k)
                if n * exact <= 1e-9:
                    break
                k += 1
            for dim in (1, 2):
                assert randmeas._batch_floats(dim, beta, n, 1e-10) == n * (k + 1) * (2 * dim + 6), (n, dim)


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
