import numpy as np
import pytest

from hkgeo.measures import DiscreteMeasure
from hkgeo.cylinders import (
    ScalarField,
    CylinderFunction,
    OuterFunction,
    analytic_slope,
    bump_kernel,
    compose,
    coordinate_kernel,
    evaluate,
    gauss_kernel,
    gradient,
    linear_cylinder,
    linear_lip_bound,
    mass_kernel_extended,
    multiply,
    one_kernel,
    perturbation_derivative,
    poly_outer,
    slope_probe,
    tangent_norm_14,
    tangent_pairing,
    truncation,
    truncation_profile,
)


def random_measure(rng, n, dim=2, scale=1.0):
    return DiscreteMeasure(rng.normal(0, scale, (n, dim)), rng.uniform(0.2, 1.5, n))


def random_cylinder(rng, dim=2):
    kernels = [
        gauss_kernel(rng.normal(0, 0.5, dim), rng.uniform(0.7, 1.5)),
        bump_kernel(rng.normal(0, 0.5, dim), rng.uniform(1.5, 2.5)),
    ]
    c = rng.uniform(-0.6, 0.6, 3)

    def val(a):
        return float(a[0] + c[0] * a[1] + c[1] * a[0] * a[1] + c[2] * a[0] ** 2)

    partials = [
        lambda a: float(1 + c[1] * a[1] + 2 * c[2] * a[0]),
        lambda a: float(c[0] + c[1] * a[0]),
    ]
    return CylinderFunction(OuterFunction(val, partials, 2), kernels)


class TestEvaluate:
    def test_potential_energy(self):
        rng = np.random.default_rng(0)
        mu = random_measure(rng, 5)
        f = gauss_kernel([0.0, 0.0], 1.0)
        u = linear_cylinder(f)
        expected = float(np.sum(f.values(mu.weights, mu.points) * mu.weights))
        assert evaluate(u, mu) == pytest.approx(expected)

    def test_mass_cutoff_plateau(self):
        u1 = truncation(2.0)
        mu = DiscreteMeasure([[0.0]], [1.0])  # mass 1 = k/2
        assert evaluate(u1, mu) == 1.0
        heavy = DiscreteMeasure([[0.0]], [6.0])  # mass 3k
        assert evaluate(u1, heavy) == 0.0

    def test_extended_self_energy(self):
        # f(s, x) = s gives sum of squared weights
        rng = np.random.default_rng(1)
        mu = random_measure(rng, 6)
        u = linear_cylinder(mass_kernel_extended())
        assert evaluate(u, mu) == pytest.approx(float(np.sum(mu.weights**2)))

    def test_empty_measure(self):
        u = linear_cylinder(gauss_kernel([0.0], 1.0))
        zero = DiscreteMeasure(np.empty((0, 1)), [], dim=1)
        assert evaluate(u, zero) == 0.0


class TestGradient:
    def test_linear_potential_formula(self):
        rng = np.random.default_rng(2)
        mu = random_measure(rng, 4)
        f = gauss_kernel([0.1, -0.2], 1.2)
        hor, ver = gradient(linear_cylinder(f), mu)
        assert np.allclose(hor, f.gradients(mu.weights, mu.points))
        assert np.allclose(ver, f.values(mu.weights, mu.points))

    def test_mass_cutoff_gradient(self):
        u = truncation(1.0)
        mu = DiscreteMeasure([[0.0], [1.0]], [0.7, 0.8])  # mass 1.5, in (k, 2k)
        hor, ver = gradient(u, mu)
        assert np.allclose(hor, 0.0)
        assert np.allclose(ver, ver[0])
        assert ver[0] != 0.0

    def test_extended_vertical_formula(self):
        # f(s, x) = s h(x): vertical gradient is 2 mu_x h(x)
        rng = np.random.default_rng(3)
        mu = random_measure(rng, 5)
        h = gauss_kernel([0.0, 0.0], 1.0)
        u = linear_cylinder(
            mass_kernel_extended(
                h=lambda p: h.fn(p), h_grad=lambda p: h.grad(p)
            )
        )
        hor, ver = gradient(u, mu)
        assert np.allclose(ver, 2.0 * mu.weights * h.fn(mu.points))
        assert np.allclose(hor, mu.weights[:, None] * h.grad(mu.points))

    def test_leibniz_rule_exact(self):
        rng = np.random.default_rng(4)
        mu = random_measure(rng, 5)
        u = linear_cylinder(gauss_kernel([0.0, 0.0], 1.0))
        v = linear_cylinder(bump_kernel([0.3, 0.0], 2.0))
        hor_uv, ver_uv = gradient(multiply(u, v), mu)
        hu, vu = gradient(u, mu)
        hv, vv = gradient(v, mu)
        uval, vval = evaluate(u, mu), evaluate(v, mu)
        assert np.max(np.abs(hor_uv - (uval * hv + vval * hu))) < 1e-12
        assert np.max(np.abs(ver_uv - (uval * vv + vval * vu))) < 1e-12

    def test_chain_rule_tanh(self):
        rng = np.random.default_rng(5)
        mu = random_measure(rng, 5)
        u = linear_cylinder(gauss_kernel([0.0, 0.0], 1.0))
        w = compose(np.tanh, lambda t: 1.0 - np.tanh(t) ** 2, u)
        hor_w, ver_w = gradient(w, mu)
        hu, vu = gradient(u, mu)
        fac = 1.0 - np.tanh(evaluate(u, mu)) ** 2
        assert np.max(np.abs(hor_w - fac * hu)) < 1e-12
        assert np.max(np.abs(ver_w - fac * vu)) < 1e-12


class TestTangentNorm:
    def test_radial_formula(self):
        u = truncation(1.0)
        mu = DiscreteMeasure([[0.0], [2.0]], [0.9, 0.6])  # mass 1.5
        g = gradient(u, mu)
        m = mu.mass
        chi_prime = g[1][0]
        assert tangent_norm_14(g, mu) == pytest.approx(2.0 * abs(chi_prime) * np.sqrt(m))

    def test_potential_energy_formula(self):
        rng = np.random.default_rng(6)
        mu = random_measure(rng, 6)
        f = gauss_kernel([0.0, 0.0], 1.0)
        g = gradient(linear_cylinder(f), mu)
        expected = np.sqrt(
            np.sum(
                mu.weights
                * (np.sum(f.gradients(mu.weights, mu.points) ** 2, axis=1) + 4 * f.values(mu.weights, mu.points) ** 2)
            )
        )
        assert tangent_norm_14(g, mu) == pytest.approx(expected)

    def test_zero_function(self):
        mu = DiscreteMeasure([[0.0]], [1.0])
        zero = CylinderFunction(
            OuterFunction(lambda a: 0.0, [lambda a: 0.0], 1), [one_kernel()]
        )
        assert tangent_norm_14(gradient(zero, mu), mu) == 0.0

    def test_misaligned_rejected(self):
        mu = DiscreteMeasure([[0.0]], [1.0])
        with pytest.raises(ValueError):
            tangent_norm_14((np.zeros((2, 1)), np.zeros(2)), mu)


class TestPerturbationDerivative:
    def test_mass_dilation_closed_form(self):
        # u = total mass, T1 = 0, T2 = c: derivative is 2 c mu M
        rng = np.random.default_rng(7)
        mu = random_measure(rng, 4)
        u = linear_cylinder(one_kernel())
        c = 0.37
        d = perturbation_derivative(u, mu, np.zeros((len(mu), 2)), np.full(len(mu), c))
        assert d == pytest.approx(2 * c * mu.mass, rel=1e-8)

    def test_matches_tangent_pairing_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            mu = random_measure(rng, rng.integers(2, 6))
            u = random_cylinder(rng)
            t1 = rng.normal(0, 1, (len(mu), 2))
            t2 = rng.normal(0, 1, len(mu))
            d = perturbation_derivative(u, mu, t1, t2)
            expected = tangent_pairing(gradient(u, mu), mu, t1, t2)
            assert d == pytest.approx(expected, rel=1e-4, abs=1e-7)

    def test_gradient_direction_gives_tangent_norm(self):
        # (T1, T2) = (hor, 2 ver) reproduces the squared T^{1,4} norm
        rng = np.random.default_rng(9)
        mu = random_measure(rng, 5)
        u = random_cylinder(rng)
        hor, ver = gradient(u, mu)
        d = perturbation_derivative(u, mu, hor, 2.0 * ver)
        assert d == pytest.approx(tangent_norm_14((hor, ver), mu) ** 2, rel=1e-4)


class TestSlopeProbe:
    def test_hellinger_kills_horizontal_only_function(self):
        # f vanishes on supp mu but grad f does not: the vertical slope is 0
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        f = ScalarField(
            lambda p: p[:, 0] * (p[:, 0] - 1.0),
            lambda p: (2.0 * p[:, 0] - 1.0)[:, None],
        )
        u = linear_cylinder(f)
        ana = analytic_slope(u, mu, "he")
        assert ana == pytest.approx(0.0, abs=1e-12)
        probe = slope_probe(u, mu, "he", rng=np.random.default_rng(0))
        assert probe <= 0.05

    def test_wasserstein_ignores_mass_cutoff(self):
        u = truncation(1.0)
        mu = DiscreteMeasure([[0.0], [2.0]], [0.9, 0.6])
        probe = slope_probe(u, mu, "w", rng=np.random.default_rng(1))
        assert probe <= 1e-10

    def test_hk_radial_matches_formula(self):
        u = truncation(1.0)
        mu = DiscreteMeasure([[0.0], [2.0]], [0.9, 0.6])
        m = mu.mass
        hor, ver = gradient(u, mu)
        ana = 2.0 * abs(ver[0]) * np.sqrt(m)
        probe = slope_probe(u, mu, "hk", rng=np.random.default_rng(2))
        assert probe <= ana * 1.05
        assert probe >= ana * 0.90

    def test_upper_and_lower_bounds_randomized(self):
        rng = np.random.default_rng(10)
        for _ in range(6):
            mu = random_measure(rng, 4, scale=0.6)
            u = random_cylinder(rng)
            for metric in ("hk", "he", "w"):
                ana = analytic_slope(u, mu, metric)
                probe = slope_probe(u, mu, metric, rng=rng)
                assert probe <= ana * 1.05 + 1e-9
                assert probe >= ana * 0.90 - 1e-9


class TestTruncation:
    def test_plateau_values(self):
        u = truncation(2.0)
        assert evaluate(u, DiscreteMeasure([[0.0]], [1.0])) == 1.0  # mass k/2
        assert evaluate(u, DiscreteMeasure([[0.0]], [6.0])) == 0.0  # mass 3k

    def test_profile_slope_bound(self):
        r = np.linspace(0, 3, 3001)
        slopes = np.abs(np.diff(truncation_profile(r)) / np.diff(r))
        assert slopes.max() <= 2.0
        assert slopes.max() == pytest.approx(1.5, abs=1e-3)

    def test_slope_bound_from_mass(self):
        # tangent norm of u_k bounded by 2 sqrt(8 + 2 pi^2)/sqrt(k) on mu M <= 2k
        bound_const = 2.0 * np.sqrt(8.0 + 2.0 * np.pi**2)
        rng = np.random.default_rng(11)
        for k in (1.0, 4.0, 16.0):
            u = truncation(k)
            for _ in range(20):
                mass = rng.uniform(0.01, 2.0) * k
                n = rng.integers(1, 5)
                w = rng.uniform(0.2, 1.0, n)
                w *= mass / w.sum()
                mu = DiscreteMeasure(rng.normal(0, 1, (n, 2)), w)
                norm = tangent_norm_14(gradient(u, mu), mu)
                assert norm <= bound_const / np.sqrt(k) + 1e-12


class TestLinearLipBound:
    def test_identical_measures(self):
        rng = np.random.default_rng(12)
        mu = random_measure(rng, 4)
        f = gauss_kernel([0.0, 0.0], 1.0)
        lhs, rhs = linear_lip_bound(f, mu, mu)
        assert lhs == 0.0
        assert rhs == pytest.approx(0.0, abs=1e-4)

    def test_randomized_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            mu0 = random_measure(rng, rng.integers(1, 5))
            mu1 = random_measure(rng, rng.integers(1, 5))
            f = gauss_kernel(rng.normal(0, 0.5, 2), rng.uniform(0.8, 1.5))
            lhs, rhs = linear_lip_bound(f, mu0, mu1)
            assert lhs <= rhs + 1e-9

    def test_constant_function_mass_difference(self):
        rng = np.random.default_rng(14)
        mu0 = random_measure(rng, 3)
        mu1 = random_measure(rng, 4)
        lhs, rhs = linear_lip_bound(one_kernel(), mu0, mu1)
        assert lhs == pytest.approx(abs(mu0.mass - mu1.mass))
        assert lhs <= rhs + 1e-9


def check_consistency(field, points):
    """Central-difference check (step 1e-6, relative 1e-4) of a field's
    declared gradient at probe points of unit mass."""
    points = np.atleast_2d(points)
    weights = np.ones(len(points))
    g = field.gradients(weights, points)
    for k in range(points.shape[1]):
        step = np.zeros(points.shape[1])
        step[k] = 1e-6
        fd = (field.values(weights, points + step) - field.values(weights, points - step)) / 2e-6
        scale = np.maximum(np.abs(g[:, k]), 1.0)
        if np.max(np.abs(fd - g[:, k]) / scale) > 1e-4:
            return False
    return True


class TestScalarField:
    def test_field_consistency_check(self):
        rng = np.random.default_rng(16)
        for kern in (gauss_kernel([0.2, -0.1], 1.1), bump_kernel([0.0, 0.0], 2.0)):
            pts = rng.normal(0, 0.8, (20, 2))
            assert check_consistency(kern, pts)
