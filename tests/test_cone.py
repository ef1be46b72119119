import numpy as np
import pytest

from hkgeo.cone import cone_dist, g_transform, let_cost


class TestConeDist:
    def test_same_point_zero(self):
        assert cone_dist(np.pi, 2.0, 2.0, 0.0) == 0.0

    def test_antipodal_unit_radii(self):
        assert cone_dist(np.pi, 1.0, 1.0, 5.0) == pytest.approx(2.0)

    def test_vertex_distance_is_radius(self):
        assert cone_dist(np.pi, 1.7, 0.0, 11.0) == pytest.approx(1.7)

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            cone_dist(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            cone_dist(3.5, 1.0, 1.0, 1.0)

    def test_triangle_inequality_randomized(self):
        rng = np.random.default_rng(4)
        base = rng.normal(0, 1, (3, 2))
        d01 = np.linalg.norm(base[0] - base[1])
        d02 = np.linalg.norm(base[0] - base[2])
        d12 = np.linalg.norm(base[1] - base[2])
        for _ in range(300):
            r = rng.uniform(0, 3, 3)
            a = cone_dist(np.pi, r[0], r[1], d01)
            b = cone_dist(np.pi, r[1], r[2], d12)
            c = cone_dist(np.pi, r[0], r[2], d02)
            assert c <= a + b + 1e-10


class TestGTransform:
    def test_zero(self):
        assert g_transform(0.0) == 0.0

    def test_limit_pi_half(self):
        assert g_transform(40.0) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_inverse_identity(self):
        # cos g(z) = e^{-z^2/2} by construction
        assert -np.log(np.cos(g_transform(1.0)) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_increasing(self):
        z = np.linspace(0, 4, 100)
        assert np.all(np.diff(g_transform(z)) > 0)


class TestLetCost:
    def test_ghk_zero(self):
        assert let_cost("ghk", 0.0) == 0.0

    def test_ghk_square(self):
        assert let_cost("ghk", 1.5) == pytest.approx(2.25)

    def test_hk_infinite_beyond_pi_half(self):
        assert let_cost("hk", np.pi / 2) == np.inf
        assert let_cost("hk", 3.0) == np.inf

    def test_hk_g_compose_identity(self):
        # let_cost(HK, g(z)) = z^2 on a grid in [0, 4]
        z = np.linspace(0.0, 4.0, 41)
        vals = let_cost("hk", g_transform(z))
        assert np.max(np.abs(vals - z * z)) < 1e-12

    def test_hk_continuous_increasing(self):
        d = np.linspace(0, np.pi / 2 - 1e-6, 500)
        c = let_cost("hk", d)
        assert np.all(np.diff(c) > 0)
        assert c[0] == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            let_cost("foo", 1.0)
