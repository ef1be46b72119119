import numpy as np
import pytest

from hkgeo.measures import DiscreteMeasure
from hkgeo.mollify import (
    MollifierConfig,
    mollify,
    retraction,
    retraction_profile,
)


def random_measure(rng, n, dim=1, scale=1.0):
    return DiscreteMeasure(rng.normal(0, scale, (n, dim)), rng.uniform(0.2, 2.0, n))


def weak_error(mu, cfg, tests):
    """|int phi dT_eps(mu) - int phi dmu| for each test function."""
    out = mollify(mu, cfg)
    errs = []
    for phi in tests:
        a = float(np.sum(phi(out.points) * out.weights)) if len(out) else 0.0
        b = float(np.sum(phi(mu.points) * mu.weights)) if len(mu) else 0.0
        errs.append(abs(a - b))
    return errs


class TestKernelPatch:
    """The sampled kernel that mollify stamps around every atom.  eps is a
    multiple of the spacing (0.4 = 4 x 0.1) or falls between two nodes
    (0.3 = 4.29 x 0.07)."""

    @pytest.fixture(
        params=[(1, 0.4, 0.1), (1, 0.3, 0.07), (2, 0.4, 0.1), (2, 0.3, 0.07), (3, 0.4, 0.1)],
        ids=lambda p: f"{p[0]}d-eps-{'on' if p[1] == 0.4 else 'between'}-nodes",
    )
    def patch(self, request):
        dim, eps, spacing = request.param
        cfg = MollifierConfig(eps, spacing, dim)
        offsets, vals = cfg.kernel_patch()
        return cfg, offsets, vals

    def test_support_in_closed_eps_ball(self, patch):
        cfg, offsets, _ = patch
        assert offsets.shape[1] == cfg.dim
        assert np.all(np.linalg.norm(offsets * cfg.spacing, axis=1) <= cfg.eps)

    def test_values_positive(self, patch):
        _, offsets, vals = patch
        assert len(vals) == len(offsets) and np.all(vals > 0)

    def test_symmetric(self, patch):
        _, offsets, vals = patch
        at = {tuple(o): v for o, v in zip(offsets.tolist(), vals.tolist())}
        assert all(at.get(tuple(-c for c in o)) == v for o, v in at.items())

    def test_sums_to_one(self, patch):
        _, _, vals = patch
        assert abs(vals.sum() - 1.0) <= 1e-15


class TestRetraction:
    def test_identity_inside_unit_ball(self):
        x = np.array([[0.3, 0.2], [-0.9, 0.1]])
        assert np.allclose(retraction(x), x)

    def test_bounded_by_two(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 10, (500, 3))
        assert np.all(np.linalg.norm(retraction(x), axis=1) <= 2.0 + 1e-12)

    def test_slope_at_most_one(self):
        r = np.linspace(0, 5, 4001)
        rho = retraction_profile(r)
        slopes = np.diff(rho) / np.diff(r)
        assert np.all(slopes <= 1.0 + 1e-9)
        assert np.all(slopes >= -1e-12)

    def test_saturates_at_two(self):
        assert retraction_profile(3.0) == pytest.approx(2.0)
        assert retraction_profile(10.0) == 2.0

    def test_huge_points_do_not_overflow(self):
        # |x|^2 overflows beyond |x| ~ 1e154; warnings are errors here
        for x in ([[0.4e155]], [[1e200, -1e200]], [[1e300, 1e300, -1e300]], [[-1.7e308, 0.0]]):
            x = np.array(x)
            f = retraction(x)
            assert np.linalg.norm(f, axis=1) == pytest.approx(2.0, rel=1e-15)
            scaled = x / np.abs(x).max()
            np.testing.assert_allclose(f, 2.0 * scaled / np.linalg.norm(scaled), rtol=1e-15)


class TestMollify:
    def test_mass_identity(self):
        rng = np.random.default_rng(1)
        for eps in (0.4, 0.2, 0.1, 0.05):
            cfg = MollifierConfig(eps, eps / 4, dim=1)
            mu = random_measure(rng, 5)
            out = mollify(mu, cfg)
            assert out.mass == pytest.approx(mu.mass + eps, rel=1e-6)

    def test_nonnegative_weights_and_support_radius(self):
        rng = np.random.default_rng(2)
        eps = 0.25
        cfg = MollifierConfig(eps, eps / 4, dim=2)
        mu = random_measure(rng, 4, dim=2, scale=6.0)
        out = mollify(mu, cfg)
        assert np.all(out.weights > 0)
        # binning to the nearest node can add at most half a cell diagonal
        slack = np.sqrt(2) * cfg.spacing / 2 + 1e-12
        assert np.max(np.linalg.norm(out.points, axis=1)) <= 2 / eps + eps + slack

    def test_identity_region_small_measure(self):
        # atoms inside B(0, 1/eps): the retraction acts as the identity,
        # so the recentered mass sits on the binned atom neighborhoods
        eps = 0.4
        cfg = MollifierConfig(eps, 0.1, dim=1)
        mu = DiscreteMeasure([[1.0]], [2.0])
        out = mollify(mu, cfg)
        near_atom = np.abs(out.points[:, 0] - 1.0) <= eps + cfg.spacing / 2
        near_zero = np.abs(out.points[:, 0]) <= eps + cfg.spacing / 2
        assert out.weights[near_atom & ~near_zero].sum() == pytest.approx(2.0, rel=1e-12)
        assert out.weights[near_zero].sum() == pytest.approx(eps, rel=1e-12)

    def test_spacing_validation(self):
        with pytest.raises(ValueError):
            MollifierConfig(0.4, 0.2, dim=1)
        with pytest.raises(ValueError):
            MollifierConfig(1.2, 0.1, dim=1)

    def test_far_atoms_stay_on_the_grid(self):
        # The retraction keeps |f(eps x)/eps| <= 2/eps on each axis, a patch
        # adds floor(eps/h) nodes, and half_nodes = ceil((2/eps + eps)/h) + 1:
        # every patch, even of an atom at |x| = 1e9, lands inside the grid.
        # Atoms at 1e155 and 1e300, whose |eps x|^2 overflows, land there too.
        rng = np.random.default_rng(5)
        grids = {1: [(0.4, 4), (0.4, 7), (0.13, 4.3), (0.13, 40)],
                 2: [(0.4, 4), (0.4, 10), (0.13, 4), (0.13, 5.5)],
                 3: [(0.4, 4), (0.4, 4.7), (0.8, 4), (0.8, 6)]}
        for dim, eps_steps in grids.items():
            dirs = rng.normal(size=(4, dim))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            pts = np.concatenate([1e9 * np.eye(dim), -1e9 * np.eye(dim), 1e9 * dirs,
                                  10.0 ** rng.uniform(0, 9, (4, 1)) * dirs, rng.normal(0, 1, (2, dim))])
            weights = rng.uniform(0.2, 2.0, len(pts))
            huge = np.concatenate([1e155 * np.eye(dim), -1e300 * np.ones((1, dim)), 1e300 * dirs[:1]])
            pts = np.concatenate([pts, huge])
            mu = DiscreteMeasure(pts, np.concatenate([weights, np.ones(len(huge))]))
            for eps, step in eps_steps:
                cfg = MollifierConfig(eps, eps / step, dim=dim)
                out = mollify(mu, cfg)
                assert out.mass == pytest.approx(mu.mass + eps, rel=1e-12)
                nodes = np.rint(out.points / cfg.spacing).astype(np.int64)
                assert np.abs(nodes).max() <= cfg.half_nodes
                # no patch wrapped round the grid: each node is a patch node
                # of a binned atom or of the origin
                centres = np.rint(retraction(eps * np.vstack([pts, np.zeros(dim)])) / eps / cfg.spacing)
                reach = np.abs(nodes[:, None, :] - centres[None, :, :]).max(axis=2).min(axis=1)
                assert reach.max() <= np.floor(eps / cfg.spacing)

    def test_grid_too_big_for_memory_refused(self, monkeypatch):
        from hkgeo import measures

        monkeypatch.setattr(measures, "_available_bytes", lambda: 1_000_000)
        cfg = MollifierConfig(0.4, 0.01, dim=2)  # 1,083^2 nodes, 9.4 MB
        with pytest.raises(ValueError, match="mollifier grid.*bytes"):
            mollify(DiscreteMeasure([[0.1, -0.2], [0.3, 0.2]], [0.8, 1.1]), cfg)

    def test_zero_measure_gives_eps_bump(self):
        eps = 0.2
        cfg = MollifierConfig(eps, eps / 4, dim=1)
        out = mollify(DiscreteMeasure(np.empty((0, 1)), [], dim=1), cfg)
        assert out.mass == pytest.approx(eps, rel=1e-12)
        assert np.max(np.abs(out.points)) <= eps


class TestWeakError:
    def test_constant_test_function_error_is_eps(self):
        rng = np.random.default_rng(3)
        eps = 0.2
        cfg = MollifierConfig(eps, eps / 4, dim=1)
        mu = random_measure(rng, 4)
        (err,) = weak_error(mu, cfg, [lambda p: np.ones(len(p))])
        assert err == pytest.approx(eps, rel=1e-9)

    def test_linear_error_vanishes_for_dirac_at_origin(self):
        # kernel symmetry on the symmetric grid kills the first moment
        eps = 0.4
        cfg = MollifierConfig(eps, 0.1, dim=1)
        mu = DiscreteMeasure([[0.0]], [1.0])
        (err,) = weak_error(mu, cfg, [lambda p: p[:, 0]])
        assert err < 1e-14

    def test_errors_decay_with_eps(self):
        rng = np.random.default_rng(4)
        mu = random_measure(rng, 5, scale=0.8)
        phi = lambda p: np.exp(-np.sum(p * p, axis=1))
        errs = [weak_error(mu, MollifierConfig(e, e / 4, dim=1), [phi])[0] for e in (0.4, 0.2, 0.1)]
        assert errs[1] <= errs[0] * 1.05
        assert errs[2] <= errs[1] * 1.05
