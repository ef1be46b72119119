import numpy as np
import pytest

from hkgeo.measures import DiscreteMeasure
from hkgeo.mollify import MollifierConfig, mollify
from hkgeo.potentials import (
    grid_measure_on_ball,
    gradient_duality_value,
    legendre_conjugate,
    legendre_pair,
)

R = 1.0
SPACING = 0.02
EPS = 0.4


@pytest.fixture(scope="module")
def nu():
    return grid_measure_on_ball(
        lambda p: 0.5 + 0.3 * np.exp(-np.sum(p * p, axis=1)), R, SPACING, 1
    )


@pytest.fixture(scope="module")
def cfg():
    return MollifierConfig(EPS, SPACING, dim=1)


@pytest.fixture(scope="module")
def pair(nu, cfg):
    rng = np.random.default_rng(0)
    mu = DiscreteMeasure(rng.normal(0, 1.0, (4, 1)), rng.uniform(0.3, 1.5, 4))
    return mu, legendre_pair(nu, mu, cfg)


@pytest.fixture(scope="module")
def pair_2d():
    nu2 = grid_measure_on_ball(lambda p: 0.5 + 0.3 * np.exp(-np.sum(p * p, axis=1)), 0.5, 0.1, 2)
    cfg2 = MollifierConfig(EPS, 0.1, dim=2)
    rng = np.random.default_rng(2)
    mu = DiscreteMeasure(rng.normal(0, 0.4, (3, 2)), rng.uniform(0.3, 1.5, 3))
    return mu, cfg2, legendre_pair(nu2, mu, cfg2)


# ---------------------------------------------------------------------------
# plain-Python reference: points matched through a dict keyed on coordinates
# rounded to 1e-9, neighbours found by matching shifted coordinates
# ---------------------------------------------------------------------------

def ref_match(points, targets, tol=1e-9):
    key = {tuple(np.round(p / tol).astype(np.int64)): i for i, p in enumerate(points)}
    return np.array([key.get(tuple(np.round(t / tol).astype(np.int64)), -1) for t in targets])


def ref_max_slope(points, vals, sp):
    worst = 0.0
    for k in range(points.shape[1]):
        step = np.zeros(points.shape[1])
        step[k] = sp
        idx = ref_match(points, points + step)
        for i, j in enumerate(idx):
            if j >= 0:
                worst = max(worst, abs(vals[j] - vals[i]) / sp)
    return worst


def ref_k(pp):
    q = pp.q_map()
    origin = ref_match(pp.psi_points, np.zeros((1, pp.psi_points.shape[1])))[0]
    return max(pp.psi[origin], float(np.max(np.abs(q))), ref_max_slope(pp.psi_points, q, pp.psi_spacing))


def ref_gradient_value(pp, t_mu):
    pts, vals, sp = pp.psi_points, pp.psi, pp.psi_spacing
    dim = pts.shape[1]
    centre = ref_match(pts, t_mu.points)
    assert np.all(centre >= 0)
    grad = np.zeros((len(t_mu), dim))
    usable = np.ones(len(t_mu), dtype=bool)
    for k in range(dim):
        step = np.zeros(dim)
        step[k] = sp
        up, dn = ref_match(pts, t_mu.points + step), ref_match(pts, t_mu.points - step)
        ok = (up >= 0) & (dn >= 0)
        usable &= ok
        grad[ok, k] = (vals[up[ok]] - vals[dn[ok]]) / (2.0 * sp)
    y, g = t_mu.points[usable], grad[usable]
    e1 = -np.sum(y * y, axis=1) + 2.0 * vals[centre[usable]]
    term1 = (1.0 - np.exp(np.minimum(e1, 700.0))) ** 2
    term2 = np.exp(np.minimum(2.0 * e1 + np.sum((y - g) ** 2, axis=1), 700.0)) - np.exp(np.minimum(2.0 * e1, 700.0))
    return float(np.sum((term1 + term2) * t_mu.weights[usable])), float(t_mu.weights[~usable].sum())


class TestLegendreConjugate:
    def test_conjugate_of_half_square_is_half_square(self):
        xs = np.linspace(-3, 3, 301)[:, None]
        vals = 0.5 * xs[:, 0] ** 2
        ys = np.linspace(-2, 2, 41)[:, None]
        conj = legendre_conjugate(xs, vals, ys)
        assert np.allclose(conj, 0.5 * ys[:, 0] ** 2, atol=1e-3)

    def test_double_conjugation_idempotent(self, pair):
        _, pp = pair
        phi2 = legendre_conjugate(pp.psi_points, pp.psi, pp.phi_points)
        psi2 = legendre_conjugate(pp.phi_points, phi2, pp.psi_points)
        assert np.max(np.abs(phi2 - pp.phi)) < 1e-10
        assert np.max(np.abs(psi2 - pp.psi)) < 1e-10


class TestLegendrePair:
    def test_duality_value_matches_solver(self, pair):
        _, pp = pair
        assert pp.duality_value == pytest.approx(pp.solver_value, rel=0.02)

    def test_psi_r_lipschitz(self, pair):
        _, pp = pair
        assert pp.psi_lipschitz() <= pp.R + 1e-9

    def test_fenchel_young_feasibility(self, pair):
        # phi(x) + psi(y) >= <x, y> on all grid pairs (Fenchel-Young for the
        # conjugate pair), which rearranges to the dual-feasibility constraint
        # (|x|^2/2 - phi) + (|y|^2/2 - psi) <= |x - y|^2 / 2
        _, pp = pair
        lhs = pp.phi[:, None] + pp.psi[None, :]
        rhs = pp.phi_points @ pp.psi_points.T
        assert np.min(lhs - rhs) >= -1e-9

    def test_dual_feasibility_half_cost(self, pair):
        _, pp = pair
        phi0 = 0.5 * np.sum(pp.phi_points**2, axis=1) - pp.phi
        phi1 = 0.5 * np.sum(pp.psi_points**2, axis=1) - pp.psi
        d2 = np.sum(
            (pp.phi_points[:, None, :] - pp.psi_points[None, :, :]) ** 2, axis=2
        )
        assert np.max(phi0[:, None] + phi1[None, :] - 0.5 * d2) <= 1e-9

    def test_q_map_bounded_by_k(self, pair):
        _, pp = pair
        bound, lip = pp.q_bound_and_lip()
        assert bound <= pp.K + 1e-12
        assert lip <= pp.K + 1e-12

    def test_gradient_value_matches_dual_value(self, pair, cfg):
        mu, pp = pair
        m = mollify(mu, cfg)
        v13, excluded = gradient_duality_value(pp, m)
        assert excluded == 0.0
        assert v13 == pytest.approx(pp.duality_value, rel=0.02)

    def test_identical_marginals_near_zero(self, nu, cfg):
        # nu against (approximately) itself: the distance of a measure to a
        # mollified version of itself stays far below the measure mass scale
        tiny = DiscreteMeasure(np.empty((0, 1)), [], dim=1)
        pp = legendre_pair(nu, tiny, cfg)
        # T_eps(0) = eps * bump at the origin; value is small but nonzero
        assert pp.duality_value < nu.mass + EPS

    def test_k_uniform_over_masses(self, nu, cfg):
        rng = np.random.default_rng(1)
        base = DiscreteMeasure(rng.normal(0, 1.0, (3, 1)), rng.uniform(0.3, 1.5, 3))
        ks = []
        for c in (2e2, 2e3, 2e4, 2e5):
            scaled = DiscreteMeasure(base.points, base.weights * (c / base.mass))
            ks.append(legendre_pair(nu, scaled, cfg).K)
        ks = np.array(ks)
        assert (ks.max() - ks.min()) / ks.mean() < 0.10


class TestLatticeLookup:
    """Integer lattice indices reproduce the dict-matched reference."""

    def test_1d_matches_dict_reference_exactly(self, pair, cfg):
        mu, pp = pair
        assert pp.psi_lipschitz() == ref_max_slope(pp.psi_points, pp.psi, pp.psi_spacing)
        bound, lip = pp.q_bound_and_lip()
        assert lip == ref_max_slope(pp.psi_points, pp.q_map(), pp.psi_spacing)
        assert bound == float(np.max(np.abs(pp.q_map())))
        assert pp.K == ref_k(pp)
        value, excluded = gradient_duality_value(pp, mollify(mu, cfg))
        ref_value, ref_excluded = ref_gradient_value(pp, mollify(mu, cfg))
        assert (value, excluded) == (ref_value, ref_excluded)

    def test_2d_matches_dict_reference(self, pair_2d):
        mu, cfg2, pp = pair_2d
        sp = pp.psi_spacing
        assert pp.psi_lipschitz() == pytest.approx(ref_max_slope(pp.psi_points, pp.psi, sp), rel=1e-14)
        _, lip = pp.q_bound_and_lip()
        assert lip == pytest.approx(ref_max_slope(pp.psi_points, pp.q_map(), sp), rel=1e-14)
        assert pp.K == pytest.approx(ref_k(pp), rel=1e-14)
        value, excluded = gradient_duality_value(pp, mollify(mu, cfg2))
        ref_value, ref_excluded = ref_gradient_value(pp, mollify(mu, cfg2))
        assert value == pytest.approx(ref_value, rel=1e-14)
        assert excluded == pytest.approx(ref_excluded, rel=1e-14)

    def test_psi_points_row_major_box(self, pair_2d):
        _, _, pp = pair_2d
        pts = pp.psi_points
        assert pts.shape == (np.prod(pp.psi_shape), 2)
        assert np.array_equal(pts[:2], (pp.psi_origin + [[0, 0], [0, 1]]) * pp.psi_spacing)

    def test_off_lattice_atoms_rejected(self, pair, cfg):
        mu, pp = pair
        m = mollify(mu, cfg)
        shifted = DiscreteMeasure(m.points + 0.5 * pp.psi_spacing, m.weights)
        with pytest.raises(ValueError, match="not on the psi grid"):
            gradient_duality_value(pp, shifted)


class TestGridMeasure:
    def test_positive_density_required(self):
        with pytest.raises(ValueError):
            grid_measure_on_ball(lambda p: np.zeros(len(p)), 1.0, 0.1, 1)

    def test_support_in_ball(self):
        nu = grid_measure_on_ball(lambda p: np.ones(len(p)), 0.5, 0.05, 2)
        assert np.max(np.linalg.norm(nu.points, axis=1)) <= 0.5 + 1e-12
