import numpy as np
import pytest

from hkgeo.measures import DiscreteMeasure, cost_matrix_sq, dilate, hellinger_sq, wasserstein_sq
from hkgeo.let import (
    LetProblem,
    _certificate,
    ghk_sq,
    hk_sq,
    let_problem,
    lift_to_cone,
    limit_diagnostics,
    solve_let,
    solve_let_exact_small,
    verify_optimality,
)

TOL = 1e-9


def dirac(x, w):
    return DiscreteMeasure([np.atleast_1d(x)], [w])


def random_measure(rng, n, dim=2, scale=1.0):
    return DiscreteMeasure(rng.normal(0, scale, (n, dim)), rng.uniform(0.1, 2.0, n))


def ghk_single_atom(a, b, d):
    return a + b - 2.0 * np.sqrt(a * b) * np.exp(-d * d / 2.0)


def hk_single_atom(a, b, d):
    return a + b - 2.0 * np.sqrt(a * b) * np.cos(min(d, np.pi / 2))


class TestSolveLetBasics:
    def test_zero_target_gives_total_mass(self):
        # gamma = 0 and F(0) = 1 on every atom of mu0
        rng = np.random.default_rng(0)
        mu = random_measure(rng, 5)
        zero = DiscreteMeasure(np.empty((0, 2)), [], dim=2)
        s = solve_let(let_problem(mu, zero, "ghk"), TOL)
        assert s.primal_value == pytest.approx(mu.mass, rel=1e-12)
        assert s.gap == pytest.approx(0.0, abs=1e-12)
        assert np.all(s.sigma0 == 0.0)

    def test_identical_measures_zero(self):
        rng = np.random.default_rng(1)
        mu = random_measure(rng, 6)
        s = solve_let(let_problem(mu, mu, "ghk"), TOL)
        assert s.primal_value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(s.sigma0, 1.0, atol=1e-6)
        assert np.allclose(s.sigma1, 1.0, atol=1e-6)

    def test_single_atom_closed_form_and_plan_mass(self):
        a, b, d = 0.9, 2.3, 1.1
        s = solve_let(let_problem(dirac(0.0, a), dirac(d, b), "ghk"), TOL)
        assert s.primal_value == pytest.approx(ghk_single_atom(a, b, d), rel=1e-9)
        m_opt = np.sqrt(a * b) * np.exp(-d * d / 2)
        assert s.plan[0, 0] == pytest.approx(m_opt, rel=1e-7)

    def test_nan_cost_rejected(self):
        mu = dirac(0.0, 1.0)
        with pytest.raises(ValueError):
            LetProblem(mu, mu, np.array([[np.nan]]))

    def test_matches_exact_small_oracle(self):
        # hk on spread atoms forbids cells, and some atoms have no finite cell
        rng = np.random.default_rng(2)
        for k in range(30):
            n0, n1 = rng.integers(1, 4, 2)
            kind, scale = ("ghk", 1.0) if k < 15 else ("hk", 1.5)
            m0 = random_measure(rng, n0, scale=scale)
            m1 = random_measure(rng, n1, scale=scale)
            p = let_problem(m0, m1, kind)
            s = solve_let(p, TOL)
            assert s.converged == (s.gap <= TOL * (1 + abs(s.primal_value)))
            v_exact = solve_let_exact_small(p)
            assert s.primal_value == pytest.approx(v_exact, rel=1e-8, abs=1e-10)


class TestGhkHk:
    def test_ghk_single_atoms_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.uniform(0.1, 10, 2)
            d = rng.uniform(0, 3)
            v = ghk_sq(dirac(0.0, a), dirac(d, b), TOL)
            assert v == pytest.approx(ghk_single_atom(a, b, d), rel=1e-6)

    def test_hk_single_atoms_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = rng.uniform(0.1, 10, 2)
            d = rng.uniform(0, 3)
            v = hk_sq(dirac(0.0, a), dirac(d, b), TOL)
            assert v == pytest.approx(hk_single_atom(a, b, d), rel=1e-6)

    def test_hk_forbidden_forces_full_mass(self):
        # d >= pi/2 with a = b = 1: coupling forbidden, value = 2
        v = hk_sq(dirac(0.0, 1.0), dirac(2.0, 1.0), TOL)
        assert v == pytest.approx(2.0, rel=1e-12)

    def test_ghk_zero_measure(self):
        rng = np.random.default_rng(5)
        mu = random_measure(rng, 4)
        zero = DiscreteMeasure(np.empty((0, 2)), [], dim=2)
        assert ghk_sq(mu, zero, TOL) == pytest.approx(mu.mass, rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            m0 = random_measure(rng, 4)
            m1 = random_measure(rng, 5)
            assert ghk_sq(m0, m1, TOL) == pytest.approx(ghk_sq(m1, m0, TOL), rel=2 * TOL, abs=1e-10)
            assert hk_sq(m0, m1, TOL) == pytest.approx(hk_sq(m1, m0, TOL), rel=2 * TOL, abs=1e-10)

    def test_mass_homogeneity(self):
        rng = np.random.default_rng(7)
        m0 = random_measure(rng, 4)
        m1 = random_measure(rng, 3)
        base = hk_sq(m0, m1, TOL)
        for c in (0.5, 2.0, 10.0):
            s0 = DiscreteMeasure(m0.points, c * m0.weights)
            s1 = DiscreteMeasure(m1.points, c * m1.weights)
            assert hk_sq(s0, s1, TOL) == pytest.approx(c * base, rel=2e-9)

    def test_hk_triangle_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ms = [random_measure(rng, rng.integers(1, 6)) for _ in range(3)]
            d01 = np.sqrt(hk_sq(ms[0], ms[1], TOL))
            d12 = np.sqrt(hk_sq(ms[1], ms[2], TOL))
            d02 = np.sqrt(hk_sq(ms[0], ms[2], TOL))
            assert d02 <= d01 + d12 + 1e-6

    def test_dilation_isometry(self):
        # HK with rescaled cost equals HK between dilated measures
        rng = np.random.default_rng(9)
        m0 = random_measure(rng, 5)
        m1 = random_measure(rng, 5)
        lam = 2.5
        direct = hk_sq(dilate(m0, lam), dilate(m1, lam), TOL)
        from hkgeo.measures import cost_matrix_sq
        from hkgeo.cone import let_cost

        d = np.sqrt(cost_matrix_sq(m0, m1))
        p = LetProblem(m0, m1, let_cost("hk", lam * d))
        assert solve_let(p, TOL).primal_value == pytest.approx(direct, rel=1e-8)


class TestCertificates:
    def test_random_instances_certified(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            m0 = random_measure(rng, rng.integers(2, 9))
            m1 = random_measure(rng, rng.integers(2, 9))
            for kind in ("ghk", "hk"):
                p = let_problem(m0, m1, kind)
                s = solve_let(p, TOL)
                assert s.converged
                assert s.converged == (s.gap <= TOL * (1 + abs(s.primal_value)))
                assert -1e-9 <= s.gap <= TOL * (1 + abs(s.primal_value))
                rep = verify_optimality(p, s, 1e-6)
                assert rep.ok(), rep.as_dict()

    def test_perturbed_sigma_fails_support_condition(self):
        rng = np.random.default_rng(11)
        m0 = random_measure(rng, 4)
        m1 = random_measure(rng, 4)
        p = let_problem(m0, m1, "ghk")
        s = solve_let(p, TOL)
        s.sigma0 = s.sigma0.copy()
        s.sigma0[np.argmax(s.sigma0)] *= 1.1
        rep = verify_optimality(p, s, 1e-6)
        assert rep.product_support_violation > 1e-6

    def test_single_atom_sigma_closed_form(self):
        a, b, d = 1.4, 0.6, 0.8
        s = solve_let(let_problem(dirac(0.0, a), dirac(d, b), "ghk"), TOL)
        assert s.sigma0[0] == pytest.approx(np.sqrt(b / a) * np.exp(-d * d / 2), rel=1e-7)
        assert s.sigma1[0] == pytest.approx(np.sqrt(a / b) * np.exp(-d * d / 2), rel=1e-7)
        assert s.sigma0[0] * s.sigma1[0] == pytest.approx(np.exp(-d * d), rel=1e-7)

    def test_empty_row_with_finite_cell_does_not_cancel(self):
        # the zero plan of a zero-cost problem has primal value 2 (optimum 0);
        # its empty row enters the dual at a feasible finite potential, while
        # a row without any finite cell keeps +inf and its full mass
        _, _, primal, phi0, phi1, dual = _certificate(np.zeros((1, 1)), np.ones(1), np.ones(1), np.zeros((1, 1)))
        assert (primal, primal - dual) == (2.0, 2.0)
        assert np.isfinite(phi0).all() and np.isfinite(phi1).all()
        _, _, primal, phi0, _, dual = _certificate(np.zeros((2, 1)), np.ones(2), np.ones(1), np.array([[0.0], [np.inf]]))
        assert (primal, primal - dual) == (3.0, 2.0)
        assert phi0[0] == 0.0 and phi0[1] == np.inf

    def test_underflowing_atom_gets_a_feasible_potential(self):
        # ghk costs near 900 from the atom at 30: its optimal mass underflows,
        # so the plan leaves its row empty, and its potential must still be
        # dual feasible for the certificate to hold
        m0 = DiscreteMeasure([[0.0], [0.3], [30.0]], [1.0, 0.5, 0.7])
        m1 = DiscreteMeasure([[0.1], [0.5]], [0.8, 1.2])
        p = let_problem(m0, m1, "ghk")
        s = solve_let(p, TOL)
        assert s.sigma0[2] == 0.0 and np.isfinite(s.phi0).all()
        assert s.converged
        rep = verify_optimality(p, s, 1e-6)
        assert rep.ok(), rep.as_dict()

    def test_dual_feasibility_entrywise(self):
        rng = np.random.default_rng(12)
        m0 = random_measure(rng, 6)
        m1 = random_measure(rng, 6)
        p = let_problem(m0, m1, "ghk")
        s = solve_let(p, TOL)
        lhs = s.phi0[:, None] + s.phi1[None, :]
        assert np.max(lhs - p.cost / 2) <= 1e-9


class TestSolverPath:
    """The annealed dual-Newton / spanning-forest path and its telemetry."""

    def test_tiny_mass_atom_certifies(self):
        # atom 9's only cheap cell costs 12.7 (16), so its density is ~1e-6
        # (~1e-7) next to heavy atoms; leaf elimination towards a tree rooted
        # at that light atom leaves it a relative gap of 1e-9 by cancellation
        for seed, cheap in ((22, 12.7), (21, 16.0)):
            rng = np.random.default_rng(seed)
            cost = rng.uniform(0.0, 2.0, (10, 3))
            cost[9] = [cheap, 30.0, 31.0]
            m0 = DiscreteMeasure(np.arange(10.0)[:, None], rng.uniform(0.5, 2.0, 10))
            m1 = DiscreteMeasure(np.arange(3.0)[:, None], rng.uniform(0.5, 2.0, 3))
            p = LetProblem(m0, m1, cost)
            s = solve_let(p, TOL)
            assert s.converged
            assert verify_optimality(p, s, 1e-6).ok()
            assert 0 < s.sigma0[9] < 1e-5

    def test_far_atoms_keep_positive_density(self):
        # ghk costs of 130-680 give densities down to e^{-340}; every atom
        # still carries plan mass and a finite potential
        for far in (12.0, 20.0, 26.0):
            m0 = DiscreteMeasure([[0.0], [0.3], [far]], [1.0, 0.5, 0.7])
            m1 = DiscreteMeasure([[0.1], [0.5]], [0.8, 1.2])
            p = let_problem(m0, m1, "ghk")
            s = solve_let(p, TOL)
            assert s.converged and verify_optimality(p, s, 1e-6).ok()
            assert s.sigma0[2] > 0 and np.isfinite(s.phi0).all()
        # at cost 1600 a far atom's mass underflows, on either side: it counts as killed
        m0 = DiscreteMeasure([[0.0], [0.3], [0.6]], [1.0, 0.5, 0.7])
        m1 = DiscreteMeasure([[0.1], [40.0]], [0.8, 1.2])
        near = ghk_sq(m0, dirac(0.1, 0.8))
        for a, b in ((m0, m1), (m1, m0)):
            s = solve_let(let_problem(a, b, "ghk"), TOL)
            assert s.converged and s.primal_value == pytest.approx(near + 1.2, rel=1e-12)

    def test_tied_costs_cyclic_support_certifies(self):
        # lattices: many pairs of cells have (x - x') . (y - y') = 0, so their
        # costs tie and the cells where the optimal densities are tight
        # close cycles.  With the alternating weights the spanning-tree flows
        # go negative and the tied cells off the tree must carry mass.
        grid = np.array([[i, j] for i in range(3) for j in range(3)], dtype=float)
        cases = [("ghk", 0.6, 0.5, np.ones(9), 1.0), ("hk", 0.4, 0.5, np.ones(9), 1.5),
                 ("ghk", 0.3, 0.0, np.tile([1.0, 2.0], 5)[:9], 1.0)]
        for kind, scale, offset, w0, w1 in cases:
            m0 = DiscreteMeasure(scale * grid, w0)
            m1 = DiscreteMeasure(scale * (grid + offset), np.full(9, w1))
            p = let_problem(m0, m1, kind)
            s = solve_let(p, TOL)
            assert s.converged and verify_optimality(p, s, 1e-6).ok()
            tight = np.abs(np.outer(s.sigma0, s.sigma1) - np.exp(-p.cost)) <= 1e-9
            assert tight.sum() > 9 + 9 - 1  # more tight cells than a spanning tree has

    def test_every_stage_has_a_forest_plan(self):
        # 1-D grids of spacing 0.01: neighbouring cells nearly tie, so down to
        # eps = 1e-4 the spanning forest bridges trees of the optimal support
        # and some of its flows come out negative; cutting those edges leaves
        # a plan, with a finite gap, at every stage
        x, y = np.arange(-100, 101) * 0.01, np.arange(-85, 86) * 0.01
        rng = np.random.default_rng(28)
        m0 = DiscreteMeasure(x[:, None], 0.01 * (0.5 + 0.3 * np.exp(-x * x)))
        m1 = DiscreteMeasure(y[:, None], 0.01 * rng.uniform(0.5, 1.5, len(y)))
        for kind in ("ghk", "hk"):
            p = let_problem(m0, m1, kind)
            s = solve_let(p, TOL)
            assert s.converged and verify_optimality(p, s, 1e-6).ok()
            assert len(s.stats) > 1 and all(np.isfinite(gap) for _, _, gap in s.stats)

    def test_cut_trees_keep_tied_cells(self):
        # criterion-5 shape in 2-D: nu and the mollified measure lie on one
        # lattice, so costs tie exactly.  After a negative edge is cut, the
        # tied cells off the tree keep their mass again, and at the potential
        # solver's tolerance the solve certifies by eps = 1e-4 (cutting
        # without them, or not cutting, needs eps = 1e-5 or smaller here)
        from hkgeo.mollify import MollifierConfig, mollify
        from hkgeo.potentials import grid_measure_on_ball

        nu = grid_measure_on_ball(lambda q: 0.5 + 0.3 * np.exp(-np.sum(q * q, axis=1)), 1.0, 0.1, 2)
        cfg = MollifierConfig(0.4, 0.1, dim=2)
        centres = np.array([[-0.3, -0.3], [-0.3, 0.3], [0.3, -0.3], [0.3, 0.3]])
        for seed in (0, 1, 2, 4, 6):
            rng = np.random.default_rng(seed)
            mu = DiscreteMeasure(centres + rng.uniform(-0.02, 0.02, centres.shape), rng.uniform(0.3, 1.5, 4))
            m = mollify(mu, cfg)
            s = solve_let(LetProblem(nu, m, cost_matrix_sq(nu, m)), 5e-3)
            assert s.converged and s.epsilon_final >= 1e-4

    def test_newton_systems_have_min_side_unknowns(self, monkeypatch):
        from hkgeo import let

        sizes = []

        def solve(a, b):
            sizes.append(a.shape[0])
            return np.linalg.solve(a, b)

        class Forward:
            def __init__(self, target, **overrides):
                self._target = target
                self.__dict__.update(overrides)

            def __getattr__(self, name):
                return getattr(self._target, name)

        monkeypatch.setattr(let, "np", Forward(np, linalg=Forward(np.linalg, solve=solve)))
        rng = np.random.default_rng(23)
        for n0, n1 in ((7, 3), (3, 9), (12, 12), (1, 6)):
            sizes.clear()
            s = solve_let(let_problem(random_measure(rng, n0), random_measure(rng, n1), "ghk"), TOL)
            assert s.converged and sizes
            assert max(sizes) <= min(n0, n1)
            # one system per Newton step, plus at most one per stage whose
            # line search found no ascent left
            assert s.iterations <= len(sizes) <= s.iterations + len(s.stats)

    def test_stats_add_up(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            m0 = random_measure(rng, rng.integers(1, 9))
            m1 = random_measure(rng, rng.integers(1, 9))
            for kind in ("ghk", "hk"):
                s = solve_let(let_problem(m0, m1, kind), TOL)
                assert s.converged
                assert sum(steps for _, steps, _ in s.stats) == s.iterations
                eps, _, gap = s.stats[-1]
                assert gap == s.gap and eps == s.epsilon_final
                assert [e for e, _, _ in s.stats] == [10.0**-k for k in range(len(s.stats))]

    def test_unreachable_tolerance_returns_best_stage_unconverged(self):
        # no plan's gap is exactly 0 here, so none reaches tol = 1e-30
        rng = np.random.default_rng(27)
        p = let_problem(random_measure(rng, 5), random_measure(rng, 4), "hk")
        s = solve_let(p, 1e-30)
        assert not s.converged and len(s.stats) == 8
        gaps = [gap for _, _, gap in s.stats]
        assert s.gap == min(gaps) and s.epsilon_final == s.stats[int(np.argmin(gaps))][0]
        assert verify_optimality(p, s, 1e-6).ok()

    def test_peak_memory_within_guard(self):
        # the guard counts 7 n0 x n1 arrays; an unconverged solve runs every
        # stage while holding its best plan, and an eliminated atom needs a
        # live-block copy of the cost
        import tracemalloc

        rng = np.random.default_rng(0)
        points = rng.normal(0, 0.5, (100, 2))
        points[0] = [50.0, 50.0]
        m0 = DiscreteMeasure(points, rng.uniform(0.1, 2.0, 100))
        m1 = DiscreteMeasure(rng.normal(0, 0.5, (200, 2)), rng.uniform(0.1, 2.0, 200))
        tracemalloc.start()
        try:
            s = solve_let(let_problem(m0, m1, "hk"), 1e-30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not s.converged and len(s.stats) == 8
        assert peak <= 7 * 8 * 100 * 200

    def test_dense_problem_refused_before_allocation(self, monkeypatch):
        from hkgeo import measures

        rng = np.random.default_rng(25)
        m0, m1 = random_measure(rng, 300), random_measure(rng, 400)
        p = let_problem(m0, m1, "ghk")
        monkeypatch.setattr(measures, "_available_bytes", lambda: 8 * 300 * 400)
        with pytest.raises(ValueError, match="bytes"):
            solve_let(p, TOL)
        with pytest.raises(ValueError, match="LET problem"):
            let_problem(m0, m1, "ghk")


class TestConeLift:
    def test_marginals_and_cost(self):
        rng = np.random.default_rng(13)
        for kind in ("ghk", "hk"):
            m0 = random_measure(rng, 5)
            m1 = random_measure(rng, 6)
            p = let_problem(m0, m1, kind)
            s = solve_let(p, TOL)
            cp = lift_to_cone(p, s)
            h0, h1 = cp.homogeneous_marginals()
            assert h0.allclose(m0, atol=1e-8)
            assert h1.allclose(m1, atol=1e-8)
            assert cp.cone_cost() == pytest.approx(s.primal_value, abs=1e-8 * (1 + abs(s.primal_value)))

    def test_single_atom_radii(self):
        a, b, d = 0.8, 1.9, 0.5
        p = let_problem(dirac(0.0, a), dirac(d, b), "ghk")
        s = solve_let(p, TOL)
        cp = lift_to_cone(p, s)
        assert len(cp.pairs) == 1
        p0, p1, w, _ = cp.pairs[0]
        assert p0.radius == pytest.approx(1 / np.sqrt(s.sigma0[0]))
        assert p1.radius == pytest.approx(1 / np.sqrt(s.sigma1[0]))

    def test_killed_atoms_become_vertex_pairs(self):
        # far-apart single atoms under HK: plan empty, two vertex pairs
        p = let_problem(dirac(0.0, 1.0), dirac(3.0, 2.0), "hk")
        s = solve_let(p, TOL)
        cp = lift_to_cone(p, s)
        assert len(cp.pairs) == 2
        h0, h1 = cp.homogeneous_marginals()
        assert h0.mass == pytest.approx(1.0)
        assert h1.mass == pytest.approx(2.0)
        assert cp.cone_cost() == pytest.approx(3.0)


class TestLimitDiagnostics:
    def test_ladder_monotone_and_converges(self):
        rng = np.random.default_rng(14)
        n = 4
        m0 = DiscreteMeasure(rng.uniform(-1, 1, (n, 2)), rng.uniform(0.2, 1.5, n))
        w = rng.uniform(0.2, 1.5, n)
        w *= m0.mass / w.sum()
        m1 = DiscreteMeasure(rng.uniform(-1, 1, (n, 2)), w)
        tab = limit_diagnostics(m0, m1, [1, 2, 4, 8, 16, 32, 64], TOL)
        assert tab["hk_monotone"] and tab["w_monotone"]
        assert tab["hk_lambda_sq"][-1] == pytest.approx(tab["hellinger_sq"], rel=0.02)
        assert tab["w_ladder_sq"][-1] == pytest.approx(tab["wasserstein_sq"], rel=0.02)

    def test_mutually_singular_saturates_to_hellinger(self):
        a, b = 0.7, 1.3
        m0 = dirac(0.0, a)
        m1 = dirac(1.0, b)
        tab = limit_diagnostics(m0, m1, [1, 2, 4, 8], TOL)
        assert tab["hk_lambda_sq"][-1] == pytest.approx(a + b, rel=1e-9)
        assert tab["hellinger_sq"] == pytest.approx(a + b)

    def test_grid_must_increase(self):
        m = dirac(0.0, 1.0)
        with pytest.raises(ValueError):
            limit_diagnostics(m, m, [1.0, 1.0], TOL)


class TestIsometricImmersion:
    def test_hk_single_atoms_match_cone_distance(self):
        # hk_sq(a delta_x, b delta_y) equals the squared cone distance of
        # ([x, sqrt(a)], [y, sqrt(b)]) with the base distance capped at pi/2
        from hkgeo.cone import ConePoint, cone_dist

        rng = np.random.default_rng(99)
        for _ in range(100):
            a, b = rng.uniform(0.1, 5.0, 2)
            d = rng.uniform(0.0, 3.0)
            v = hk_sq(dirac(0.0, a), dirac(d, b), TOL)
            cd = cone_dist(np.pi, ConePoint([0.0], np.sqrt(a)), ConePoint([d], np.sqrt(b)), min(d, np.pi / 2))
            assert v == pytest.approx(cd**2, rel=1e-6, abs=1e-10)
