import math

import numpy as np
import pytest
from scipy.optimize import minimize

from hkgeo import _kernels, let
from hkgeo.measures import DiscreteMeasure, cost_matrix_sq, dilate, hellinger_sq, wasserstein_sq
from hkgeo.let import (
    LetProblem,
    _certificate,
    _xlogx,
    ghk_sq,
    hk_sq,
    let_problem,
    lift_to_cone,
    limit_diagnostics,
    solve_let,
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


def solve_let_exact_small(problem):
    """Optimal LET value for supports <= 3 by SLSQP on the dual, an oracle
    independent of solve_let: maximise sum w (1 - e^{-z}) subject to
    z_i + z_j <= cost_ij on finite cells; atoms with no finite cell add
    their full mass."""
    n0, n1 = problem.cost.shape
    if n0 > 3 or n1 > 3:
        raise ValueError("exact oracle is for supports <= 3")
    finite = np.isfinite(problem.cost)
    ii, jj = np.nonzero(finite)
    a = np.zeros((len(ii), n0 + n1))
    a[np.arange(len(ii)), ii] = a[np.arange(len(ii)), n0 + jj] = 1.0
    live = np.concatenate([finite.any(axis=1), finite.any(axis=0)])
    w = np.concatenate([problem.mu0.weights, problem.mu1.weights])
    a, wl = a[:, live], w[live]
    res = minimize(
        lambda z: wl @ np.expm1(-z),
        np.zeros(len(wl)),
        jac=lambda z: -wl * np.exp(-z),
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda z: problem.cost[ii, jj] - a @ z, "jac": lambda z: -a}],
        options={"ftol": 1e-16, "maxiter": 1000},
    ) if live.any() else None
    return float(w[~live].sum() - (res.fun if res else 0.0))


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

    def test_xlogx_matches_scipy_bit_for_bit(self):
        # the certificate's s log s must equal scipy.special.xlogy(s, s), which
        # it replaces; np.log differs from it by one ulp on some inputs
        from scipy.special import xlogy

        rng = np.random.default_rng(0)
        near_one = 1.0 + rng.standard_normal(10**5) * 10.0 ** rng.uniform(-12, -1, 10**5)
        edges = [0.0, 5e-324, np.finfo(float).tiny, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1e300, np.inf]
        s = np.concatenate([edges, near_one])
        assert np.array_equal(_xlogx(s), xlogy(s, s))

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


def _logaddexp(a, b):
    m = max(a, b)
    return m if m == -math.inf else m + math.log1p(math.exp(-abs(a - b)))


def ref_forest_plan(gamma, w0, w1, cost):
    """Plain-Python reference of the forest plan, one atom or cell at a time:
    the support threshold, Prim from the heaviest free atom, potentials
    f_i + g_j = cost_ij on the edges, one balancing t per tree, leaf
    elimination, the tied cells off the tree, and the cut rounds.  Returns
    the plan, the number of cut rounds and the number of tied cells kept."""
    from hkgeo.let import FLOW_RTOL, SUPPORT_RTOL, TIE_RTOL

    n0, n1 = len(w0), len(w1)
    n = n0 + n1
    g, c = gamma.tolist(), cost.tolist()

    def cell(v, u):  # the cell joining a row atom and a column atom
        return (v, u - n0) if v < n0 else (u, v - n0)

    # numpy's sums, not math.fsum: lattices tie atom masses exactly, and a
    # differently rounded sum would break those ties the other way
    mass = gamma.sum(axis=1).tolist() + gamma.sum(axis=0).tolist()
    for i in range(n0):
        for j in range(n1):
            if g[i][j] <= SUPPORT_RTOL * min(mass[i], mass[n0 + j]):
                g[i][j] = 0.0
    key, parent, pot, free, order = [0.0] * n, [-1] * n, [0.0] * n, [True] * n, []
    for _ in range(n):
        cand = [v for v in range(n) if free[v]]
        v = max(cand, key=lambda u: key[u])  # the first of the largest, as argmax
        if key[v] > 0.0:
            i, j = cell(v, parent[v])
            pot[v] = c[i][j] - pot[parent[v]]
        else:
            v = max(cand, key=lambda u: mass[u])
        free[v] = False
        order.append(v)
        for u in (range(n0, n) if v < n0 else range(n0)):
            i, j = cell(v, u)
            if free[u] and g[i][j] > key[u]:
                key[u], parent[u] = g[i][j], v
    logw = [math.log(x) - p for x, p in zip(list(w0) + list(w1), pot)]
    kids = [v for v in order if parent[v] >= 0]
    cut_rounds = 0
    while True:
        label, trees = [0] * n, 0
        for v in order:
            if parent[v] < 0:
                label[v], trees = trees, trees + 1
            else:
                label[v] = label[parent[v]]
        lse = [[-math.inf] * trees, [-math.inf] * trees]
        for v in range(n):
            side = int(v >= n0)
            lse[side][label[v]] = _logaddexp(lse[side][label[v]], logw[v])
        t = [0.5 * (lse[0][label[v]] - lse[1][label[v]]) * (1 if v < n0 else -1) for v in range(n)]
        exact = [math.exp(logw[v] - t[v]) for v in range(n)]
        floor = -FLOW_RTOL * max(exact)

        def flows_for(target):
            acc, flows = list(target), {}
            for v in reversed(kids):
                flows[v] = acc[v]
                acc[parent[v]] -= acc[v]
            return flows

        flows, off = flows_for(exact), []
        if min(flows.values(), default=0.0) < floor:
            held = list(exact)
            for i in range(n0):
                for j in range(n1):
                    slack = (pot[i] + t[i]) + (pot[n0 + j] + t[n0 + j]) - c[i][j]
                    if (g[i][j] > 0 and abs(slack) <= TIE_RTOL * (1.0 + c[i][j])
                            and parent[i] != n0 + j and parent[n0 + j] != i):
                        off.append((i, j))
                        held[i] -= g[i][j]
                        held[n0 + j] -= g[i][j]
            flows = flows_for(held)
        cut = [v for v in kids if flows[v] < floor]
        if not cut:
            break
        cut_rounds += 1
        for v in cut:
            parent[v] = -1
        kids = [v for v in kids if parent[v] >= 0]
    plan = np.zeros((n0, n1))
    for i, j in off:
        plan[i, j] = g[i][j]
    for v in kids:
        plan[cell(v, parent[v])] = max(flows[v], 0.0)
    return plan, cut_rounds, len(off)


def ref_dual_newton(f, g, w0, w1, cost, eps):
    """Reference for let._dual_newton: the same stage with a fresh plan and
    fresh temporaries at every step.  Moves f and g in place; returns the
    steps taken and the plan."""
    gamma = f[:, None] + g[None, :]
    gamma -= cost
    gamma /= eps
    gamma[gamma < _kernels.EXP_FLOOR] = -np.inf
    with np.errstate(over="ignore"):
        np.exp(gamma, out=gamma)
    t = 1.0
    for step in range(let.NEWTON_MAX_STEPS):
        a, b = w0 * np.exp(-f), w1 * np.exp(-g)
        r, s = gamma.sum(axis=1), gamma.sum(axis=0)
        grad_f, grad_g = a - r, b - s
        if (np.abs(grad_f) <= let.NEWTON_RTOL * a).all() and (np.abs(grad_g) <= let.NEWTON_RTOL * b).all():
            return step, gamma
        d0, d1 = np.maximum(a + r / eps, let.TINY), np.maximum(b + s / eps, let.TINY)
        if len(g) <= len(f):
            df, dg = ref_schur_step(gamma, d0, d1, grad_f, grad_g, eps)
        else:
            dg, df = ref_schur_step(gamma.T, d1, d0, grad_g, grad_f, eps)
        slope = float(grad_f @ df + grad_g @ dg)
        t = min(1.0, 2.0 * t)
        while True:
            change = np.add.outer(df * (t / eps), dg * (t / eps))
            with np.errstate(over="ignore"):
                np.expm1(np.minimum(change, 700.0, out=change), out=change)
                change *= gamma
                rise = a @ -np.expm1(-t * df) + b @ -np.expm1(-t * dg) - eps * change.sum()
            if rise >= 1e-4 * t * slope:
                break
            t *= 0.5
            if t < 1e-10:
                return step, gamma
        f += t * df
        g += t * dg
        gamma += change
    return let.NEWTON_MAX_STEPS, gamma


def ref_schur_step(gamma, d_out, d_in, grad_out, grad_in, eps):
    scale = eps * d_out[:, None]
    gamma = np.where(gamma < let.SCHUR_FLOOR * scale, 0.0, gamma)
    p = gamma / scale
    schur = gamma.T @ p
    schur /= -eps
    schur.ravel()[:: len(d_in) + 1] += d_in
    step_in = np.linalg.solve(schur, grad_in - p.T @ grad_out)
    return (grad_out - gamma @ step_in / eps) / d_out, step_in


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

    def test_forest_matches_plain_python_reference(self, monkeypatch):
        # every stage's entropic plan of random problems with 1-40 atoms, of
        # the tied 3 x 3 lattice and of a 100 x 200 problem goes to both
        from hkgeo import let

        plans = []

        def record(gamma, w0, w1, cost):
            plans.append((gamma.copy(), w0, w1, cost))
            return forest(gamma, w0, w1, cost)

        forest = let._forest_plan
        monkeypatch.setattr(let, "_forest_plan", record)
        rng = np.random.default_rng(31)
        for k in range(16):
            n0, n1 = rng.integers(1, 41, 2)
            solve_let(let_problem(random_measure(rng, n0), random_measure(rng, n1), ("ghk", "hk")[k % 2]), TOL)
        grid = np.array([[i, j] for i in range(3) for j in range(3)], dtype=float)
        m0 = DiscreteMeasure(0.3 * grid, np.tile([1.0, 2.0], 5)[:9])
        solve_let(let_problem(m0, DiscreteMeasure(0.3 * grid, np.ones(9)), "ghk"), TOL)
        solve_let(let_problem(random_measure(rng, 100, scale=1.2), random_measure(rng, 200, scale=1.2), "ghk"), TOL)
        cuts = tied = 0
        for gamma, w0, w1, cost in plans:
            ref, ref_cuts, ref_tied = ref_forest_plan(gamma, w0, w1, cost)
            plan = forest(gamma.copy(), w0, w1, cost)
            atol = 1e-12 * ref.max(initial=0.0)  # leaf elimination leaves rounding on the root's edges
            assert np.array_equal(plan > atol, ref > atol)
            assert np.allclose(plan, ref, rtol=1e-9, atol=atol)
            cuts, tied = cuts + ref_cuts, tied + ref_tied
        assert len(plans) > 60 and cuts > 0 and tied > 0

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

    def test_schur_floor_keeps_the_step(self):
        # a plan spanning 1e-320 to 1: the cells whose row share is below
        # SCHUR_FLOOR, about two thirds here, leave the step where the
        # unfloored formula puts it
        from hkgeo.let import SCHUR_FLOOR, _schur_step

        rng = np.random.default_rng(29)
        n0, n1, eps = 40, 25, 1e-3
        gamma = 10.0 ** rng.uniform(-320, 0, (n0, n1))
        d_out = rng.uniform(0.1, 2.0, n0) + gamma.sum(axis=1) / eps
        d_in = rng.uniform(0.1, 2.0, n1) + gamma.sum(axis=0) / eps
        grad_out, grad_in = rng.normal(size=n0), rng.normal(size=n1)
        assert (gamma < SCHUR_FLOOR * eps * d_out[:, None]).mean() > 0.5
        scratch = np.empty_like(gamma), np.empty_like(gamma), np.empty(gamma.shape, dtype=bool), np.empty((n1, n1))
        step_out, step_in = _schur_step(gamma, d_out, d_in, grad_out, grad_in, eps, scratch)
        p = gamma / (eps * d_out[:, None])
        ref_in = np.linalg.solve(np.diag(d_in) - gamma.T @ p / eps, grad_in - p.T @ grad_out)
        ref_out = (grad_out - gamma @ ref_in / eps) / d_out
        assert np.allclose(step_in, ref_in, rtol=1e-14, atol=0)
        assert np.allclose(step_out, ref_out, rtol=1e-14, atol=0)

    def test_newton_stages_match_the_allocating_reference(self):
        # every stage of the annealing loop, on both Schur orientations, an
        # hk pair with forbidden cells and the 1-D criterion-5 grid pair:
        # steps, potentials and plan are bit for bit the reference's
        from hkgeo.mollify import MollifierConfig, mollify
        from hkgeo.potentials import grid_measure_on_ball

        rng = np.random.default_rng(31)
        m0, m1 = random_measure(rng, 100, scale=1.2), random_measure(rng, 200, scale=1.2)
        hk = let_problem(random_measure(rng, 40, scale=1.5), random_measure(rng, 60, scale=1.5), "hk")
        assert np.isinf(hk.cost).any()
        nu = grid_measure_on_ball(lambda q: 0.5 + 0.3 * np.exp(-np.sum(q * q, axis=1)), 1.0, 0.01, 1)
        mu = DiscreteMeasure(rng.normal(0, 1.0, (4, 1)), rng.uniform(0.3, 1.5, 4))
        m = mollify(mu, MollifierConfig(0.4, 0.01, dim=1))
        grid = LetProblem(nu, m, cost_matrix_sq(nu, m))
        for p in (let_problem(m0, m1, "ghk"), let_problem(m1, m0, "ghk"), hk, grid):
            live = np.ix_(np.isfinite(p.cost).any(axis=1), np.isfinite(p.cost).any(axis=0))
            cost, w0, w1 = p.cost[live], p.mu0.weights[live[0].ravel()], p.mu1.weights[live[1].ravel()]
            f, g = np.zeros(len(w0)), np.zeros(len(w1))
            gamma, total = np.empty(cost.shape), 0
            for eps in let.EPS_STAGES:
                _kernels.scaling_sweep(f, g, np.log(w0), np.log(w1), cost, eps, 1, 0.0)
                ref_f, ref_g = f.copy(), g.copy()
                ref_steps, ref_plan = ref_dual_newton(ref_f, ref_g, w0, w1, cost, eps)
                steps = let._dual_newton(f, g, w0, w1, cost, eps, gamma)
                assert steps == ref_steps
                assert np.array_equal(f, ref_f) and np.array_equal(g, ref_g)
                assert np.array_equal(gamma, ref_plan)
                total += steps
            assert total > len(let.EPS_STAGES)

    def test_floors_leave_solves_identical(self, monkeypatch):
        # the exponent floor and the Schur floor drop up to thousands of cells
        # per Newton step on these problems, and no output moves
        from hkgeo import _kernels, let
        from hkgeo.mollify import MollifierConfig, mollify
        from hkgeo.potentials import grid_measure_on_ball

        rng = np.random.default_rng(30)
        m0, m1 = random_measure(rng, 100, scale=1.2), random_measure(rng, 200, scale=1.2)
        problems = [(let_problem(m0, m1, kind), TOL) for kind in ("ghk", "hk")]
        nu = grid_measure_on_ball(lambda q: 0.5 + 0.3 * np.exp(-np.sum(q * q, axis=1)), 1.0, 0.01, 1)
        rng = np.random.default_rng(106)
        mu = DiscreteMeasure(rng.normal(0, 1.0, (4, 1)), rng.uniform(0.3, 1.5, 4))
        m = mollify(mu, MollifierConfig(0.4, 0.01, dim=1))
        problems.append((LetProblem(nu, m, cost_matrix_sq(nu, m)), 5e-3))
        floored = [solve_let(p, tol) for p, tol in problems]
        monkeypatch.setattr(_kernels, "EXP_FLOOR", -np.inf)
        monkeypatch.setattr(let, "SCHUR_FLOOR", 0.0)
        for (p, tol), s in zip(problems, floored):
            u = solve_let(p, tol)
            assert u.stats == s.stats
            assert (u.primal_value, u.dual_value, u.gap) == (s.primal_value, s.dual_value, s.gap)
            for name in ("plan", "sigma0", "sigma1", "phi0", "phi1"):
                assert np.array_equal(getattr(u, name), getattr(s, name))

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


def ref_lift_rows(problem, sol):
    """Per-cell reference for lift_to_cone: one (base0, radius0, base1,
    radius1, weight, exp_half_cost) tuple per pair, in the lift's row order."""
    mu0, mu1, gamma = problem.mu0, problem.mu1, sol.plan
    rows = []
    for i, j in np.argwhere(gamma > 0):
        if sol.sigma0[i] <= 0 or sol.sigma1[j] <= 0:
            raise ValueError(f"zero marginal density on charged cell ({i}, {j})")
        rows.append((
            mu0.points[i], float(1.0 / np.sqrt(sol.sigma0[i])),
            mu1.points[j], float(1.0 / np.sqrt(sol.sigma1[j])),
            float(gamma[i, j]), float(np.exp(-0.5 * min(problem.cost[i, j], 1400.0))),
        ))
    vertex = np.zeros(mu0.dim)
    for i in np.flatnonzero(sol.sigma0 <= 0):
        rows.append((mu0.points[i], 1.0, vertex, 0.0, float(mu0.weights[i]), 0.0))
    for j in np.flatnonzero(sol.sigma1 <= 0):
        rows.append((vertex, 0.0, mu1.points[j], 1.0, float(mu1.weights[j]), 0.0))
    return rows


def ref_marginals_and_cost(rows, dim):
    pts0, w0, pts1, w1 = [], [], [], []
    total = 0.0
    for b0, r, b1, s, w, eh in rows:
        if r > 0:
            pts0.append(b0)
            w0.append(w * r**2)
        if s > 0:
            pts1.append(b1)
            w1.append(w * s**2)
        total += w * (r * r + s * s - 2.0 * r * s * eh)
    zero = np.empty((0, dim))
    m0 = DiscreteMeasure(np.array(pts0) if pts0 else zero, w0, dim=dim)
    m1 = DiscreteMeasure(np.array(pts1) if pts1 else zero, w1, dim=dim)
    return m0, m1, total


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

    def test_matches_per_pair_reference(self):
        rng = np.random.default_rng(31)
        far = lambda x: DiscreteMeasure([[x, 0.0]], [rng.uniform(0.1, 2.0)])
        problems = [(DiscreteMeasure([[0.0, 0.0]], [1.0]), DiscreteMeasure([[3.0, 0.0]], [2.0]), "hk")]
        for _ in range(4):
            m0, m1 = random_measure(rng, rng.integers(1, 9)), random_measure(rng, rng.integers(1, 9))
            problems += [(m0, m1, "ghk"), (m0, m1, "hk")]
            # atoms 10 away from every atom of the other side are killed under hk
            k0, k1 = far(10.0), far(-10.0)
            problems.append((DiscreteMeasure(np.vstack([m0.points, k0.points]), np.r_[m0.weights, k0.weights]),
                             DiscreteMeasure(np.vstack([m1.points, k1.points]), np.r_[m1.weights, k1.weights]), "hk"))
        fields = ("base0", "radius0", "base1", "radius1", "weight", "exp_half_cost")
        n_vertex = 0
        for m0, m1, kind in problems:
            p = let_problem(m0, m1, kind)
            s = solve_let(p, TOL)
            cp = lift_to_cone(p, s)
            rows = ref_lift_rows(p, s)
            for k, name in enumerate(fields):
                want = np.array([row[k] for row in rows])
                if name.startswith("base"):
                    want = want.reshape(-1, 2)
                got = getattr(cp, name)
                assert got.shape == want.shape and np.array_equal(got, want), name
            n_vertex += int(np.sum((cp.radius0 == 0) | (cp.radius1 == 0)))
            r0, r1, cost = ref_marginals_and_cost(rows, 2)
            for got, want in zip(cp.homogeneous_marginals(), (r0, r1)):
                assert np.array_equal(got.points, want.points) and np.array_equal(got.weights, want.weights)
            assert cp.cone_cost() == pytest.approx(cost, rel=1e-14, abs=0.0)
        assert n_vertex >= 10

    def test_zero_density_on_charged_cell_refused(self):
        rng = np.random.default_rng(32)
        p = let_problem(random_measure(rng, 3), random_measure(rng, 4), "ghk")
        s = solve_let(p, TOL)
        i = 1
        s.sigma0 = s.sigma0.copy()
        s.sigma0[i] = 0.0
        j = np.flatnonzero(s.plan[i] > 0)[0]
        with pytest.raises(ValueError, match=rf"zero marginal density on charged cell \({i}, {j}\)"):
            lift_to_cone(p, s)

    def test_single_atom_radii(self):
        a, b, d = 0.8, 1.9, 0.5
        p = let_problem(dirac(0.0, a), dirac(d, b), "ghk")
        s = solve_let(p, TOL)
        cp = lift_to_cone(p, s)
        assert len(cp.weight) == 1
        assert cp.radius0[0] == pytest.approx(1 / np.sqrt(s.sigma0[0]))
        assert cp.radius1[0] == pytest.approx(1 / np.sqrt(s.sigma1[0]))

    def test_killed_atoms_become_vertex_pairs(self):
        # far-apart single atoms under HK: plan empty, two vertex pairs
        p = let_problem(dirac(0.0, 1.0), dirac(3.0, 2.0), "hk")
        s = solve_let(p, TOL)
        cp = lift_to_cone(p, s)
        assert len(cp.weight) == 2
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
        from hkgeo.cone import cone_dist

        rng = np.random.default_rng(99)
        for _ in range(100):
            a, b = rng.uniform(0.1, 5.0, 2)
            d = rng.uniform(0.0, 3.0)
            v = hk_sq(dirac(0.0, a), dirac(d, b), TOL)
            cd = cone_dist(np.pi, np.sqrt(a), np.sqrt(b), min(d, np.pi / 2))
            assert v == pytest.approx(cd**2, rel=1e-6, abs=1e-10)
