"""Logarithmic entropy-transport solver on discrete supports.

Solves  min_gamma  sum_i int F(sigma_i) dmu_i + int cost dgamma,
F(s) = s log s - s + 1, by annealed log-domain scaling iterations followed
by a damped-Newton polish of the unregularized convex primal on the active
support.  Every solution carries a duality certificate (primal and dual
values of the *unregularized* problem and their gap).
"""

import numpy as np

from . import _kernels
from .cone import ConePoint, let_cost
from .measures import DiscreteMeasure, cost_matrix_sq, hellinger_sq, wasserstein_sq, dilate

__all__ = [
    "LetProblem",
    "LetSolution",
    "let_problem",
    "solve_let",
    "solve_let_exact_small",
    "ghk_sq",
    "hk_sq",
    "verify_optimality",
    "lift_to_cone",
    "ConePlan",
    "limit_diagnostics",
]


class LetProblem:
    """Two discrete measures and a nonnegative (possibly +inf) cost matrix."""

    __slots__ = ("mu0", "mu1", "cost")

    def __init__(self, mu0, mu1, cost):
        cost = np.asarray(cost, dtype=float)
        if cost.shape != (len(mu0), len(mu1)):
            raise ValueError(f"cost shape {cost.shape} != ({len(mu0)}, {len(mu1)})")
        if np.any(np.isnan(cost)):
            raise ValueError("NaN in cost matrix")
        if np.any(cost < 0):
            raise ValueError("cost entries must be >= 0")
        self.mu0 = mu0
        self.mu1 = mu1
        self.cost = cost


class LetSolution:
    """Optimal plan with marginal densities, dual potentials and certificate."""

    __slots__ = (
        "plan",
        "sigma0",
        "sigma1",
        "phi0",
        "phi1",
        "primal_value",
        "dual_value",
        "gap",
        "iterations",
        "epsilon_final",
        "converged",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def __repr__(self):
        return (
            f"LetSolution(value={self.primal_value:.9g}, gap={self.gap:.3g}, "
            f"iters={self.iterations}, eps={self.epsilon_final:.2g}, "
            f"converged={self.converged})"
        )


def let_problem(mu0, mu1, kind):
    """Build the LET problem for the GHK ('ghk') or HK ('hk') distance."""
    if mu0.dim != mu1.dim:
        raise ValueError("dimension mismatch")
    d = np.sqrt(np.maximum(cost_matrix_sq(mu0, mu1), 0.0))
    return LetProblem(mu0, mu1, let_cost(kind, d))


def _entropy_term(sigma, w):
    # sum w * (sigma log sigma - sigma + 1), with F(0) = 1
    s = np.asarray(sigma)
    out = np.ones_like(s)
    pos = s > 0
    out[pos] = s[pos] * np.log(s[pos]) - s[pos] + 1.0
    return float(np.sum(out * w))


def _project_duals(sigma0, sigma1, cost):
    """phi_i = -1/2 log sigma_i (+inf on killed atoms), with phi1 replaced by
    its half-cost transform so that phi0 (+) phi1 <= cost/2 holds exactly."""
    with np.errstate(divide="ignore"):
        phi0 = np.where(sigma0 > 0, -0.5 * np.log(np.maximum(sigma0, 1e-300)), np.inf)
    n1 = len(sigma1)
    phi1 = np.full(n1, np.inf)
    finite0 = np.isfinite(phi0)
    if np.any(finite0):
        cols = 0.5 * cost[finite0, :] - phi0[finite0, None]
        phi1 = np.min(cols, axis=0)
        phi1[~np.isfinite(phi1)] = np.inf
    return phi0, phi1


def _dual_value(phi0, phi1, w0, w1):
    def term(phi, w):
        out = np.empty_like(phi)
        fin = np.isfinite(phi)
        out[fin] = 1.0 - np.exp(-2.0 * phi[fin])
        out[~fin] = np.where(phi[~fin] > 0, 1.0, -np.inf)
        return float(np.sum(out * w))

    return term(phi0, w0) + term(phi1, w1)


def _certificate(gamma, w0, w1, cost):
    """Marginal densities, primal value, projected duals and dual value of
    the unregularized problem at the plan gamma (the gap is primal - dual)."""
    sigma0 = gamma.sum(axis=1) / w0
    sigma1 = gamma.sum(axis=0) / w1
    transport = float(np.sum(gamma * np.where(np.isfinite(cost), cost, 0.0)))
    primal = _entropy_term(sigma0, w0) + _entropy_term(sigma1, w1) + transport
    phi0, phi1 = _project_duals(sigma0, sigma1, cost)
    return sigma0, sigma1, primal, phi0, phi1, _dual_value(phi0, phi1, w0, w1)


def _seed_value(i, j, cost, w0, w1, row_exc, col_exc):
    """Exact 1-D optimal mass for cell (i, j) holding the rest of the plan
    fixed: the positive root of (row_exc + g)(col_exc + g) = w0 w1 e^{-cost},
    or 0 when the stationarity is already met without the cell."""
    k = w0[i] * w1[j] * np.exp(-min(cost[i, j], 1400.0))
    rs = row_exc * col_exc
    if k <= rs:
        return 0.0
    return 2.0 * (k - rs) / (row_exc + col_exc + np.sqrt((row_exc - col_exc) ** 2 + 4.0 * k))


def _restore_coverage(support, gamma, w0, w1, cost, finite):
    """Give every uncovered row/column its cheapest finite-cost cell, seeded
    at a near-stationary value (sigma_i = 0 is optimal only for rows whose
    cost is +inf everywhere, and those are eliminated before the solve)."""
    masked = np.where(finite, cost, np.inf)
    for i in np.flatnonzero(~support.any(axis=1)):
        j = int(np.argmin(masked[i]))
        if finite[i, j]:
            support[i, j] = True
            gamma[i, j] = _seed_value(
                i, j, cost, w0, w1, 0.0, float(gamma[:, j].sum())
            )
    for j in np.flatnonzero(~support.any(axis=0)):
        i = int(np.argmin(masked[:, j]))
        if finite[i, j]:
            support[i, j] = True
            gamma[i, j] = _seed_value(
                i, j, cost, w0, w1, float(gamma[i, :].sum()), 0.0
            )


def _newton_polish(gamma, w0, w1, cost, gtol=1e-12, max_rounds=40, max_steps=None):
    """Active-set damped Newton on the unregularized primal.

    The energy depends on gamma only through its marginals plus a linear
    cost term, so the Hessian is singular along circulations of the support
    graph; steps are capped at the boundary gamma >= 0, cells clamped at
    zero with nonnegative gradient leave the working set (boundary KKT), and
    off-support cells violating sigma0*sigma1 >= e^{-cost} are re-added once
    the working set is stationary.  Cells whose optimal mass sits below
    floating-point noise (sigma tiny but positive, e.g. the cheapest cell of
    an almost-fully-killed atom) are pinned at their closed-form value
    rather than fed to Newton, so every atom keeps a positive marginal
    density and a finite dual potential.
    """
    n0, n1 = gamma.shape
    finite = np.isfinite(cost)
    scale = gamma.max()
    if scale <= 0:
        return gamma
    support = (gamma > 1e-7 * scale) & finite
    _restore_coverage(support, gamma, w0, w1, cost, finite)
    gamma[~support] = 0.0
    if support.sum() > 600:
        # dense Newton no longer pays off; keep the entropic plan
        return gamma
    frozen_rel = 1e-13
    if max_steps is None:
        max_steps = 150 if support.sum() <= 150 else 50

    for _ in range(max_rounds):
        idx = np.argwhere(support)
        ii, jj = idx[:, 0], idx[:, 1]
        g = gamma[ii, jj].copy()
        c = cost[ii, jj]
        free = g > frozen_rel * scale
        # re-seed sub-noise cells at their exact 1-D optimum; those still
        # above the noise floor go to Newton, the rest stay pinned
        if np.any(~free):
            row_sums = gamma.sum(axis=1)
            col_sums = gamma.sum(axis=0)
            for k in np.flatnonzero(~free):
                i, j = ii[k], jj[k]
                g[k] = _seed_value(
                    i, j, cost, w0, w1, row_sums[i] - gamma[i, j], col_sums[j] - gamma[i, j]
                )
                if g[k] > frozen_rel * scale:
                    free[k] = True
        fi = np.flatnonzero(free)
        stationary = fi.size == 0
        for _ in range(max_steps):
            if fi.size == 0:
                stationary = True
                break
            r = np.zeros(n0)
            s = np.zeros(n1)
            np.add.at(r, ii, g)
            np.add.at(s, jj, g)
            grad = np.log(r[ii[fi]] / w0[ii[fi]]) + np.log(s[jj[fi]] / w1[jj[fi]]) + c[fi]
            at_zero = g[fi] == 0.0
            moving = ~(at_zero & (grad > 0.0))
            boundary_ok = np.all(grad[~moving] >= -1e-10) if np.any(~moving) else True
            if not np.any(moving):
                stationary = boundary_ok
                break
            if np.max(np.abs(grad[moving])) < gtol and boundary_ok:
                stationary = True
                break
            a = fi[moving]
            ga = g[a]
            gr = grad[moving]
            m = a.size
            h = (ii[a][:, None] == ii[a][None, :]) / r[ii[a]][:, None]
            h += (jj[a][:, None] == jj[a][None, :]) / s[jj[a]][:, None]
            h[np.diag_indices(m)] *= 1.0 + 1e-12
            try:
                step = np.linalg.solve(h, -gr)
            except np.linalg.LinAlgError:
                step = -gr
            slope = float(gr @ step)
            if slope >= 0:
                step = -gr
                slope = -float(gr @ gr)
            # h is singular along circulations; keep the step scale bounded
            gs = max(float(ga.max()), frozen_rel * scale, 1e-300)
            norm = float(np.max(np.abs(step)))
            if norm > 1e3 * gs:
                fac = 1e3 * gs / norm
                step *= fac
                slope *= fac
            neg = step < 0
            t_cap = np.inf
            if np.any(neg):
                pos = ga[neg] > 0
                if np.any(pos):
                    t_cap = float(np.min(-ga[neg][pos] / step[neg][pos]))
            # keep every row/column sum strictly positive (the entropy gradient
            # is -inf at an empty marginal; emptied atoms are pinned later)
            dr = np.zeros(n0)
            ds = np.zeros(n1)
            np.add.at(dr, ii[a], step)
            np.add.at(ds, jj[a], step)
            for sums, dsums in ((r, dr), (s, ds)):
                shrink = dsums < 0
                if np.any(shrink):
                    t_cap = min(t_cap, 0.995 * float(np.min(-sums[shrink] / dsums[shrink])))
            t = min(1.0, t_cap)
            e0 = _support_energy(g, ii, jj, c, w0, w1, n0, n1)
            g_try = g.copy()
            accepted = False
            while t > 1e-14:
                g_try[a] = np.maximum(ga + t * step, 0.0)
                if _support_energy(g_try, ii, jj, c, w0, w1, n0, n1) <= e0 + 1e-4 * t * slope:
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                break
            g_new = np.maximum(ga + t * step, 0.0)
            g_new[g_new <= 1e-16 * gs] = 0.0
            g[a] = g_new
        gamma[:] = 0.0
        gamma[ii, jj] = g
        if not stationary:
            break
        changed = False
        zero_cells = support & (gamma == 0.0)
        if np.any(zero_cells):
            support &= gamma > 0.0
            _restore_coverage(support, gamma, w0, w1, cost, finite)
            changed = True
        # refresh pinned cells against the post-Newton marginal sums
        pinned = support & (gamma > 0.0) & (gamma <= frozen_rel * scale)
        if np.any(pinned):
            row_sums = gamma.sum(axis=1)
            col_sums = gamma.sum(axis=0)
            for i, j in np.argwhere(pinned):
                new = _seed_value(
                    i, j, cost, w0, w1, row_sums[i] - gamma[i, j], col_sums[j] - gamma[i, j]
                )
                if abs(new - gamma[i, j]) > 1e-9 * max(new, gamma[i, j], 1e-300):
                    changed = True
                gamma[i, j] = new
                if new == 0.0:
                    support[i, j] = False
        # KKT screening over inactive finite-cost cells
        r = np.maximum(gamma.sum(axis=1), 1e-300)
        s = np.maximum(gamma.sum(axis=0), 1e-300)
        viol = -(np.log(r / w0)[:, None] + np.log(s / w1)[None, :] + np.where(finite, cost, np.inf))
        viol[support] = -np.inf
        worst = viol.max()
        if worst > 1e-10:
            row_sums = gamma.sum(axis=1)
            col_sums = gamma.sum(axis=0)
            for i, j in np.argwhere(viol >= max(1e-10, 0.5 * worst)):
                support[i, j] = True
                gamma[i, j] = max(
                    _seed_value(i, j, cost, w0, w1, row_sums[i], col_sums[j]),
                    2 * frozen_rel * scale,
                )
            changed = True
        if not changed:
            break
    return gamma


def _support_energy(g, ii, jj, c, w0, w1, n0, n1):
    r = np.zeros(n0)
    s = np.zeros(n1)
    np.add.at(r, ii, g)
    np.add.at(s, jj, g)
    return float(np.sum(g * c)) + _entropy_term(r / w0, w0) + _entropy_term(s / w1, w1)


DEFAULT_EPS_START = 1.0
DEFAULT_EPS_FINAL = 1e-3
DEFAULT_EPS_FACTOR = 0.7
EPS_FLOOR = 1e-7


def solve_let(problem, tol=1e-9, max_stage_iters=350):
    """Solve the LET problem to duality gap <= tol * (1 + |primal|).

    Annealed log-domain scaling (eps: 1.0 -> 1e-3, factor 0.7) seeds a
    damped-Newton polish of the exact primal; the annealing continues below
    1e-3 only if the certified gap still exceeds the tolerance.  Rows and
    columns whose cost is +inf everywhere are eliminated first (such atoms
    contribute their full mass, F(0) = 1).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    mu0, mu1, cost = problem.mu0, problem.mu1, problem.cost
    n0, n1 = len(mu0), len(mu1)
    w0, w1 = mu0.weights, mu1.weights
    plan = np.zeros((n0, n1))

    finite = np.isfinite(cost)
    live0 = finite.any(axis=1) if n1 > 0 else np.zeros(n0, dtype=bool)
    live1 = finite.any(axis=0) if n0 > 0 else np.zeros(n1, dtype=bool)

    iterations = 0
    eps = DEFAULT_EPS_FINAL
    if live0.any() and live1.any():
        sub_cost = cost[np.ix_(live0, live1)]
        sw0, sw1 = w0[live0], w1[live1]
        logw0, logw1 = np.log(sw0), np.log(sw1)
        f = np.zeros(len(sw0))
        g = np.zeros(len(sw1))

        eps = DEFAULT_EPS_START
        best = None
        best_gap = np.inf
        while True:
            it, _ = _kernels.scaling_sweep(
                f, g, logw0, logw1, sub_cost, eps, max_stage_iters, max(1e-12, 1e-4 * eps)
            )
            iterations += it
            if eps <= DEFAULT_EPS_FINAL * (1 + 1e-12):
                # recover the plan, polish it on the exact primal, certify
                with np.errstate(over="ignore"):
                    gamma = np.exp(
                        np.minimum((f[:, None] + g[None, :] - sub_cost) / eps, 700.0)
                    )
                gamma[~np.isfinite(sub_cost)] = 0.0
                gamma = _newton_polish(gamma, sw0, sw1, sub_cost)
                _, _, p, _, _, d = _certificate(gamma, sw0, sw1, sub_cost)
                gap = p - d
                if gap < best_gap:
                    best = (gamma.copy(), eps)
                    best_gap = gap
                if best_gap <= tol * (1.0 + abs(p)):
                    break
            if eps <= EPS_FLOOR * (1 + 1e-12):
                break
            eps = max(eps * DEFAULT_EPS_FACTOR, EPS_FLOOR)
        gamma, eps = best
        plan[np.ix_(live0, live1)] = gamma

    sigma0, sigma1, primal, phi0, phi1, dual = _certificate(plan, w0, w1, cost)
    gap = primal - dual
    converged = gap <= tol * (1.0 + abs(primal)) + 1e-15
    return LetSolution(
        plan=plan,
        sigma0=sigma0,
        sigma1=sigma1,
        phi0=phi0,
        phi1=phi1,
        primal_value=primal,
        dual_value=dual,
        gap=gap,
        iterations=iterations,
        epsilon_final=eps,
        converged=converged,
    )


def solve_let_exact_small(problem, n_newton=200):
    """Damped-Newton minimization of the convex primal over all cells; exact
    oracle for supports <= 3 (kept dense, all cells active from the start)."""
    mu0, mu1, cost = problem.mu0, problem.mu1, problem.cost
    n0, n1 = len(mu0), len(mu1)
    if n0 > 3 or n1 > 3:
        raise ValueError("exact fallback is for supports <= 3")
    if n0 == 0 or n1 == 0:
        return solve_let(problem)
    w0, w1 = mu0.weights, mu1.weights
    finite = np.isfinite(cost)
    gamma = np.where(finite, np.sqrt(np.outer(w0, w1)) * np.exp(-np.where(finite, cost, 0.0) / 2), 0.0)
    gamma = _newton_polish(gamma, w0, w1, cost, max_rounds=12, max_steps=n_newton)
    sigma0, sigma1, primal, phi0, phi1, dual = _certificate(gamma, w0, w1, cost)
    return LetSolution(
        plan=gamma,
        sigma0=sigma0,
        sigma1=sigma1,
        phi0=phi0,
        phi1=phi1,
        primal_value=primal,
        dual_value=dual,
        gap=primal - dual,
        iterations=0,
        epsilon_final=0.0,
        converged=True,
    )


def ghk_sq(mu0, mu1, tol=1e-9):
    """Squared Gaussian Hellinger-Kantorovich distance (LET with cost |x-y|^2)."""
    return solve_let(let_problem(mu0, mu1, "ghk"), tol).primal_value


def hk_sq(mu0, mu1, tol=1e-9):
    """Squared Hellinger-Kantorovich distance (LET with cost -log cos^2(d ^ pi/2))."""
    return solve_let(let_problem(mu0, mu1, "hk"), tol).primal_value


class OptimalityReport:
    """Max violations of the optimality system; failures are reported, not thrown."""

    __slots__ = (
        "product_lower_violation",
        "product_support_violation",
        "gap",
        "gap_relative",
        "dual_feasibility_violation",
        "marginal_violation",
        "tol",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def ok(self):
        return (
            self.product_lower_violation <= self.tol
            and self.product_support_violation <= self.tol
            and self.gap_relative <= self.tol
            and self.dual_feasibility_violation <= self.tol
            and self.marginal_violation <= self.tol
        )

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


def verify_optimality(problem, sol, tol=1e-6):
    """Check eq. sigma0*sigma1 >= e^{-cost} on A0 x A1 (= where sigma_i > 0),
    equality on cells carrying plan mass, the duality gap, dual feasibility,
    and that sigma_i * mu_i reproduces the plan marginals."""
    cost = problem.cost
    w0, w1 = problem.mu0.weights, problem.mu1.weights
    s0, s1 = sol.sigma0, sol.sigma1
    gamma = sol.plan

    a0 = s0 > 0
    a1 = s1 > 0
    prod_lower = 0.0
    prod_support = 0.0
    if a0.any() and a1.any():
        prod = np.outer(s0[a0], s1[a1])
        emc = np.exp(-np.minimum(cost[np.ix_(a0, a1)], 700.0))
        prod_lower = float(np.max(emc - prod, initial=0.0))
        thresh = 1e-12 * max(gamma.max(initial=0.0), 1e-300)
        on = gamma[np.ix_(a0, a1)] > thresh
        if on.any():
            prod_support = float(np.max(np.abs(prod - emc)[on]))

    feas = 0.0
    f0 = np.isfinite(sol.phi0)
    f1 = np.isfinite(sol.phi1)
    if f0.any() and f1.any():
        lhs = sol.phi0[f0][:, None] + sol.phi1[f1][None, :]
        feas = float(np.max(lhs - 0.5 * cost[np.ix_(f0, f1)], initial=0.0))
    # +inf potentials are feasible only against forbidden cells
    bad0 = ~f0 & (sol.phi0 > 0)
    if bad0.any() and len(s1):
        if np.isfinite(cost[bad0, :]).any():
            feas = np.inf
    bad1 = ~f1 & (sol.phi1 > 0)
    if bad1.any() and len(s0):
        if np.isfinite(cost[:, bad1]).any():
            feas = np.inf

    marg = 0.0
    if gamma.size:
        marg = max(
            float(np.max(np.abs(gamma.sum(axis=1) - s0 * w0), initial=0.0)),
            float(np.max(np.abs(gamma.sum(axis=0) - s1 * w1), initial=0.0)),
        )

    return OptimalityReport(
        product_lower_violation=prod_lower,
        product_support_violation=prod_support,
        gap=sol.gap,
        gap_relative=sol.gap / (1.0 + abs(sol.primal_value)),
        dual_feasibility_violation=feas,
        marginal_violation=marg,
        tol=tol,
    )


class ConePlan:
    """Weighted pairs of cone points whose 2-homogeneous marginals are the inputs."""

    __slots__ = ("pairs", "dim")

    def __init__(self, pairs, dim):
        self.pairs = pairs  # list of (ConePoint, ConePoint, weight, exp_half_cost)
        self.dim = dim

    def homogeneous_marginals(self):
        pts0, w0, pts1, w1 = [], [], [], []
        for p0, p1, w, _ in self.pairs:
            if p0.radius > 0:
                pts0.append(p0.base)
                w0.append(w * p0.radius**2)
            if p1.radius > 0:
                pts1.append(p1.base)
                w1.append(w * p1.radius**2)
        zero = np.empty((0, self.dim))
        m0 = DiscreteMeasure(np.array(pts0) if pts0 else zero, w0, dim=self.dim)
        m1 = DiscreteMeasure(np.array(pts1) if pts1 else zero, w1, dim=self.dim)
        return m0, m1

    def cone_cost(self):
        total = 0.0
        for p0, p1, w, eh in self.pairs:
            r, s = p0.radius, p1.radius
            total += w * (r * r + s * s - 2.0 * r * s * eh)
        return total


def lift_to_cone(problem, sol):
    """Cone plan alpha = ([x, sigma0^{-1/2}], [y, sigma1^{-1/2}]) weighted by
    the plan, plus vertex pairs carrying the mass of fully-killed atoms."""
    mu0, mu1, cost = problem.mu0, problem.mu1, problem.cost
    gamma = sol.plan
    pairs = []
    for i, j in np.argwhere(gamma > 0):
        if sol.sigma0[i] <= 0 or sol.sigma1[j] <= 0:
            raise ValueError(f"zero marginal density on charged cell ({i}, {j})")
        pairs.append(
            (
                ConePoint(mu0.points[i], 1.0 / np.sqrt(sol.sigma0[i])),
                ConePoint(mu1.points[j], 1.0 / np.sqrt(sol.sigma1[j])),
                float(gamma[i, j]),
                float(np.exp(-0.5 * min(cost[i, j], 1400.0))),
            )
        )
    vertex = ConePoint(np.zeros(mu0.dim), 0.0)
    for i in np.flatnonzero(sol.sigma0 <= 0):
        pairs.append((ConePoint(mu0.points[i], 1.0), vertex, float(mu0.weights[i]), 0.0))
    for j in np.flatnonzero(sol.sigma1 <= 0):
        pairs.append((vertex, ConePoint(mu1.points[j], 1.0), float(mu1.weights[j]), 0.0))
    return ConePlan(pairs, mu0.dim)


def limit_diagnostics(mu0, mu1, lam_grid, tol=1e-9):
    """Scaling-limit ladder: HK_{lam d}^2 increases to He^2 and
    lam^2 HK_{d/lam}^2 increases to W^2 (equal masses) as lam grows."""
    lam_grid = np.asarray(lam_grid, dtype=float)
    if np.any(np.diff(lam_grid) <= 0):
        raise ValueError("lambda grid must be strictly increasing")
    he = hellinger_sq(mu0, mu1)
    try:
        w2 = wasserstein_sq(mu0, mu1)
    except ValueError:
        w2 = np.nan
    hk_lam = []
    w_ladder = []
    for lam in lam_grid:
        hk_lam.append(hk_sq(dilate(mu0, lam), dilate(mu1, lam), tol))
        w_ladder.append(lam**2 * hk_sq(dilate(mu0, 1.0 / lam), dilate(mu1, 1.0 / lam), tol))
    hk_lam = np.array(hk_lam)
    w_ladder = np.array(w_ladder)
    slack = 1e-8 * (1.0 + np.abs(hk_lam).max(initial=0.0))
    return {
        "lambda": lam_grid,
        "hk_lambda_sq": hk_lam,
        "w_ladder_sq": w_ladder,
        "hellinger_sq": he,
        "wasserstein_sq": w2,
        "hk_monotone": bool(np.all(np.diff(hk_lam) >= -slack)),
        "w_monotone": bool(np.all(np.diff(w_ladder) >= -slack)),
    }
