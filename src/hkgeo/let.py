"""Logarithmic entropy-transport solver on discrete supports.

Solves  min_gamma  sum_i int F(sigma_i) dmu_i + int cost dgamma,
F(s) = s log s - s + 1.  Its optimality system (Liero, Mielke, Savare,
Invent. Math. 2018) is sigma0_i sigma1_j >= e^{-cost_ij}, with equality on
the support of the plan, sigma = e^{-f} for dual potentials f, g.  The
solver anneals eps = 1, 0.1, ..., 1e-7: at each stage damped Newton on the
entropic dual finds the support, and a closed-form solve of the exact
system on a maximum-mass spanning forest of it gives a candidate plan.
Every solution carries a duality certificate (primal and dual values of
the *unregularized* problem and their gap), and only the certificate
decides when the loop stops.
"""

import numpy as np
from scipy.optimize import minimize
from scipy.special import xlogy

from . import _kernels
from .cone import ConePoint, let_cost
from .measures import DiscreteMeasure, _ensure_fits, cost_matrix_sq, dilate, hellinger_sq, wasserstein_sq

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
        "stats",
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
    _ensure_let_fits(len(mu0), len(mu1))
    d = np.sqrt(cost_matrix_sq(mu0, mu1))
    return LetProblem(mu0, mu1, let_cost(kind, d))


def _certificate(gamma, w0, w1, cost):
    """Marginal densities, primal value, projected duals and dual value of
    the unregularized problem at the plan gamma (the gap is primal - dual).

    phi0 = -log(sigma0) / 2 on the rows the plan fills, and phi1 is its
    half-cost transform, so that phi0 (+) phi1 <= cost/2 holds exactly.  A
    row the plan leaves empty enters that transform at phi0 = 0 and then
    takes the half-cost transform of phi1; only a row without a finite cell
    keeps phi0 = +inf (its atom is killed in every plan)."""
    sigma0 = gamma.sum(axis=1) / w0
    sigma1 = gamma.sum(axis=0) / w1
    on = gamma > 0
    primal = float(w0 @ (xlogy(sigma0, sigma0) - sigma0 + 1.0) + w1 @ (xlogy(sigma1, sigma1) - sigma1 + 1.0)
                   + gamma[on] @ cost[on])
    with np.errstate(divide="ignore"):
        phi0 = -0.5 * np.log(sigma0)
    empty = np.flatnonzero(np.isinf(phi0))  # a plan usually fills every row
    if empty.size:
        empty = empty[np.isfinite(cost[empty]).any(axis=1)]
        phi0[empty] = 0.0
    phi1 = _half_cost_transform(cost, phi0)
    if empty.size:
        phi0[empty] = _half_cost_transform(cost[empty].T, phi1)
    dual = float(w0 @ (1.0 - np.exp(-2.0 * phi0)) + w1 @ (1.0 - np.exp(-2.0 * phi1)))
    return sigma0, sigma1, primal, phi0, phi1, dual


def _half_cost_transform(cost, phi):
    """min_i (cost_ij / 2 - phi_i) over the rows i with finite phi, for each
    column j (+inf where no such row has a finite cell)."""
    live = np.isfinite(phi)
    cols = cost[live]
    cols *= 0.5
    cols -= phi[live, None]
    return cols.min(axis=0, initial=np.inf)


EPS_STAGES = tuple(10.0**-k for k in range(8))  # eps = 1, 0.1, ..., 1e-7
NEWTON_RTOL = 1e-10  # relative marginal residual that ends a stage's Newton loop
NEWTON_MAX_STEPS = 100
SUPPORT_RTOL = 1e-6  # share of the lighter endpoint's mass that puts a cell on the forest
FLOW_RTOL = 1e-12  # forest flows down to -FLOW_RTOL * (heaviest marginal) count as 0
TIE_RTOL = 1e-11  # |cost - f - g| <= TIE_RTOL * (1 + cost) keeps a carrying cell off the tree
TINY = np.finfo(float).tiny  # floor of the Newton diagonal, met only by atoms whose mass underflows


def _ensure_let_fits(n0, n1):
    """Refuse, before allocating, a dense LET problem that does not fit in
    free memory.  The bound counts 7 n0 x n1 arrays (tracemalloc peaks of
    5.1-6.4 with the cost matrix, on grid pairs and on random problems with
    and without eliminated atoms, converged or not), the Schur system and
    its LAPACK copy, and 32 vectors of n0 + n1."""
    floats = 7 * n0 * n1 + 2 * min(n0, n1) ** 2 + 32 * (n0 + n1)
    _ensure_fits(floats, f"a dense {n0} x {n1} LET problem")


def _dual_newton(f, g, w0, w1, cost, eps):
    """Maximise the entropic dual D_eps over (f, g), in place, by damped Newton.

    The negative Hessian [[diag(a + r/eps), gamma/eps], [gamma^T/eps,
    diag(b + s/eps)]] (a = w0 e^{-f}, r, s the plan's marginals) is strictly
    diagonally dominant; each step solves its Schur complement on the smaller
    side, so the linear system has min(n0, n1) unknowns.  Returns the number
    of steps taken and the entropic plan at the final (f, g).
    """
    gamma = f[:, None] + g[None, :]  # the entropic plan exp((f_i + g_j - cost_ij) / eps)
    gamma -= cost
    gamma /= eps
    with np.errstate(over="ignore"):
        np.exp(gamma, out=gamma)
    for step in range(NEWTON_MAX_STEPS):
        a, b = w0 * np.exp(-f), w1 * np.exp(-g)
        r, s = gamma.sum(axis=1), gamma.sum(axis=0)
        grad_f, grad_g = a - r, b - s
        if (np.abs(grad_f) <= NEWTON_RTOL * a).all() and (np.abs(grad_g) <= NEWTON_RTOL * b).all():
            return step, gamma
        d0, d1 = np.maximum(a + r / eps, TINY), np.maximum(b + s / eps, TINY)
        if len(g) <= len(f):
            df, dg = _schur_step(gamma, d0, d1, grad_f, grad_g, eps)
        else:
            dg, df = _schur_step(gamma.T, d1, d0, grad_g, grad_f, eps)
        slope = float(grad_f @ df + grad_g @ dg)
        # Armijo on the exact change of D_eps, summed from expm1 terms so
        # that it stays accurate when the change is far below D_eps itself
        t = 1.0
        while True:
            change = np.add.outer(df * (t / eps), dg * (t / eps))
            with np.errstate(over="ignore"):
                np.expm1(np.minimum(change, 700.0, out=change), out=change)
                change *= gamma
                rise = a @ -np.expm1(-t * df) + b @ -np.expm1(-t * dg) - eps * change.sum()
            if rise >= 1e-4 * t * slope:
                break
            t *= 0.5
            if t < 1e-10:  # no ascent left at floating-point resolution
                return step, gamma
        f += t * df
        g += t * dg
        gamma += change
        del change
    return NEWTON_MAX_STEPS, gamma


def _schur_step(gamma, d_out, d_in, grad_out, grad_in, eps):
    """Newton step of [[diag(d_out), gamma/eps], [gamma^T/eps, diag(d_in)]]
    with the first block eliminated: the system solved is the Schur
    complement, of the size of the second block."""
    p = gamma / (eps * d_out[:, None])
    schur = gamma.T @ p
    schur /= -eps
    schur[np.diag_indices(len(d_in))] += d_in
    step_in = np.linalg.solve(schur, grad_in - p.T @ grad_out)
    return (grad_out - gamma @ step_in / eps) / d_out, step_in


def _forest_plan(gamma, w0, w1, cost):
    """Exact plan on the cells of gamma that carry mass; overwrites gamma.

    Prim's algorithm grows a maximum-mass spanning forest of those cells,
    each tree from its heaviest atom.  On a tree, f_i + g_j = cost_ij on the
    edges fixes the potentials up to one scalar t (f = a + t on rows,
    g = b - t on columns), and mass balance sum w0 e^{-f} = sum w1 e^{-g}
    gives t = log(A+ / A-) / 2 (infinite, hence mass 0, for an atom whose
    mass underflowed, which no cell joins).  Leaf elimination towards the
    root gives the flows, so their rounding lands on the heaviest atom.
    Where tied costs close cycles and a tree flow goes negative, gamma stays
    on the tight cells off the tree and the tree carries the rest.  An edge
    whose flow is still negative is not in the optimal support: it is cut
    and the split trees are solved anew, until no flow is negative.
    """
    n0, n = gamma.shape[0], sum(gamma.shape)
    mass = np.concatenate([gamma.sum(axis=1), gamma.sum(axis=0)])
    share = np.minimum(mass[:n0, None], mass[None, n0:])
    share *= SUPPORT_RTOL
    gamma[gamma <= share] = 0.0
    del share

    order, label, pot = np.empty(n, dtype=int), np.empty(n, dtype=int), np.zeros(n)
    parent = np.full(n, -1)  # of a free atom: its neighbour in the trees by its heaviest cell
    key = np.zeros(n)  # ... and the mass of that cell
    free = np.ones(n, dtype=bool)
    for step in range(n):
        v = int(np.argmax(np.where(free, key, -1.0)))
        if key[v] > 0.0:
            u = parent[v]
            pot[v] = (cost[v, u - n0] if v < n0 else cost[u, v - n0]) - pot[u]
        else:
            v = int(np.argmax(np.where(free, mass, -1.0)))
        order[step], free[v] = v, False
        cells, side = (gamma[v], slice(n0, n)) if v < n0 else (gamma[:, v - n0], slice(0, n0))
        better = (cells > key[side]) & free[side]
        key[side][better] = cells[better]
        parent[side][better] = v

    is_col = (np.arange(n) >= n0).astype(int)
    logw = np.concatenate([np.log(w0), np.log(w1)]) - pot
    while True:
        kids = order[parent[order] >= 0]
        trees = 0
        for v in order:  # parents first: a root, or a kid cut from its parent, starts a tree
            if parent[v] < 0:
                label[v], trees = trees, trees + 1
            else:
                label[v] = label[parent[v]]
        lse = np.full((2, trees), -np.inf)
        np.logaddexp.at(lse, (is_col, label), logw)
        t = 0.5 * (lse[0] - lse[1])[label] * (1 - 2 * is_col)  # +t on rows, -t on columns
        exact = np.exp(logw - t)
        floor = -FLOW_RTOL * exact.max()
        flows = _tree_flows(exact, kids, parent)
        off = kids[:0], kids[:0]  # tied carrying cells off the forest, which keep their mass
        if flows.min(initial=0.0) < floor:
            slack = np.add.outer(pot[:n0] + t[:n0], pot[n0:] + t[n0:])
            slack -= cost
            r, c = np.nonzero((np.abs(slack, out=slack) <= TIE_RTOL * (1.0 + cost)) & (gamma > 0))
            del slack
            keep = (parent[r] != n0 + c) & (parent[n0 + c] != r)
            off = r[keep], c[keep]
            held = np.bincount(off[0], gamma[off], n0), np.bincount(off[1], gamma[off], n - n0)
            flows = _tree_flows(exact - np.concatenate(held), kids, parent)
        cut = flows < floor
        if not cut.any():
            break
        parent[kids[cut]] = -1
    carried = gamma[off]
    gamma[:] = 0.0
    gamma[off] = carried
    tree = np.where(kids < n0, kids, parent[kids]), np.where(kids < n0, parent[kids], kids) - n0
    gamma[tree] = np.maximum(flows, 0.0)
    return gamma


def _tree_flows(mass, kids, parent):
    """Flows on the edges (kid, parent of kid) that leave every atom with the
    given mass, by leaf elimination (kids ordered parents first)."""
    acc = mass.copy()
    flows = np.empty(len(kids))
    for k in range(len(kids) - 1, -1, -1):
        flows[k] = acc[kids[k]]
        acc[parent[kids[k]]] -= flows[k]
    return flows


def solve_let(problem, tol=1e-9):
    """Solve the LET problem to duality gap <= tol * (1 + |primal|).

    One warm-started loop over EPS_STAGES: a scaling sweep and damped Newton
    on the entropic dual find the support, _forest_plan solves the exact
    optimality system on it, and the loop stops at the first plan whose
    certificate passes; after the last stage the best plan is returned,
    converged=False.  Rows and columns whose cost is +inf everywhere are
    eliminated first (such atoms contribute their full mass, F(0) = 1).
    ``stats`` holds (eps, Newton steps, gap) per stage; ``iterations``
    totals the Newton steps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    mu0, mu1, cost = problem.mu0, problem.mu1, problem.cost
    _ensure_let_fits(*cost.shape)
    w0, w1 = mu0.weights, mu1.weights
    finite = np.isfinite(cost)
    live0, live1 = finite.any(axis=1), finite.any(axis=0)
    del finite
    live = np.ix_(live0, live1)
    whole = live0.all() and live1.all()

    def judge(sub_plan, eps):
        plan = sub_plan
        if not whole:
            plan = np.zeros(cost.shape)
            plan[live] = sub_plan
        cert = _certificate(plan, w0, w1, cost)
        cells = np.nonzero(plan)  # kept sparse, so no dense plan outlives its stage
        return cert[2] - cert[5], (cells, plan[cells]), cert, eps

    stats, best = [], None  # best: (gap, (cells, masses), certificate, eps)
    if live0.any() and live1.any():
        sub_cost = cost if whole else cost[live]
        sw0, sw1 = w0[live0], w1[live1]
        f, g = np.zeros(len(sw0)), np.zeros(len(sw1))
        for eps in EPS_STAGES:
            # one block-coordinate ascent sweep puts every atom's mass in range
            # for Newton, which moves a potential from far off by ~1 per step
            _kernels.scaling_sweep(f, g, np.log(sw0), np.log(sw1), sub_cost, eps, 1, 0.0)
            steps, gamma = _dual_newton(f, g, sw0, sw1, sub_cost, eps)
            stage = judge(_forest_plan(gamma, sw0, sw1, sub_cost), eps)
            del gamma
            stats.append((eps, steps, stage[0]))
            if best is None or stage[0] < best[0]:
                best = stage
            if stage[0] <= tol * (1.0 + abs(stage[2][2])):
                break
    else:
        best = judge(np.zeros((live0.sum(), live1.sum())), EPS_STAGES[0])
    _, (cells, masses), (sigma0, sigma1, primal, phi0, phi1, dual), eps = best
    plan = np.zeros(cost.shape)
    plan[cells] = masses
    gap = primal - dual
    return LetSolution(
        plan=plan,
        sigma0=sigma0,
        sigma1=sigma1,
        phi0=phi0,
        phi1=phi1,
        primal_value=primal,
        dual_value=dual,
        gap=gap,
        iterations=sum(s[1] for s in stats),
        epsilon_final=eps,
        converged=gap <= tol * (1.0 + abs(primal)),
        stats=stats,
    )


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

    # +inf potentials are feasible only against forbidden cells (inf - inf)
    with np.errstate(invalid="ignore"):
        lhs = np.add.outer(sol.phi0, sol.phi1) - 0.5 * cost
    feas = float(np.max(lhs, initial=0.0, where=~np.isnan(lhs)))
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
