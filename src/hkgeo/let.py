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

import math

import numpy as np

from . import _kernels
from .cone import let_cost
from .measures import DiscreteMeasure, _ensure_fits, cost_matrix_sq, dilate, hellinger_sq, wasserstein_sq

__all__ = [
    "LetProblem",
    "LetSolution",
    "let_problem",
    "solve_let",
    "ghk_sq",
    "hk_sq",
    "verify_optimality",
    "OptimalityReport",
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
    primal = float(w0 @ (_xlogx(sigma0) - sigma0 + 1.0) + w1 @ (_xlogx(sigma1) - sigma1 + 1.0)
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


def _xlogx(s):
    """s log s elementwise, 0 at s = 0, for s >= 0.  math.log is the libm log
    that scipy.special.xlogy calls, so the values match it bit for bit;
    np.log's own loop differs by one ulp on a few inputs."""
    return np.array([v * math.log(v) if v else 0.0 for v in s.tolist()])


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
# Share p_ij = gamma_ij / (eps a_i + r_i) <= 1 of its row below which a cell
# is left out of the Newton Schur product.  That moves entry (j, k) of the
# Schur complement by under sqrt(p_ij p_ik) < 1e-50 of sqrt(d_j d_k), and the
# right-hand side and back-substitution by under 1e-100 of a gradient or step
# entry: far below one ulp of the step.  The dense products then skip the
# subnormal operands that cost an x86 FPU 10-20 times a normal one.
SCHUR_FLOOR = 1e-100


def _ensure_let_fits(n0, n1):
    """Refuse, before allocating, a dense LET problem that does not fit in
    free memory.  The bound counts 7 n0 x n1 arrays (tracemalloc peaks of
    5.2-6.7 with the cost matrix, on grid pairs and on random problems with
    and without eliminated atoms, converged or not), the Schur system and
    its LAPACK copy, and 32 vectors of n0 + n1."""
    floats = 7 * n0 * n1 + 2 * min(n0, n1) ** 2 + 32 * (n0 + n1)
    _ensure_fits(floats, f"a dense {n0} x {n1} LET problem")


def _dual_newton(f, g, w0, w1, cost, eps, gamma):
    """Maximise the entropic dual D_eps over (f, g), in place, by damped Newton.

    The negative Hessian [[diag(a + r/eps), gamma/eps], [gamma^T/eps,
    diag(b + s/eps)]] (a = w0 e^{-f}, r, s the plan's marginals) is strictly
    diagonally dominant; each step solves its Schur complement on the smaller
    side, so the linear system has min(n0, n1) unknowns.  Each step's Armijo
    search starts at twice the stage's last accepted step length, at most 1,
    and halves it until the rise suffices.  gamma, an array of cost's shape,
    receives the entropic plan at the final (f, g); returns the number of
    steps taken.

    The stage allocates one scratch set, which every step reuses: the floored
    plan (the line search's change once the step is known), the share p, a
    mask and the Schur matrix, so no step allocates a plan-sized array.

    Cells whose exponent is below _kernels.EXP_FLOOR start the stage at
    exactly 0, as those below -745 always did by underflow: the floor moves
    that cut from 5e-324 to 1e-304 and keeps subnormals, which slow every
    dense pass over the plan, out of it.
    """
    np.add.outer(f, g, out=gamma)  # the entropic plan exp((f_i + g_j - cost_ij) / eps)
    gamma -= cost
    gamma /= eps
    floored, p, mask = np.empty(gamma.shape), np.empty(gamma.shape), np.empty(gamma.shape, dtype=bool)
    np.less(gamma, _kernels.EXP_FLOOR, out=mask)
    np.copyto(gamma, -np.inf, where=mask)
    with np.errstate(over="ignore"):
        np.exp(gamma, out=gamma)
    flip = len(g) > len(f)  # the Schur complement goes on the smaller side
    schur = np.empty((min(gamma.shape),) * 2)
    scratch = (floored.T, p.T, mask.T, schur) if flip else (floored, p, mask, schur)
    change = floored
    t = 1.0
    for step in range(NEWTON_MAX_STEPS):
        a, b = w0 * np.exp(-f), w1 * np.exp(-g)
        r, s = gamma.sum(axis=1), gamma.sum(axis=0)
        grad_f, grad_g = a - r, b - s
        if (np.abs(grad_f) <= NEWTON_RTOL * a).all() and (np.abs(grad_g) <= NEWTON_RTOL * b).all():
            return step
        d0, d1 = np.maximum(a + r / eps, TINY), np.maximum(b + s / eps, TINY)
        if flip:
            dg, df = _schur_step(gamma.T, d1, d0, grad_g, grad_f, eps, scratch)
        else:
            df, dg = _schur_step(gamma, d0, d1, grad_f, grad_g, eps, scratch)
        slope = float(grad_f @ df + grad_g @ dg)
        # Armijo on the exact change of D_eps, summed from expm1 terms so
        # that it stays accurate when the change is far below D_eps itself
        t = min(1.0, 2.0 * t)
        while True:
            np.add.outer(df * (t / eps), dg * (t / eps), out=change)
            with np.errstate(over="ignore"):
                np.expm1(np.minimum(change, 700.0, out=change), out=change)
                change *= gamma
                rise = a @ -np.expm1(-t * df) + b @ -np.expm1(-t * dg) - eps * change.sum()
            if rise >= 1e-4 * t * slope:
                break
            t *= 0.5
            if t < 1e-10:  # no ascent left at floating-point resolution
                return step
        f += t * df
        g += t * dg
        gamma += change
    return NEWTON_MAX_STEPS


def _schur_step(gamma, d_out, d_in, grad_out, grad_in, eps, scratch):
    """Newton step of [[diag(d_out), gamma/eps], [gamma^T/eps, diag(d_in)]]
    with the first block eliminated: the system solved is the Schur
    complement, of the size of the second block.  Cells whose share
    gamma_ij / (eps d_out_i) of their row is below SCHUR_FLOOR are left out
    of both factors of gamma^T p and of the back-substitution; the gradient
    and the line search keep them, so the Newton fixed point cannot move,
    and the step moves by an ulp at most.  scratch = (floored, p, mask,
    schur), three arrays of gamma's shape (the mask bool) and one square of
    d_in's size, is overwritten."""
    floored, p, mask, schur = scratch
    scale = eps * d_out[:, None]
    np.greater_equal(gamma, SCHUR_FLOOR * scale, out=mask)
    np.multiply(gamma, mask, out=floored)
    np.divide(floored, scale, out=p)
    np.matmul(floored.T, p, out=schur)
    schur /= -eps
    schur.ravel()[:: len(d_in) + 1] += d_in  # the diagonal, as a view
    step_in = np.linalg.solve(schur, grad_in - p.T @ grad_out)
    return (grad_out - floored @ step_in / eps) / d_out, step_in


def _forest_plan(gamma, w0, w1, cost):
    """Exact plan on the cells of gamma that carry mass; overwrites gamma.

    Prim's algorithm grows a maximum-mass spanning forest of those cells,
    each tree from its heaviest atom: each step takes the free atom of
    largest key (a taken atom's key is 0), and only a step where no free
    atom touches the trees looks for the heaviest free atom.  On a tree,
    f_i + g_j = cost_ij on the edges fixes the potentials up to one scalar t
    (f = a + t on rows, g = b - t on columns), and mass balance
    sum w0 e^{-f} = sum w1 e^{-g} gives t = log(A+ / A-) / 2 (infinite,
    hence mass 0, for an atom whose mass underflowed, which no cell joins).
    Leaf elimination towards the root gives the flows, so their rounding
    lands on the heaviest atom; the label pass and the elimination run over
    Python lists.  Where tied costs close cycles and a tree flow goes
    negative, gamma stays on the tight cells off the tree and the tree
    carries the rest.  An edge whose flow is still negative is not in
    the optimal support: it is cut and the split trees are solved anew,
    until no flow is negative.
    """
    n0, n = gamma.shape[0], sum(gamma.shape)
    mass = np.concatenate([gamma.sum(axis=1), gamma.sum(axis=0)])
    # gamma <= SUPPORT_RTOL * min(row mass, column mass), as two masks
    light = gamma <= SUPPORT_RTOL * mass[:n0, None]
    light &= gamma <= SUPPORT_RTOL * mass[None, n0:]
    gamma[light] = 0.0
    del light

    order, pot = np.empty(n, dtype=int), np.zeros(n)
    parent = np.full(n, -1)  # of a free atom: its neighbour in the trees by its heaviest cell
    key = np.zeros(n)  # ... and the mass of that cell; 0 for a taken atom
    free = np.ones(n, dtype=bool)
    sides = (key[n0:], parent[n0:], free[n0:]), (key[:n0], parent[:n0], free[:n0])
    for step in range(n):
        v = int(key.argmax())
        if key[v] > 0.0:
            u = parent[v]
            pot[v] = (cost[v, u - n0] if v < n0 else cost[u, v - n0]) - pot[u]
            key[v] = 0.0
        else:  # no free atom touches the trees: a new tree starts at the heaviest one
            v = int(np.where(free, mass, -1.0).argmax())
        order[step], free[v] = v, False
        cells, (k, p, fr) = (gamma[v], sides[0]) if v < n0 else (gamma[:, v - n0], sides[1])
        better = cells > k
        better &= fr
        np.copyto(k, cells, where=better)
        np.copyto(p, v, where=better)

    is_col = (np.arange(n) >= n0).astype(int)
    logw = np.concatenate([np.log(w0), np.log(w1)]) - pot
    order_l = order.tolist()
    while True:
        par = parent.tolist()
        label, trees = [0] * n, 0
        for v in order_l:  # parents first: a root, or a kid cut from its parent, starts a tree
            if par[v] < 0:
                label[v], trees = trees, trees + 1
            else:
                label[v] = label[par[v]]
        label = np.array(label)
        kids = order[parent[order] >= 0]
        kids_l = kids.tolist()
        lse = np.full((2, trees), -np.inf)
        np.logaddexp.at(lse, (is_col, label), logw)
        t = 0.5 * (lse[0] - lse[1])[label] * (1 - 2 * is_col)  # +t on rows, -t on columns
        exact = np.exp(logw - t)
        floor = -FLOW_RTOL * exact.max()
        flows = _tree_flows(exact.tolist(), kids_l, par)
        off = kids[:0], kids[:0]  # tied carrying cells off the forest, which keep their mass
        if flows.min(initial=0.0) < floor:
            slack = np.add.outer(pot[:n0] + t[:n0], pot[n0:] + t[n0:])
            slack -= cost
            r, c = np.nonzero((np.abs(slack, out=slack) <= TIE_RTOL * (1.0 + cost)) & (gamma > 0))
            del slack
            keep = (parent[r] != n0 + c) & (parent[n0 + c] != r)
            off = r[keep], c[keep]
            held = np.bincount(off[0], gamma[off], n0), np.bincount(off[1], gamma[off], n - n0)
            flows = _tree_flows((exact - np.concatenate(held)).tolist(), kids_l, par)
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
    given mass, by leaf elimination (kids ordered parents first); mass, kids
    and parent are lists, and mass is used up."""
    flows = [0.0] * len(kids)
    for k in range(len(kids) - 1, -1, -1):
        v = kids[k]
        flows[k] = mass[v]
        mass[parent[v]] -= flows[k]
    return np.array(flows)


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
        logw0, logw1 = np.log(sw0), np.log(sw1)
        gamma = np.empty(sub_cost.shape)  # each stage's plan, refilled by _dual_newton
        for eps in EPS_STAGES:
            # one block-coordinate ascent sweep puts every atom's mass in range
            # for Newton, which moves a potential from far off by ~1 per step
            _kernels.scaling_sweep(f, g, logw0, logw1, sub_cost, eps, 1, 0.0)
            steps = _dual_newton(f, g, sw0, sw1, sub_cost, eps, gamma)
            stage = judge(_forest_plan(gamma, sw0, sw1, sub_cost), eps)
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
    """Weighted pairs of cone points whose 2-homogeneous marginals are the inputs.

    Row k of the aligned arrays pairs [base0[k], radius0[k]] with
    [base1[k], radius1[k]] (bases (m, dim), the rest (m,)) at plan weight
    weight[k]; exp_half_cost[k] = e^{-cost/2} is the cosine factor of the
    pair's cone distance.  A vertex has radius 0 and base at the origin.
    """

    __slots__ = ("base0", "radius0", "base1", "radius1", "weight", "exp_half_cost", "dim")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def homogeneous_marginals(self):
        """sum_k weight_k r_k^2 delta_{base_k} on each side, vertices left out.
        np.float_power squares through C pow, as Python's r ** 2 does (r * r
        rounds differently for about one radius in a thousand)."""
        return tuple(
            DiscreteMeasure(base[r > 0], self.weight[r > 0] * np.float_power(r[r > 0], 2), dim=self.dim)
            for base, r in ((self.base0, self.radius0), (self.base1, self.radius1))
        )

    def cone_cost(self):
        """sum_k weight_k (r_k^2 + s_k^2 - 2 r_k s_k exp_half_cost_k): the LET value."""
        r, s = self.radius0, self.radius1
        return float(np.sum(self.weight * (r * r + s * s - 2.0 * r * s * self.exp_half_cost)))


def lift_to_cone(problem, sol):
    """Cone plan alpha = ([x, sigma0^{-1/2}], [y, sigma1^{-1/2}]) weighted by
    the plan, plus vertex pairs carrying the mass of fully-killed atoms.
    Rows: charged cells in row-major order, then killed atoms of mu0, then
    killed atoms of mu1."""
    mu0, mu1, dim = problem.mu0, problem.mu1, problem.mu0.dim
    s0, s1 = sol.sigma0, sol.sigma1
    i, j = np.nonzero(sol.plan > 0)
    dead = (s0[i] <= 0) | (s1[j] <= 0)
    if dead.any():
        k = np.argmax(dead)
        raise ValueError(f"zero marginal density on charged cell ({i[k]}, {j[k]})")
    k0 = np.flatnonzero(s0 <= 0)
    k1 = np.flatnonzero(s1 <= 0)
    n0, n1 = len(k0), len(k1)
    return ConePlan(
        base0=np.concatenate([mu0.points[i], mu0.points[k0], np.zeros((n1, dim))]),
        radius0=np.concatenate([1.0 / np.sqrt(s0[i]), np.ones(n0), np.zeros(n1)]),
        base1=np.concatenate([mu1.points[j], np.zeros((n0, dim)), mu1.points[k1]]),
        radius1=np.concatenate([1.0 / np.sqrt(s1[j]), np.zeros(n0), np.ones(n1)]),
        weight=np.concatenate([sol.plan[i, j], mu0.weights[k0], mu1.weights[k1]]),
        exp_half_cost=np.concatenate([np.exp(-0.5 * np.minimum(problem.cost[i, j], 1400.0)), np.zeros(n0 + n1)]),
        dim=dim,
    )


def limit_diagnostics(mu0, mu1, lam_grid, tol=1e-9):
    """Scaling-limit ladder: HK_{lam d}^2 increases to He^2 and
    lam^2 HK_{d/lam}^2 increases to W^2 (equal masses) as lam grows."""
    lam_grid = np.asarray(lam_grid, dtype=float)
    if not np.all((lam_grid > 0) & (lam_grid < np.inf)):
        raise ValueError("lambda grid must be finite and positive")
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
