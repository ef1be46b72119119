"""The benchmark's four workloads: inputs made from the seed, the operations
run on them, and the correctness gate each operation's output must pass.

Every operation reaches the library through a module attribute looked up at
call time (``let.solve_let``, ``pot.legendre_pair``, ...), so the spans that
the traced run installs on those attributes see every call.  Why each
workload exists is recorded in README.md next to this file.
"""

import importlib

import numpy as np

from hkgeo import bessel, let, randmeas
from hkgeo import cylinders as cyl
from hkgeo import potentials as pot
from hkgeo.measures import DiscreteMeasure

# the package re-exports the function mollify under the submodule's name
mol = importlib.import_module("hkgeo.mollify")

LET_TOL = 1e-9
CERT_TOL = 1e-6          # verify_optimality tolerance and closed-form relative error
POT_TOL = 5e-3
POT_DEV = 0.02           # criterion 5: dual and gradient-form deviation
POT_EPS = 0.4


class Op:
    """One timed call into the library plus its untimed correctness check.

    ``items`` is the work it completes: one solve, one potential pair, or
    the number of Monte-Carlo samples drawn.
    """

    __slots__ = ("name", "items", "call", "check")

    def __init__(self, name, items, call, check):
        self.name = name
        self.items = items
        self.call = call
        self.check = check


def _random_measure(rng, n, dim=2, scale=1.2):
    return DiscreteMeasure(rng.normal(0, scale, (n, dim)), rng.uniform(0.1, 2.0, n))


def _rel_err(value, exact):
    return abs(value - exact) / exact if exact else abs(value)


def _let_op(name, mu0, mu1, kind, closed=None):
    def call():
        problem = let.let_problem(mu0, mu1, kind)
        return problem, let.solve_let(problem, LET_TOL)

    def check(out):
        problem, sol = out
        if not (sol.converged and let.verify_optimality(problem, sol, CERT_TOL).ok()):
            return False
        h0, h1 = let.lift_to_cone(problem, sol).homogeneous_marginals()
        if not (h0.allclose(mu0, atol=1e-8) and h1.allclose(mu1, atol=1e-8)):
            return False
        return closed is None or _rel_err(sol.primal_value, closed) <= CERT_TOL

    return Op(name, 1, call, check)


def _single_atom_ops(rng, beyond_half_pi):
    """Criterion-1 shape: one atom per side in 1-D, ghk and hk on the same
    (a, b, d), checked against the closed forms.  d lies beyond pi/2, where
    the hk cell is forbidden, exactly when asked, so that every pass holds
    the same number of such solves."""
    a, b = rng.uniform(0.1, 10.0, 2)
    d = rng.uniform(np.pi / 2, 3.0) if beyond_half_pi else rng.uniform(0.0, np.pi / 2)
    m0 = DiscreteMeasure([[0.0]], [a])
    m1 = DiscreteMeasure([[d]], [b])
    ghk = a + b - 2 * np.sqrt(a * b) * np.exp(-d * d / 2)
    hk = a + b - 2 * np.sqrt(a * b) * np.cos(min(d, np.pi / 2))
    return [_let_op("1d-ghk", m0, m1, "ghk", ghk), _let_op("1d-hk", m0, m1, "hk", hk)]


def _live_pair(rng, n0, n1, kind):
    """Two random 2-D measures with at least one finite cost cell.  An hk pair
    whose cells are all forbidden is solved without a single sweep; drawing
    again keeps the sweep count of a pass, and with it the work, about the
    same from seed to seed."""
    while True:
        mu0, mu1 = _random_measure(rng, n0), _random_measure(rng, n1)
        if np.isfinite(let.let_problem(mu0, mu1, kind).cost).any():
            return mu0, mu1


def let_small(rng, toy=False):
    """20 2-D pairs, ghk and hk alternating, each followed by a 1-D
    single-atom solve: 40 solves per pass.  Each side takes every atom count
    from 1 to 10 twice, in seeded order, and every pair has a finite cell."""
    n_pairs = 4 if toy else 20
    sizes = rng.permuted(np.tile(np.arange(1, 11), (2, n_pairs // 10 + 1))[:, :n_pairs], axis=1)
    ops = []
    single = []
    for k in range(n_pairs):
        kind = ("ghk", "hk")[k % 2]
        mu0, mu1 = _live_pair(rng, int(sizes[0, k]), int(sizes[1, k]), kind)
        ops.append(_let_op(f"2d-{kind}", mu0, mu1, kind))
        if not single:
            single = _single_atom_ops(rng, beyond_half_pi=(k // 2) % 5 in (1, 3))
        ops.append(single.pop(0))
    warmup = [_let_op("warmup-ghk", _random_measure(rng, 3), _random_measure(rng, 3), "ghk")]
    return ops, warmup


def let_large(rng, toy=False):
    """2 2-D pairs with 100 and 200 atoms, one ghk and one hk."""
    n0, n1 = (10, 20) if toy else (100, 200)
    ops = [
        _let_op(f"2d-{kind}", _random_measure(rng, n0), _random_measure(rng, n1), kind)
        for kind in ("ghk", "hk")
    ]
    warmup = [_let_op("warmup-hk", _random_measure(rng, 3), _random_measure(rng, 3), "hk")]
    return ops, warmup


def _ball_density(p):
    return 0.5 + 0.3 * np.exp(-np.sum(p * p, axis=1))


def _pair_op(name, nu, mu, cfg, gradient_form=True):
    """One potential pair through mollify -> legendre_pair ->
    gradient_duality_value -> psi_lipschitz, checked against criterion 5:
    certified gap, dual value within 2 % of the solver value, gradient-form
    value within 2 % of the dual value, and psi R-Lipschitz.  The
    gradient-form bound is criterion 5's at spacing 0.01; the 2-D pair at
    spacing 0.1 is exempt from it (see README.md)."""

    def call():
        t_mu = mol.mollify(mu, cfg)
        pair = pot.legendre_pair(nu, mu, cfg, tol=POT_TOL)
        value, _ = pot.gradient_duality_value(pair, t_mu)
        return pair, value, pair.psi_lipschitz()

    def check(out):
        pair, grad_value, lip = out
        dev_dual = abs(pair.duality_value - pair.solver_value) / pair.solver_value
        dev_grad = abs(grad_value - pair.duality_value) / pair.duality_value
        certified = pair.solver_gap <= POT_TOL * (1.0 + abs(pair.solver_value))
        grad_ok = dev_grad <= POT_DEV or not gradient_form
        return dev_dual <= POT_DEV and grad_ok and certified and lip <= pair.R + 1e-9

    return Op(name, 1, call, check)


def _atoms_near(rng, centres, jitter=0.02):
    """Four atoms jittered around fixed centres, with criterion 5's weights.
    The centres fix how the mollifier patches overlap, so the size of the
    T_eps(mu) grid, and with it the work per pair, does not depend on the seed."""
    centres = np.asarray(centres, dtype=float)
    points = centres + rng.uniform(-jitter, jitter, centres.shape)
    return DiscreteMeasure(points, rng.uniform(0.3, 1.5, len(centres)))


def potentials(rng, toy=False):
    """Criterion-5 family in 1-D (spacing 0.01, eps 0.4, 4 atoms, the seeded
    measure rescaled to masses 2e2 and 2e5, the ends of the criterion's mass
    range: 201 nu nodes x about 168 T_eps(mu) nodes) plus one 2-D pair at
    spacing 0.1 (317 x 161 nodes)."""
    sp1 = 0.05 if toy else 0.01
    nu1 = pot.grid_measure_on_ball(_ball_density, 1.0, sp1, 1)
    cfg1 = mol.MollifierConfig(POT_EPS, sp1, dim=1)
    # overlapping patches: the T_eps(mu) grid spans about [-0.85, 0.85]
    mu = _atoms_near(rng, [[-0.45], [-0.15], [0.15], [0.45]])
    masses = (2e2,) if toy else (2e2, 2e5)
    family = [DiscreteMeasure(mu.points, mu.weights * (c / mu.mass)) for c in masses]
    ops = [_pair_op("1d", nu1, m, cfg1) for m in family]

    nu2 = pot.grid_measure_on_ball(_ball_density, 0.5 if toy else 1.0, 0.1, 2)
    cfg2 = mol.MollifierConfig(POT_EPS, 0.1, dim=2)
    mu2 = _atoms_near(rng, [[-0.3, -0.3], [-0.3, 0.3], [0.3, -0.3], [0.3, 0.3]])
    ops.append(_pair_op("2d", nu2, mu2, cfg2, gradient_form=False))

    nu_w = pot.grid_measure_on_ball(_ball_density, 1.0, 0.1, 1)
    cfg_w = mol.MollifierConfig(POT_EPS, 0.1, dim=1)
    warmup = [_pair_op("warmup-1d", nu_w, _atoms_near(rng, [[-0.5], [0.5]]), cfg_w)]
    return ops, warmup


# The Monte-Carlo streams are pinned, one seed per check, as every
# statistical gate of the project is: a 3-SE verdict has a 0.27 % false-alarm
# rate, so streams drawn from --seed would fail a few percent of all runs by
# chance.  --seed therefore does not reach this workload.
MC_SEEDS = {
    "mecke_df": 110,
    "mecke_mlp": 111,
    "invariance": 112,
    "intensity": 113,
    "besq": 114,
    "radial": 115,
    "dirichlet": 116,
    "probe": 117,
    "hitting": 118,
}


def _three_se(a, b, se):
    return abs(a - b) <= 3.0 * se


def _mc_ops(n, seed_offset=0):
    s = {k: v + seed_offset for k, v in MC_SEEDS.items()}
    params = randmeas.IntensityParams(2.0, dim=2)
    ops = []

    def mecke_df():
        return randmeas.mecke_check_df(
            lambda eta, x, t: t, 1.0, params, n=n, rng=np.random.default_rng(s["mecke_df"])
        )

    # criterion 7: two-sided verdict, and the rhs reproduces 1/(1 + beta)
    ops.append(Op("mecke_check_df", n, mecke_df,
                  lambda r: r.verdict and _three_se(r.rhs, 0.5, r.se_rhs)))

    def mecke_mlp():
        return randmeas.mecke_check_mlp(
            lambda s_, x: np.exp(-2.0 * s_), params, n=n, rng=np.random.default_rng(s["mecke_mlp"])
        )

    ops.append(Op("mecke_check_mlp", n, mecke_mlp, lambda r: r.verdict))
    ops.append(Op(
        "invariance_checks", n,
        lambda: randmeas.invariance_checks(params, n=n, seed=s["invariance"]),
        lambda reports: all(r.verdict for r in reports.values()),
    ))

    def intensity():
        return randmeas.estimate_intensity(randmeas.gamma_batch(params, n, seed=s["intensity"]))

    ops.append(Op("gamma_batch+estimate_intensity", n, intensity,
                  lambda est: _three_se(est["theta_hat"], params.theta, est["theta_se"])))

    theta_r = 1.5
    params_r = randmeas.IntensityParams(theta_r, dim=2)
    chi = bessel.smooth_bump_radial(1.0, 2.0)
    window = (0.8, 2.2)
    ops.append(Op(
        "radial_form_mc", n,
        lambda: bessel.radial_form_mc(theta_r, params_r, chi, window, n=n, rng_seed=s["radial"]),
        lambda r: _three_se(r["mc"], r["quad"], r["se"]) and r["max_horizontal"] == 0.0,
    ))

    # criterion 10: the radial projection contracts the Dirichlet form
    rng = np.random.default_rng(s["dirichlet"])
    kern = cyl.gauss_kernel(rng.normal(0, 0.4, 2), rng.uniform(0.6, 1.2))
    c0 = rng.uniform(0.2, 1.0)
    draw, _ = randmeas.uniform_ball_sampler(2)
    c_f = float(np.mean(kern.fn(draw(np.random.default_rng(s["probe"]), 20_000))))
    u = cyl.CylinderFunction(
        cyl.OuterFunction(lambda a: c0 + a[0], [lambda a: 1.0], 1), [kern],
        cutoff=chi.f, cutoff_prime=chi.d1,
    )
    u_rad = cyl.CylinderFunction(
        cyl.OuterFunction(lambda a: 1.0, [lambda a: 0.0], 1), [cyl.one_kernel()],
        cutoff=lambda m: chi.f(m) * (c0 + c_f * m),
        cutoff_prime=lambda m: chi.d1(m) * (c0 + c_f * m) + chi.f(m) * c_f,
    )
    n_half = n // 2

    def contraction():
        e_u, se_u = bessel.dirichlet_form_mc(u, 2.0, params, window, n=n_half, rng_seed=s["dirichlet"])
        e_r, se_r = bessel.dirichlet_form_mc(u_rad, 2.0, params, window, n=n_half, rng_seed=s["dirichlet"])
        return e_u, se_u, e_r, se_r

    ops.append(Op("dirichlet_form_mc", 2 * n_half, contraction,
                  lambda r: r[2] <= r[0] + 3.0 * np.hypot(r[1], r[3])))

    # criterion 9: E[x_T] = x0 + theta T and Var = 2 x0 T + theta T^2
    def besq():
        paths, _, _ = bessel.simulate_besq_batch(1.5, 1.0, 1.0, 1e-3, np.random.default_rng(s["besq"]), n)
        return paths[:, -1]

    def besq_check(x_t):
        mean_se = x_t.std(ddof=1) / np.sqrt(len(x_t))
        var = x_t.var(ddof=1)
        var_se = np.sqrt(np.var((x_t - x_t.mean()) ** 2, ddof=1) / len(x_t))
        return _three_se(x_t.mean(), 2.5, mean_se) and _three_se(var, 3.5, var_se)

    ops.append(Op("simulate_besq_batch", n, besq, besq_check))

    n_hit = n // 2

    def hitting():
        return bessel.empirical_hitting(1.5, 0.5, 1.0, 2.0, 2.5e-4, n_hit, np.random.default_rng(s["hitting"]))

    def hitting_check(res):
        p = bessel.hitting_prob(1.5, 0.5, 1.0, 2.0)
        return abs(res["hit_a"] / res["n"] - p) <= 3.0 * np.sqrt(p * (1 - p) / res["n"]) + 0.01

    ops.append(Op("empirical_hitting", n_hit, hitting, hitting_check))
    return ops


def montecarlo(rng, toy=False):
    """Each validator once at n = 2000; the Dirichlet-form contraction
    splits its n over two calls, and the hitting run uses n/2 paths."""
    del rng  # the streams are pinned, see MC_SEEDS
    return _mc_ops(200 if toy else 2000), _mc_ops(50, seed_offset=1000)


WORKLOADS = {
    "let_small": let_small,
    "let_large": let_large,
    "potentials": potentials,
    "montecarlo": montecarlo,
}

# what one "item" of items_per_s is, per workload
ITEMS = {
    "let_small": "solves",
    "let_large": "solves",
    "potentials": "potential pairs",
    "montecarlo": "Monte-Carlo samples",
}
