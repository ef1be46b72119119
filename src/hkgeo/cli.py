"""Command-line interface: distances, potentials, mollification, validation
suites, samplers, and scaling-limit diagnostics.

Configuration is a flat ``key = value`` text file overridden by flags;
every report embeds the fully resolved configuration, and stochastic
commands require an explicit seed so runs are reproducible bit for bit.
"""

import argparse
import csv
import json
import sys
import time

import numpy as np

from .measures import (
    DiscreteMeasure,
    hellinger_sq,
    load_measure,
    measure_to_json,
    save_measure,
    wasserstein_sq,
)
from .let import (
    LetProblem,
    let_problem,
    lift_to_cone,
    limit_diagnostics,
    solve_let,
    verify_optimality,
)
from .mollify import MollifierConfig, mollify
from .potentials import gradient_duality_value, grid_measure_on_ball, legendre_pair
from . import cylinders as cyl
from .randmeas import (
    IntensityParams,
    df_batch,
    estimate_intensity,
    gamma_batch,
    invariance_checks,
    mecke_check_df,
    mecke_check_mlp,
    mlp_window_batch,
)
from . import bessel as bes


def _sanitize(obj):
    """JSON-safe conversion: numpy scalars/arrays unwrapped, +-inf as strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if np.isposinf(v):
            return "inf"
        if np.isneginf(v):
            return "-inf"
        if np.isnan(v):
            return "nan"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _emit(report, out_path):
    text = json.dumps(_sanitize(report), indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read_config(path):
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            cfg[key.replace("-", "_")] = val
    return cfg


def _resolve(args):
    """Fill each flag left off the command line from the config file, else
    from its subcommand's own default (see _defaults_after_config)."""
    cfg = _read_config(args.config) if getattr(args, "config", None) else {}
    for key, default in args._defaults.items():
        if hasattr(args, key):
            continue  # explicit flag wins
        if key not in cfg:
            value = default
        elif isinstance(default, bool):
            value = cfg[key].lower() in ("1", "true", "yes")
        elif isinstance(default, (int, float)):
            value = type(default)(cfg[key])
        else:
            value = cfg[key]
        setattr(args, key, value)


def _defaults_after_config(p, func):
    """Give p's optional flags the default SUPPRESS, so the parsed namespace
    holds exactly the flags given, and keep their real defaults on the
    namespace as _defaults; _resolve applies config values, then these."""
    defaults = {}
    for action in p._actions:
        if action.option_strings and not action.required and action.default is not argparse.SUPPRESS:
            defaults[action.dest] = action.default
            action.default = argparse.SUPPRESS
    p.set_defaults(func=func, _defaults=defaults)


def _config_dict(args, skip=("func", "config")):
    return {
        k: _sanitize(v)
        for k, v in sorted(vars(args).items())
        if k not in skip and not k.startswith("_")
    }


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------

def cmd_dist(args):
    t0 = time.time()
    mu0 = load_measure(args.measure0)
    mu1 = load_measure(args.measure1)
    report = {"metric": args.metric, "config": _config_dict(args)}
    code = 0
    if args.cost:
        with open(args.cost) as fh:
            cost = np.array([[float(v) if v.strip() != "inf" else np.inf for v in row] for row in csv.reader(fh) if row])
        sol = solve_let(LetProblem(mu0, mu1, cost), args.tol)
        report["metric"] = "let"
        code = _fill_let_report(report, sol, args.plan)
    elif args.metric == "he":
        report["value"] = hellinger_sq(mu0, mu1)
    elif args.metric == "w2":
        report["value"] = wasserstein_sq(mu0, mu1)
    elif args.metric in ("ghk", "hk"):
        sol = solve_let(let_problem(mu0, mu1, args.metric), args.tol)
        code = _fill_let_report(report, sol, args.plan)
    else:
        raise ValueError(f"unknown metric {args.metric!r}")
    report["runtime_ms"] = 1000.0 * (time.time() - t0)
    _emit(report, args.out)
    return code


def _fill_let_report(report, sol, include_plan):
    report["value"] = sol.primal_value
    report["values"] = {"primal": sol.primal_value, "dual": sol.dual_value}
    report["gap"] = sol.gap
    report["sigma0"] = sol.sigma0
    report["sigma1"] = sol.sigma1
    report["phi0"] = sol.phi0
    report["phi1"] = sol.phi1
    report["iterations"] = sol.iterations
    report["epsilon_final"] = sol.epsilon_final
    report["stats"] = sol.stats
    report["converged"] = sol.converged
    if include_plan:
        report["plan"] = sol.plan
    return 0 if sol.converged else 2


# ---------------------------------------------------------------------------
# mollify / potentials
# ---------------------------------------------------------------------------

def cmd_mollify(args):
    mu = load_measure(args.measure)
    cfg = MollifierConfig(args.eps, args.spacing, dim=mu.dim)
    out = mollify(mu, cfg)
    save_measure(out, args.out)
    _emit(
        {
            "input_mass": mu.mass,
            "output_mass": out.mass,
            "atoms": len(out),
            "config": _config_dict(args),
        },
        None,
    )
    return 0


def _write_grid_csv(path, name, points, values):
    """One row per grid node: its coordinates x1..xd, then its value."""
    with open(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i+1}" for i in range(points.shape[1])] + [name])
        for p, v in zip(points, values):
            writer.writerow(list(map(repr, map(float, p))) + [repr(float(v))])


def cmd_potentials(args):
    mu = load_measure(args.measure)
    if mu.dim != 1 and mu.dim != 2:
        raise ValueError("potentials are supported in dimensions 1 and 2")
    nu = grid_measure_on_ball(
        lambda p: args.nu_base + args.nu_bump * np.exp(-np.sum(p * p, axis=1)),
        args.radius,
        args.spacing,
        mu.dim,
    )
    cfg = MollifierConfig(args.eps, args.spacing, dim=mu.dim)
    pair = legendre_pair(nu, mu, cfg, tol=args.tol, radius=args.radius)
    t_mu = mollify(mu, cfg)
    grad_value, excluded = gradient_duality_value(pair, t_mu)
    _write_grid_csv(args.out + ".phi.csv", "phi", pair.phi_points, pair.phi)
    _write_grid_csv(args.out + ".psi.csv", "psi", pair.psi_points, pair.psi)
    report = {
        "duality_value": pair.duality_value,
        "solver_value": pair.solver_value,
        "solver_gap": pair.solver_gap,
        "gradient_value": grad_value,
        "excluded_mass": excluded,
        "K": pair.K,
        "psi_lipschitz": pair.psi_lipschitz(),
        "R": pair.R,
        "config": _config_dict(args),
    }
    _emit(report, args.out + ".report.json")
    return 0


# ---------------------------------------------------------------------------
# simulate / sample
# ---------------------------------------------------------------------------

def cmd_simulate_besq(args):
    rng = np.random.default_rng(args.seed)
    paths, t_grid, clipped = bes.simulate_besq_batch(
        args.theta, args.x0, args.T, args.dt, rng, args.paths
    )
    with open(args.out, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i}" for i in range(args.paths)])
        for k, t in enumerate(t_grid):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in paths[:, k]])
    _emit(
        {"clipped_fraction": clipped, "paths": args.paths, "config": _config_dict(args)},
        None,
    )
    return 0


def cmd_sample(args):
    params = IntensityParams(args.theta, dim=args.dim)
    window = _parse_window(args.window) if args.window else None
    if args.law == "df":
        batch = df_batch(params, args.beta, args.n, args.seed)
    elif args.law == "gamma":
        batch = gamma_batch(params, args.n, args.seed).measures
    elif args.law == "mlp":
        if window is None:
            raise ValueError("sample mlp requires --window a,b")
        batch = mlp_window_batch(params, window, args.n, args.seed).measures
    else:
        raise ValueError(f"unknown law {args.law!r}")
    # each law is sampled directly, so every record has importance weight 1
    records = [dict(measure_to_json(mu), iw=1.0) for mu in batch]
    header = {
        "provenance": {
            "law": args.law,
            "seed": args.seed,
            "window": window,
            "theta": args.theta,
            "beta": args.beta,
        },
        "config": _config_dict(args),
    }
    with open(args.out, "w") as fh:
        fh.write(json.dumps(_sanitize(header)) + "\n")
        for rec in records:
            fh.write(json.dumps(_sanitize(rec)) + "\n")
    print(f"wrote {args.n} {args.law} samples to {args.out}")
    return 0


def _parse_window(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("window must be 'a,b'")
    a, b = float(parts[0]), float(parts[1])
    if not 0 <= a < b:
        raise ValueError("window must satisfy 0 <= a < b")
    return (a, b)


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

def cmd_limits(args):
    mu0 = load_measure(args.measure0)
    mu1 = load_measure(args.measure1)
    lambdas = [float(v) for v in args.lambdas.split(",")]
    tab = limit_diagnostics(mu0, mu1, lambdas, args.tol)
    tab["config"] = _config_dict(args)
    _emit(tab, args.out)
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _random_measure(rng, n, dim=2, scale=1.2):
    return DiscreteMeasure(rng.normal(0, scale, (n, dim)), rng.uniform(0.1, 2.0, n))


def _suite_duality(args):
    rng = np.random.default_rng(args.seed)
    checks = []
    for k in range(args.n):
        m0 = _random_measure(rng, rng.integers(1, 9))
        m1 = _random_measure(rng, rng.integers(1, 9))
        for kind in ("ghk", "hk"):
            p = let_problem(m0, m1, kind)
            s = solve_let(p, args.tol)
            rep = verify_optimality(p, s, 1e-6)
            cp = lift_to_cone(p, s)
            h0, h1 = cp.homogeneous_marginals()
            ok = (
                s.converged
                and rep.ok()
                and h0.allclose(m0, atol=1e-8)
                and h1.allclose(m1, atol=1e-8)
            )
            checks.append(
                {
                    "name": f"pair{k}-{kind}",
                    "value": s.gap / (1 + abs(s.primal_value)),
                    "tol": args.tol,
                    "certificate": rep.as_dict(),
                    "pass": bool(ok),
                }
            )
    return checks


def _suite_mecke_df(args):
    params = IntensityParams(args.theta, dim=2)
    rng = np.random.default_rng(args.seed)
    beta = args.beta
    reports = [
        mecke_check_df(lambda eta, x, t: t, beta, params, n=args.n, rng=rng, name="F=t"),
        mecke_check_df(lambda eta, x, t: t**2, beta, params, n=args.n, rng=rng, name="F=t^2"),
    ]
    checks = [dict(r.as_dict(), **{"pass": r.verdict}) for r in reports]
    closed = 1.0 / (1.0 + beta)
    checks.append(
        {
            "name": "F=t rhs equals 1/(1+beta)",
            "value": reports[0].rhs,
            "target": closed,
            "pass": bool(abs(reports[0].rhs - closed) <= 3 * reports[0].se_rhs),
        }
    )
    return checks


def _suite_mecke_mlp(args):
    params = IntensityParams(args.theta, dim=2)
    rng = np.random.default_rng(args.seed)
    reports = [
        mecke_check_mlp(lambda s, x: np.exp(-2 * s), params, n=args.n, rng=rng, name="h=e^{-2s}"),
        mecke_check_mlp(lambda s, x: s, params, n=args.n, rng=rng, name="h=s"),
    ]
    return [dict(r.as_dict(), **{"pass": r.verdict}) for r in reports]


def _suite_invariance(args):
    params = IntensityParams(args.theta, dim=2)
    reports = invariance_checks(params, n=args.n, seed=args.seed)
    checks = [dict(r.as_dict(), **{"pass": r.verdict}) for r in reports.values()]
    batch = gamma_batch(params, args.n, seed=args.seed + 1)
    est = estimate_intensity(batch)
    checks.append(
        {
            "name": "estimate_intensity theta",
            "value": est["theta_hat"],
            "target": args.theta,
            "pass": bool(abs(est["theta_hat"] - args.theta) <= 3 * est["theta_se"]),
        }
    )
    return checks


def _registered_cylinders(rng):
    out = []
    for _ in range(5):
        out.append(cyl.parse_cylinder("poly:0,1,%.3f | gauss(%.2f,%.2f,1.1)" % (
            rng.uniform(-0.4, 0.4), rng.normal(), rng.normal())))
    out.append(cyl.parse_cylinder("sum | gauss(0,0,1); bump(0,0,2)"))
    out.append(cyl.parse_cylinder("tanh_sum | gauss(0.3,-0.2,0.9); one"))
    return out


def _suite_gradient(args):
    rng = np.random.default_rng(args.seed)
    checks = []
    for k in range(args.n):
        mu = _random_measure(rng, rng.integers(2, 6))
        u = _registered_cylinders(rng)[k % 7]
        t1 = rng.normal(0, 1, (len(mu), 2))
        t2 = rng.normal(0, 1, len(mu))
        d = cyl.perturbation_derivative(u, mu, t1, t2)
        expected = cyl.tangent_pairing(cyl.gradient(u, mu), mu, t1, t2)
        rel = abs(d - expected) / max(abs(expected), 1e-10)
        checks.append({"name": f"fd-{k}", "value": rel, "tol": 1e-4, "pass": bool(rel <= 1e-4)})
    return checks


def _suite_slope(args):
    rng = np.random.default_rng(args.seed)
    checks = []
    for k in range(max(2, args.n // 4)):
        mu = _random_measure(rng, 4, scale=0.6)
        u = _registered_cylinders(rng)[k % 7]
        for metric in ("hk", "he", "w"):
            ana = cyl.analytic_slope(u, mu, metric)
            probe = cyl.slope_probe(u, mu, metric, n_samples=4, rng=rng)
            ok = probe <= ana * 1.05 + 1e-9 and probe >= ana * 0.90 - 1e-9
            checks.append(
                {
                    "name": f"slope-{k}-{metric}",
                    "probe": probe,
                    "analytic": ana,
                    "pass": bool(ok),
                }
            )
    return checks


def _suite_bessel(args):
    rng = np.random.default_rng(args.seed)
    checks = []
    theta, x0, T, dt, n = args.theta, 1.0, 1.0, 1e-3, args.n
    paths, _, _ = bes.simulate_besq_batch(theta, x0, T, dt, rng, n)
    xT = paths[:, -1]
    se = xT.std(ddof=1) / np.sqrt(n)
    checks.append(
        {
            "name": "mean",
            "value": float(xT.mean()),
            "target": x0 + theta * T,
            "pass": bool(abs(xT.mean() - (x0 + theta * T)) <= 3 * se),
        }
    )
    var = xT.var(ddof=1)
    se_var = float(np.sqrt(np.var((xT - xT.mean()) ** 2, ddof=1) / n))
    checks.append(
        {
            "name": "variance",
            "value": float(var),
            "target": 2 * x0 * T + theta * T**2,
            "pass": bool(abs(var - (2 * x0 * T + theta * T**2)) <= 3 * se_var),
        }
    )
    for th in (0.5, 1.0, 1.5, 3.0):
        res = bes.empirical_hitting(th, 0.5, 1.0, 2.0, 2.5e-4, min(n, 10000), rng)
        p = bes.hitting_prob(th, 0.5, 1.0, 2.0)
        p_hat = res["hit_a"] / res["n"]
        se_p = np.sqrt(p * (1 - p) / res["n"])
        checks.append(
            {
                "name": f"hitting theta={th}",
                "value": p_hat,
                "target": p,
                "pass": bool(abs(p_hat - p) <= 3 * se_p + 0.01),
            }
        )
    f = bes.smooth_bump_radial(0.8, 2.2)
    g = bes.smooth_bump_radial(1.0, 2.6)
    resid, scale = bes.generator_symmetry(theta, f, g)
    checks.append({"name": "generator", "value": resid, "tol": 1e-7 * scale, "pass": bool(resid <= 1e-7 * scale)})
    worst = max(
        bes.bessel_ode_residual(th, t, sol)
        for th in (0.5, 1.5, 3.0)
        for t in (0.5, 1.0, 2.0)
        for sol in ("first", "second")
    )
    checks.append({"name": "0F1 eigenfunctions", "value": worst, "tol": 1e-8, "pass": bool(worst <= 1e-8)})
    return checks


def _suite_radial_iso(args):
    params = IntensityParams(args.theta, dim=2)
    chi = bes.smooth_bump_radial(1.0, 2.0)
    res = bes.radial_form_mc(args.theta, params, chi, (0.8, 2.2), n=args.n, rng_seed=args.seed)
    checks = [
        {
            "name": "radial form mc vs quadrature",
            "mc": res["mc"],
            "quad": res["quad"],
            "se": res["se"],
            "pass": bool(abs(res["mc"] - res["quad"]) <= 3 * res["se"]),
        },
        {
            "name": "horizontal gradient vanishes",
            "value": res["max_horizontal"],
            "pass": bool(res["max_horizontal"] == 0.0),
        },
    ]
    return checks


def _suite_limits(args):
    rng = np.random.default_rng(args.seed)
    checks = []
    for k in range(max(2, args.n // 8)):
        n_atoms = int(rng.integers(2, 5))
        m0 = DiscreteMeasure(rng.uniform(-1, 1, (n_atoms, 2)), rng.uniform(0.2, 1.5, n_atoms))
        w = rng.uniform(0.2, 1.5, n_atoms)
        w *= m0.mass / w.sum()
        m1 = DiscreteMeasure(rng.uniform(-1, 1, (n_atoms, 2)), w)
        tab = limit_diagnostics(m0, m1, [1, 2, 4, 8, 16, 32, 64], args.tol)
        ok = (
            tab["hk_monotone"]
            and tab["w_monotone"]
            and abs(tab["hk_lambda_sq"][-1] - tab["hellinger_sq"]) <= 0.02 * tab["hellinger_sq"]
            and abs(tab["w_ladder_sq"][-1] - tab["wasserstein_sq"]) <= 0.02 * tab["wasserstein_sq"]
        )
        checks.append(
            {
                "name": f"ladder-{k}",
                "hk_terminal": tab["hk_lambda_sq"][-1],
                "hellinger_sq": tab["hellinger_sq"],
                "w_terminal": tab["w_ladder_sq"][-1],
                "wasserstein_sq": tab["wasserstein_sq"],
                "pass": bool(ok),
            }
        )
    return checks


SUITES = {
    "duality": _suite_duality,
    "mecke-df": _suite_mecke_df,
    "mecke-mlp": _suite_mecke_mlp,
    "invariance": _suite_invariance,
    "gradient": _suite_gradient,
    "slope": _suite_slope,
    "bessel": _suite_bessel,
    "radial-iso": _suite_radial_iso,
    "limits": _suite_limits,
}


def cmd_validate(args):
    if args.suite not in SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    t0 = time.time()
    checks = SUITES[args.suite](args)
    ok = all(c["pass"] for c in checks)
    report = {
        "suite": args.suite,
        "passed": ok,
        "checks": checks,
        "runtime_ms": 1000.0 * (time.time() - t0),
        "config": _config_dict(args),
    }
    _emit(report, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="hkgeo",
        description="Hellinger-Kantorovich geometry on discrete measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distance between two measure files")
    p.add_argument("measure0")
    p.add_argument("measure1")
    p.add_argument("--metric", default="ghk", choices=["he", "w2", "ghk", "hk"])
    p.add_argument("--cost", default=None, help="explicit cost-matrix CSV (overrides metric)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--plan", action="store_true", help="include the optimal plan")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    _defaults_after_config(p, cmd_dist)

    p = sub.add_parser("mollify", help="grid mollification of a measure")
    p.add_argument("measure")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--spacing", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    _defaults_after_config(p, cmd_mollify)

    p = sub.add_parser("potentials", help="optimal Legendre potential pair")
    p.add_argument("measure")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--spacing", type=float, default=0.01)
    p.add_argument("--eps", type=float, default=0.4)
    p.add_argument("--nu-base", dest="nu_base", type=float, default=0.5)
    p.add_argument("--nu-bump", dest="nu_bump", type=float, default=0.3)
    p.add_argument("--tol", type=float, default=5e-3)
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--config", default=None)
    _defaults_after_config(p, cmd_potentials)

    p = sub.add_parser("validate", help="run a validation suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--theta", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    _defaults_after_config(p, cmd_validate)

    p = sub.add_parser("simulate", help="simulate a stochastic process")
    sim_sub = p.add_subparsers(dest="process", required=True)
    pb = sim_sub.add_parser("besq", help="squared-Bessel Euler paths")
    pb.add_argument("--theta", type=float, required=True)
    pb.add_argument("--x0", type=float, required=True)
    pb.add_argument("--T", type=float, required=True)
    pb.add_argument("--dt", type=float, required=True)
    pb.add_argument("--paths", type=int, default=1)
    pb.add_argument("--seed", type=int, required=True)
    pb.add_argument("--out", required=True)
    pb.add_argument("--config", default=None)
    _defaults_after_config(pb, cmd_simulate_besq)

    p = sub.add_parser("sample", help="sample random measures")
    p.add_argument("law", choices=["df", "gamma", "mlp"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--theta", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--window", default=None, help="mass window 'a,b' for mlp")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    _defaults_after_config(p, cmd_sample)

    p = sub.add_parser("limits", help="scaling-limit ladder diagnostics")
    p.add_argument("measure0")
    p.add_argument("measure1")
    p.add_argument("--lambdas", default="1,2,4,8,16,32,64")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    _defaults_after_config(p, cmd_limits)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _resolve(args)
        return args.func(args)
    except (ValueError, OSError, RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
