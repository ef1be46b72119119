"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  A criterion that has an `hkgeo validate`
suite runs that suite at the criterion's pinned seed and size, and states
its own bounds on the fields of the suite's JSON report.  Run with
`pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import time

import numpy as np
import pytest

from hkgeo.cli import _random_measure as random_measure, main
from hkgeo.measures import DiscreteMeasure
from hkgeo.let import let_problem, solve_let
from hkgeo.mollify import MollifierConfig, mollify
from hkgeo.potentials import gradient_duality_value, grid_measure_on_ball, legendre_pair
from hkgeo import cylinders as cyl
from hkgeo.randmeas import IntensityParams
from hkgeo import bessel as bes


def report(number, description, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number}: {description} {detail}")
    assert passed, f"criterion {number} failed: {description} {detail}"


def validate(out_dir, *argv):
    """Run `hkgeo validate *argv`; its checks by name.  The criterion judges
    the fields itself, so the suite's own verdict and exit code are not read."""
    out = out_dir / "report.json"
    main(["validate", *argv, "--out", str(out)])
    return {c["name"]: c for c in json.loads(out.read_text())["checks"]}


class TestCriterion1SingleAtomClosedForms:
    def test_single_atom_closed_forms(self):
        rng = np.random.default_rng(101)
        t0 = time.time()
        worst = 0.0
        for _ in range(200):
            a, b = rng.uniform(0.1, 10.0, 2)
            d = rng.uniform(0.0, 3.0)
            m0 = DiscreteMeasure([[0.0]], [a])
            m1 = DiscreteMeasure([[d]], [b])
            ghk = solve_let(let_problem(m0, m1, "ghk"), 1e-9).primal_value
            hk = solve_let(let_problem(m0, m1, "hk"), 1e-9).primal_value
            ghk_closed = a + b - 2 * np.sqrt(a * b) * np.exp(-d * d / 2)
            hk_closed = a + b - 2 * np.sqrt(a * b) * np.cos(min(d, np.pi / 2))
            worst = max(
                worst,
                abs(ghk - ghk_closed) / ghk_closed if ghk_closed else abs(ghk),
                abs(hk - hk_closed) / hk_closed if hk_closed else abs(hk),
            )
        elapsed = time.time() - t0
        report(
            1,
            "single-atom closed forms (200 pairs, rel err <= 1e-6, <= 5 s)",
            worst <= 1e-6 and elapsed <= 5.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f} s",
        )


class TestCriterion2DualityCertificates:
    def test_duality_certificates(self, tmp_path):
        t0 = time.time()
        checks = validate(tmp_path, "duality", "--n", "50", "--seed", "102", "--tol", "1e-6").values()
        elapsed = time.time() - t0
        worst_gap = max(c["value"] for c in checks)
        worst_sigma = max(
            max(c["certificate"]["product_lower_violation"], c["certificate"]["product_support_violation"])
            for c in checks
        )
        worst_marg = max(c["marginal_dev"] for c in checks)
        report(
            2,
            "duality certificates on 50 pairs (<= 10 atoms)",
            worst_gap <= 1e-6 and worst_sigma <= 1e-6 and worst_marg <= 1e-8 and elapsed <= 60,
            f"gap {worst_gap:.2e}, sigma-cond {worst_sigma:.2e}, marginals {worst_marg:.2e}, {elapsed:.1f} s",
        )


class TestCriterion3MetricAxioms:
    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(103)
        worst_sym = 0.0
        worst_tri = -np.inf
        for _ in range(200):
            ms = [random_measure(rng, rng.integers(1, 5)) for _ in range(3)]
            d01 = np.sqrt(solve_let(let_problem(ms[0], ms[1], "hk"), 1e-9).primal_value)
            d10 = np.sqrt(solve_let(let_problem(ms[1], ms[0], "hk"), 1e-9).primal_value)
            d12 = np.sqrt(solve_let(let_problem(ms[1], ms[2], "hk"), 1e-9).primal_value)
            d02 = np.sqrt(solve_let(let_problem(ms[0], ms[2], "hk"), 1e-9).primal_value)
            worst_sym = max(worst_sym, abs(d01 - d10))
            worst_tri = max(worst_tri, d02 - (d01 + d12))
        report(
            3,
            "sqrt(hk_sq) symmetric and triangle inequality on 200 triples (1e-6)",
            worst_sym <= 1e-6 and worst_tri <= 1e-6,
            f"asymmetry {worst_sym:.2e}, triangle excess {worst_tri:.2e}",
        )

    def test_mass_homogeneity(self):
        rng = np.random.default_rng(104)
        worst = 0.0
        for _ in range(20):
            m0 = random_measure(rng, 4)
            m1 = random_measure(rng, 3)
            base = solve_let(let_problem(m0, m1, "hk"), 1e-9).primal_value
            for c in (0.5, 2.0, 10.0):
                s0 = DiscreteMeasure(m0.points, c * m0.weights)
                s1 = DiscreteMeasure(m1.points, c * m1.weights)
                val = solve_let(let_problem(s0, s1, "hk"), 1e-9).primal_value
                worst = max(worst, abs(val - c * base) / (c * base))
        report(
            3,
            "mass homogeneity hk_sq(c mu, c nu) = c hk_sq (2e-6 relative)",
            worst <= 2e-6,
            f"worst rel dev {worst:.2e}",
        )


class TestCriterion4ScalingLimits:
    def test_ladders(self, tmp_path):
        # 10 ladders at lambda = 1, 2, 4, ..., 64
        checks = validate(tmp_path, "limits", "--n", "80", "--seed", "105", "--tol", "1e-9").values()
        ok_mono = all(c["hk_monotone"] for c in checks)
        worst_he = max(abs(c["hk_terminal"] - c["hellinger_sq"]) / c["hellinger_sq"] for c in checks)
        worst_w = max(abs(c["w_terminal"] - c["wasserstein_sq"]) / c["wasserstein_sq"] for c in checks)
        report(
            4,
            "scaling limits: monotone HK ladder, terminal within 2% of He^2 and W^2",
            ok_mono and worst_he <= 0.02 and worst_w <= 0.02,
            f"He dev {worst_he:.2e}, W dev {worst_w:.2e}",
        )


class TestCriterion5Potentials:
    def test_potentials(self):
        spacing = 0.01
        nu = grid_measure_on_ball(
            lambda p: 0.5 + 0.3 * np.exp(-np.sum(p * p, axis=1)), 1.0, spacing, 1
        )
        cfg = MollifierConfig(0.4, spacing, dim=1)
        rng = np.random.default_rng(106)
        mu = DiscreteMeasure(rng.normal(0, 1.0, (4, 1)), rng.uniform(0.3, 1.5, 4))
        pair = legendre_pair(nu, mu, cfg)
        dev12 = abs(pair.duality_value - pair.solver_value) / pair.solver_value
        t_mu = mollify(mu, cfg)
        grad_value, _ = gradient_duality_value(pair, t_mu)
        dev13 = abs(grad_value - pair.duality_value) / pair.duality_value
        lip_ok = pair.psi_lipschitz() <= pair.R + 1e-9
        ks = []
        for c in (2e2, 2e3, 2e4, 2e5):
            scaled = DiscreteMeasure(mu.points, mu.weights * (c / mu.mass))
            ks.append(legendre_pair(nu, scaled, cfg).K)
        ks = np.array(ks)
        k_spread = (ks.max() - ks.min()) / ks.mean()
        report(
            5,
            "potentials: dual value within 2% of ghk_sq, gradient form within 2%, psi R-Lipschitz, K uniform (<10%)",
            dev12 <= 0.02 and dev13 <= 0.02 and lip_ok and k_spread < 0.10,
            f"dual dev {dev12:.2e}, gradient-form dev {dev13:.2e}, K spread {k_spread:.1%} over masses x1e3",
        )


class TestCriterion6CylinderCalculus:
    def test_gradient_finite_differences(self, tmp_path):
        checks = validate(tmp_path, "gradient", "--n", "50", "--seed", "107").values()
        worst = max(c["value"] for c in checks)
        report(
            6,
            "gradient vs extrapolated finite differences (50 configs, 1e-4 relative)",
            worst <= 1e-4,
            f"worst rel dev {worst:.2e}",
        )

    def test_slope_probes(self, tmp_path):
        # 8 measures of 4 atoms, each probed in hk, he and w
        checks = validate(tmp_path, "slope", "--n", "32", "--seed", "108")
        detail = [
            (name, c["probe"], c["analytic"])
            for name, c in checks.items()
            if not c["analytic"] * 0.90 - 1e-9 <= c["probe"] <= c["analytic"] * 1.05 + 1e-9
        ]
        report(
            6,
            "slope probes within [0.90, 1.05] x tangent norm (optimal direction included)",
            not detail,
            str(detail) if detail else "",
        )

    def test_truncation_slope_bound(self):
        bound_const = 2.0 * np.sqrt(8.0 + 2.0 * np.pi**2)
        rng = np.random.default_rng(109)
        ok = True
        for k in (1.0, 4.0, 16.0):
            u = cyl.truncation(k)
            for _ in range(30):
                mass = rng.uniform(0.01, 2.0) * k
                n = int(rng.integers(1, 5))
                w = rng.uniform(0.2, 1.0, n)
                w *= mass / w.sum()
                mu = DiscreteMeasure(rng.normal(0, 1, (n, 2)), w)
                norm = cyl.tangent_norm_14(cyl.gradient(u, mu), mu)
                ok &= norm <= bound_const / np.sqrt(k) + 1e-12
        report(
            6,
            "truncation slope bound 2 sqrt(8 + 2 pi^2)/sqrt(k) for k in {1, 4, 16}",
            ok,
        )


class TestCriterion7MeckeIdentities:
    def test_mecke(self, tmp_path):
        t0 = time.time()
        df = validate(tmp_path, "mecke-df", "--theta", "2", "--beta", "1", "--n", "100000", "--seed", "110")
        mlp = validate(tmp_path, "mecke-mlp", "--theta", "2", "--n", "100000", "--seed", "111")
        elapsed = time.time() - t0
        rep_df, rhs, rep_mlp = df["F=t"], df["F=t rhs equals 1/(1+beta)"], mlp["h=e^{-2s}"]
        df_ok = rep_df["verdict"] and abs(rhs["value"] - rhs["target"]) <= 3 * rhs["se"]
        report(
            7,
            "Mecke identities: DF with F=t reproduces 1/(1+beta); damped MLP two-sided (3 SE, n=1e5, <= 120 s)",
            df_ok and rep_mlp["verdict"] and elapsed <= 120,
            f"df |lhs-rhs| {abs(rep_df['lhs'] - rep_df['rhs']):.2e}, "
            f"mlp |lhs-rhs| {abs(rep_mlp['lhs'] - rep_mlp['rhs']):.2e}, {elapsed:.0f} s",
        )


class TestCriterion8Invariance:
    def test_invariance_and_intensity(self, tmp_path):
        # the intensity estimate draws its Gamma batch at seed + 1 = 113
        checks = validate(tmp_path, "invariance", "--theta", "2", "--n", "100000", "--seed", "112")
        hom = checks["homogeneity"]
        hom_ok = abs(hom["lhs"] - hom["rhs"]) <= 1e-12 * max(abs(hom["lhs"]), 1.0)
        mult_ok = checks["multiplier-traceless"]["verdict"] and checks["multiplier-radial"]["verdict"]
        est = checks["estimate_intensity theta"]
        theta_ok = abs(est["value"] - est["target"]) <= 3 * est["se"]
        report(
            8,
            "exact lambda_theta homogeneity; multiplier prefactor e^{-theta int log k dnu}; theta recovery (3 SE)",
            hom_ok and mult_ok and theta_ok,
            f"theta_hat {est['value']:.4f} +- {est['se']:.4f}",
        )


@pytest.fixture(scope="module")
def bessel_checks(tmp_path_factory):
    """One `validate bessel` run shared by both criterion-9 tests: 10,000
    paths to T = 1 from x0 = 1 at dt = 1e-3, then 10,000 hitting paths at
    each of theta = 0.5, 1, 1.5, 3."""
    out_dir = tmp_path_factory.mktemp("bessel")
    return validate(out_dir, "bessel", "--theta", "1.5", "--n", "10000", "--seed", "114")


class TestCriterion9Bessel:
    def test_moments_and_hitting(self, bessel_checks):
        mean, var = bessel_checks["mean"], bessel_checks["variance"]
        hits = [c for name, c in bessel_checks.items() if name.startswith("hitting")]
        mean_ok = abs(mean["value"] - mean["target"]) <= 3 * mean["se"]
        var_ok = abs(var["value"] - var["target"]) <= 3 * var["se"]
        hit_ok = all(abs(c["value"] - c["target"]) <= 3 * c["se"] + 0.01 for c in hits)
        report(
            9,
            "Bessel moments E[x_T]=x0+theta T, Var=2x0T+theta T^2; hitting matches scale function",
            mean_ok and var_ok and hit_ok and len(hits) == 4,
            f"mean {mean['value']:.4f} (target {mean['target']}), "
            f"var {var['value']:.4f} (target {var['target']})",
        )

    def test_generator_and_eigenfunctions(self, bessel_checks):
        gen, eig = bessel_checks["generator"], bessel_checks["0F1 eigenfunctions"]
        report(
            9,
            "generator-symmetry residual <= 1e-7; 0F1 eigenfunction residuals <= 1e-8",
            gen["value"] <= 1e-7 * gen["scale"] and eig["value"] <= 1e-8,
            f"generator {gen['value']:.2e}, eigenfunctions {eig['value']:.2e}",
        )


class TestCriterion10RadialIsomorphism:
    def test_radial_form(self, tmp_path):
        checks = validate(tmp_path, "radial-iso", "--theta", "1.5", "--n", "100000", "--seed", "115")
        form = checks["radial form mc vs quadrature"]
        match = abs(form["value"] - form["target"]) <= 3 * form["se"]
        report(
            10,
            "dirichlet_form_mc on radial functions matches 4 quadrature_E within 3 SE (n=1e5)",
            match and checks["horizontal gradient vanishes"]["value"] == 0.0,
            f"mc {form['value']:.5f} +- {form['se']:.5f}, quad {form['target']:.5f}",
        )

    def test_contraction(self):
        theta = 2.0
        params = IntensityParams(theta, dim=2)
        chi = bes.smooth_bump_radial(1.0, 2.0)
        rng = np.random.default_rng(116)
        from hkgeo.randmeas import uniform_ball_sampler

        draw, _ = uniform_ball_sampler(2)
        nu_probe = draw(np.random.default_rng(117), 200_000)
        failures = 0
        for trial in range(20):
            kern = cyl.gauss_kernel(rng.normal(0, 0.4, 2), rng.uniform(0.6, 1.2))
            c0 = rng.uniform(0.2, 1.0)
            c_f = float(np.mean(kern.fn(nu_probe)))
            u = cyl.CylinderFunction(
                cyl.OuterFunction(lambda a, c0=c0: c0 + a[0], [lambda a: 1.0], 1),
                [kern],
                cutoff=lambda m: chi.f(m),
                cutoff_prime=lambda m: chi.d1(m),
            )
            u_rad = cyl.CylinderFunction(
                cyl.OuterFunction(lambda a: 1.0, [lambda a: 0.0], 1),
                [cyl.one_kernel()],
                cutoff=lambda m, c0=c0, c_f=c_f: chi.f(m) * (c0 + c_f * m),
                cutoff_prime=lambda m, c0=c0, c_f=c_f: chi.d1(m) * (c0 + c_f * m)
                + chi.f(m) * c_f,
            )
            e_u, se_u = bes.dirichlet_form_mc(u, theta, params, (0.8, 2.2), n=5000, rng_seed=300 + trial)
            e_r, se_r = bes.dirichlet_form_mc(u_rad, theta, params, (0.8, 2.2), n=5000, rng_seed=300 + trial)
            if e_r > e_u + 3 * np.hypot(se_u, se_r):
                failures += 1
        report(
            10,
            "radial-projection contraction E(u^rad) <= E(u) on 20 random u (within MC error)",
            failures == 0,
            f"{failures} violations",
        )
