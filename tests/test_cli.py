import json
import csv
import shlex
from pathlib import Path

import numpy as np
import pytest

from hkgeo.cli import build_parser, main
from hkgeo.let import limit_diagnostics
from hkgeo.measures import DiscreteMeasure, load_measure, measure_to_json


@pytest.fixture
def measure_files(tmp_path):
    rng = np.random.default_rng(0)
    a = DiscreteMeasure([[0.0, 0.0]], [1.0])
    b = DiscreteMeasure([[1.0, 0.0]], [2.0])
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(measure_to_json(a)))
    pb.write_text(json.dumps(measure_to_json(b)))
    return str(pa), str(pb)


class TestDist:
    def test_ghk_single_atoms_closed_form(self, measure_files, tmp_path, capsys):
        pa, pb = measure_files
        out = tmp_path / "r.json"
        code = main(["dist", "--metric", "ghk", pa, pb, "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        expected = 1.0 + 2.0 - 2 * np.sqrt(2.0) * np.exp(-0.5)
        assert rep["value"] == pytest.approx(expected, rel=1e-7)
        assert rep["gap"] <= 1e-9 * (1 + rep["value"])
        assert "config" in rep
        # per-stage (eps, Newton steps, gap); the last stage's gap is the reported one
        assert sum(steps for _, steps, _ in rep["stats"]) == rep["iterations"]
        assert rep["stats"][-1][0] == rep["epsilon_final"]
        assert rep["stats"][-1][2] == rep["gap"]

    def test_w2_unequal_masses_inf(self, measure_files, tmp_path):
        pa, pb = measure_files
        out = tmp_path / "r.json"
        code = main(["dist", "--metric", "w2", pa, pb, "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["value"] == "inf"

    def test_he_identical_zero(self, measure_files, tmp_path):
        pa, _ = measure_files
        out = tmp_path / "r.json"
        assert main(["dist", "--metric", "he", pa, pa, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["value"] == 0.0

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "points": [[0, 0]]}')
        good = tmp_path / "good.json"
        good.write_text(json.dumps(measure_to_json(DiscreteMeasure([[0.0, 0.0]], [1.0]))))
        code = main(["dist", str(bad), str(good)])
        assert code == 1
        assert "weights" in capsys.readouterr().err

    def test_plan_report(self, measure_files, tmp_path):
        pa, pb = measure_files
        out = tmp_path / "r.json"
        assert main(["dist", "--metric", "hk", pa, pb, "--plan", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert set(rep) == {"metric", "value", "values", "gap", "sigma0", "sigma1", "phi0", "phi1", "plan",
                            "iterations", "epsilon_final", "stats", "converged", "config", "runtime_ms"}
        assert np.array(rep["plan"]).shape == (1, 1) and rep["plan"][0][0] > 0
        assert rep["config"]["plan"] is True

    def test_nonconverged_solver_exits_two(self, measure_files, tmp_path, monkeypatch):
        import hkgeo.cli as cli_mod

        real = cli_mod.solve_let

        def lying_solver(problem, tol):
            sol = real(problem, tol)
            sol.converged = False
            return sol

        monkeypatch.setattr(cli_mod, "solve_let", lying_solver)
        pa, pb = measure_files
        out = tmp_path / "r.json"
        code = main(["dist", "--metric", "ghk", pa, pb, "--out", str(out)])
        assert code == 2
        rep = json.loads(out.read_text())
        assert "value" in rep and "gap" in rep  # value still emitted

    def test_cost_matrix_csv(self, measure_files, tmp_path):
        pa, pb = measure_files
        cost = tmp_path / "cost.csv"
        cost.write_text("0.25\n")
        out = tmp_path / "r.json"
        code = main(["dist", pa, pb, "--cost", str(cost), "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        expected = 3.0 - 2 * np.sqrt(2.0) * np.exp(-0.125)
        assert rep["values"]["primal"] == pytest.approx(expected, rel=1e-7)
        assert len(rep["sigma0"]) == 1 and len(rep["phi1"]) == 1
        # a " inf" cell forbids the second atom every move: it is killed and
        # adds its full mass 0.5 to the value
        pa2 = tmp_path / "a2.json"
        pa2.write_text(json.dumps(measure_to_json(DiscreteMeasure([[0.0, 0.0], [5.0, 0.0]], [1.0, 0.5]))))
        cost.write_text("0.25\n inf\n")
        assert main(["dist", str(pa2), pb, "--cost", str(cost), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["values"]["primal"] == pytest.approx(expected + 0.5, rel=1e-7)
        assert len(rep["sigma0"]) == 2


class TestSimulateSample:
    def test_besq_deterministic_csv(self, tmp_path):
        out1, out2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        argv = ["simulate", "besq", "--theta", "1.0", "--x0", "1.0", "--T", "0.2",
                "--dt", "1e-2", "--paths", "3", "--seed", "5", "--out"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        with out1.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x0", "x1", "x2"]
        assert len(rows) == 22

    def test_besq_zero_paths_exits_one(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["simulate", "besq", "--theta", "1.0", "--x0", "1.0", "--T", "0.2", "--dt", "1e-2",
                     "--paths", "0", "--seed", "5", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_sample_df_probabilities(self, tmp_path):
        out = tmp_path / "df.jsonl"
        code = main(["sample", "df", "--beta", "1.0", "--n", "10", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 11  # provenance header + 10 records
        header = json.loads(lines[0])
        assert header["provenance"]["law"] == "df"
        for line in lines[1:]:
            rec = json.loads(line)
            assert sum(rec["weights"]) == pytest.approx(1.0, abs=1e-12)

    def test_sample_gamma(self, tmp_path):
        out = tmp_path / "gamma.jsonl"
        assert main(["sample", "gamma", "--n", "5", "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        header = json.loads(lines[0])
        assert header["provenance"] == {"law": "gamma", "seed": 1, "window": None, "theta": 2.0, "beta": 1.0}
        assert header["config"]["n"] == 5
        records = [json.loads(line) for line in lines[1:]]
        assert len(records) == 5
        for rec in records:
            assert set(rec) == {"dim", "points", "weights", "iw"} and rec["iw"] == 1.0

    def test_sample_mlp_window(self, tmp_path):
        out = tmp_path / "mlp.jsonl"
        code = main(["sample", "mlp", "--theta", "2.0", "--window", "1,4", "--n", "20",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        for line in out.read_text().strip().split("\n")[1:]:
            rec = json.loads(line)
            assert 1.0 <= sum(rec["weights"]) <= 4.0

    def test_window_refused_for_unwindowed_laws(self, tmp_path, capsys):
        # df and gamma samples ignore a mass window, so neither the flag nor
        # the config may claim one in the provenance header
        out = tmp_path / "s.jsonl"
        cfg = tmp_path / "s.cfg"
        cfg.write_text("window = 1,4\n")
        for law, extra in (("df", ["--window", "1,4"]), ("gamma", ["--config", str(cfg)])):
            code = main(["sample", law, "--n", "5", "--seed", "1", "--out", str(out)] + extra)
            assert code == 1
            assert capsys.readouterr().err.startswith("error: --window applies to mlp only")
            assert not out.exists()

    def test_sample_dimension_below_one_exits_one(self, tmp_path, capsys):
        out = tmp_path / "df.jsonl"
        assert main(["sample", "df", "--n", "3", "--seed", "1", "--dim", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: dimension must be >= 1, got 0")
        assert not out.exists()

    @pytest.mark.parametrize("law,n", [("df", "-2"), ("gamma", "0")])
    def test_sample_fewer_than_one_exits_one(self, law, n, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        assert main(["sample", law, "--n", n, "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: --n must be >= 1, got {n}")
        assert not out.exists()

    def test_seed_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sample", "df", "--n", "5", "--out", str(tmp_path / "x.jsonl")])


class TestValidate:
    def test_duality_suite_passes(self, tmp_path):
        out = tmp_path / "v.json"
        code = main(["validate", "duality", "--n", "3", "--seed", "7", "--tol", "1e-8",
                     "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["passed"] and len(rep["checks"]) == 3  # one solve per pair, ghk and hk alternating

    def test_gradient_suite(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["validate", "gradient", "--n", "10", "--seed", "3", "--out", str(out)]) == 0

    def test_slope_suite(self, tmp_path):
        # the cylinder family of criterion 6: no probe leaves [0.90, 1.05] x the analytic slope
        out = tmp_path / "s.json"
        assert main(["validate", "slope", "--n", "32", "--seed", "108", "--out", str(out)]) == 0

    def test_limits_suite(self, tmp_path):
        out = tmp_path / "l.json"
        assert main(["validate", "limits", "--n", "8", "--seed", "2", "--out", str(out)]) == 0

    def test_checks_report_timing(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["validate", "mecke-mlp", "--n", "50", "--seed", "2", "--out", str(out)]) == 0
        for check in json.loads(out.read_text())["checks"]:
            assert check["runtime_s"] > 0 and check["per_sample_us"] > 0

    def test_monte_carlo_checks_report_se_and_n(self, tmp_path):
        # every estimate compared with a target carries its standard error
        # and sample count; the report is written whether or not it passes
        out = tmp_path / "v.json"
        for suite in ("mecke-df", "invariance", "bessel", "radial-iso"):
            main(["validate", suite, "--n", "50", "--seed", "4", "--out", str(out)])
            rep = json.loads(out.read_text())
            assert set(rep) == {"suite", "passed", "checks", "runtime_ms", "config"}
            estimates = [c for c in rep["checks"] if "target" in c or "lhs" in c]
            assert estimates, suite
            for c in estimates:
                assert "n" in c and ("se" in c or {"se_lhs", "se_rhs"} <= set(c)), (suite, c)

    def test_batch_too_big_for_memory_exits_one(self, monkeypatch, capsys):
        import hkgeo.measures as ms

        monkeypatch.setattr(ms, "_available_bytes", lambda: 2**30)
        assert main(["validate", "mecke-df", "--n", "100000000", "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert "bytes" in err and "memory" in err

    @pytest.mark.parametrize("suite,n", [("duality", "0"), ("gradient", "-3")])
    def test_fewer_than_one_sample_exits_one(self, suite, n, capsys):
        # a suite with no checks would report "passed": true
        assert main(["validate", suite, "--seed", "1", "--n", n]) == 1
        assert capsys.readouterr().err.startswith(f"error: --n must be >= 1, got {n}")

    @pytest.mark.parametrize("suite", ["bessel", "radial-iso", "mecke-df", "mecke-mlp", "invariance"])
    def test_monte_carlo_suite_needs_two_samples(self, suite, capsys):
        # one sample has no standard error, so every estimate would fail on "se": "nan"
        assert main(["validate", suite, "--seed", "1", "--n", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: --n must be >= 2, got 1")

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["validate", "nonsense", "--seed", "1"])


class TestLimits:
    def test_malformed_lambdas_names_the_flag(self, measure_files, capsys):
        pa, pb = measure_files
        for text in (",", "1,x"):
            assert main(["limits", pa, pb, "--lambdas", text]) == 1
            assert capsys.readouterr().err.startswith(
                f"error: --lambdas must be comma-separated numbers, got {text!r}")
        # a grid that does not increase keeps its own message
        assert main(["limits", pa, pb, "--lambdas", "2,1"]) == 1
        assert capsys.readouterr().err.startswith("error: lambda grid must be strictly increasing")

    @pytest.mark.parametrize("text", ["1,inf", "nan", "0,1", "-1,2"])
    def test_nonfinite_or_nonpositive_lambdas_name_the_flag(self, measure_files, capsys, text):
        # measure a has an atom at the origin, where dilating by inf computes 0 * inf
        pa, pb = measure_files
        assert main(["limits", pa, pb, f"--lambdas={text}"]) == 1
        assert capsys.readouterr().err == f"error: --lambdas must be finite and positive, got {text!r}\n"
        grid = [float(v) for v in text.split(",")]
        with pytest.raises(ValueError, match="lambda grid must be finite and positive"):
            limit_diagnostics(load_measure(pa), load_measure(pb), grid, 1e-9)

    def test_limits_report(self, measure_files, tmp_path):
        pa, pb = measure_files
        out = tmp_path / "limits.json"
        assert main(["limits", pa, pb, "--lambdas", "1,2,4", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert set(rep) == {"lambda", "hk_lambda_sq", "w_ladder_sq", "hellinger_sq", "wasserstein_sq",
                            "hk_monotone", "w_monotone", "config"}
        assert rep["lambda"] == [1.0, 2.0, 4.0] and len(rep["hk_lambda_sq"]) == 3
        assert rep["wasserstein_sq"] == "inf"  # the masses 1 and 2 differ


class TestMollifyPotentials:
    def test_mollify_roundtrip(self, tmp_path, measure_files):
        pa, _ = measure_files
        out = tmp_path / "grid.json"
        code = main(["mollify", pa, "--eps", "0.4", "--spacing", "0.1", "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        assert sum(rec["weights"]) == pytest.approx(1.0 + 0.4, rel=1e-9)

    def test_potentials_outputs(self, tmp_path):
        mu = DiscreteMeasure([[0.3]], [0.8])
        pm = tmp_path / "m.json"
        pm.write_text(json.dumps(measure_to_json(mu)))
        prefix = str(tmp_path / "pot")
        code = main(["potentials", str(pm), "--radius", "1.0", "--spacing", "0.02",
                     "--eps", "0.4", "--out", prefix])
        assert code == 0
        rep = json.loads((tmp_path / "pot.report.json").read_text())
        assert rep["duality_value"] == pytest.approx(rep["solver_value"], rel=0.02)
        assert rep["psi_lipschitz"] <= rep["R"] + 1e-9
        assert (tmp_path / "pot.phi.csv").exists()
        assert (tmp_path / "pot.psi.csv").exists()

    @pytest.mark.parametrize(
        "flag,value,message",
        [("--spacing", "0", "grid spacing must be positive, got 0.0"),
         ("--radius", "-1", "ball radius must be positive, got -1.0")],
        ids=["spacing", "radius"],
    )
    def test_potentials_nonpositive_grid_exits_one(self, tmp_path, capsys, flag, value, message):
        pm = tmp_path / "m.json"
        pm.write_text(json.dumps(measure_to_json(DiscreteMeasure([[0.3]], [0.8]))))
        assert main(["potentials", str(pm), flag, value, "--out", str(tmp_path / "pot")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("pot*"))

    def test_mollify_too_big_for_memory_exits_one(self, tmp_path, monkeypatch, capsys):
        import hkgeo.measures as ms

        monkeypatch.setattr(ms, "_available_bytes", lambda: 1_000_000)
        pm = tmp_path / "m.json"
        pm.write_text(json.dumps(measure_to_json(DiscreteMeasure([[0.1, -0.2], [0.3, 0.2]], [0.8, 1.1]))))
        out = tmp_path / "grid.json"
        assert main(["mollify", str(pm), "--eps", "0.4", "--spacing", "0.01", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "mollifier grid" in err and "bytes" in err
        assert not out.exists()

    def test_dense_2d_potentials_at_defaults_refused(self, tmp_path, monkeypatch, capsys):
        # at the defaults (radius 1, spacing 0.01) the dense 2-D problem is
        # about 31,000 x 20,000 cells; it is refused before the cost is built
        import hkgeo.measures as ms
        import hkgeo.potentials as pot

        monkeypatch.setattr(ms, "_available_bytes", lambda: 2**30)
        monkeypatch.setattr(pot, "cost_matrix_sq", lambda *a: pytest.fail("dense cost matrix built"))
        pm = tmp_path / "m.json"
        pm.write_text(json.dumps(measure_to_json(DiscreteMeasure([[0.1, -0.2], [0.3, 0.2]], [0.8, 1.1]))))
        prefix = tmp_path / "pot"
        assert main(["potentials", str(pm), "--out", str(prefix)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "LET problem" in err and "bytes" in err
        assert not list(tmp_path.glob("pot*"))


class TestConfigFile:
    def test_config_overridden_by_flag(self, tmp_path, measure_files):
        pa, pb = measure_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text("metric = hk\ntol = 1e-7\n# comment line\n")
        out = tmp_path / "r.json"
        code = main(["dist", pa, pb, "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["metric"] == "hk"
        assert rep["config"]["tol"] == 1e-7
        # explicit flag beats the config value
        code = main(["dist", pa, pb, "--config", str(cfg), "--metric", "he", "--out", str(out)])
        assert json.loads(out.read_text())["metric"] == "he"

    def test_validate_n_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 7\n")
        out = tmp_path / "v.json"
        assert main(["validate", "mecke-df", "--seed", "1", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["config"]["n"] == 7 and rep["checks"][0]["n"] == 7
        # an explicit flag wins even when it equals the default
        assert main(["validate", "mecke-df", "--seed", "1", "--n", "20", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["checks"][0]["n"] == 20

    def test_validate_tol_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 1e-7\nn = 1\n")
        out = tmp_path / "v.json"
        assert main(["validate", "duality", "--seed", "7", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["config"]["tol"] == 1e-7
        assert all(c["tol"] == 1e-7 for c in rep["checks"])
        # without the config each subcommand keeps its own default
        assert main(["validate", "duality", "--seed", "7", "--n", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["tol"] == 1e-6

    def test_potentials_tol_from_config(self, tmp_path):
        pm = tmp_path / "m.json"
        pm.write_text(json.dumps(measure_to_json(DiscreteMeasure([[0.3]], [0.8]))))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 0.01\nspacing = 0.02\n")
        prefix = str(tmp_path / "pot")
        assert main(["potentials", str(pm), "--config", str(cfg), "--out", prefix]) == 0
        rep = json.loads((tmp_path / "pot.report.json").read_text())
        assert rep["config"]["tol"] == 0.01 and rep["config"]["spacing"] == 0.02

    def test_malformed_config(self, tmp_path, measure_files, capsys):
        pa, pb = measure_files
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("metric hk\n")
        assert main(["dist", pa, pb, "--config", str(cfg)]) == 1


class TestNumericalFailuresExitOne:
    """Each RuntimeError raise site, reached through the CLI with its
    dependency patched to fail, ends in ``error: ...`` and exit code 1."""

    def test_w2_transport_lp_failure(self, tmp_path, monkeypatch, capsys):
        import types

        monkeypatch.setattr(
            "scipy.optimize.linprog", lambda *a, **k: types.SimpleNamespace(success=False, message="stub infeasible")
        )
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(measure_to_json(DiscreteMeasure([[0.0, 0.0]], [1.0]))))
        pb.write_text(json.dumps(measure_to_json(DiscreteMeasure([[1.0, 0.0]], [1.0]))))
        assert main(["dist", "--metric", "w2", str(pa), str(pb)]) == 1
        assert capsys.readouterr().err.startswith("error: transport LP failed: stub infeasible")

    def test_potentials_psi_grid_miss(self, tmp_path, monkeypatch, capsys):
        import hkgeo.potentials as pot

        monkeypatch.setattr(pot, "_lattice_nodes",
                            lambda pts, *box: (np.zeros(pts.shape, np.int64), np.zeros(len(pts), bool)))
        pm = tmp_path / "m.json"
        pm.write_text(json.dumps(measure_to_json(DiscreteMeasure([[0.3]], [0.8]))))
        code = main(["potentials", str(pm), "--radius", "1.0", "--spacing", "0.02",
                     "--eps", "0.4", "--out", str(tmp_path / "pot")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: psi grid does not cover")

    def test_radial_iso_quadrature_failure(self, monkeypatch, capsys):
        import hkgeo.bessel as bes

        # every panel reports an error estimate as large as its value
        monkeypatch.setattr(bes, "_gk21", lambda f, lo, hi: (1.0, 1.0))
        assert main(["validate", "radial-iso", "--n", "20", "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: quadrature did not reach relative 1e-8")

    def test_bessel_generator_quadrature_failure(self, monkeypatch, capsys):
        import hkgeo.bessel as bes

        monkeypatch.setattr(bes, "QUAD_MAX_PANELS", 1)
        assert main(["validate", "bessel", "--n", "20", "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: quadrature did not reach relative 1e-8")

    def test_bessel_0f1_series_failure(self, monkeypatch, capsys):
        import hkgeo.bessel as bes

        monkeypatch.setattr(bes, "HYP0F1_MAX_TERMS", 1)
        assert main(["validate", "bessel", "--n", "20", "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: 0F1 series did not converge")


def test_readme_criteria_commands_parse():
    """Every hkgeo command in README's acceptance-criteria table is a valid
    command line for the current parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| criterion | command |", 1)[1].split("\n\n", 1)[0]
    commands = [cell for cell in table.split("`") if cell.startswith("hkgeo ")]
    assert len(commands) == 9
    for command in commands:
        args = build_parser().parse_args(shlex.split(command)[1:])
        assert args.command == "validate"
