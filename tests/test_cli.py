import json
import csv
import numpy as np
import pytest

from hkgeo.cli import main
from hkgeo.measures import DiscreteMeasure, measure_to_json


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

    def test_sample_mlp_window(self, tmp_path):
        out = tmp_path / "mlp.jsonl"
        code = main(["sample", "mlp", "--theta", "2.0", "--window", "1,4", "--n", "20",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        for line in out.read_text().strip().split("\n")[1:]:
            rec = json.loads(line)
            assert 1.0 <= sum(rec["weights"]) <= 4.0

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
        assert rep["passed"] and len(rep["checks"]) == 6

    def test_gradient_suite(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["validate", "gradient", "--n", "10", "--seed", "3", "--out", str(out)]) == 0

    def test_limits_suite(self, tmp_path):
        out = tmp_path / "l.json"
        assert main(["validate", "limits", "--n", "8", "--seed", "2", "--out", str(out)]) == 0

    def test_checks_report_timing(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["validate", "mecke-mlp", "--n", "50", "--seed", "2", "--out", str(out)]) == 0
        for check in json.loads(out.read_text())["checks"]:
            assert check["runtime_s"] > 0 and check["per_sample_us"] > 0

    def test_batch_too_big_for_memory_exits_one(self, monkeypatch, capsys):
        import hkgeo.measures as ms

        monkeypatch.setattr(ms, "_available_bytes", lambda: 2**30)
        assert main(["validate", "mecke-df", "--n", "100000000", "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert "bytes" in err and "memory" in err

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["validate", "nonsense", "--seed", "1"])


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

        import hkgeo.measures as meas

        monkeypatch.setattr(
            meas, "linprog", lambda *a, **k: types.SimpleNamespace(success=False, message="stub infeasible")
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

        monkeypatch.setattr(bes, "quad", lambda *a, **k: (1.0, 1.0))
        assert main(["validate", "radial-iso", "--n", "20", "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: quadrature did not reach relative 1e-8")

    def test_bessel_0f1_series_failure(self, monkeypatch, capsys):
        import functools

        import hkgeo.bessel as bes

        monkeypatch.setattr(bes, "hyp0f1", functools.partial(bes.hyp0f1, max_terms=1))
        assert main(["validate", "bessel", "--n", "20", "--seed", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: 0F1 series did not converge")
