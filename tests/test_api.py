import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hkgeo
from hkgeo.measures import DiscreteMeasure, measure_to_json

# the command-line entry point is run, not imported from
LIBRARY_MODULES = sorted(
    m.name for m in pkgutil.iter_modules(hkgeo.__path__) if m.name != "cli"
)


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_all_lists_exactly_what_the_module_offers(name):
    mod = importlib.import_module(f"hkgeo.{name}")
    listed = mod.__all__
    assert len(set(listed)) == len(listed), "duplicate __all__ entries"
    assert [n for n in listed if not hasattr(mod, n)] == [], "stale __all__ entries"
    defined = [
        n
        for n, v in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(v) or inspect.isclass(v))
        and v.__module__ == mod.__name__
    ]
    assert [n for n in defined if n not in listed] == [], "public names missing from __all__"


SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_scipy_modules(code):
    """Run code in a fresh interpreter that can import hkgeo and return the
    scipy modules loaded when it ends."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    report = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_import_loads_no_scipy():
    # each scipy module is imported inside the function that calls it
    assert _loaded_scipy_modules("import hkgeo, hkgeo.cli") == []


def test_let_solves_load_no_scipy(tmp_path):
    # the LET certificate takes s log s through math.log, so a solve needs numpy alone
    paths = []
    for name, points, weights in (("a", [[0.0, 0.0], [1.0, 0.5]], [1.0, 0.5]), ("b", [[0.5, 0.0]], [2.0]),
                                  ("line", [[-0.3], [0.2]], [0.8, 0.5])):
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(json.dumps(measure_to_json(DiscreteMeasure(points, weights))))
    runs = [["dist", "--metric", metric, paths[0], paths[1]] for metric in ("ghk", "hk")]
    runs.append(["potentials", paths[2], "--spacing", "0.1", "--out", str(tmp_path / "pot")])
    for argv in runs:
        assert _loaded_scipy_modules(f"import hkgeo.cli\nassert hkgeo.cli.main({argv!r}) == 0") == [], argv


def test_monte_carlo_suites_load_no_scipy(tmp_path):
    # the guard's Poisson tail, the radial quadrature and 1/Gamma use math alone
    runs = [["validate", suite, "--n", "20", "--seed", "1"]
            for suite in ("mecke-df", "mecke-mlp", "invariance", "radial-iso", "bessel")]
    runs.append(["sample", "df", "--n", "5", "--seed", "1", "--out", str(tmp_path / "df.json")])
    for argv in runs:
        code = f"import contextlib, io, hkgeo.cli\nwith contextlib.redirect_stdout(io.StringIO()):\n    assert hkgeo.cli.main({argv!r}) == 0"
        assert _loaded_scipy_modules(code) == [], argv
