import importlib
import inspect
import pkgutil

import pytest

import hkgeo

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
