"""Every name a ``ctoq`` module exports resolves, so a deleted function
cannot leave a stale entry in ``__all__`` behind."""

import importlib
import pkgutil

import pytest

import ctoq

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(ctoq.__path__) if m.name != "__main__"
)


def test_every_library_module_is_checked():
    library = {"linop", "qcore", "decoder", "ppgm", "haarhp", "sampling", "verify", "cli"}
    assert library <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_runs(name):
    mod = importlib.import_module(f"ctoq.{name}")
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"ctoq.{name}.__all__ names missing objects: {missing}"
    namespace: dict = {}
    exec(f"from ctoq.{name} import *", namespace)
    assert set(exported) <= namespace.keys()
