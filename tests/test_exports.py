"""Every name a ``ctoq`` module exports resolves, so a deleted function
cannot leave a stale entry in ``__all__`` behind, and every tolerance is
read somewhere, so a deleted check cannot leave a dead setting behind."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ctoq
from ctoq.config import Tolerances

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


def test_every_tolerance_is_read_outside_config():
    # read as ``tols.<field>`` or ``DEFAULT_TOLS.<field>``; a bare
    # ``.<field>`` would also match attributes such as ``bundle.povm``
    sources = "\n".join(
        path.read_text()
        for path in sorted(Path(ctoq.__file__).parent.glob("*.py"))
        if path.name != "config.py"
    )
    unread = [
        f.name
        for f in dataclasses.fields(Tolerances)
        if not re.search(rf"tols\.{f.name}\b", sources, re.IGNORECASE)
    ]
    assert not unread, f"Tolerances fields no module reads: {unread}"
