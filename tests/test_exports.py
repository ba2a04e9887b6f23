"""Every name a ``ctoq`` module exports resolves, so a deleted function
cannot leave a stale entry in ``__all__`` behind; every tolerance is read
somewhere, so a deleted check cannot leave a dead setting behind; and every
function in ``src/ctoq`` runs under some command, so no code outlives its
last caller."""

import ast
import dataclasses
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import ctoq
from ctoq.cli import main
from ctoq.config import Tolerances
from ctoq.verify import SUITES

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


# Functions no command runs, each with the caller that keeps it.
NOT_RUN_BY_A_COMMAND = {
    ("qcore.py", "dephasing_channel"): "the README quick start (tests/test_readme.py)",
    # it ends the process, so it runs only in the subprocesses of tests/test_cli.py
    ("cli.py", "run"): "python -m ctoq and the ctoq script",
}


def _src_functions():
    """``(file, first line) -> (file name, name)`` of every ``def`` in
    ``src/ctoq``.  The first line is the code object's, which for a
    decorated function is its first decorator's; a key by qualified name
    would need ``co_qualname``, which Python 3.10 lacks."""
    out = {}
    for path in sorted(Path(ctoq.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(str(path.resolve()), first)] = (path.name, node.name)
    return out


def test_every_src_function_runs_under_some_command(tmp_path):
    commands = [["verify", s, "--instances", "6", "--seed", "1"] for s in SUITES]
    for i, xi in enumerate(("pure", "mixed:0.5,0.3,0.2", "maximally_mixed")):
        cfg = tmp_path / f"{i}.cfg"
        cfg.write_text(f"n_bh = 2\nn_msg = 1\nell = 1..2\ntrials = 2\nseed = 3\nxi = {xi}\n")
        out = str(tmp_path / str(i))
        commands.append(["hp-run", "--config", str(cfg), "--out", out, "--threads", "1", "--csv"])
    commands.append(["haar-mean", "--config", str(cfg)])
    called = set()
    # a cached function's body runs once per process: empty the caches so
    # that these commands run it, whatever ran before them
    for name in MODULES:
        for value in vars(importlib.import_module(f"ctoq.{name}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for args in commands:
            main(args)
    finally:
        sys.setprofile(None)

    ran = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in called}
    defined = _src_functions()
    assert set(NOT_RUN_BY_A_COMMAND) <= set(defined.values())
    not_run = sorted(
        v for k, v in defined.items() if k not in ran and v not in NOT_RUN_BY_A_COMMAND
    )
    assert not not_run, f"functions no command runs: {not_run}"
