import math
import re
from pathlib import Path

import pytest

from ctoq.cli import build_parser


def test_quick_start_snippet_runs_and_prints_the_advertised_numbers(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.DOTALL)
    assert blocks, "README lost its quick-start example"
    exec(compile(blocks[0], "<readme>", "exec"), {})
    out = capsys.readouterr().out.split()
    assert float(out[0]) == pytest.approx(0.5, abs=1e-9)
    assert float(out[2]) == pytest.approx(math.sqrt(0.5), abs=1e-7)


def test_cli_synopsis_lists_every_flag_of_every_subcommand():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    documented = {}
    for line in block.splitlines():
        words = line.split()
        documented[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
    parser = build_parser()
    (sub,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    actual = {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--")}
        - {"--help"}
        for name, p in sub.choices.items()
    }
    assert documented == actual
