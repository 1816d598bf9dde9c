"""The public surface of the package and the examples in README.md."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

import tnormlab
from tnormlab import analysis, cli, core, dsl

# the package rebinds the name ``classify`` to the function
classify_module = importlib.import_module("tnormlab.classify")

README = Path(__file__).resolve().parent.parent / "README.md"

#: names with one remaining spelling each: eval_tnorm(spec, x, x),
#: tnorm_values(spec, g, g), Canonical(spec) and f.label()
RETIRED = ("Diagonal", "diagonal", "diagonal_values", "canonical_f",
           "companion_label")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tnormlab import *", namespace)
    assert set(tnormlab.__all__) <= namespace.keys()


@pytest.mark.parametrize("module", [tnormlab, core, analysis, classify_module, dsl],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", [tnormlab, core, analysis],
                         ids=lambda m: m.__name__)
def test_retired_aliases_are_gone(module):
    assert [name for name in RETIRED if hasattr(module, name)] == []
    assert not set(RETIRED) & set(module.__all__)


def _readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the README section ``heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_python_api_block_runs():
    exec(compile(_readme_block("Python API", "python"), "README.md", "exec"), {})


@pytest.mark.parametrize("argv", [
    shlex.split(line, comments=True)[1:]
    for line in _readme_block("CLI", "bash").splitlines()
    if line.startswith("tnormlab ")], ids=" ".join)
def test_readme_cli_example_exits_as_documented(argv, capsys):
    assert cli.main(argv) == (1 if argv[0] == "counterexample" else 0)
