"""README's CLI examples are the bytes the CLI prints for them."""

import contextlib
import functools
import importlib
import io
import json
import re
from pathlib import Path

import pytest

import oracles
import output_manifest
from entswap.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("linalg", "measures", "states", "swap", "rng", "cli", "experiment", "oracles")
# a dotted name in a code span, not the tail of a path such as `tests/oracles.py`
DOTTED = re.compile(rf"(?<![\w/.])({'|'.join(MODULES)})\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


def readme_block(command: str) -> list[str]:
    """The lines README shows under `    entswap <command>`, up to its next unindented line, indent removed."""
    lines = README.read_text().splitlines()
    start = lines.index(f"    entswap {command}") + 1
    assert lines[start] == "", command  # one blank line between the command and its output
    block = []
    for line in lines[start + 1:]:
        if not line.startswith("    "):
            break
        block.append(line[4:])
    return block


def stdout_lines(command: str) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    return out.getvalue().splitlines()


def test_readme_figure_2a_example_is_the_cli_output():
    # pure arithmetic, no log2: the same bytes on every build
    command = "figures --which 2a --grid 5"
    assert stdout_lines(command) == readme_block(command)


@pytest.mark.parametrize("command", ["verify --trials 10000 --dims 3,2 --seed 7", "swap --p 0.1 --q 0.75"])
def test_readme_documents_are_the_cli_output(command):
    build = json.loads(output_manifest.MANIFEST.read_text())["build"]
    if build != output_manifest.build():
        pytest.skip(f"README shows the bytes of {build}, as the output manifest pins them, "
                    f"not of {output_manifest.build()}")
    expected, printed = readme_block(command), stdout_lines(command)
    if expected[-1].strip() == "...":  # README elides the rest of the document
        expected, printed = expected[:-1], printed[:len(expected) - 1]
    assert printed == expected


def test_readme_names_only_code_that_exists():
    names = {(module, attr) for span in re.findall(r"`([^`]+)`", README.read_text())
             for module, attr in DOTTED.findall(span) if attr != "py"}  # `swap.py` is a file
    assert ("measures", "report") in names  # the pattern finds README's names at all
    missing = []
    for module, attr in sorted(names):
        owner = oracles if module == "oracles" else importlib.import_module(f"entswap.{module}")
        try:
            functools.reduce(getattr, attr.split("."), owner)
        except AttributeError:
            missing.append(f"{module}.{attr}")
    assert not missing, missing
