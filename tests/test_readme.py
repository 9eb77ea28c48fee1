"""README's "Library quick start" block runs as written, and every line
that ends in a result comment gives that result, and every "Command line"
example exits 0, so neither can drift from the code."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import numpy as np

from delsarte import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> list[str]:
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()


def test_quick_start_gives_its_commented_results():
    namespace: dict = {}
    checked = []
    for line in quick_start_block():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        if not comment:
            exec(code, namespace)
            continue
        got = eval(code, namespace)
        expected = eval(comment, {"Fraction": Fraction})
        if isinstance(expected, list):
            assert np.allclose(got, expected, atol=1e-12), line
        else:
            assert got == expected and type(got) is type(expected), line
        checked.append(comment)
    assert checked == ["2.0", "[1, 0.5, 0, 0, 0, 0, 0, 0.5]", "True", "Fraction(2, 1)"]


def command_line_examples() -> list[list[str]]:
    """The argv of each ``delsarte`` command in the "Command line" block,
    with backslash continuations joined and comments dropped."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "delsarte", line
            commands.append(words[1:])
    return commands


def test_command_line_examples_exit_zero(tmp_path, monkeypatch, capsys):
    # One example has no --out and writes into the working directory.
    monkeypatch.chdir(tmp_path)
    commands = command_line_examples()
    assert len(commands) == 7
    for i, argv in enumerate(commands):
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if i == 0:
            assert out == "2\n"
