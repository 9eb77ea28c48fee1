"""README's "Library quick start" block runs as written, and every line
that ends in a result comment gives that result, so the quick start
cannot drift from the code."""

import re
from fractions import Fraction
from pathlib import Path

import numpy as np

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
