"""The README's python examples run, and the values they quote hold."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
# a quoted value: "# sol.eps_star ~= 0.49887", several per comment allowed
QUOTE = re.compile(r"([A-Za-z_][\w.]*) ~= ([0-9.]+(?:e[+-]?[0-9]+)?)")


def _significant(text: str) -> int:
    return len(text.split("e")[0].replace(".", "").lstrip("0"))


def test_readme_has_the_two_examples():
    assert len(BLOCKS) == 2
    assert [name for name, _ in QUOTE.findall(BLOCKS[0])] == [
        "sol.eps_star", "opt.N_star", "opt.D_star"
    ]


@pytest.mark.parametrize("block", BLOCKS, ids=["quick_start", "skill_hierarchy"])
def test_readme_example_runs_and_quotes_hold(block):
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    for expr, quoted in QUOTE.findall(block):
        value = eval(expr, namespace)
        digits = _significant(quoted)
        assert float(f"{value:.{digits}g}") == float(quoted), (expr, value, quoted)
