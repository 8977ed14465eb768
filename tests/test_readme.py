"""The README's library tour runs as written, and its Tests section names
the suite's expected failures."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
TESTS = Path(__file__).resolve().parent


def test_the_library_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, f"{README}:library tour", "exec"), {})


def _is_xfail(decorator):
    """``pytest.mark.xfail``, called with arguments or not."""
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    return ast.unparse(node) == "pytest.mark.xfail"


def test_the_tests_section_names_every_xfail():
    text = README.read_text()
    section = text[text.index("## Tests"):].split("\n## ")[0]
    named = set(re.findall(r"`(test_\w+)`", section))
    xfails = {
        node.name
        for path in TESTS.rglob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and any(map(_is_xfail, node.decorator_list))
    }
    assert xfails and named == xfails
