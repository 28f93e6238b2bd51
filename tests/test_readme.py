import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_block() -> str:
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_library_tour_runs_and_matches_its_comments():
    source = tour_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        code = compile(ast.Module([node], type_ignores=[]), "README.md", "exec")
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = lines[node.end_lineno - 1].split("#", 1)[1]
        want = ast.literal_eval(comment.split(":", 1)[0].strip())
        if isinstance(want, complex):
            assert abs(value - want) <= 1e-12, (comment, value)
        else:
            assert type(value) is type(want) and value == want, (comment, value)
        checked.append(want)
    assert checked == [0.0, False, 1j, "topological"]
