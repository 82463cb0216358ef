"""Source hygiene: every imported name in src/ and tests/ is used.

A stdlib `ast` scan standing in for a linter's unused-import rule. Package
`__init__.py` files are skipped (their imports are re-exports), as is
`from __future__ import annotations`. A name counts as used when it appears
as an identifier anywhere in the module, including inside string
annotations.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as -> "StateVector"
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner)
                        if isinstance(n, ast.Name))
    return used


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    used = _used_names(tree)
    return [(line, name) for line, name in _imported_names(tree)
            if name not in used]


def test_no_unused_imports():
    files = sorted(p for folder in ("src", "tests")
                   for p in (ROOT / folder).rglob("*.py")
                   if p.name != "__init__.py")
    assert files
    problems = [f"{path.relative_to(ROOT)}:{line}: {name}"
                for path in files
                for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert not problems, "unused imports:\n" + "\n".join(problems)


def test_scan_flags_an_unused_import():
    tree = ast.parse("import json\nimport math\nfrom a import Path\n"
                     "x: 'Path' = math.pi\n")
    assert _unused_imports(tree) == [(1, "json")]
