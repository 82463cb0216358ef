"""Source hygiene: every imported name in src/ and tests/ is used, every
module-level private name in src/distgrover/ is referenced, and every
parameter of a function in src/distgrover/ is read.

Stdlib `ast` scans standing in for a linter's unused-import, dead-code and
unused-argument rules. For imports, package `__init__.py` files are skipped
(their imports are re-exports), as is `from __future__ import annotations`.
A name counts as used when it appears as an identifier anywhere in the
module, including inside string annotations. A private helper (a
module-level `_name` bound by def, class or assignment; dunders excluded)
counts as referenced when any module in src/ loads it, reads it as an
attribute or imports it. A parameter (of a def or a lambda; `self`, `cls`
and `_`-prefixed names excluded) counts as read when its name is loaded
anywhere in the function, nested functions included.
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


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def _references(tree: ast.Module) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _dead_private_helpers(modules: dict) -> list[str]:
    refs = set().union(*map(_references, modules.values()))
    return [f"{path}:{line}: {name}"
            for path, tree in modules.items()
            for line, name in _private_definitions(tree)
            if name not in refs]


def test_no_dead_private_helpers():
    modules = {str(path.relative_to(ROOT)): ast.parse(path.read_text())
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert modules
    problems = _dead_private_helpers(modules)
    assert not problems, "unreferenced private helpers:\n" + \
        "\n".join(problems)


def test_scan_flags_a_dead_private_helper():
    modules = {
        "a.py": ast.parse("_used = 1\n_dead: int = 2\n"
                          "def _helper():\n    return _used\n"
                          "class _Gone:\n    pass\n__all__ = []\n"),
        "b.py": ast.parse("from a import _helper\n"),
    }
    assert _dead_private_helpers(modules) == ["a.py:2: _dead",
                                              "a.py:5: _Gone"]


def _unused_parameters(tree: ast.Module) -> list[tuple[int, str]]:
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        spec = node.args
        params = [a.arg for a in spec.posonlyargs + spec.args
                  + spec.kwonlyargs + [spec.vararg, spec.kwarg]
                  if a is not None]
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                and not isinstance(n.ctx, ast.Store)}
        problems += [(node.lineno, name) for name in params
                     if name not in read and name not in ("self", "cls")
                     and not name.startswith("_")]
    return problems


def test_no_unused_parameters():
    files = sorted((ROOT / "src" / "distgrover").rglob("*.py"))
    assert files
    problems = [f"{path.relative_to(ROOT)}:{line}: {name}"
                for path in files
                for line, name in _unused_parameters(ast.parse(
                    path.read_text()))]
    assert not problems, "unused parameters:\n" + "\n".join(problems)


def test_scan_flags_an_unused_parameter():
    tree = ast.parse("class C:\n"
                     "    def m(self, used, unused, _skipped, *rest):\n"
                     "        return used + len(rest)\n"
                     "    @classmethod\n"
                     "    def k(cls, x):\n"
                     "        def inner():\n"
                     "            return x\n"
                     "        return inner\n"
                     "f = lambda a, b: a\n")
    assert _unused_parameters(tree) == [(2, "unused"), (9, "b")]
