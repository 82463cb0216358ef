"""Source hygiene: every imported name in src/ and tests/ is used, every
module-level private name in src/distgrover/ is referenced, every public
function and method in src/distgrover/ is used outside the tests, every
parameter of a function in src/distgrover/ is read, no function in
src/distgrover/ stores into a module-level container, each of five
concerns lives in the modules that own it, no module in
src/distgrover/ names a complex dtype, none uses `assert`, every
`raise` there names a `DistGroverError` subclass, and every fact a class
in src/ stores is read.

Stdlib `ast` scans standing in for a linter's unused-import, dead-code and
unused-argument rules. For imports, package `__init__.py` files are skipped
(their imports are re-exports), as is `from __future__ import annotations`.
A name counts as used when it appears as an identifier anywhere in the
module, including inside string annotations. A private helper (a
module-level `_name` bound by def, class or assignment; dunders excluded)
counts as referenced when any module in src/ loads it, reads it as an
attribute or imports it. A public module-level function, or a public method
of a public class, counts as used when a module of src/ other than a package
`__init__.py` (whose imports are re-exports) or of perfbench/ references
its name the same way; code only the tests call belongs in the tests. The
match is by bare name, so a method slips past while another definition of
the same name is used (`CnfFormula.evaluate` did, beside
`BooleanFunction.evaluate`). A parameter (of a def or a lambda; `self`, `cls`
and `_`-prefixed names excluded) counts as read when its name is loaded
anywhere in the function, nested functions included. A module-level
container is a name bound by a top-level assignment; a function stores into
it by a subscript store or delete (`_CACHE[k] = v`) or by calling one of
its mutating methods (`_CACHE.setdefault(k, v)`), unless the function binds
that name itself. Only reads of module-level names are allowed, so no call
leaves state behind for the next one. Ownership: only `statevector.py`
reads the environment (`os.environ` or `os.getenv`) and constructs
`CapacityError`, so the capacity check is one routine; only `grover.py` and
`estimation.py` call `.add_quantum`, so each quantum query is charged once,
by the run that spends it; only `statevector.py` constructs a
`MeasurementDistribution`, whose entries go unchecked for sign because its
`measurement_distribution` builds them as squares; only `grover.py` calls
an inverse trigonometric function (`asin`, `acos`, `atan`, `atan2` or
numpy's `arcsin`, `arccos`, `arctan`, `arctan2`), in `grover.rotation`, so
the plane's angle θ is computed once and every closed form reads it from
there. Real amplitudes: no
module in src/distgrover/ names a complex dtype (`complex`,
`np.complex128`, `np.cdouble`, a dtype string such as "c16"), writes an
imaginary literal, tests for one (`isrealobj`, `iscomplexobj`) or reads
an imaginary part (`.imag`), so states stay float64, complex amplitudes
come only from an operation that returns them, the inverse QFT's FFT, and
no kernel keeps a second path for them. `.real` stays allowed: a norm is
the real part of a dot product. No `assert` statement: `python -O` strips
them, so an invariant written as one silently disappears; the package's
invariants raise `InvariantError` instead. Package errors only: each
`raise` in src/distgrover/ names a subclass of `errors.DistGroverError`
(directly or as `module.Name`, called or not), since any other exception
reaches the CLI as a Python traceback instead of an exit code and an
`error:` line. A raise inside the body of a `try` in the same function whose
handler names that type is exempt, as `check_capacity` turns its
`ValueError` into a `UsageError`; a bare `raise` re-raises and is not
checked. No stored fact that nothing reads: every attribute a class in
src/ stores on `self` in one of its methods, and every field a dataclass
there declares, is read as `obj.name` by a module of src/ or perfbench/.
As in the test-only-API scan, reads in the tests do not count, and the
match is by bare name.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from distgrover import errors

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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _parameters(func) -> list[str]:
    spec = func.args
    return [a.arg for a in spec.posonlyargs + spec.args + spec.kwonlyargs
            + [spec.vararg, spec.kwarg] if a is not None]


def _unused_parameters(tree: ast.Module) -> list[tuple[int, str]]:
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS):
            continue
        params = _parameters(node)
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                and not isinstance(n.ctx, ast.Store)}
        problems += [(node.lineno, name) for name in params
                     if name not in read and name not in ("self", "cls")
                     and not name.startswith("_")]
    return problems


def _public_api(tree: ast.Module):
    """(line, name) of each public module-level function and each public
    method of a public class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.lineno, node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((item.lineno, f"{node.name}.{item.name}")
                        for item in node.body if isinstance(item, defs)
                        and not item.name.startswith("_"))


def _test_only_api(defining: dict, using: dict) -> list[str]:
    refs = set().union(*map(_references, using.values()))
    return [f"{path}:{line}: {name}"
            for path, tree in defining.items()
            for line, name in _public_api(tree)
            if name.rpartition(".")[2] not in refs]


def test_no_test_only_public_api():
    package = ROOT / "src" / "distgrover"
    defining = {str(path.relative_to(ROOT)): ast.parse(path.read_text())
                for path in sorted(package.rglob("*.py"))}
    using = {path: tree for path, tree in defining.items()
             if Path(path).name != "__init__.py"}
    using.update({str(path.relative_to(ROOT)): ast.parse(path.read_text())
                  for path in sorted((ROOT / "perfbench").rglob("*.py"))})
    assert defining and len(using) > len(defining)
    problems = _test_only_api(defining, using)
    assert not problems, "public API used only by tests:\n" + \
        "\n".join(problems)


def test_scan_flags_test_only_public_api():
    defining = {
        "a.py": ast.parse("def used():\n    pass\n"
                          "def test_only():\n    pass\n"
                          "def _private():\n    pass\n"
                          "class Box:\n"
                          "    def read(self):\n        pass\n"
                          "    def spare(self):\n        pass\n"
                          "    def __len__(self):\n        return 0\n"
                          "class _Hidden:\n"
                          "    def spare(self):\n        pass\n"),
    }
    using = {"a.py": defining["a.py"],
             "b.py": ast.parse("from a import used\nBox().read()\n")}
    assert _test_only_api(defining, using) == ["a.py:3: test_only",
                                               "a.py:10: Box.spare"]
    # a re-export is an import, so the scan counts only the modules it uses
    using["c.py"] = ast.parse("from a import test_only\n")
    assert _test_only_api(defining, using) == ["a.py:10: Box.spare"]


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


MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove",
            "clear", "update", "setdefault", "add", "discard", "sort",
            "reverse", "difference_update", "intersection_update",
            "symmetric_difference_update"}


def _outermost_functions(node: ast.AST):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCTIONS):
            yield child
        else:
            yield from _outermost_functions(child)


def _module_state_stores(tree: ast.Module) -> list[tuple[int, str]]:
    module_names = {target.id for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for target in (node.targets if isinstance(
                        node, ast.Assign) else [node.target])
                    if isinstance(target, ast.Name)}
    problems = set()
    for func in _outermost_functions(tree):
        nodes = list(ast.walk(func))
        bound = {name for n in nodes if isinstance(n, FUNCTIONS)
                 for name in _parameters(n)}
        bound |= {n.id for n in nodes if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Store)}
        declared = {name for n in nodes if isinstance(n, ast.Global)
                    for name in n.names}
        shared = (module_names - bound) | (module_names & declared)
        for n in nodes:
            if isinstance(n, ast.Subscript) and \
                    not isinstance(n.ctx, ast.Load):
                target = n.value
            elif isinstance(n, ast.Call) and \
                    isinstance(n.func, ast.Attribute) and \
                    n.func.attr in MUTATORS:
                target = n.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in shared:
                problems.add((n.lineno, target.id))
    return sorted(problems)


def test_no_stores_into_module_state():
    files = sorted((ROOT / "src" / "distgrover").rglob("*.py"))
    assert files
    problems = [f"{path.relative_to(ROOT)}:{line}: {name}"
                for path in files
                for line, name in _module_state_stores(ast.parse(
                    path.read_text()))]
    assert not problems, "stores into module state:\n" + "\n".join(problems)


def test_scan_flags_a_store_into_module_state():
    tree = ast.parse("_CACHE = {}\nSEEN: list = []\n_BITS = {0: '0'}\n"
                     "def f(k):\n"
                     "    _CACHE[k] = _BITS[k]\n"
                     "    return _BITS.get(k)\n"
                     "class C:\n"
                     "    def m(self):\n"
                     "        SEEN.append(1)\n"
                     "        self.d = {}\n"
                     "        self.d['x'] = 1\n"
                     "def g(_CACHE, SEEN=None):\n"
                     "    _CACHE.update(a=1)\n"
                     "    SEEN = []\n"
                     "    SEEN.append(1)\n"
                     "def h():\n"
                     "    def inner():\n"
                     "        del _CACHE[1]\n"
                     "    return inner\n"
                     "k = lambda: SEEN.clear()\n"
                     "_CACHE[0] = 0\n")
    assert _module_state_stores(tree) == [(5, "_CACHE"), (9, "SEEN"),
                                          (18, "_CACHE"), (20, "SEEN")]


# concern -> the modules of src/distgrover/ allowed to touch it
OWNERS = {"os.environ": {"statevector.py"},
          "CapacityError()": {"statevector.py"},
          ".add_quantum()": {"grover.py", "estimation.py"},
          "MeasurementDistribution()": {"statevector.py"},
          "inverse trig": {"grover.py"}}
INVERSE_TRIG = {"asin", "acos", "atan", "atan2",
                "arcsin", "arccos", "arctan", "arctan2"}


def _owned_uses(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                node.attr in ("environ", "getenv"):
            yield node.lineno, "os.environ"
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and \
                {"environ", "getenv"} & {a.name for a in node.names}:
            yield node.lineno, "os.environ"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in ("CapacityError", "MeasurementDistribution"):
                yield node.lineno, f"{name}()"
            elif name == "add_quantum" and isinstance(func, ast.Attribute):
                yield node.lineno, ".add_quantum()"
            elif name in INVERSE_TRIG:
                yield node.lineno, "inverse trig"


def _ownership_violations(modules: dict) -> list[str]:
    return [f"{path}:{line}: {concern}"
            for path, tree in modules.items()
            for line, concern in sorted(set(_owned_uses(tree)))
            if Path(path).name not in OWNERS[concern]]


def test_each_concern_stays_with_its_owner():
    modules = {str(path.relative_to(ROOT)): ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "distgrover").rglob("*.py"))}
    assert modules
    problems = _ownership_violations(modules)
    assert not problems, "used outside its owning module:\n" + \
        "\n".join(problems)
    # the plane's angle has one routine: one inverse-trig call in src
    assert [concern for tree in modules.values()
            for _, concern in _owned_uses(tree)].count("inverse trig") == 1


def test_scan_flags_a_concern_outside_its_owner():
    modules = {
        "statevector.py": ast.parse(
            "import os\nraw = os.environ.get('X')\n"
            "raise errors.CapacityError('cap')\n"
            "d = MeasurementDistribution(p)\n"),
        "grover.py": ast.parse("ledger.add_quantum(3, 'oracle')\n"
                               "d = statevector.MeasurementDistribution(p)\n"
                               "x: MeasurementDistribution = d\n"
                               "theta = math.atan2(1.0, 2.0)\n"),
        "estimation.py": ast.parse(
            "from math import asin\n"
            "theta = math.atan2(s, c) + asin(x)\n"
            "phi = np.arccos(y)\n"
            "sin = math.sin(theta)\n"),
        "oracle.py": ast.parse(
            "from os import getenv\nimport os\n"
            "def f(ledger):\n"
            "    ledger.add_quantum(1, 'oracle')\n"
            "    add_quantum(1)\n"
            "    raise CapacityError(os.getenv('X'))\n"
            "except_types = (CapacityError,)\n"),
    }
    assert _ownership_violations(modules) == [
        "grover.py:2: MeasurementDistribution()",
        "estimation.py:2: inverse trig", "estimation.py:3: inverse trig",
        "oracle.py:1: os.environ", "oracle.py:4: .add_quantum()",
        "oracle.py:6: CapacityError()", "oracle.py:6: os.environ"]


COMPLEX_NAMES = re.compile(r"complex\w*|cdouble|csingle|clongdouble|cfloat")
COMPLEX_TESTS = {"isrealobj", "iscomplexobj", "imag"}
COMPLEX_STRINGS = re.compile(r"[<>=|]?(c8|c16|c32|[FDG]|" +
                             COMPLEX_NAMES.pattern + ")")


def _docstrings(tree: ast.Module) -> set[int]:
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def _complex_uses(tree: ast.Module) -> list[tuple[int, str]]:
    docstrings = _docstrings(tree)
    problems = []
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and (COMPLEX_NAMES.fullmatch(name)
                                 or name in COMPLEX_TESTS):
            problems.append((node.lineno, name))
        elif isinstance(node, ast.Constant) and id(node) not in docstrings \
                and (isinstance(node.value, complex) or (
                    isinstance(node.value, str)
                    and COMPLEX_STRINGS.fullmatch(node.value))):
            problems.append((node.lineno, repr(node.value)))
    return sorted(problems)


def test_no_complex_dtype_in_src():
    files = sorted((ROOT / "src" / "distgrover").rglob("*.py"))
    assert files
    problems = [f"{path.relative_to(ROOT)}:{line}: {what}"
                for path in files
                for line, what in _complex_uses(ast.parse(path.read_text()))]
    assert not problems, "complex dtypes, tests or parts named in src:\n" + \
        "\n".join(problems)


def test_scan_flags_a_complex_dtype():
    tree = ast.parse('"""complex128 amplitudes, in a docstring."""\n'
                     "import numpy as np\n"
                     "a = np.zeros(4, dtype=np.complex128)\n"
                     "b = a.astype(complex)\n"
                     "c = np.exp(2j * np.pi)\n"
                     "d = np.zeros(2, 'c16') + np.cdouble(0)\n"
                     "e = np.zeros(2, dtype='float64').real\n"
                     "g = np.isrealobj(a) or np.iscomplexobj(a.imag)\n"
                     "def f():\n"
                     "    'complex64 here is a docstring'\n"
                     "    return np.complex64\n")
    assert _complex_uses(tree) == [(3, "complex128"), (4, "complex"),
                                   (5, "2j"), (6, "'c16'"), (6, "cdouble"),
                                   (8, "imag"), (8, "iscomplexobj"),
                                   (8, "isrealobj"), (11, "complex64")]


def _asserts(tree: ast.Module) -> list[int]:
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Assert))


def test_no_assert_in_src():
    files = sorted((ROOT / "src" / "distgrover").rglob("*.py"))
    assert files
    problems = [f"{path.relative_to(ROOT)}:{line}: assert"
                for path in files
                for line in _asserts(ast.parse(path.read_text()))]
    assert not problems, "assert statements in src:\n" + "\n".join(problems)


def test_scan_flags_an_assert():
    tree = ast.parse("def f(x):\n"
                     "    'assert x in a docstring'\n"
                     "    assert x.shape == (4,)\n"
                     "    if not x.all():\n"
                     "        raise InvariantError('x')\n"
                     "    return x\n")
    assert _asserts(tree) == [3]


def _bare_name(expr: ast.expr) -> str | None:
    """The name an expression calls or refers to: B for `a.B(...)`, `B()`,
    `a.B` or `B`."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    return expr.attr if isinstance(expr, ast.Attribute) else \
        getattr(expr, "id", None)


def _foreign_raises(tree: ast.Module,
                    allowed: set[str]) -> list[tuple[int, str]]:
    problems = []

    def visit(node: ast.AST, handled: frozenset) -> None:
        if isinstance(node, ast.Raise) and node.exc is not None:
            name = _bare_name(node.exc)
            if name not in allowed and name not in handled:
                problems.append((node.lineno, name))
        if isinstance(node, FUNCTIONS):
            handled = frozenset()
        if isinstance(node, (ast.Try, ast.TryStar)):
            caught = {_bare_name(t) for h in node.handlers
                      if h.type is not None
                      for t in (h.type.elts if isinstance(h.type, ast.Tuple)
                                else [h.type])}
            for child in node.body:
                visit(child, handled | caught)
            for child in node.handlers + node.orelse + node.finalbody:
                visit(child, handled)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, handled)

    visit(tree, frozenset())
    return sorted(problems)


def test_every_raise_is_a_package_error():
    allowed = {name for name, value in vars(errors).items()
               if isinstance(value, type)
               and issubclass(value, errors.DistGroverError)}
    files = sorted((ROOT / "src" / "distgrover").rglob("*.py"))
    assert files and "InvariantError" in allowed
    problems = [f"{path.relative_to(ROOT)}:{line}: raise {name}"
                for path in files
                for line, name in _foreign_raises(ast.parse(path.read_text()),
                                                  allowed)]
    assert not problems, "raises outside DistGroverError:\n" + \
        "\n".join(problems)


def test_scan_flags_a_foreign_raise():
    tree = ast.parse("def f(raw):\n"
                     "    try:\n"
                     "        if int(raw) < 1:\n"
                     "            raise ValueError\n"
                     "    except (TypeError, ValueError):\n"
                     "        raise errors.UsageError(raw) from None\n"
                     "    try:\n"
                     "        def g():\n"
                     "            raise ValueError('nested')\n"
                     "    finally:\n"
                     "        pass\n"
                     "    if raw:\n"
                     "        raise ValueError('monotone')\n"
                     "    raise InvariantError('x')\n")
    assert _foreign_raises(tree, {"UsageError", "InvariantError"}) == [
        (9, "ValueError"), (13, "ValueError")]


def _stored_facts(tree: ast.Module):
    """(line, name) of each attribute a class stores on `self` in one of its
    methods, and of each field a dataclass declares."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if any(_bare_name(d) == "dataclass" for d in cls.decorator_list):
            yield from ((item.lineno, item.target.id) for item in cls.body
                        if isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name))
        for method in cls.body:
            if isinstance(method, FUNCTIONS):
                yield from ((node.lineno, node.attr)
                            for node in ast.walk(method)
                            if isinstance(node, ast.Attribute)
                            and isinstance(node.ctx, ast.Store)
                            and getattr(node.value, "id", None) == "self")


def _unread_facts(defining: dict, using: dict) -> list[str]:
    reads = {node.attr for tree in using.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    return [f"{path}:{line}: {name}"
            for path, tree in defining.items()
            for line, name in sorted(set(_stored_facts(tree)))
            if name not in reads]


def test_no_stored_fact_that_nothing_reads():
    modules = {str(path.relative_to(ROOT)): ast.parse(path.read_text())
               for folder in ("src", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))}
    defining = {path: tree for path, tree in modules.items()
                if path.startswith("src")}
    assert defining and len(modules) > len(defining)
    problems = _unread_facts(defining, modules)
    assert not problems, "stored but never read outside the tests:\n" + \
        "\n".join(problems)


def test_scan_flags_a_stored_fact_that_nothing_reads():
    defining = {
        "a.py": ast.parse("@dataclass(frozen=True)\n"
                          "class Box:\n"
                          "    size: int\n"
                          "    label: str = ''\n"
                          "class Err(Exception):\n"
                          "    code = 2\n"
                          "    def __init__(self, line):\n"
                          "        self.line = line\n"
                          "        self.kept = line\n"
                          "        other.extra = line\n"),
    }
    using = {"a.py": defining["a.py"],
             "b.py": ast.parse("print(Box(1).size, err.kept)\n"
                               "box.label = 'stored, not read'\n")}
    assert _unread_facts(defining, using) == ["a.py:4: label",
                                              "a.py:8: line"]
