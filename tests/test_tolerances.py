"""Every tolerance of the package is one named constant, listed once in the
README's "Tolerances" table with its value and module."""

import ast
import importlib
import pathlib
import re

import jointtomo

_SOURCES = sorted(pathlib.Path(jointtomo.__file__).parent.glob("*.py"))
_README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _small(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0.0 < abs(node.value) < 1e-3)


def _constants(tree) -> dict:
    """The module-level constants ``NAME = <small float literal>``."""
    return {target.id: node.value.value for node in tree.body if isinstance(node, ast.Assign)
            and _small(node.value) for target in node.targets if isinstance(target, ast.Name)}


def _unnamed_small_floats(source: str) -> list:
    """The line numbers of float literals ``0 < |v| < 1e-3`` that are neither
    in a module-level constant (an upper-case name) nor the default of a
    public function's parameter that its docstring names."""
    tree = ast.parse(source)
    named = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        if targets and all(isinstance(t, ast.Name) and t.id.lstrip("_").isupper()
                           for t in targets):
            named.update(id(n) for n in ast.walk(node))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not fn.name.startswith("_"):
            doc, args = ast.get_docstring(fn) or "", fn.args
            positional = args.posonlyargs + args.args
            defaults = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                        *zip(args.kwonlyargs, args.kw_defaults)]
            for arg, default in defaults:
                if default is not None and arg.arg in doc:
                    named.update(id(n) for n in ast.walk(default))
    return [node.lineno for node in ast.walk(tree) if _small(node) and id(node) not in named]


def test_the_guard_tells_a_named_tolerance_from_an_inline_one():
    source = '''
TOL = 1e-9
_FLOOR: float = 1e-30


def public(x, rel_tol=1e-10, eps=1e-12):
    """Uses ``rel_tol``."""
    return x > 1e-8 * TOL


def _private(x, tol=1e-14):
    return x
'''
    assert sorted(_unnamed_small_floats(source)) == [6, 8, 11]  # eps, 1e-8, tol


def test_every_small_float_literal_is_a_named_constant():
    inline = {path.name: lines for path in _SOURCES
              if (lines := _unnamed_small_floats(path.read_text(encoding="utf-8")))}
    assert inline == {}


def test_the_readme_table_lists_every_tolerance_constant_with_its_value():
    section = _README.read_text(encoding="utf-8").split("## Tolerances", 1)[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| `(\w+)` \|", section, flags=re.M)
    listed = {(module, name): float(value) for name, value, module in rows}
    assert len(listed) == len(rows)
    for (module, name), value in listed.items():
        assert getattr(importlib.import_module(f"jointtomo.{module}"), name) == value, name
    for path in _SOURCES:
        for name, value in _constants(ast.parse(path.read_text(encoding="utf-8"))).items():
            assert listed.get((path.stem, name)) == value, f"{path.stem}.{name}"
