"""The linear-combination plumbing is written once.

``+``, ``-``, unary ``-`` and ``scale`` are defined by the exact scalars
(``coeffs.Coefficient``) and by the one sparse linear-combination core
(``algebra._Terms``), which every container of the package inherits.  This
test parses the package's modules with ``ast`` and fails on any other class
that defines one of them again.  ``poisson.VectorField`` is the one
exception: a tangent vector is a fixed tuple of four ring-valued
components, not a term dict, and its negation is componentwise.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import oscquant
from oscquant import algebra
from oscquant.algebra import TensorElement, _Terms
from oscquant.coeffs import Coefficient

PACKAGE = Path(oscquant.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
LINEAR_OPS = ("__add__", "__sub__", "__neg__", "scale")
ALLOWED = {"coeffs.Coefficient", "algebra._Terms", "poisson.VectorField"}


def linear_op_definitions(source: str, module: str) -> list[str]:
    """``"module.Class.name"`` for each linear operation a class defines,
    by ``def`` or by assignment, unless the class is allowed to."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or f"{module}.{node.name}" in ALLOWED:
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{module}.{node.name}.{n}" for n in names if n in LINEAR_OPS]
    return found


def test_checker_flags_a_second_copy():
    src = (
        "class _Terms:\n"
        "    def __add__(self, other): ...\n"
        "class Copy(_Terms):\n"
        "    def scale(self, c): ...\n"
        "    __sub__ = _Terms.__add__\n"
        "    def __mul__(self, other): ...\n"
    )
    assert linear_op_definitions(src, "algebra") == ["algebra.Copy.scale", "algebra.Copy.__sub__"]
    assert linear_op_definitions(src, "lm") == [
        "lm._Terms.__add__",
        "lm.Copy.scale",
        "lm.Copy.__sub__",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_linear_operations_live_in_the_core(path):
    assert linear_op_definitions(path.read_text(encoding="utf-8"), path.stem) == []


def test_the_core_has_three_containers():
    """No second container of algebra elements or group functions (or of
    anything else): an element of an algebra is its arity-1
    ``TensorElement``, and a function on copies of the group a
    ``TensorElement`` over a ``GroupRing``."""
    for mod in pkgutil.iter_modules(oscquant.__path__):
        if mod.name != "__main__":
            importlib.import_module(f"oscquant.{mod.name}")
    found, todo = set(), [_Terms]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("oscquant."):
                found.add(f"{sub.__module__}.{sub.__name__}")
                todo.append(sub)
    assert found == {
        "oscquant.algebra.TensorElement",
        "oscquant.algebra.ScalarMatrix",
        "oscquant.rmatrix.FreeElement",
    }


def test_element_is_only_an_alias():
    # The name is kept only for the benchmark's tracer (perfbench/spans.py),
    # which patches ``algebra.Element.__mul__``; it goes with the next
    # change to the benchmark.
    assert algebra.Element is TensorElement


def cartesian_calls(source: str, module: str) -> list[str]:
    """``"module.Class.function"`` enclosing each call of ``itertools.product``,
    called by a ``from`` import's name or through the module."""
    tree = ast.parse(source)
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            names |= {a.asname or a.name for a in node.names if a.name == "product"}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "itertools"}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Name) and f.id in names) or (
                    isinstance(f, ast.Attribute)
                    and f.attr == "product"
                    and isinstance(f.value, ast.Name)
                    and f.value.id in modules
                ):
                    found.append(".".join([module, *scope]))
            visit(child, inner)

    visit(tree, [])
    return found


def test_checker_finds_cartesian_loops():
    src = (
        "import itertools\n"
        "from itertools import product as cp\n"
        "def tensor(fs):\n"
        "    return [c for c in cp(*fs)]\n"
        "class T:\n"
        "    def _product(self, s):\n"
        "        return list(itertools.product(*s))\n"
        "math.product(1)\n"
    )
    assert cartesian_calls(src, "algebra") == ["algebra.tensor", "algebra.T._product"]


def test_only_the_slot_combination_is_a_cartesian_loop():
    """Every other product of term dicts runs through ``_pair_walk``; the
    slot combination of a tensor product multiplies per-slot results, which
    are not term dicts of the operands."""
    found = [c for path in MODULES for c in cartesian_calls(path.read_text(encoding="utf-8"), path.stem)]
    assert found == ["algebra.TensorElement._product"]


@pytest.mark.parametrize("cls", [_Terms, Coefficient], ids=lambda c: c.__name__)
@pytest.mark.parametrize("name", ["is_zero", "marker_degree"])
def test_predicates_are_properties(cls, name):
    """A bound method read as a property is always truthy: that is how
    ``VectorField.is_zero`` once passed a nonzero field."""
    assert isinstance(inspect.getattr_static(cls, name), property)
