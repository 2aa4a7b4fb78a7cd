"""Every pair-walk product sums in one place.

``algebra._pair_walk`` yields the pairs of terms of a product of term dicts.
Their coefficient products are formed, truncated and summed by
``coeffs.Sums``, through ``algebra._bilinear`` or in the tensor product
kernel, which adds its slot constants into the same sums.  The matrix
products walk the pairs too, on ``_acc``: their entries may be ring
elements, which ``Sums`` does not hold.  This test parses the package's
modules with ``ast`` and fails on a call of ``_pair_walk`` anywhere else.
"""

import ast
from pathlib import Path

import oscquant

PACKAGE = Path(oscquant.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
CALLERS = [
    "algebra._bilinear",
    "algebra.TensorElement._product",
    "algebra.ScalarMatrix._product",
    "algebra.ScalarMatrix.kron",
]


def pair_walk_calls(source: str, module: str) -> list[str]:
    """``"module.Class.function"`` enclosing each call of ``_pair_walk``,
    called by name or through a module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Call):
                f = child.func
                if getattr(f, "id", None) == "_pair_walk" or getattr(f, "attr", None) == "_pair_walk":
                    found.append(".".join([module, *scope]))
            visit(child, inner)

    visit(ast.parse(source), [])
    return found


def test_checker_finds_pair_walks_outside_the_helper():
    # linear and tensor as they were before every product summed in Sums,
    # the helper, and a module that calls the walk through ``algebra``.
    src = (
        "def _bilinear(field, lhs, rhs, order, key_of):\n"
        "    sums = Sums(field)\n"
        "    for k1, k2, c1, c2, cut in _pair_walk(lhs, rhs, order):\n"
        "        sums.add(key_of(k1, k2), (c1, c2), cut)\n"
        "    return sums.close()\n"
        "def tensor(*factors):\n"
        "    alg = factors[0].alg\n"
        "    terms = {(): alg.field.one}\n"
        "    for f in factors:\n"
        "        terms = {k + k2: _mul(c1, c2, cut) for k, k2, c1, c2, cut in _pair_walk(terms, f.terms, alg.order)}\n"
        "    return TensorElement(alg, sum(f.arity for f in factors), terms)\n"
        "def linear(x, image, zero):\n"
        '    """Not through ``_pair_walk`` by hand."""\n'
        "    out = {}\n"
        "    for _, k2, c1, c2, cut in _pair_walk(x.terms, lambda k: image(k).terms, zero.order):\n"
        "        _acc(out, k2, _mul(c1, c2, cut))\n"
        "    return zero._like(out)\n"
        "class FreeElement:\n"
        "    def _product(self, other):\n"
        "        return list(algebra._pair_walk(self.terms, other.terms, None))\n"
        "walk = _pair_walk\n"
    )
    assert pair_walk_calls(src, "algebra") == [
        "algebra._bilinear",
        "algebra.tensor",
        "algebra.linear",
        "algebra.FreeElement._product",
    ]


def test_only_the_multiply_accumulates_walk_pairs():
    found = [c for path in MODULES for c in pair_walk_calls(path.read_text(encoding="utf-8"), path.stem)]
    assert found == CALLERS
