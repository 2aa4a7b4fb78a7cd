"""Every function and class of the package is reached by a command or by the
benchmark.

The package holds what the ``oscquant`` commands and ``perfbench/`` run; a
helper that only tests use lives in ``tests/helpers.py``.  This test parses
the package's modules with ``ast`` and follows names.  It starts from
``cli.main``, every module-level statement, every dunder method and the
labelled names of ``KEPT``.  A definition is reached when its name occurs,
as an ``ast.Name`` or as the attribute of an ``ast.Attribute``, in code
already reached.  A reached function counts whole, decorators and defaults
included.  A reached class counts with its bases and its class-level
statements, not with its methods: each method is reached on its own, by
name.  The test fails on a definition that is never reached.

Names are matched without their owner, so a method that shares its name
with a reached one (``commutator``, ``subs``) counts as reached: the check
can miss such a helper, but it never flags a reached one.
"""

import ast
from pathlib import Path

import oscquant

PACKAGE = Path(oscquant.__file__).resolve().parent
ROOTS = ("cli.main",)
BENCHMARK = "what perfbench calls, patches or times by name"
# Definitions kept although no command reaches them, by why they stay.
KEPT = {
    "checks that no verify line runs yet": (
        "bialgebra.cocycle_check",
        "bialgebra.cojacobi_check",
        "bialgebra.ad_invariant_check",
        "bialgebra.eta_element",
        "bialgebra._delta_of_mono",
        "bialgebra._delta_of_element",
        "poisson.jacobi_check",
        "poisson.multiplicativity_check",
    ),
    "the rewrite engine's reference normal form": (
        "algebra.Algebra.normalize_word",
        "algebra.Algebra.word_of",
        "algebra.Algebra.mono_of",
    ),
    BENCHMARK: (
        "algebra.Algebra.mul_mono",
        "algebra.ScalarMatrix",
        "algebra.exp_series",
        "bialgebra.classify",
        "bialgebra.invariant_basis",
        "bialgebra.schouten",
        "coeffs.Coefficient.truncate",
        "coeffs.CoefficientField.get",
        "coeffs._canon",
        "expr.parse",
        "funalg.fun_hopf_check",
        "funalg.fun_presentation",
        "hopf.HopfPresentation.delta_mono",
        "hopf.presentation",
        "linalg.nullspace",
        "linalg.rref",
        "lm.lm_coproduct",
        "lm.matrix_exp",
        "poisson.table_II",
        "rmatrix.exp_ad",
        "rmatrix.frt_relations",
        "rmatrix.qybe_exact_rep",
        "rmatrix.universal_R",
    ),
}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _reached_part(node) -> list:
    """What a reached definition runs: a function whole, a class's bases,
    decorators and class-level statements."""
    if isinstance(node, ast.ClassDef):
        return node.bases + node.keywords + node.decorator_list + [s for s in node.body if not isinstance(s, DEFS)]
    return [node]


def _parse(sources: dict):
    """The top-level definitions and methods of ``sources`` (module name ->
    text) by ``"module.name"`` or ``"module.Class.name"`` in source order,
    and the other module-level statements."""
    defs, statements = {}, []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, DEFS):
                statements.append(node)
                continue
            defs[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                defs.update((f"{module}.{node.name}.{s.name}", s) for s in node.body if isinstance(s, DEFS))
    return defs, statements


def unreached(sources: dict, roots) -> list[str]:
    """The definitions of ``sources`` that neither ``roots``, the module-level
    statements nor a dunder reaches, in source order."""
    defs, todo = _parse(sources)
    by_name = {}
    for qual, node in defs.items():
        by_name.setdefault(node.name, []).append(qual)
    reached, seen = set(), set()

    def reach(qual):
        if qual not in reached:
            reached.add(qual)
            todo.extend(_reached_part(defs[qual]))

    for qual, node in defs.items():
        if qual in roots or (node.name.startswith("__") and node.name.endswith("__")):
            reach(qual)
    while todo:
        for name in _names(todo.pop()):
            if name not in seen:
                seen.add(name)
                for qual in by_name.get(name, ()):
                    reach(qual)
    return [qual for qual in defs if qual not in reached]


def package_sources() -> dict:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def test_guard_fires_on_an_unreferenced_function():
    sources = {
        "cli": (
            "from .core import run\n"
            "def main(argv=None):\n"
            "    return run(TABLE[argv])\n"
            "def unused():\n"
            "    return main()\n"
        ),
        "core": (
            "TABLE = {'a': lambda: Box(1).value()}\n"
            "def run(fn, key=default_key):\n"
            "    def inner():\n"
            "        return helper()\n"
            "    return inner\n"
            "def helper():\n"
            "    pass\n"
            "def default_key():\n"
            "    pass\n"
            "def orphan():\n"
            "    return helper()\n"
            "class Box:\n"
            "    size = measure\n"
            "    def value(self):\n"
            "        return self\n"
            "    def spare(self):\n"
            "        return self\n"
            "    def __repr__(self):\n"
            "        return debug(self)\n"
            "def measure():\n"
            "    pass\n"
            "def debug(x):\n"
            "    pass\n"
            "class Unused:\n"
            "    def value(self):\n"
            "        pass\n"
        ),
    }
    assert unreached(sources, ("cli.main",)) == ["cli.unused", "core.orphan", "core.Box.spare", "core.Unused"]
    assert unreached(sources, ("cli.main", "core.orphan")) == ["cli.unused", "core.Box.spare", "core.Unused"]


def test_every_definition_is_reached():
    kept = {qual for names in KEPT.values() for qual in names}
    assert unreached(package_sources(), set(ROOTS) | kept) == []


def test_kept_names_are_definitions_no_command_reaches():
    """Each kept name is a definition of the package, and a name kept for any
    reason but the benchmark leaves the list once a command reaches it."""
    sources = package_sources()
    defs, _ = _parse(sources)
    by_commands = set(unreached(sources, ROOTS))
    for why, names in KEPT.items():
        assert [q for q in names if q not in defs] == [], why
        if why != BENCHMARK:
            assert [q for q in names if q not in by_commands] == [], why
