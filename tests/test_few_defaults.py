"""The package's defaulted parameters do not grow in number.

A parameter with a default is a knob: each one doubles the configurations
that tests must cover, and one that a single caller sets is a constant in
disguise.  This test parses the package's modules with ``ast``, counts every
parameter that has a default (positional or keyword-only, in a function, a
method or a lambda), and fails when the count rises above ``LIMIT``.  Lower
``LIMIT`` when a change removes defaults, so the count can only fall.
"""

import ast
from pathlib import Path

import oscquant

PACKAGE = Path(oscquant.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
LIMIT = 30


def defaulted(source: str, module: str) -> list[str]:
    """``"module.function(param)"`` for every parameter with a default, in
    source order; a lambda is named ``<lambda>``."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        args = fn.args
        positional = args.posonlyargs + args.args
        params = positional[len(positional) - len(args.defaults) :]
        params += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        found += [(fn.lineno, f"{module}.{name}({a.arg})") for a in params]
    return [what for _, what in sorted(found)]


def test_guard_counts_a_small_source():
    src = (
        "def plain(a, b):\n"
        "    pass\n"
        "def knobs(a, b=1, *args, c, d=None, **kw):\n"
        "    pass\n"
        "def only(a=0, /, b=1):\n"
        "    pass\n"
        "class C:\n"
        "    def method(self, flag=False):\n"
        "        return lambda x, y=2: x + y\n"
        "async def later(t=1.0):\n"
        "    pass\n"
    )
    assert defaulted(src, "m") == [
        "m.knobs(b)",
        "m.knobs(d)",
        "m.only(a)",
        "m.only(b)",
        "m.method(flag)",
        "m.<lambda>(y)",
        "m.later(t)",
    ]


def test_defaulted_parameters_do_not_grow():
    found = [d for p in MODULES for d in defaulted(p.read_text(encoding="utf-8"), p.stem)]
    assert len(found) <= LIMIT, found
