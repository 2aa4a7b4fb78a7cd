"""Span tracing for the traced benchmark pass, installed from outside the library.

:class:`Tracer` keeps one stack of open spans and aggregates closed spans by
name into calls, total time and self time.  Self time is a span's duration
minus the part covered by its child spans; spans nest strictly in the single
worker thread, so that part is the sum of the direct children's durations.
Spans are aggregated as they close instead of kept one by one: a pass closes
millions of coefficient spans.

:func:`install` wraps the public functions of every ``oscquant`` module and
a few hot methods, and rebinds each wrapped function wherever a module
attribute or a module-level dict holds it (``rmatrix`` imports
``exp_series`` by name, ``hopf.CHECKS`` holds the check functions).  It
also counts the calls of ``coeffs._canon``.  No library file is edited.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref

LAYER_MODULES = (
    "coeffs", "algebra", "hopf", "lm", "funalg", "rmatrix",
    "bialgebra", "poisson", "linalg", "expr", "report", "cli",
)
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__")
STEP = "cli.step"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counts = {}  # name -> int
        self.peaks = {}  # name -> int
        self._stack = []  # open spans: [name, start, covered_by_children]

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, covered = self._stack.pop()
        dur = self.clock() - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - covered
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name, value):
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, *names, prefix=None):
        """Summed self time of the named spans, or of all spans under a prefix."""
        if prefix is not None:
            names = [n for n in self.stats if n.startswith(prefix)]
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def wrap(self, name, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced


# -- installing the spans ------------------------------------------------


def _rebind(originals):
    """Point every module attribute and module-level dict entry that holds an
    original function at its wrapper."""
    by_id = {id(fn): wrapped for fn, wrapped in originals}
    for name, mod in list(sys.modules.items()):
        if not (name == "oscquant" or name.startswith("oscquant.")):
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in by_id:
                setattr(mod, attr, by_id[id(val)])
            elif type(val) is dict:
                for k, v in list(val.items()):
                    if id(v) in by_id:
                        val[k] = by_id[id(v)]


def _public_functions(mod):
    for attr, val in vars(mod).items():
        if attr.startswith("_") or not callable(val):
            continue
        if inspect.isfunction(inspect.unwrap(val)) and getattr(val, "__module__", None) == mod.__name__:
            yield attr, val


def _patch_method(cls, names, make):
    """Replace the listed methods (aliases such as __radd__ included)."""
    done = {}
    for n in names:
        fn = cls.__dict__[n]
        if id(fn) not in done:
            done[id(fn)] = make(fn)
        setattr(cls, n, done[id(fn)])


def install(tracer):
    """Wrap the library in place; call after ``import oscquant.cli``."""
    import importlib

    mods = {m: importlib.import_module(f"oscquant.{m}") for m in LAYER_MODULES}
    originals = []
    for short, mod in mods.items():
        for attr, fn in _public_functions(mod):
            name = f"{short}.{attr}"
            if short == "hopf" and attr == "presentation":
                originals.append((fn, _presentation(tracer, fn, mod)))
            else:
                originals.append((fn, tracer.wrap(name, fn)))
    _rebind(originals)

    _install_coefficients(tracer, mods["coeffs"])
    alg = mods["algebra"]
    _patch_method(alg.Algebra, ["mul_mono"], lambda fn: _mul_mono(tracer, "algebra.mul_mono", fn))
    _patch_method(mods["funalg"].FunAlgebra, ["mul_mono"], lambda fn: tracer.wrap("funalg.mul_mono", fn))
    _patch_method(alg.Element, ["__mul__"], lambda fn: tracer.wrap("algebra.elem_mul", fn))
    _patch_method(alg.TensorElement, ["__mul__"], lambda fn: _tensor_mul(tracer, fn))
    _patch_method(mods["hopf"].HopfPresentation, ["delta_mono"], lambda fn: tracer.wrap("hopf.delta_mono", fn))
    _patch_method(mods["rmatrix"].ScalarMatrix, ["__mul__"], lambda fn: tracer.wrap("rmatrix.scalar_mul", fn))


def _install_coefficients(tracer, coeffs):
    enter, exit_ = tracer.enter, tracer.exit
    state = {"depth": 0}

    def arith(fn):
        # Only the outermost operation is a span: __sub__ and __rsub__ go
        # through __add__, __rtruediv__ through __truediv__.
        def traced(a, b):
            if state["depth"]:
                return fn(a, b)
            state["depth"] = 1
            enter("coeffs.arith")
            try:
                return fn(a, b)
            finally:
                exit_()
                state["depth"] = 0

        return traced

    def truncate(fn):
        def traced(c, order):
            enter("coeffs.truncate")
            try:
                out = fn(c, order)
            finally:
                exit_()
            if out is c:
                tracer.count("coeffs.truncate.noop")
            return out

        return traced

    _patch_method(coeffs.Coefficient, ARITH, arith)
    _patch_method(coeffs.Coefficient, ["truncate"], truncate)
    coeffs._canon = _canon(tracer, coeffs._canon)


def _canon(tracer, fn):
    # Every canonicalization, from any caller: the module looks the name up
    # at call time.  A denominator of 1 on the way in is gcd work wasted.
    count = tracer.count

    def traced(field, num, den):
        count("coeffs.canon")
        if den == field.ring.one:
            count("coeffs.canon.den1")
        return fn(field, num, den)

    return traced


def _mul_mono(tracer, name, fn):
    # Distinct (algebra, m1, m2) keys, per live algebra; a weak key keeps a
    # freed algebra's keys from being mistaken for a new algebra's.
    seen = weakref.WeakKeyDictionary()
    enter, exit_ = tracer.enter, tracer.exit

    def traced(alg, m1, m2):
        keys = seen.get(alg)
        if keys is None:
            keys = seen[alg] = set()
        if (m1, m2) not in keys:
            keys.add((m1, m2))
            tracer.count(f"{name}.distinct")
        enter(name)
        try:
            return fn(alg, m1, m2)
        finally:
            exit_()

    return traced


def _tensor_mul(tracer, fn):
    enter, exit_ = tracer.enter, tracer.exit

    def traced(a, b):
        enter(f"algebra.tensor{a.arity}_mul")
        try:
            out = fn(a, b)
        finally:
            exit_()
        terms = getattr(out, "terms", None)
        if terms is not None:
            tracer.peak("algebra.tensor_mul.peak_terms", len(terms))
        return out

    return traced


def _presentation(tracer, fn, hopf):
    wrapped = tracer.wrap("hopf.presentation", fn)

    def traced(key, order):
        before = len(hopf._cache)
        out = wrapped(key, order)
        if len(hopf._cache) > before:
            tracer.count("hopf.presentation.builds")
        return out

    return functools.wraps(fn)(traced)


# -- the per-layer metrics -----------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t):
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    c = t.counts
    return {
        "coeffs.arith.calls": (t.calls("coeffs.arith"), "count"),
        "coeffs.arith.self_s": (t.self_s("coeffs.arith"), "s"),
        "coeffs.den1_ratio": (_ratio(c.get("coeffs.canon.den1", 0), c.get("coeffs.canon", 0)), "ratio"),
        "coeffs.truncate.calls": (t.calls("coeffs.truncate"), "count"),
        "coeffs.truncate.noop_ratio": (_ratio(c.get("coeffs.truncate.noop", 0), t.calls("coeffs.truncate")), "ratio"),
        "algebra.mul_mono.calls": (t.calls("algebra.mul_mono"), "count"),
        "algebra.mul_mono.self_s": (t.self_s("algebra.mul_mono"), "s"),
        "algebra.mul_mono.distinct_ratio": (
            _ratio(c.get("algebra.mul_mono.distinct", 0), t.calls("algebra.mul_mono")), "ratio"),
        "algebra.elem_mul.self_s": (t.self_s("algebra.elem_mul"), "s"),
        "algebra.tensor2_mul.calls": (t.calls("algebra.tensor2_mul"), "count"),
        "algebra.tensor2_mul.self_s": (t.self_s("algebra.tensor2_mul"), "s"),
        "algebra.tensor3_mul.calls": (t.calls("algebra.tensor3_mul"), "count"),
        "algebra.tensor3_mul.self_s": (t.self_s("algebra.tensor3_mul"), "s"),
        "algebra.tensor_mul.peak_terms": (t.peaks.get("algebra.tensor_mul.peak_terms", 0), "count"),
        "algebra.exp_series.self_s": (t.self_s("algebra.exp_series"), "s"),
        "rmatrix.exp_ad.self_s": (t.self_s("rmatrix.exp_ad"), "s"),
        "rmatrix.universal_R.self_s": (t.self_s("rmatrix.universal_R"), "s"),
        "hopf.presentation.builds": (c.get("hopf.presentation.builds", 0), "count"),
        "hopf.presentation.self_s": (t.self_s("hopf.presentation"), "s"),
        "hopf.delta_mono.calls": (t.calls("hopf.delta_mono"), "count"),
        "lm.lm_coproduct.self_s": (t.self_s("lm.lm_coproduct"), "s"),
        "lm.matrix_exp.self_s": (t.self_s("lm.matrix_exp"), "s"),
        "funalg.mul_mono.calls": (t.calls("funalg.mul_mono"), "count"),
        "funalg.mul_mono.self_s": (t.self_s("funalg.mul_mono"), "s"),
        "rmatrix.scalar_mul.calls": (t.calls("rmatrix.scalar_mul"), "count"),
        "rmatrix.scalar_mul.self_s": (t.self_s("rmatrix.scalar_mul"), "s"),
        "rmatrix.frt_relations.self_s": (t.self_s("rmatrix.frt_relations"), "s"),
        "bialgebra.classify.self_s": (t.self_s("bialgebra.classify"), "s"),
        "bialgebra.schouten.self_s": (t.self_s("bialgebra.schouten"), "s"),
        "linalg.nullspace.self_s": (t.self_s("linalg.nullspace"), "s"),
        "poisson.table_II.self_s": (t.self_s("poisson.table_II"), "s"),
        "expr.parse.calls": (t.calls("expr.parse"), "count"),
        "expr.parse.self_s": (t.self_s("expr.parse"), "s"),
        "report.render.self_s": (t.self_s(prefix="report."), "s"),
        "cli.step.self_s": (t.self_s(prefix="cli."), "s"),
    }


def total_self_s(t):
    return sum(st[2] for st in t.stats.values())


# Between steps the worker only prints a line, so the step spans cover
# nearly all of the traced wall time.
COVERAGE_FLOOR = 0.9


def coverage_error(self_s_total, wall_s):
    """Why the spans' self times cannot be right, or None.

    Every step is a span, so the self times of all spans add up to the time
    the steps took: more than the wall time means a child was counted twice,
    much less means a span was lost or never closed."""
    if self_s_total > wall_s:
        return f"layer self times sum to {self_s_total} s, more than the traced wall time {wall_s} s"
    if self_s_total < COVERAGE_FLOOR * wall_s:
        return (f"layer self times sum to {self_s_total} s, less than {COVERAGE_FLOOR} of "
                f"the traced wall time {wall_s} s")
    return None
