"""The three benchmark workloads, their seeded inputs and their answer key.

A workload is a list of steps run one after another by a single caller.  A
step is either an ``oscquant`` command line (``kind == "cli"``) or a call of
one public exact check (``kind == "exact"``).  Every step carries the
verdicts the benchmark already knows, as a ``{label: value}`` dict; the
worker reports what it observed under the same labels and
:func:`check_step` compares the two.

Nothing here imports ``oscquant``: the answers are written down from the
paper's statements (every identity holds; the literal-A reading of the
standard type-II braid identity is a recorded finding; Table I's families),
not computed by the program under test.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

WORKLOADS = ("rmatrix-series", "coproduct-sweep", "paper-exact")
# Wall time of one pass at the first baseline (2-core Xeon virtual machine).
NOMINAL_PASS_S = {"rmatrix-series": 30.0, "coproduct-sweep": 18.0, "paper-exact": 13.0}


def passes(workload, seconds):
    """Passes in a run of ``seconds``: fixed per workload, at least one."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))

# -- answer key for `verify` report lines --------------------------------

SIX_FAMILIES = (
    "Iplus-standard",
    "Iplus-nonstandard",
    "Iminus-standard",
    "Iminus-nonstandard",
    "II-standard",
    "II-nonstandard",
)
HOPF_LINES = ("homomorphism", "coassociativity", "counit", "antipode", "center", "cocommutator")
FUN_LINES = ("homomorphism", "coassociativity", "counit", "antipode", "group-law", "semiclassical")
R_LINES = ("R-expansion-base", "R-refactorization", "R-inverse", "R-intertwining", "R-qybe", "R-exact-qybe")
LITERAL_A = "R-exact-qybe-literal-A-reading"
CONJUGATIONS = ("Ap inner", "Ap outer", "A inner", "A outer")


def _ring_lines(fam):
    """Coordinate ring, FRT and universal-R lines of one deformation."""
    lines = [f"fun-{n}" for n in FUN_LINES] + ["frt-relations", "frt-necessity"]
    lines += list(R_LINES)
    if fam == "Uz":
        lines.append("R-two-step-intertwining")
    if fam == "IIs":
        lines.append(LITERAL_A)
    return [(check, fam) for check in lines]


def verify_lines(target):
    """Every (check, family) line `verify --target <target>` must report."""
    if target == "prop1":
        return [(f"lm-{n}", fam) for fam in SIX_FAMILIES for n in ("coassociativity", "counit", "first-order")]
    hopf_fam = {"prop2": "Uz", "prop4": "IIn", "prop6": "IIs"}.get(target)
    lines = [(f"hopf-{n}", hopf_fam) for n in HOPF_LINES] if hopf_fam else []
    ring_fam = {"prop3": "Uz", "prop5": "IIn", "prop6": "IIs"}.get(target)
    if ring_fam:
        lines += _ring_lines(ring_fam)
    if target == "appendixA":
        lines = [(f"conjugation [{tag}]", "IIn") for tag in CONJUGATIONS]
    return lines


def verify_step(target, order):
    expect = {"rc": 0}
    for check, fam in verify_lines(target):
        expect[f"{check}|{fam}"] = "finding" if check == LITERAL_A else "pass"
    argv = ["verify", "--target", target, "--order", str(order), "--format", "json", "--jobs", "1"]
    return {"kind": "cli", "argv": argv, "expect": expect}


def tables_step(which):
    return {"kind": "cli", "argv": ["tables", "--which", which], "expect": {"rc": 0}}


def exact_step(check, key, **kwargs):
    label = " ".join([check, key] + [f"{k}={v}" for k, v in kwargs.items()])
    if check == "fun_hopf_check":
        expect = {f"{label} {n}": True for n in FUN_LINES}
    elif check == "invariant_basis":
        # ad-invariant tensors of the oscillator algebra: the Casimir-type
        # element and M(x)M, a two-dimensional space
        expect = {label: 2}
    else:
        expect = {label: kwargs.get("primed_reading") != "literal-A"}
    return {"kind": "exact", "check": check, "key": key, "kwargs": kwargs, "label": label, "expect": expect}


# -- seeded classify batch -------------------------------------------------


# Table I rows as c1..c6 on the wedge basis A^Ap, A^Am, A^M, Ap^Am, Ap^M,
# Am^M (transcribed from fixtures/table_I.json; a test checks the
# transcription).  The row name gives the expected family and flavour.
TEMPLATES = {
    "Iplus-standard": ("ap", "0", "x", "-x", "bp", "yp"),
    "Iplus-nonstandard": ("ap", "0", "x", "-x", "bp", "x^2/ap"),
    "Iminus-standard": ("0", "am", "x", "x", "bp", "yp"),
    "Iminus-nonstandard": ("0", "am", "x", "x", "x^2/am", "yp"),
    "II-standard": ("0", "0", "x", "y", "bp", "yp"),
    "II-nonstandard": ("0", "0", "x", "0", "bp", "yp"),
}
SYMBOLS = ("s", "t", "u", "v", "w", "k")


def _apm_coefficient(c):
    """The Ap^Am^M component of [[r,r]] for a coboundary r: c1*c6 + c2*c5 - c4^2.

    Nonzero means the standard flavour, zero the non-standard one (the
    paper's dichotomy; the README states the same closed form)."""
    return c[0] * c[5] + c[1] * c[4] - c[3] * c[3]


def _on_boundary(template, binding):
    """Whether a filled standard row has a vanishing Ap^Am^M coefficient.

    Parameters get distinct symbols or nonzero fractions, so a term with a
    symbol cannot cancel: only an all-rational draw can vanish."""
    value = {p: q for p, (_, q) in binding.items()}
    if None in value.values():
        return False
    c = [Fraction(0) if t == "0" else -value[t[1:]] if t.startswith("-") else value[t] for t in template]
    return _apm_coefficient(c) == 0


def _rational(rng):
    # Always a proper fraction: the cost of exact arithmetic depends on
    # whether denominators are 1, and this workload is the one with real
    # denominators, in the same share for every seed.
    while True:
        q = Fraction(rng.choice((1, 2, 4, 5, 7)) * rng.choice((1, -1)), rng.choice((2, 3)))
        if q.denominator != 1:
            return str(q), q


def _fill(rng, params, symbolic):
    """Bind each parameter to a distinct symbol or a small nonzero fraction."""
    names = rng.sample(SYMBOLS, len(params))
    out = {}
    for p, sym, name in zip(params, symbolic, names):
        out[p] = (name, None) if sym else _rational(rng)
    return out


_NAME = re.compile(r"[A-Za-z_]\w*")


def _render(template, binding):
    return _NAME.sub(lambda m: f"({binding[m.group(0)][0]})", template)


def draw_row(rng, row, symbolic):
    """One `--r` string from a Table I row, off the row's flavour boundary."""
    tpl = TEMPLATES[row]
    params = list(dict.fromkeys(_NAME.findall(",".join(tpl))))
    for _ in range(1000):
        binding = _fill(rng, params, symbolic[: len(params)])
        if row.endswith("-standard") and _on_boundary(tpl, binding):
            continue  # on the boundary: this draw is non-standard
        return ",".join(_render(t, binding) for t in tpl)
    raise RuntimeError(f"no off-boundary draw for {row}")


def draw_not_coboundary(rng, symbolic, zero_slot):
    """c1, c2 both nonzero: [[r,r]] has the component -2*c1*c2 != 0."""
    slots = ("c1", "c2", "c3", "c4", "c5", "c6")
    binding = _fill(rng, slots, symbolic)
    cells = [f"({binding[s][0]})" for s in slots]
    cells[zero_slot] = "0"
    return ",".join(cells)


ROW_DRAWS = 3  # per Table I row
NOT_COBOUNDARY_DRAWS = 6


def classify_batch(seed):
    """(r string, expected verdict) pairs; the seed picks the values.

    The symbolic/rational pattern of each draw is fixed by its position, so
    every seed asks for the same mix of work; only the values change.
    """
    rng = random.Random(seed)
    patterns = [(True,) * 6, (False,) * 6, (True, False) * 3]
    batch = []
    for row in TEMPLATES:
        family, flavour = row.split("-")
        for k in range(ROW_DRAWS):
            batch.append((draw_row(rng, row, patterns[k % 3]), f"{family}/{flavour}"))
    for k in range(NOT_COBOUNDARY_DRAWS):
        batch.append((draw_not_coboundary(rng, patterns[k % 3], 2 + k % 4), "NotCoboundary"))
    return batch


def classify_step(r, verdict):
    argv = ["classify", f"--r={r}", "--format", "json"]
    return {"kind": "cli", "argv": argv, "expect": {"verdict": verdict}}


# -- workloads -------------------------------------------------------------


def steps(workload, seed):
    """The ordered steps of one workload pass."""
    if workload == "rmatrix-series":
        return [verify_step(t, 4) for t in ("prop3", "prop5", "prop6")] + [verify_step("appendixA", 6)]
    if workload == "coproduct-sweep":
        out = []
        for k in range(2, 9):
            out += [verify_step("prop2", k), verify_step("prop4", k)]
        return out + [verify_step("prop1", k) for k in range(2, 6)]
    if workload == "paper-exact":
        out = [tables_step(w) for w in ("I", "II", "III")]
        out += [classify_step(r, v) for r, v in classify_batch(seed)]
        for key in ("Uz", "IIn", "IIs"):
            out.append(exact_step("frt_relations", key))
            out.append(exact_step("qybe_exact_rep", key))
            if key == "IIs":
                out.append(exact_step("qybe_exact_rep", key, primed_reading="literal-A"))
            out.append(exact_step("fun_hopf_check", key))
        return out + [exact_step("invariant_basis", "Q")]
    raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def check_step(step, observed):
    """(verdicts attempted, verdicts wrong) for one step's observed labels.

    ``observed`` is None when the step never reported (the worker crashed or
    timed out first): every expected verdict counts as wrong.  A label the
    program reported but the key does not list is a wrong verdict too.
    """
    expect = step["expect"]
    if observed is None:
        return len(expect), len(expect)
    extra = [k for k in observed if k not in expect]
    wrong = sum(1 for k, v in expect.items() if observed.get(k) != v)
    return len(expect) + len(extra), wrong + len(extra)
