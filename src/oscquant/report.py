"""Check reports and table renderings in text, JSON, and LaTeX.

A Report records one verified identity: which check, for which family, at
what truncation order, whether it passed, and the rendered residuals when
it did not.  ``finding`` marks probe outcomes (alternative readings and
truncation-sensitive claims) that are reported rather than asserted.

The three output formats carry identical logical content; only the JSON
wall-time field varies between runs.  Everything else is rendered from
canonically sorted terms, so output is reproducible.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from . import fixtures
from .algebra import GEN_NAMES, TensorElement, signed_sum
from .bialgebra import GEN_MONOS, WEDGE_SLOTS, RMatrixSkew, wedge
from .coeffs import Coefficient
from .expr import evaluate
from .poisson import _site_powers, group_str, group_terms

STATUSES = ("pass", "fail", "finding")

# Longest residual rendering kept in a report; the full object lives in the
# library return value, the report is for humans and CI logs.
_RESIDUAL_CHARS = 400


def render_residual(obj) -> str:
    """One deterministic line of text for any residual object."""
    if isinstance(obj, tuple) and len(obj) == 2 and isinstance(obj[0], str):
        return f"{obj[0]}: {render_residual(obj[1])}"
    s = str(obj)  # containers and coefficients render through their repr
    if len(s) > _RESIDUAL_CHARS:
        s = s[:_RESIDUAL_CHARS] + " ...(truncated)"
    return s


@dataclass(frozen=True)
class Report:
    check: str
    family: str
    order: int | None  # None for exact (untruncated) checks
    status: str  # pass | fail | finding
    residuals: tuple  # rendered strings; empty iff the identity held
    wall_time_s: float

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "pass" and self.residuals:
            raise ValueError("a passing check cannot carry residuals")
        if self.status == "fail" and not self.residuals:
            raise ValueError("a failing check must carry residuals")

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "family": self.family,
            "order": self.order,
            "status": self.status,
            "residuals": list(self.residuals),
            "wall_time_s": round(self.wall_time_s, 3),
        }


def make_report(check, family, order, ok, residuals, seconds, finding) -> Report:
    """Build a Report from a check's (ok, residuals) return.

    ``finding=True`` downgrades a failure to a reported finding (used for
    probes whose outcome is an observation, not an asserted identity).
    """
    rendered = tuple(render_residual(r) for r in residuals)
    if ok:
        status = "pass"
        rendered = ()
    else:
        status = "finding" if finding else "fail"
        if not rendered:
            rendered = ("residual object unavailable",)
    return Report(
        check=check,
        family=family,
        order=order,
        status=status,
        residuals=rendered,
        wall_time_s=seconds,
    )


def summary_counts(reports) -> dict:
    counts = {s: 0 for s in STATUSES}
    for r in reports:
        counts[r.status] += 1
    return counts


def all_ok(reports) -> bool:
    return all(r.ok for r in reports)


# -- report renderers ------------------------------------------------------


def _order_str(order) -> str:
    return "exact" if order is None else str(order)


def render_reports_text(reports) -> str:
    lines = []
    for r in reports:
        lines.append(
            f"{r.status.upper():7s} {r.family:18s} order={_order_str(r.order):5s} "
            f"{r.wall_time_s:8.2f}s  {r.check}"
        )
        for res in r.residuals:
            lines.append(f"        residual: {res}")
    c = summary_counts(reports)
    lines.append(
        f"summary: {len(reports)} checks: "
        f"{c['pass']} pass, {c['fail']} fail, {c['finding']} finding"
    )
    return "\n".join(lines) + "\n"


def render_reports_json(reports) -> str:
    payload = {
        "kind": "verify-report",
        "reports": [r.as_dict() for r in reports],
        "summary": summary_counts(reports),
        "ok": all_ok(reports),
    }
    return json.dumps(payload, indent=2) + "\n"


def render_reports_latex(reports) -> str:
    lines = [
        r"\begin{tabular}{llllr}",
        r"status & family & check & order & time (s)\\\hline",
    ]
    for r in reports:
        check = r.check.replace("_", r"\_")
        lines.append(
            f"{r.status} & {r.family} & \\texttt{{{check}}} & "
            f"{_order_str(r.order)} & {r.wall_time_s:.2f}\\\\"
        )
        for res in r.residuals:
            res = res.replace("_", r"\_").replace("^", r"\^{}")
            lines.append(rf"\multicolumn{{5}}{{l}}{{\quad residual: \texttt{{{res}}}}}\\")
    lines.append(r"\end{tabular}")
    c = summary_counts(reports)
    lines.append(
        rf"% summary: {len(reports)} checks: "
        rf"{c['pass']} pass, {c['fail']} fail, {c['finding']} finding"
    )
    return "\n".join(lines) + "\n"


REPORT_RENDERERS = {
    "text": render_reports_text,
    "json": render_reports_json,
    "latex": render_reports_latex,
}


# -- LaTeX atoms -----------------------------------------------------------

# Parameter and generator names as they appear in print.
PARAM_TEX = {"ap": "alpha_+", "am": "alpha_-", "bp": "beta_+", "yp": "y_+"}
GEN_TEX = {"A": "A", "Ap": "A_+", "Am": "A_-", "M": "M"}


def _sympy_rename(expr):
    import sympy

    subs = {}
    for s in expr.free_symbols:
        new = PARAM_TEX.get(s.name) or GEN_TEX.get(s.name)
        if new and new != s.name:
            subs[s] = sympy.Symbol(new)
    return expr.subs(subs, simultaneous=True) if subs else expr


def latex_text(text: str) -> str:
    """LaTeX for printed text: a coefficient's ``repr`` or a fixture's linear
    expression.  Every name reads as a symbol (``E``, ``I`` and ``lambda``
    included) and every number as an integer."""
    import sympy

    env = {name: sympy.Symbol(name) for name in re.findall(r"[A-Za-z_]\w*", text)}
    expr = evaluate(text, env, sympy.Integer)
    return sympy.latex(_sympy_rename(sympy.together(expr)))


def latex_coeff(c: Coefficient) -> str:
    return latex_text(repr(c))


def _latex_is_sum(tex: str) -> bool:
    """Whether LaTeX has a `` + `` or `` - `` outside every brace group
    (the terms of ``\frac{x + y}{2}`` are inside one)."""
    depth = 0
    for i, ch in enumerate(tex):
        depth += (ch == "{") - (ch == "}")
        if not depth and tex.startswith((" + ", " - "), i):
            return True
    return False


def _latex_prefix(tex: str) -> str:
    """A LaTeX coefficient in front of a monomial: nothing for 1, a sign for
    -1, a sum in parentheses (as ``coeff_prefix`` does in text)."""
    if tex in ("1", "-1"):
        return tex[:-1]
    if _latex_is_sum(tex):
        tex = rf"\left({tex}\right)"
    return tex + r" \, "


def latex_sum(pairs) -> str:
    """The LaTeX signed sum of ``(Coefficient, body)`` pairs."""
    return signed_sum(pairs, lambda c: _latex_prefix(latex_coeff(c)), latex_coeff)


# -- Table I ---------------------------------------------------------------


def wedge_cells(t: TensorElement):
    """Decompose an antisymmetric 2-tensor into canonical wedge summands.

    Returns [(coefficient, label_i, label_j)] over the six ordered slots and
    verifies the decomposition reproduces the tensor exactly.
    """
    alg = t.alg
    cells = []
    rebuilt = alg.tensor_zero(2)
    for i, j in WEDGE_SLOTS:
        c = t.terms.get((GEN_MONOS[i], GEN_MONOS[j]))
        if c is None or c.is_zero:
            continue
        cells.append((c, GEN_NAMES[i], GEN_NAMES[j]))
        rebuilt = rebuilt + wedge(alg.gen(i), alg.gen(j)).scale(c)
    if rebuilt != t:
        raise AssertionError("tensor is not a combination of generator wedges")
    return cells


def wedge_cells_str(cells) -> str:
    return signed_sum((c, f"{x}^{y}") for c, x, y in cells)


def wedge_cells_latex(cells) -> str:
    return latex_sum((c, rf"{GEN_TEX[x]} \wedge {GEN_TEX[y]}") for c, x, y in cells)


def r_matrix_cells(r: RMatrixSkew):
    return [
        (c, GEN_NAMES[i], GEN_NAMES[j])
        for c, (i, j) in zip(r.c, WEDGE_SLOTS)
        if not c.is_zero
    ]


def table_I_payload(rows) -> dict:
    """Family rows of the cocommutator table, from the computed objects."""
    out = []
    for row in rows:
        out.append(
            {
                "family": row.key,
                "match": row.match,
                "r": [
                    [repr(c), x, y] for c, x, y in r_matrix_cells(row.r)
                ],
                "delta": {
                    label: [
                        [repr(c), x, y]
                        for c, x, y in wedge_cells(row.computed[label])
                    ]
                    for label in GEN_NAMES
                },
            }
        )
    return {"table": "I", "rows": out, "match": all(r.match for r in rows)}


def render_table_I_text(rows) -> str:
    lines = []
    for row in rows:
        flag = "ok" if row.match else "MISMATCH"
        lines.append(f"family {row.key}  [{flag}]")
        lines.append(f"  r         = {wedge_cells_str(r_matrix_cells(row.r))}")
        for label in GEN_NAMES:
            cells = wedge_cells(row.computed[label])
            lines.append(f"  delta({label:2s}) = {wedge_cells_str(cells)}")
    lines.append(f"table I match: {all(r.match for r in rows)}")
    return "\n".join(lines) + "\n"


def render_table_I_latex(rows) -> str:
    lines = [r"\begin{tabular}{lll}", r"family & $r$ & cocommutators\\\hline"]
    for row in rows:
        rtex = wedge_cells_latex(r_matrix_cells(row.r))
        deltas = []
        for label in GEN_NAMES:
            cells = wedge_cells(row.computed[label])
            deltas.append(rf"\delta({GEN_TEX[label]}) = {wedge_cells_latex(cells)}")
        body = r" \quad ".join(deltas)
        lines.append(rf"{row.key} & ${rtex}$ & ${body}$\\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


# -- Table II --------------------------------------------------------------


def _site_mono_latex(sk) -> str:
    # E^n prints as e^{n theta}
    return r" \, ".join(
        rf"e^{{{ {1: '', -1: '-'}.get(n, n) }\theta}}" if name == "E"
        else _COORD_TEX[name] + ("" if n == 1 else f"^{{{n}}}")
        for name, n in _site_powers(sk)
    )


def latex_group(f: TensorElement) -> str:
    return latex_sum(
        (f.terms[key], r" \, ".join(filter(None, map(_site_mono_latex, key))))
        for key in group_terms(f)
    )


def table_II_payload(rows) -> dict:
    out = []
    for row in rows:
        brackets = {}
        for pair in sorted(row.computed):
            brackets[",".join(pair)] = group_str(row.computed[pair])
        out.append(
            {
                "family": row.key,
                "match": row.match,
                "brackets": brackets,
                "beyond_table": [",".join(p) for p in row.extras],
            }
        )
    return {"table": "II", "rows": out, "match": all(r.match for r in rows)}


def render_table_II_text(rows) -> str:
    lines = []
    for row in rows:
        flag = "ok" if row.match else "MISMATCH"
        lines.append(f"family {row.key}  [{flag}]")
        for pair in sorted(row.computed):
            extra = "  (beyond the published table)" if pair in row.extras else ""
            head = "{%s,%s}" % pair
            body = group_str(row.computed[pair])
            lines.append(f"  {head:22s} = {body}{extra}")
    lines.append(f"table II match: {all(r.match for r in rows)}")
    return "\n".join(lines) + "\n"


_COORD_TEX = {
    "theta": r"\theta",
    "E": r"e^{\theta}",
    "a_plus": "a_+",
    "a_minus": "a_-",
    "m": "m",
}


def render_table_II_latex(rows) -> str:
    lines = [r"\begin{tabular}{ll}", r"family & Poisson brackets\\\hline"]
    for row in rows:
        cells = []
        for pair in sorted(row.computed):
            head = rf"\{{{_COORD_TEX[pair[0]]},{_COORD_TEX[pair[1]]}\}}"
            cells.append(rf"{head} = {latex_group(row.computed[pair])}")
        body = r" \quad ".join(cells)
        lines.append(rf"{row.key} & ${body}$\\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


# -- Table III -------------------------------------------------------------


def _needs_parens(text: str) -> bool:
    """Whether a factor holds an operator of its own; the sign in a
    subscript (``A_{-}``) is part of a name."""
    text = re.sub(r"_\{[^}]*\}", "", text)
    return any(op in text[1:] for op in ("+", "-", "/"))


def _coproduct(summands, latex=False) -> str:
    """A published coproduct, a list of ``{c, f}`` summands (see the
    ``table_III`` fixture), as one signed sum in text or LaTeX."""
    lin = latex_text if latex else str
    times, otimes = (r" \, ", r" \otimes ") if latex else ("*", " o ")

    def factor(f):
        p = "" if f["p"] == "1" else lin(f["p"])
        if _needs_parens(p):
            p = rf"\left({p}\right)" if latex else f"({p})"
        if f.get("e") is None:
            return p or "1"
        e = rf"e^{{{lin(f['e'])}}}" if latex else f"exp({f['e']})"
        return e + ((" " if latex else "*") + p if p else "")

    def prefix(c):
        if latex:
            return _latex_prefix(latex_text(c))
        return c[:-1] if c in ("1", "-1") else (f"({c})" if _needs_parens(c) else c) + "*"

    def body(s):
        return otimes.join(times.join(map(factor, leg)) or "1" for leg in s["f"])

    return signed_sum(((s["c"], body(s)) for s in summands), prefix)


def _coproducts(cells, latex=False):
    """``(generator, coproduct)`` in generator order for a row published in
    closed form: the fixture's summands, or the primitive coproduct."""
    otimes = r" \otimes " if latex else " o "
    for label in GEN_NAMES:
        if label in cells["coproducts"]:
            yield label, _coproduct(cells["coproducts"][label], latex)
        elif label in cells["primitives"]:
            g = GEN_TEX[label] if latex else label
            yield label, f"{g}{otimes}1 + 1{otimes}{g}"


def table_III_payload(rows) -> dict:
    data = fixtures.load("table_III")
    out = []
    for row in rows:
        cells = data[row.key]
        entry = {
            "family": row.key,
            "match": row.match,
            "order": row.order,
            "primitives": cells["primitives"],
            "vector": cells["vector"],
            "shift": cells["shift"],
        }
        if "matrix" in cells:
            entry["nu_matrix"] = cells["matrix"]
            entry["note"] = "matrix form; series expansion diffed at the stated order"
        else:
            entry["coproducts"] = {
                label: [_coproduct([s]) for s in summands]
                for label, summands in cells["coproducts"].items()
            }
        out.append(entry)
    return {"table": "III", "rows": out, "match": all(r.match for r in rows)}


def render_table_III_text(rows) -> str:
    data = fixtures.load("table_III")
    lines = []
    for row in rows:
        cells = data[row.key]
        flag = "ok" if row.match else "MISMATCH"
        lines.append(f"family {row.key}  [{flag}]  (diff at order {row.order})")
        lines.append(
            f"  primitives: {', '.join(cells['primitives'])}   "
            f"vector: {', '.join(cells['vector'])}   shift: {cells['shift']}"
        )
        if "matrix" in cells:
            lines.append("  exponent matrix (row per vector entry):")
            for vrow in cells["matrix"]:
                lines.append("    [ " + " , ".join(vrow) + " ]")
        else:
            for label, body in _coproducts(cells):
                lines.append(f"  Delta({label:2s}) = {body}")
    lines.append(f"table III match: {all(r.match for r in rows)}")
    return "\n".join(lines) + "\n"


def render_table_III_latex(rows) -> str:
    data = fixtures.load("table_III")
    lines = [r"\begin{tabular}{ll}", r"family & coproduct\\\hline"]
    for row in rows:
        cells = data[row.key]
        if "matrix" in cells:
            mrows = [
                " & ".join(latex_text(e) for e in vrow) for vrow in cells["matrix"]
            ]
            parts = [r"\nu = \begin{pmatrix}" + r"\\ ".join(mrows) + r"\end{pmatrix}"]
        else:
            parts = [
                rf"\Delta({GEN_TEX[label]}) = {body}"
                for label, body in _coproducts(cells, latex=True)
            ]
        body = r" \quad ".join(parts)
        lines.append(rf"{row.key} & ${body}$\\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


# -- table dispatch --------------------------------------------------------


def render_table(which: str, rows, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "I": table_I_payload,
            "II": table_II_payload,
            "III": table_III_payload,
        }[which](rows)
        return json.dumps(payload, indent=2) + "\n"
    renderers = {
        ("I", "text"): render_table_I_text,
        ("I", "latex"): render_table_I_latex,
        ("II", "text"): render_table_II_text,
        ("II", "latex"): render_table_II_latex,
        ("III", "text"): render_table_III_text,
        ("III", "latex"): render_table_III_latex,
    }
    return renderers[(which, fmt)](rows)
