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
from dataclasses import dataclass

from .algebra import TensorElement, coeff_prefix
from .bialgebra import GEN_LABELS, GEN_MONOS, WEDGE_SLOTS, RMatrixSkew, wedge
from .coeffs import Coefficient
from .poisson import GroupFunction, group_str

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


def make_report(check, family, order, ok, residuals, seconds, finding=False) -> Report:
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


def latex_coeff(c: Coefficient) -> str:
    import sympy

    expr = c.num.as_expr() / c.den.as_expr()
    return sympy.latex(_sympy_rename(sympy.together(expr)))


def latex_linear(text: str) -> str:
    """LaTeX for a parsed linear expression in parameters and generators."""
    import sympy

    expr = sympy.sympify(text.replace("^", "**"))
    return sympy.latex(_sympy_rename(expr))


def _join_signed(bits) -> str:
    return " + ".join(bits).replace("+ -", "- ")


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
        cells.append((c, GEN_LABELS[i], GEN_LABELS[j]))
        rebuilt = rebuilt + wedge(alg.gen(i), alg.gen(j)).scale(c)
    if rebuilt != t:
        raise AssertionError("tensor is not a combination of generator wedges")
    return cells


def wedge_cells_str(cells) -> str:
    if not cells:
        return "0"
    return _join_signed(f"{coeff_prefix(c)}{x}^{y}" for c, x, y in cells)


def wedge_cells_latex(cells) -> str:
    if not cells:
        return "0"
    bits = []
    for c, x, y in cells:
        pre = latex_coeff(c)
        if pre == "1":
            pre = ""
        elif pre == "-1":
            pre = "-"
        else:
            pre = pre + r" \, "
        bits.append(rf"{pre}{GEN_TEX[x]} \wedge {GEN_TEX[y]}")
    return _join_signed(bits)


def r_matrix_cells(r: RMatrixSkew):
    return [
        (c, GEN_LABELS[i], GEN_LABELS[j])
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
                    for label in GEN_LABELS
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
        for label in GEN_LABELS:
            cells = wedge_cells(row.computed[label])
            lines.append(f"  delta({label:2s}) = {wedge_cells_str(cells)}")
    lines.append(f"table I match: {all(r.match for r in rows)}")
    return "\n".join(lines) + "\n"


def render_table_I_latex(rows) -> str:
    lines = [r"\begin{tabular}{lll}", r"family & $r$ & cocommutators\\\hline"]
    for row in rows:
        rtex = wedge_cells_latex(r_matrix_cells(row.r))
        deltas = []
        for label in GEN_LABELS:
            cells = wedge_cells(row.computed[label])
            deltas.append(rf"\delta({GEN_TEX[label]}) = {wedge_cells_latex(cells)}")
        body = r" \quad ".join(deltas)
        lines.append(rf"{row.key} & ${rtex}$ & ${body}$\\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines) + "\n"


# -- Table II --------------------------------------------------------------


def _site_mono_latex(sk) -> str:
    t, k, p, q, s = sk
    bits = []
    if k:
        bits.append(rf"e^{{{k if k not in (1, -1) else ('' if k == 1 else '-')}\theta}}")
    for power, name in ((t, r"\theta"), (p, "a_+"), (q, "a_-"), (s, "m")):
        if power == 1:
            bits.append(name)
        elif power:
            bits.append(rf"{name}^{{{power}}}")
    return r" \, ".join(bits)


def latex_group(f: GroupFunction) -> str:
    from .algebra import mono_degree  # noqa: F401  (sort mirrors group_str)

    bits = []
    for key in sorted(
        f.terms, key=lambda k: (sum(sum(abs(e) for e in sk) for sk in k), k)
    ):
        body = r" \, ".join(
            s for s in (_site_mono_latex(sk) for sk in key) if s
        )
        pre = latex_coeff(f.terms[key])
        if body:
            if pre == "1":
                pre = ""
            elif pre == "-1":
                pre = "-"
            else:
                pre = pre + r" \, "
            bits.append(pre + body)
        else:
            bits.append(pre)
    return _join_signed(bits) if bits else "0"


def table_II_payload(rows) -> dict:
    out = []
    for row in rows:
        brackets = {}
        for pair in sorted(row.computed):
            brackets[",".join(pair)] = group_str(row.computed[pair]) or "0"
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
            body = group_str(row.computed[pair]) or "0"
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
    return any(op in text[1:] for op in ("+", "-", "/"))


def _factor_str(factor: dict) -> str:
    e = factor.get("e")
    p = factor["p"]
    if e is None:
        return f"({p})" if _needs_parens(p) else p
    exp = f"exp({e})"
    if p == "1":
        return exp
    body = f"({p})" if _needs_parens(p) else p
    return f"{exp}*{body}"


def _summand_str(summand: dict) -> str:
    slots = [
        "*".join(_factor_str(f) for f in slot) or "1" for slot in summand["f"]
    ]
    body = " o ".join(slots)
    c = summand["c"]
    if c == "1":
        return body
    if c == "-1":
        return "-" + body
    pre = f"({c})" if _needs_parens(c) else c
    return f"{pre}*{body}"


def _factor_latex(factor: dict) -> str:
    e = factor.get("e")
    p = factor["p"]
    ptex = "" if p == "1" else latex_linear(p)
    if ptex and _needs_parens(ptex):
        ptex = rf"\left({ptex}\right)"
    if e is None:
        return ptex or "1"
    etex = rf"e^{{{latex_linear(e)}}}"
    return rf"{etex} {ptex}".strip()


def _summand_latex(summand: dict) -> str:
    slots = [
        r" \, ".join(_factor_latex(f) for f in slot) or "1"
        for slot in summand["f"]
    ]
    body = r" \otimes ".join(slots)
    c = summand["c"]
    if c == "1":
        return body
    if c == "-1":
        return "-" + body
    return rf"{latex_linear(c)} \, {body}"


def table_III_payload(rows) -> dict:
    from . import fixtures

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
                label: [_summand_str(s) for s in summands]
                for label, summands in cells["coproducts"].items()
            }
        out.append(entry)
    return {"table": "III", "rows": out, "match": all(r.match for r in rows)}


def render_table_III_text(rows) -> str:
    payload = table_III_payload(rows)
    lines = []
    for entry in payload["rows"]:
        flag = "ok" if entry["match"] else "MISMATCH"
        lines.append(f"family {entry['family']}  [{flag}]  (diff at order {entry['order']})")
        lines.append(
            f"  primitives: {', '.join(entry['primitives'])}   "
            f"vector: {', '.join(entry['vector'])}   shift: {entry['shift']}"
        )
        if "nu_matrix" in entry:
            lines.append("  exponent matrix (row per vector entry):")
            for vrow in entry["nu_matrix"]:
                lines.append("    [ " + " , ".join(vrow) + " ]")
        else:
            for label in GEN_LABELS:
                if label in entry["coproducts"]:
                    body = _join_signed(entry["coproducts"][label])
                    lines.append(f"  Delta({label:2s}) = {body}")
                elif label in entry["primitives"]:
                    lines.append(f"  Delta({label:2s}) = {label} o 1 + 1 o {label}")
    lines.append(f"table III match: {payload['match']}")
    return "\n".join(lines) + "\n"


def render_table_III_latex(rows) -> str:
    from . import fixtures

    data = fixtures.load("table_III")
    lines = [r"\begin{tabular}{ll}", r"family & coproduct\\\hline"]
    for row in rows:
        cells = data[row.key]
        parts = []
        if "matrix" in cells:
            mrows = [
                " & ".join(latex_linear(e) for e in vrow) for vrow in cells["matrix"]
            ]
            parts.append(
                r"\nu = \begin{pmatrix}" + r"\\ ".join(mrows) + r"\end{pmatrix}"
            )
        else:
            for label in GEN_LABELS:
                if label in cells["coproducts"]:
                    body = _join_signed(
                        _summand_latex(s) for s in cells["coproducts"][label]
                    )
                    parts.append(rf"\Delta({GEN_TEX[label]}) = {body}")
                elif label in cells["primitives"]:
                    g = GEN_TEX[label]
                    parts.append(rf"\Delta({g}) = {g} \otimes 1 + 1 \otimes {g}")
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
