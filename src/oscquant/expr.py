"""Minimal arithmetic-expression evaluator for fixture cells and CLI input.

Grammar: integers, names, binary ``+ - * /``, unary ``-``, powers ``^`` or
``**`` with integer exponents, parentheses.  Evaluation is generic over any
value type supporting Python arithmetic operators, so the same parser serves
exact coefficients, group functions, and algebra elements.
"""

from __future__ import annotations

import re


class ExprError(ValueError):
    pass


_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*/^()])|(\S)")


def _tokenize(text: str):
    out = []
    for m in _TOKEN.finditer(text):
        if m.group(4):
            raise ExprError(f"bad character {m.group(4)!r} in {text!r}")
        if m.group(1):
            out.append(("int", int(m.group(1))))
        elif m.group(2):
            out.append(("name", m.group(2)))
        else:
            op = "^" if m.group(3) == "**" else m.group(3)
            out.append(("op", op))
    out.append(("end", None))
    return out


_BINDING = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r} in {self.text!r}")

    def parse(self, min_bp=0):
        kind, val = self.next()
        if kind == "int":
            left = ("int", val)
        elif kind == "name":
            left = ("name", val)
        elif kind == "op" and val == "(":
            left = self.parse(0)
            self.expect_op(")")
        elif kind == "op" and val == "-":
            left = ("neg", self.parse(25))
        else:
            raise ExprError(f"unexpected {val!r} in {self.text!r}")
        while True:
            kind, val = self.peek()
            if kind != "op" or val not in _BINDING:
                break
            bp = _BINDING[val]
            if bp < min_bp:
                break
            self.next()
            # ^ is right-associative; everything else left-associative.
            right = self.parse(bp if val == "^" else bp + 1)
            left = (val, left, right)
        return left


def parse(text: str):
    p = _Parser(_tokenize(text), text)
    tree = p.parse(0)
    if p.peek()[0] != "end":
        raise ExprError(f"trailing input in {text!r}")
    return tree


def _eval_int(node, text) -> int:
    if node[0] == "int":
        return node[1]
    if node[0] == "neg":
        return -_eval_int(node[1], text)
    raise ExprError(f"exponent must be an integer constant in {text!r}")


def _eval(node, env, number, text):
    op = node[0]
    if op == "int":
        return number(node[1])
    if op == "name":
        try:
            return env[node[1]]
        except KeyError:
            raise ExprError(f"unknown name {node[1]!r} in {text!r}") from None
    if op == "neg":
        return -_eval(node[1], env, number, text)
    if op == "^":
        return _eval(node[1], env, number, text) ** _eval_int(node[2], text)
    a = _eval(node[1], env, number, text)
    b = _eval(node[2], env, number, text)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b


def evaluate(text: str, env: dict, number):
    """Evaluate ``text`` with names bound by ``env`` and ints lifted by ``number``."""
    tree = parse(text)
    try:
        return _eval(tree, env, number, text)
    except ZeroDivisionError:
        raise ExprError(f"division by zero in {text!r}") from None


def parse_coefficient(field, text: str):
    """Read an exact scalar over the field's parameters (unmarked)."""
    env = {name: field.param(name) for name in field.params}
    return evaluate(text, env, field.rational)


def parse_element(alg, text: str):
    """Read an enveloping-algebra element over generator names and parameters."""
    from .algebra import GEN_NAMES, Element

    field = alg.field
    env = {name: alg.gen(i) for i, name in enumerate(GEN_NAMES)}
    for p in field.params:
        env[p] = field.param(p)
    val = evaluate(text, env, field.rational)
    if not isinstance(val, Element):
        val = alg.one().scale(val)
    return val
