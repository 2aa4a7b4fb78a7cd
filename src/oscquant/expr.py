"""Minimal arithmetic-expression evaluator for fixture cells and CLI input.

Grammar, loosest first: sums ``+ -``; the tensor product ``@``; products
``* /``; unary ``-``; powers ``^`` or ``**`` with integer exponents; then
integers, names and parentheses.  Every binary operator but the power is
left-associative, so ``1@Am + Am@E + z*A@M*E`` is
``(1@Am) + (Am@E) + ((z*A)@(M*E))``.  Evaluation is generic over any value
type supporting Python arithmetic operators, so the same parser serves exact
coefficients and the elements and tensors of any algebra, group functions
included (:func:`parse_element`, :func:`read_element`).  An operator its
operands do not support, such as ``@`` between scalars, raises
:class:`ExprError`.

Flat sums and products of any length evaluate; nesting (parentheses, unary
minus, powers) deeper than ``MAX_DEPTH`` levels raises :class:`ExprError`.

The input budget: the integers a text builds stay below ``2**MAX_BITS`` and
its polynomials below degree ``MAX_BITS``, ``@`` counting as a product.
:func:`parse` refuses a text over it before anything is computed, however
short (``2^100000000000``); the estimate can be low by a factor of two, so
a caller that prints the integers checks them too.  It bounds sizes, not the terms or gcd cost of polynomials.
"""

from __future__ import annotations

import operator
import re

MAX_DEPTH = 200
MAX_BITS = 1024


class ExprError(ValueError):
    pass


_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[-+*/^()@])|(\S)")


def _tokenize(text: str):
    out = []
    for m in _TOKEN.finditer(text):
        if m.group(4):
            raise ExprError(f"bad character {m.group(4)!r} in {text!r}")
        if m.group(1):
            if len(m.group(1)) > MAX_BITS // 3 + 1:  # so at least 10**(MAX_BITS // 3 + 1) > 2**MAX_BITS
                raise ExprError(f"an integer of {len(m.group(1))} digits is over the budget of {MAX_BITS} bits")
            out.append(("int", int(m.group(1))))
        elif m.group(2):
            out.append(("name", m.group(2)))
        else:
            op = "^" if m.group(3) == "**" else m.group(3)
            out.append(("op", op))
    out.append(("end", None))
    return out


_BINDING = {"+": 10, "-": 10, "@": 15, "*": 20, "/": 20, "^": 30}


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.pos = 0
        self.text = text
        self.depth = 0

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
        # One level per nested operand; the loop below reads a flat chain of
        # operators at the depth of one operand.
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprError(f"expression nested deeper than {MAX_DEPTH} levels")
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
        self.depth -= 1
        return left


def parse(text: str):
    p = _Parser(_tokenize(text), text)
    tree = p.parse(0)
    if p.peek()[0] != "end":
        raise ExprError(f"trailing input in {text!r}")
    if _bits(tree, text) >= MAX_BITS:
        raise ExprError(f"{text!r} is over the budget of {MAX_BITS} bits")
    return tree


def _eval_int(node, text) -> int:
    if node[0] == "int":
        return node[1]
    if node[0] == "neg":
        return -_eval_int(node[1], text)
    raise ExprError(f"exponent must be an integer constant in {text!r}")


_LEFT_ASSOC = {"+": operator.add, "-": operator.sub, "@": operator.matmul, "*": operator.mul, "/": operator.truediv}


def _bits(node, text) -> int:
    """The budget's estimate of log2 of the integers and of the degree of the
    polynomials ``node`` builds: a literal's bits less one, a name one, a sum
    of k terms its largest plus the bits of k - 1, a product, tensor product
    or quotient both operands, a power its base times the exponent.  Chains
    walk as in _eval."""
    rights = []
    while node[0] in _LEFT_ASSOC:
        rights.append((node[0], node[2]))
        node = node[1]
    if node[0] == "int":
        size = max(node[1].bit_length() - 1, 0)
    elif node[0] == "name":
        size = 1
    elif node[0] == "neg":
        size = _bits(node[1], text)
    else:
        size = _bits(node[1], text) * abs(_eval_int(node[2], text))
    terms = 0  # the summands past the first of the current run of + and -
    for op, right in reversed(rights):
        other = _bits(right, text)
        if op in "+-":
            size, terms = max(size, other), terms + 1
        else:
            size, terms = size + terms.bit_length() + other, 0
    return size + terms.bit_length()


def _eval(node, env, number, text):
    # Left-associative chains are trees as deep as they are long: walk down
    # their left spine without recursion, then fold the right operands in.
    rights = []
    while node[0] in _LEFT_ASSOC:
        rights.append((_LEFT_ASSOC[node[0]], node[2]))
        node = node[1]
    op = node[0]
    if op == "int":
        value = number(node[1])
    elif op == "name":
        try:
            value = env[node[1]]
        except KeyError:
            raise ExprError(f"unknown name {node[1]!r} in {text!r}") from None
    elif op == "neg":
        value = -_eval(node[1], env, number, text)
    else:
        value = _eval(node[1], env, number, text) ** _eval_int(node[2], text)
    for fn, right in reversed(rights):
        value = fn(value, _eval(right, env, number, text))
    return value


def evaluate(text: str, env: dict, number):
    """Evaluate ``text`` with names bound by ``env`` and ints lifted by ``number``."""
    tree = parse(text)
    try:
        return _eval(tree, env, number, text)
    except ZeroDivisionError:
        raise ExprError(f"division by zero in {text!r}") from None
    except TypeError:
        raise ExprError(f"an operator its operands do not support in {text!r}") from None


def parse_coefficient(field, text: str):
    """Read an exact scalar over the field's parameters (unmarked)."""
    env = {name: field.param(name) for name in field.params}
    return evaluate(text, env, field.rational)


def parse_element(alg, text: str):
    """Read an element of ``alg`` over its letter names and the field's
    parameters: an enveloping-algebra element, or a group function."""
    env = {name: alg.coord(name) for name in alg.letter_names}
    env.update((p, alg.field.param(p)) for p in alg.field.params)
    return read_element(alg, text, env)


def read_element(alg, text: str, env):
    """Evaluate ``text`` with names bound by ``env`` as an element or tensor
    of ``alg``: a scalar result is that multiple of the unit."""
    from .algebra import TensorElement

    val = evaluate(text, env, alg.field.rational)
    return val if isinstance(val, TensorElement) else alg.one().scale(val)
