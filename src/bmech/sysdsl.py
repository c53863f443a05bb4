"""System specification DSL: expression grammar and differentiable evaluation.

Expressions describe Lagrangians L(x, v, t), metric entries, potentials, and
vector-field components over variables ``x1..xn``, ``v1..vn``, ``t`` plus
named parameters.  Precedence is the usual one for physics expressions:
``^`` (right-associative) binds tighter than unary minus, then ``* /``,
then ``+ -``.

First and second derivatives are propagated through the tree with truncated
second-order Taylor arithmetic (forward mode), so gradients and Hessians are
exact to round-off.  All evaluation is vectorized: variables may carry a
trailing batch axis.
"""

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    SpecError,
    UnknownIdentifier,
)

__all__ = [
    "Expr", "Num", "Param", "Var", "Unary", "Binary",
    "parse_expr", "to_string", "eval_expr", "eval_derivs",
    "SystemSpec", "parse", "load",
]

FUNCTIONS = ("abs", "cos", "exp", "log", "sin", "sqrt")


# ---------------------------------------------------------------------------
# AST

class Expr:
    def __str__(self):
        return to_string(self)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Param(Expr):
    name: str


@dataclass(frozen=True)
class Var(Expr):
    kind: str  # 'x', 'v', or 't'
    index: int  # 0-based; unused for 't'


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'neg' or a function name
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # '+', '-', '*', '/', '^'
    left: Expr
    right: Expr


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"(?P<num>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
)


@dataclass
class _Token:
    kind: str  # 'num', 'ident', 'op', 'end'
    text: str
    line: int
    col: int


def _tokenize(text):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(line, col, ["number", "identifier", "operator"],
                                  repr(text[pos]))
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, standard precedence)

_VAR_RE = re.compile(r"^([xv])([1-9]\d*)$")


class _Parser:
    def __init__(self, tokens, dim=None, params=None):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        self.params = params

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        tok = self.peek()
        found = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ExprSyntaxError(tok.line, tok.col, expected, found)

    def parse(self):
        e = self.expr()
        if self.peek().kind != "end":
            self.fail(["operator", "end of input"])
        return e

    def expr(self):
        left = self.term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            left = Binary(op, left, self.term())
        return left

    def term(self):
        left = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            left = Binary(op, left, self.unary())
        return left

    def unary(self):
        if self.peek().text == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek().text == "^":
            self.advance()
            # right-associative; exponent may carry a unary minus
            return Binary("^", base, self.unary())
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.peek().text == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownIdentifier(tok.line, tok.col, tok.text)
                self.advance()
                arg = self.expr()
                if self.peek().text != ")":
                    self.fail(["')'"])
                self.advance()
                return Unary(tok.text, arg)
            return self.resolve(tok)
        if tok.text == "(":
            self.advance()
            e = self.expr()
            if self.peek().text != ")":
                self.fail(["')'"])
            self.advance()
            return e
        self.fail(["number", "identifier", "'('", "'-'"])

    def resolve(self, tok):
        name = tok.text
        if name == "t":
            return Var("t", 0)
        m = _VAR_RE.match(name)
        if m:
            idx = int(m.group(2)) - 1
            if self.dim is not None and idx >= self.dim:
                raise DimensionMismatch(
                    f"variable '{name}' at {tok.line}:{tok.col} exceeds dimension {self.dim}"
                )
            return Var(m.group(1), idx)
        if self.params is not None and name not in self.params:
            raise UnknownIdentifier(tok.line, tok.col, name)
        return Param(name)


def parse_expr(text, dim=None, params=None):
    """Parse one expression string; optionally validate against dim and parameter names."""
    return _Parser(_tokenize(text), dim, params).parse()


# ---------------------------------------------------------------------------
# Pretty-printer with minimal parentheses

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_string(e):
    return _print(e, 0)


def _print(e, parent):
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Var):
        return "t" if e.kind == "t" else f"{e.kind}{e.index + 1}"
    if isinstance(e, Unary):
        if e.op == "neg":
            s = "-" + _print(e.arg, _PREC["neg"])
            return f"({s})" if parent > _PREC["neg"] else s
        return f"{e.op}({_print(e.arg, 0)})"
    if isinstance(e, Binary):
        p = _PREC[e.op]
        if e.op == "^":
            # right-associative, base binds atoms only
            s = _print(e.left, p + 1) + e.op + _print(e.right, p)
        else:
            # left-associative
            s = _print(e.left, p) + e.op + _print(e.right, p + 1)
        return f"({s})" if parent > p else s
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Plain evaluation

def _check(ok, message):
    if not np.all(ok):
        raise DomainError(message)


def eval_expr(e, x=None, v=None, t=0.0, params=None):
    """IEEE-double evaluation of the tree; variables may be arrays."""
    params = params or {}
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Param):
        if e.name not in params:
            raise DomainError(f"unbound parameter '{e.name}'")
        return params[e.name]
    if isinstance(e, Var):
        if e.kind == "t":
            return t
        src = x if e.kind == "x" else v
        if src is None:
            raise DomainError(f"unbound variable '{e.kind}{e.index + 1}'")
        return np.asarray(src)[e.index]
    if isinstance(e, Unary):
        a = eval_expr(e.arg, x, v, t, params)
        return _apply_unary_plain(e.op, a)
    if isinstance(e, Binary):
        a = eval_expr(e.left, x, v, t, params)
        b = eval_expr(e.right, x, v, t, params)
        return _apply_binary_plain(e.op, a, b)
    raise TypeError(f"not an expression node: {e!r}")


def _apply_unary_plain(op, a):
    if op == "neg":
        return -a
    if op == "sin":
        return np.sin(a)
    if op == "cos":
        return np.cos(a)
    if op == "exp":
        return np.exp(a)
    if op == "log":
        _check(np.asarray(a) > 0, "log of non-positive argument")
        return np.log(a)
    if op == "sqrt":
        _check(np.asarray(a) >= 0, "sqrt of negative argument")
        return np.sqrt(a)
    if op == "abs":
        return np.abs(a)
    raise ValueError(f"unknown function {op}")


def _apply_binary_plain(op, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        _check(np.abs(np.asarray(b)) > 0, "division by zero")
        return a / b
    if op == "^":
        return _pow_plain(a, b)
    raise ValueError(f"unknown operator {op}")


def _pow_plain(a, b):
    a_arr, b_arr = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    integral = np.all(b_arr == np.round(b_arr))
    if integral:
        _check((a_arr != 0) | (b_arr >= 0), "zero base with negative exponent")
        return np.power(a_arr, b_arr) if a_arr.ndim or b_arr.ndim else float(a) ** float(b)
    _check(a_arr > 0, "non-integer power of non-positive base")
    return np.power(a_arr, b_arr)


# ---------------------------------------------------------------------------
# Second-order Taylor arithmetic (forward mode, vectorized)

class _Taylor2:
    """Value, gradient, and Hessian over m directions, broadcast over a batch.

    A gradient or Hessian of None stands for exact zeros.  Numbers and
    parameters carry neither and keep a scalar value; a seeded variable
    carries a gradient and no Hessian.  The operations below skip every term
    with a None factor, and ``eval_derivs`` turns None into zero arrays once,
    at the end.  So a gradient of None marks a subtree of numbers and
    parameters only: ``t`` is seeded with a zero gradient to keep it a
    variable.
    """

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g=None, h=None):
        self.v = v
        self.g = g
        self.h = h

    @classmethod
    def seed(cls, value, direction, m, batch):
        """A variable; ``direction`` None gives it a zero gradient."""
        g = np.zeros((m,) + batch)
        if direction is not None:
            g[direction] = 1.0
        return cls(np.asarray(value, dtype=float), g)


def _sum(*terms):
    """Left-to-right sum of the terms that are not None (None if all are)."""
    out = None
    for term in terms:
        if term is not None:
            out = term if out is None else out + term
    return out


def _scale(d, s):
    return None if d is None else d * s


def _outer(ga, gb):
    return ga[:, None, ...] * gb[None, :, ...]


def _t2_add(a, b):
    return _Taylor2(a.v + b.v, _sum(a.g, b.g), _sum(a.h, b.h))


def _diff(da, db):
    if db is None:
        return da
    return -db if da is None else da - db


def _t2_sub(a, b):
    return _Taylor2(a.v - b.v, _diff(a.g, b.g), _diff(a.h, b.h))


def _t2_mul(a, b):
    h = _sum(_scale(a.h, b.v), _scale(b.h, a.v))
    if a.g is not None and b.g is not None:
        cross = _outer(a.g, b.g)  # its transpose is _outer(b.g, a.g), exactly
        h = _sum(h, cross, np.swapaxes(cross, 0, 1))
    return _Taylor2(a.v * b.v, _sum(_scale(a.g, b.v), _scale(b.g, a.v)), h)


def _t2_chain(a, f0, f1, f2):
    """Compose with a scalar function given value, first, second derivative
    (f2 None for a zero second derivative)."""
    if a.g is None:
        return _Taylor2(f0)
    h = _scale(a.h, f1)
    if f2 is not None:
        h = _sum(h, f2 * _outer(a.g, a.g))
    return _Taylor2(f0, f1 * a.g, h)


def _t2_recip(a):
    _check(np.abs(a.v) > 0, "division by zero")
    r = 1.0 / a.v
    return _t2_chain(a, r, -r * r, 2 * r * r * r)


def _t2_div(a, b):
    return _t2_mul(a, _t2_recip(b))


def _t2_neg(a):
    return _Taylor2(-a.v, _scale(a.g, -1.0), _scale(a.h, -1.0))


def _t2_unary(op, a):
    if op == "neg":
        return _t2_neg(a)
    if op == "sin":
        s, c = np.sin(a.v), np.cos(a.v)
        return _t2_chain(a, s, c, -s)
    if op == "cos":
        s, c = np.sin(a.v), np.cos(a.v)
        return _t2_chain(a, c, -s, -c)
    if op == "exp":
        ex = np.exp(a.v)
        return _t2_chain(a, ex, ex, ex)
    if op == "log":
        _check(a.v > 0, "log of non-positive argument")
        return _t2_chain(a, np.log(a.v), 1.0 / a.v, -1.0 / (a.v * a.v))
    if op == "sqrt":
        _check(a.v > 0, "sqrt of non-positive argument in derivative")
        r = np.sqrt(a.v)
        return _t2_chain(a, r, 0.5 / r, -0.25 / (r * a.v))
    if op == "abs":
        return _t2_chain(a, np.abs(a.v), np.sign(a.v), None)
    raise ValueError(f"unknown function {op}")


def _t2_pow(a, b):
    # a constant exponent (numbers and parameters only) keeps the power rule,
    # which allows negative bases for integer exponents
    if b.g is None and np.ndim(b.v) == 0:
        p = float(b.v)
        if p == np.round(p):
            if p == 0:
                one = np.ones_like(np.asarray(a.v, dtype=float))
                return _t2_chain(a, one, 0.0 * one, None)
            _check((np.abs(a.v) > 0) | (p > 1), "zero base with exponent below one")
            f0 = a.v**p
            f1 = p * a.v ** (p - 1)
            f2 = p * (p - 1) * a.v ** (p - 2) if p != 1 else None
            return _t2_chain(a, f0, f1, f2)
        _check(a.v > 0, "non-integer power of non-positive base")
        f0 = a.v**p
        return _t2_chain(a, f0, p * f0 / a.v, p * (p - 1) * f0 / (a.v * a.v))
    _check(a.v > 0, "variable power of non-positive base")
    return _t2_unary("exp", _t2_mul(b, _t2_unary("log", a)))


def _eval_t2(e, ctx):
    if isinstance(e, Num):
        return _Taylor2(e.value)
    if isinstance(e, Param):
        if e.name not in ctx["params"]:
            raise DomainError(f"unbound parameter '{e.name}'")
        return _Taylor2(float(ctx["params"][e.name]))
    if isinstance(e, Var):
        if e.kind == "t":
            return _Taylor2.seed(ctx["t"], None, ctx["m"], ctx["batch"])
        n = ctx["n"]
        if e.kind == "x":
            return _Taylor2.seed(ctx["x"][e.index], e.index, ctx["m"], ctx["batch"])
        return _Taylor2.seed(ctx["v"][e.index], n + e.index, ctx["m"], ctx["batch"])
    if isinstance(e, Unary):
        return _t2_unary(e.op, _eval_t2(e.arg, ctx))
    if isinstance(e, Binary):
        a = _eval_t2(e.left, ctx)
        b = _eval_t2(e.right, ctx)
        if e.op == "^":
            return _t2_pow(a, b)
        if e.op == "+":
            return _t2_add(a, b)
        if e.op == "-":
            return _t2_sub(a, b)
        if e.op == "*":
            return _t2_mul(a, b)
        if e.op == "/":
            return _t2_div(a, b)
    raise TypeError(f"not an expression node: {e!r}")


def eval_derivs(e, n, x, v, t=0.0, params=None):
    """Value, gradient, and Hessian over (x1..xn, v1..vn).

    ``x`` and ``v`` have shape (n,) or (n, batch...); the gradient gets shape
    (2n, batch...) and the Hessian (2n, 2n, batch...).  Derivatives are exact
    to round-off (dual-number propagation, not finite differences).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    batch = x.shape[1:]
    ctx = {"n": n, "m": 2 * n, "batch": batch, "x": x, "v": v, "t": t,
           "params": params or {}}
    out = _eval_t2(e, ctx)
    m = ctx["m"]
    val = np.broadcast_to(out.v, batch).copy() if batch else float(out.v)
    g = np.zeros((m,) + batch) if out.g is None else out.g
    h = np.zeros((m, m) + batch) if out.h is None else out.h
    return val, g, h


# ---------------------------------------------------------------------------
# System specification

@dataclass
class SystemSpec:
    """Parsed mechanical system: dimension, Lagrangian, optional metric/potential."""

    name: str
    dim: int
    lagrangian: Expr
    parameters: dict
    domain: list  # list of (min, max, periodic) per coordinate
    metric: list = None  # n x n nested list of Expr, or None
    potential: Expr = None

    @property
    def is_natural(self):
        return self.metric is not None

    @property
    def is_reversible(self):
        """Whether L(x, -v) = L(x, v) is provable from the expression tree
        and L has no ``t``: then the midpoint action of the reversed history
        equals the action, so S(x_f, x_i) = S(x_i, x_f) and
        p_f(x_f, x_i) = -p_i(x_i, x_f).  False whenever in doubt."""
        return _velocity_parity(self.lagrangian) == 1

    @property
    def is_quadratic(self):
        """Whether L is provably a polynomial of degree at most 2 in (x, v)
        with no ``t``: then its second derivatives are constant and the
        discrete Euler-Lagrange equations are linear, so every stationary
        history is one solution plus Jacobi fields.  False whenever in doubt."""
        degree = _polynomial_degree(self.lagrangian)
        return degree is not None and degree <= 2

    def lagrangian_derivs(self, x, v, t=0.0):
        """(L, Lx, Lv, Lxx, Lxv, Lvv) at (x, v, t); broadcasts over a batch axis."""
        n = self.dim
        val, g, h = eval_derivs(self.lagrangian, n, x, v, t, self.parameters)
        return (val, g[:n], g[n:], h[:n, :n], h[:n, n:], h[n:, n:])

    def lagrangian_value(self, x, v, t=0.0):
        return eval_expr(self.lagrangian, x, v, t, self.parameters)

    def metric_matrix(self, x):
        """Evaluate the metric expression matrix at x (batch-broadcast)."""
        if self.metric is None:
            raise SpecError(f"system '{self.name}' declares no metric")
        x = np.asarray(x, dtype=float)
        rows = []
        for row in self.metric:
            rows.append([np.broadcast_to(
                eval_expr(e, x, None, 0.0, self.parameters), x.shape[1:]).astype(float)
                if x.ndim > 1 else float(eval_expr(e, x, None, 0.0, self.parameters))
                for e in row])
        return np.array(rows)

    def potential_value(self, x):
        """Evaluate the potential at x (batch-broadcast), zero if none is
        declared; a constant potential fills the batch shape too."""
        x = np.asarray(x, dtype=float)
        if self.potential is None:
            return np.zeros(x.shape[1:]) if x.ndim > 1 else 0.0
        value = eval_expr(self.potential, x, None, 0.0, self.parameters)
        if x.ndim > 1:
            return np.broadcast_to(value, x.shape[1:]).astype(float)
        return float(value)

    def contains(self, x):
        """Whether a point lies inside the declared domain box."""
        x = np.asarray(x, dtype=float)
        return all(lo <= xi <= hi for xi, (lo, hi, _) in zip(x, self.domain))


def parse(text):
    """Parse a JSON system document into a validated SystemSpec."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("top-level JSON value must be an object")
    for key in ("name", "dim", "lagrangian", "domain"):
        if key not in doc:
            raise SpecError(f"missing required field '{key}'")
    name = doc["name"]
    if not isinstance(name, str):
        raise SpecError("'name' must be a string")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SpecError("'dim' must be a positive integer")
    parameters = doc.get("parameters", {})
    if not isinstance(parameters, dict) or not all(
        isinstance(k, str) and isinstance(val, (int, float)) for k, val in parameters.items()
    ):
        raise SpecError("'parameters' must map names to numbers")
    parameters = {k: float(val) for k, val in parameters.items()}

    lagrangian = parse_expr(doc["lagrangian"], dim, parameters)

    metric = None
    if doc.get("metric") is not None:
        raw = doc["metric"]
        if (not isinstance(raw, list) or len(raw) != dim
                or any(not isinstance(r, list) or len(r) != dim for r in raw)):
            raise DimensionMismatch(f"metric must be a {dim}x{dim} array of expressions")
        metric = [[parse_expr(s, dim, parameters) for s in row] for row in raw]
        for i in range(dim):
            for j in range(i + 1, dim):
                if to_string(metric[i][j]) != to_string(metric[j][i]):
                    raise SpecError(
                        f"metric entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
                        "are not symmetric as expressions")
        if any(_uses_velocity(e) for row in metric for e in row):
            raise SpecError("metric entries must not reference velocities")

    potential = None
    if doc.get("potential") is not None:
        potential = parse_expr(doc["potential"], dim, parameters)
        if _uses_velocity(potential):
            raise SpecError("potential must not reference velocities")

    raw_domain = doc["domain"]
    if not isinstance(raw_domain, list) or len(raw_domain) != dim:
        raise DimensionMismatch(f"domain must list {dim} coordinate ranges")
    domain = []
    for i, d in enumerate(raw_domain):
        try:
            lo, hi = float(d["min"]), float(d["max"])
        except (TypeError, KeyError) as exc:
            raise SpecError(f"domain entry {i + 1} needs 'min' and 'max'") from exc
        if not lo < hi:
            raise SpecError(f"domain entry {i + 1} has min >= max")
        domain.append((lo, hi, bool(d.get("periodic", False))))

    return SystemSpec(name=name, dim=dim, lagrangian=lagrangian,
                      parameters=parameters, domain=domain,
                      metric=metric, potential=potential)


def load(path):
    """Read and parse a system specification file."""
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _uses_velocity(e):
    if isinstance(e, Var):
        return e.kind == "v"
    if isinstance(e, Unary):
        return _uses_velocity(e.arg)
    if isinstance(e, Binary):
        return _uses_velocity(e.left) or _uses_velocity(e.right)
    return False


# parity of a function of one argument: its parity for an even and for an
# odd argument (None where it has none); 'neg' keeps the argument's parity
_UNARY_PARITY = {"neg": (1, -1), "sin": (1, -1), "cos": (1, 1), "abs": (1, 1),
                 "exp": (1, None), "log": (1, None), "sqrt": (1, None)}


def _velocity_parity(e):
    """+1 if e is provably even under v -> -v, -1 if provably odd, None if
    neither can be shown or ``t`` occurs.  Conservative: a sum of unlike
    parities, an odd base under an exponent that is not an integer number,
    and an even-only function of an odd argument all give None."""
    if isinstance(e, (Num, Param)):
        return 1
    if isinstance(e, Var):
        return {"x": 1, "v": -1}.get(e.kind)
    if isinstance(e, Unary):
        p = _velocity_parity(e.arg)
        return None if p is None else _UNARY_PARITY[e.op][p < 0]
    a, b = _velocity_parity(e.left), _velocity_parity(e.right)
    if a is None or b is None:
        return None
    if e.op in ("+", "-"):
        return a if a == b else None
    if e.op in ("*", "/"):
        return a * b
    if a == 1 and b == 1:  # '^': an even base to an even exponent
        return 1
    if isinstance(e.right, Num) and float(e.right.value).is_integer():
        return a if e.right.value % 2 else 1
    return None


def _polynomial_degree(e):
    """Degree of e as a polynomial in (x, v), or None if that cannot be shown
    or ``t`` occurs.  Conservative: a function of a variable, a division by
    a variable, and a variable base under an exponent that is not a
    non-negative integer number all give None; a constant stays a constant
    (degree 0) under any function, quotient or power."""
    if isinstance(e, (Num, Param)):
        return 0
    if isinstance(e, Var):
        return None if e.kind == "t" else 1
    if isinstance(e, Unary):
        d = _polynomial_degree(e.arg)
        return d if e.op == "neg" or d == 0 else None
    a, b = _polynomial_degree(e.left), _polynomial_degree(e.right)
    if a is None or b is None:
        return None
    if e.op in ("+", "-"):
        return max(a, b)
    if e.op == "*":
        return a + b
    if b != 0:  # '/' or '^' with a variable right operand
        return None
    if e.op == "/" or a == 0:
        return a
    k = e.right.value if isinstance(e.right, Num) else -1.0
    return int(k) * a if k >= 0 and float(k).is_integer() else None
