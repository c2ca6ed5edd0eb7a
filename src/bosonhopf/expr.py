"""A small expression language for stating operator identities.

Expressions are built from generator atoms (a, ad, N, K, b, bd, M, g, I),
numeric literals, named parameters (alpha, beta, sigma, tau, delta, nu,
rho, q), the arithmetic operators + - * and ^k for nonnegative integer k,
and the builtin forms comm, acomm, tensor, qbracket and phase.  Parsing
and evaluation are pure; an EvalContext carries the representation and the
parameter bindings.

qbracket and phase are diagonal functional calculus only: every use in the
identity corpus acts on a diagonal operator, and general matrix functions
are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import FockRep, diag_function
from .scalars import q_bracket
from .tensor import kron

PARAMETER_NAMES = ("alpha", "beta", "sigma", "tau", "delta", "nu", "rho", "q")
GENERATOR_ATOMS = ("a", "ad", "N", "K", "b", "bd", "M", "g", "I")
BUILTINS = {"comm": 2, "acomm": 2, "tensor": 2, "qbracket": 2, "phase": 1}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        tail = f" (expected one of: {', '.join(self.expected)})" if expected else ""
        super().__init__(f"line {line}, column {column}: {message}{tail}")


class EvalError(ValueError):
    pass


# -- abstract syntax ----------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str            # "+", "-" or "*"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


Expr = Num | Name | Neg | BinOp | Pow | Call


# -- lexer --------------------------------------------------------------------

_PUNCT = "+-*^(),"


@dataclass(frozen=True)
class _Token:
    kind: str          # "num", "ident", a punctuation char, or "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list:
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch in _PUNCT:
            toks.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            toks.append(_Token("num", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    toks.append(_Token("end", "", line, col))
    return toks


# -- parser (recursive descent, standard precedence) --------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def _fail(self, message: str, expected=()):
        tok = self.current
        raise ParseError(message, tok.line, tok.column, expected)

    def _eat(self, kind: str) -> _Token:
        tok = self.current
        if tok.kind != kind:
            got = tok.text or "end of input"
            self._fail(f"unexpected {got!r}", expected=(kind,))
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        e = self.expression()
        if self.current.kind != "end":
            self._fail(f"trailing input {self.current.text!r}",
                       expected=("+", "-", "*", "^", "end of input"))
        return e

    def expression(self) -> Expr:
        e = self.term()
        while self.current.kind in ("+", "-"):
            op = self._eat(self.current.kind).kind
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.current.kind == "*":
            self._eat("*")
            e = BinOp("*", e, self.factor())
        return e

    def factor(self) -> Expr:
        if self.current.kind == "-":
            self._eat("-")
            return Neg(self.factor())
        if self.current.kind == "+":
            self._eat("+")
            return self.factor()
        return self.power()

    def power(self) -> Expr:
        base = self.primary()
        if self.current.kind != "^":
            return base
        self._eat("^")
        tok = self.current
        if tok.kind == "-":
            raise ParseError("negative exponent on ^", tok.line, tok.column,
                             expected=("nonnegative integer",))
        tok = self._eat("num")
        value = float(tok.text)
        if value != int(value):
            raise ParseError("fractional exponent on ^", tok.line, tok.column,
                             expected=("nonnegative integer",))
        return Pow(base, int(value))

    def primary(self) -> Expr:
        tok = self.current
        if tok.kind == "num":
            self._eat("num")
            return Num(float(tok.text))
        if tok.kind == "(":
            self._eat("(")
            e = self.expression()
            self._eat(")")
            return e
        if tok.kind == "ident":
            self._eat("ident")
            if self.current.kind != "(":
                if tok.text not in GENERATOR_ATOMS and \
                        tok.text not in PARAMETER_NAMES:
                    raise ParseError(
                        f"unknown identifier {tok.text!r}", tok.line,
                        tok.column,
                        expected=GENERATOR_ATOMS + PARAMETER_NAMES)
                return Name(tok.text)
            if tok.text not in BUILTINS:
                raise ParseError(f"unknown function {tok.text!r}", tok.line,
                                 tok.column, expected=sorted(BUILTINS))
            self._eat("(")
            args = [self.expression()]
            while self.current.kind == ",":
                self._eat(",")
                args.append(self.expression())
            self._eat(")")
            arity = BUILTINS[tok.text]
            if len(args) != arity:
                raise ParseError(
                    f"{tok.text} takes {arity} argument(s), got {len(args)}",
                    tok.line, tok.column)
            return Call(tok.text, tuple(args))
        got = tok.text or "end of input"
        self._fail(f"unexpected {got!r}",
                   expected=("number", "identifier", "("))


def parse(text: str) -> Expr:
    return _Parser(text).parse()


# -- printer ------------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "neg": 3, "pow": 4, "atom": 5}


def _print(e: Expr) -> tuple:
    """Returns (text, precedence level of the top node)."""
    if isinstance(e, Num):
        return (repr(e.value) if e.value != int(e.value)
                else str(int(e.value))), _PRECEDENCE["atom"]
    if isinstance(e, Name):
        return e.ident, _PRECEDENCE["atom"]
    if isinstance(e, Call):
        parts = ", ".join(_print(a)[0] for a in e.args)
        return f"{e.fn}({parts})", _PRECEDENCE["atom"]
    if isinstance(e, Neg):
        inner, lvl = _print(e.operand)
        if lvl < _PRECEDENCE["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PRECEDENCE["neg"]
    if isinstance(e, Pow):
        inner, lvl = _print(e.base)
        if lvl < _PRECEDENCE["atom"]:
            inner = f"({inner})"
        return f"{inner}^{e.exponent}", _PRECEDENCE["pow"]
    if isinstance(e, BinOp):
        mine = _PRECEDENCE[e.op]
        left, llvl = _print(e.left)
        right, rlvl = _print(e.right)
        if llvl < mine:
            left = f"({left})"
        # left associativity: a - (b - c) and a * (b * c) keep their parens
        if rlvl <= mine:
            right = f"({right})"
        return f"{left} {e.op} {right}", mine
    raise TypeError(f"not an expression node: {e!r}")


def print_expr(e: Expr) -> str:
    return _print(e)[0]


# -- evaluator ----------------------------------------------------------------

@dataclass(frozen=True)
class EvalContext:
    rep: FockRep
    bindings: dict = field(default_factory=dict)

    def binding(self, name: str) -> complex:
        if name in self.bindings:
            return complex(self.bindings[name])
        params = self.rep.spec.param_dict
        if name in params:
            return complex(params[name])
        raise EvalError(f"unbound parameter {name!r} for family "
                        f"{self.rep.spec.family}")


@dataclass(frozen=True)
class _Value:
    """Scalar or n-site matrix intermediate."""
    data: object
    sites: int        # 0 for scalars

    @property
    def is_scalar(self) -> bool:
        return self.sites == 0


def _scalar(z) -> _Value:
    return _Value(complex(z), 0)


def _atom_value(name: str, ctx: EvalContext) -> _Value:
    if name in PARAMETER_NAMES:
        return _scalar(ctx.binding(name))
    if name in GENERATOR_ATOMS:
        rep = ctx.rep
        try:
            mat = rep.generator(name)
        except (KeyError, ValueError) as exc:
            raise EvalError(
                f"atom {name!r} is not available in family "
                f"{rep.spec.family}: {exc}") from exc
        return _Value(np.array(mat, dtype=complex), 1)
    raise EvalError(f"unknown identifier {name!r}; atoms are "
                    f"{GENERATOR_ATOMS}, parameters are {PARAMETER_NAMES}")


def _combine(op: str, x: _Value, y: _Value) -> _Value:
    if x.is_scalar and y.is_scalar:
        if op == "+":
            return _scalar(x.data + y.data)
        if op == "-":
            return _scalar(x.data - y.data)
        return _scalar(x.data * y.data)
    if op == "*":
        if x.is_scalar:
            return _Value(x.data * y.data, y.sites)
        if y.is_scalar:
            return _Value(y.data * x.data, x.sites)
        if x.sites != y.sites:
            raise EvalError(f"cannot multiply a {x.sites}-site operator by a "
                            f"{y.sites}-site operator")
        return _Value(x.data @ y.data, x.sites)
    # additive ops require matching arity; a bare scalar is not an operator
    if x.is_scalar or y.is_scalar:
        raise EvalError(f"cannot apply {op!r} between a scalar and an "
                        "operator; multiply the scalar by I first")
    if x.sites != y.sites:
        raise EvalError(f"cannot apply {op!r} between a {x.sites}-site and a "
                        f"{y.sites}-site operator")
    if op == "+":
        return _Value(x.data + y.data, x.sites)
    return _Value(x.data - y.data, x.sites)


def _require_diagonal(val: _Value, fn: str) -> np.ndarray:
    if val.is_scalar:
        raise EvalError(f"{fn} of a bare scalar: use {fn}(... * I, ...) for "
                        "an operator result or fold the scalar by hand")
    mat = val.data
    off = mat - np.diag(np.diag(mat))
    if np.count_nonzero(off):
        raise EvalError(f"{fn} requires a diagonal operator argument")
    return mat


def _call(fn: str, args: list, ctx: EvalContext) -> _Value:
    if fn in ("comm", "acomm"):
        x, y = args
        xy = _combine("*", x, y)
        yx = _combine("*", y, x)
        return _combine("+" if fn == "acomm" else "-", xy, yx)
    if fn == "tensor":
        x, y = args
        if x.is_scalar or y.is_scalar:
            raise EvalError("tensor takes two operator arguments")
        if x.sites != 1 or y.sites != 1:
            raise EvalError("tensor takes single-site operators")
        return _Value(kron(x.data, y.data), 2)
    if fn == "qbracket":
        val, qv = args
        if not qv.is_scalar:
            raise EvalError("the second argument of qbracket must be a scalar")
        if qv.data.imag != 0:
            raise EvalError("the deformation base of qbracket must be real")
        qval = qv.data.real
        mat = _require_diagonal(val, "qbracket")
        return _Value(diag_function(lambda v: q_bracket(v, qval), mat),
                      val.sites)
    if fn == "phase":
        (val,) = args
        if val.is_scalar:
            return _scalar(np.exp(1j * np.pi * val.data))
        mat = _require_diagonal(val, "phase")
        return _Value(diag_function(lambda v: np.exp(1j * np.pi * v), mat),
                      val.sites)
    raise EvalError(f"unknown builtin {fn!r}")


def _eval(e: Expr, ctx: EvalContext) -> _Value:
    if isinstance(e, Num):
        return _scalar(e.value)
    if isinstance(e, Name):
        return _atom_value(e.ident, ctx)
    if isinstance(e, Neg):
        inner = _eval(e.operand, ctx)
        return _Value(-inner.data if inner.is_scalar else -1.0 * inner.data,
                      inner.sites)
    if isinstance(e, BinOp):
        return _combine(e.op, _eval(e.left, ctx), _eval(e.right, ctx))
    if isinstance(e, Pow):
        base = _eval(e.base, ctx)
        if base.is_scalar:
            return _scalar(base.data ** e.exponent)
        return _Value(np.linalg.matrix_power(base.data, e.exponent),
                      base.sites)
    if isinstance(e, Call):
        return _call(e.fn, [_eval(a, ctx) for a in e.args], ctx)
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, ctx: EvalContext) -> np.ndarray:
    """Evaluates to a matrix; a purely scalar expression is promoted to a
    multiple of the single-site identity."""
    val = _eval(e, ctx)
    if val.is_scalar:
        return val.data * ctx.rep.identity
    return val.data


def evaluate_text(text: str, ctx: EvalContext) -> np.ndarray:
    return evaluate(parse(text), ctx)


# -- identity corpus ----------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    family: str
    raise_degree: int
    text: str
    tree: Expr


def load_corpus() -> list:
    """The checked-in defining-relation corpus, parsed."""
    from importlib import resources
    raw = (resources.files("bosonhopf") / "data" / "identities.txt").read_text()
    entries = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(";", 2)]
        if len(parts) != 3:
            raise ValueError(f"identities.txt line {lineno}: expected "
                             "'family ; degree ; expression'")
        family, degree, text = parts
        entries.append(CorpusEntry(family=family, raise_degree=int(degree),
                                   text=text, tree=parse(text)))
    return entries
