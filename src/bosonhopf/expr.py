"""A small expression language for stating operator identities.

Expressions are built from generator atoms (a, ad, N, K, b, bd, M, g,
ginv, I), numeric literals, named parameters (alpha, beta, sigma, tau,
delta, nu, rho, q), the arithmetic operators + - * and ^k for nonnegative
integer k, and the builtin forms comm, acomm, tensor, qbracket and phase.
Parsing and evaluation are pure.

Trees compile to straight-line programs (:func:`compile_trees`) that run
on a table of leaves of either of two kinds.  ``evaluate`` takes the
generator images of an EvalContext's representation as dense matrices:
the ``eval`` command, where a sum may mix level shifts (``a + ad``) and
``tensor`` is a Kronecker product.  The relation rows
(:func:`fock.relation_residuals`) take given images as sector operators
(:class:`tensor.SectorOperator`) and run on them the programs of the
identity corpus (``load_corpus``), the one statement of each family's
defining relations.  ``^k`` is repeated ``@``.

qbracket and phase are diagonal functional calculus only: every use in the
identity corpus acts on a diagonal operator, and general matrix functions
are out of scope.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fock import PARAM_NAMES, FockRep, diag_function, rep_generator_images
from .scalars import q_bracket
from .tensor import SectorOperator, kron

# every family's parameter names, each once, in family order
PARAMETER_NAMES = tuple(dict.fromkeys(name for names in PARAM_NAMES.values()
                                      for name in names))
GENERATOR_ATOMS = ("a", "ad", "N", "K", "b", "bd", "M", "g", "ginv", "I")
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
    """The rep whose dense generator images and parameters, with
    ``bindings`` added or overriding, ``evaluate`` takes as leaves."""
    rep: FockRep
    bindings: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Program:
    """Trees compiled to straight-line steps over a table of leaves.

    Value 0 is the leaf table: generator images and parameter values by
    name.  Step i, ``(fn, args)``, computes value i + 1 from the values
    ``args``; ``outputs`` are the compiled trees' values and ``names`` the
    leaves they read.  Equal subtrees are computed once, so a product that a
    residual and its scale both form is formed once.  ``fn`` None is a
    product of two operators, which :meth:`run` forms reversed with
    ``anti``.
    """
    steps: tuple
    outputs: tuple
    names: frozenset

    def run(self, leaves: dict, anti: bool = False) -> list:
        """The outputs' values: numbers, or operators of the leaves' type."""
        matmul = _reversed_matmul if anti else operator.matmul
        values = [leaves]
        for fn, args in self.steps:
            values.append((fn or matmul)(*[values[i] for i in args]))
        return [values[i] for i in self.outputs]


def _reversed_matmul(x, y):
    return y @ x


def _identity_like(x):
    eye = np.eye(x.shape[0], dtype=complex)
    return SectorOperator.from_dense(eye, x.sectors) if isinstance(x, SectorOperator) else eye


def _diagonal_map(fn: str, x, values_fn):
    """``values_fn`` on the diagonal of a diagonal operator: entry by entry
    on a dense matrix (:func:`fock.diag_function`), on the whole diagonal
    at once on a sector operator (:meth:`SectorOperator.diagonal_map`)."""
    if isinstance(x, SectorOperator):
        try:
            return x.diagonal_map(values_fn)
        except ValueError as exc:
            raise EvalError(f"{fn} requires a diagonal operator argument") from exc
    if np.count_nonzero(x - np.diag(np.diag(x))):
        raise EvalError(f"{fn} requires a diagonal operator argument")
    return diag_function(values_fn, x)


def _tensor(x, y):
    """The Kronecker product of two dense single-site images."""
    if isinstance(x, SectorOperator) or isinstance(y, SectorOperator):
        raise EvalError("tensor takes the dense images of eval only, "
                        "not sector operators")
    return kron(x, y)


def _qbracket(x, q):
    if q.imag != 0:
        raise EvalError("the deformation base of qbracket must be real")
    return _diagonal_map("qbracket", x, lambda v: q_bracket(v, q.real))


class _Compiler:
    """Emits the steps of a :class:`Program`, checking operand kinds as it
    goes: ``sites[i]`` is 0 for a scalar value and otherwise the value's
    site count, in units of the leaves' own."""

    def __init__(self):
        self.steps, self.sites, self.index, self.names = [], [None], {}, set()

    def emit(self, key, sites: int, fn, *args) -> int:
        """The value ``key``, computed by ``fn`` from the values ``args``; one step per key."""
        i = self.index.get(key)
        if i is None:
            self.steps.append((fn, args))
            self.sites.append(sites)
            i = self.index[key] = len(self.steps)
        return i

    def combine(self, op: str, a: int, b: int) -> int:
        sa, sb = self.sites[a], self.sites[b]
        if op == "*" and sa and sb:
            if sa != sb:
                raise EvalError(f"cannot multiply a {sa}-site operator by a "
                                f"{sb}-site operator")
            return self.emit(("*", a, b), sa, None, a, b)
        if op == "*":   # a scalar factor multiplies from the left
            return self.emit(("*", a, b), sa or sb,
                             (lambda x, y: y * x) if sa else operator.mul, a, b)
        # additive ops require matching arity; a bare scalar is not an operator
        if bool(sa) != bool(sb):
            raise EvalError(f"cannot apply {op!r} between a scalar and an "
                            "operator; multiply the scalar by I first")
        if sa != sb:
            raise EvalError(f"cannot apply {op!r} between a {sa}-site and a "
                            f"{sb}-site operator")
        return self.emit((op, a, b), sa, operator.add if op == "+" else operator.sub, a, b)

    def __call__(self, e: Expr) -> int:
        if isinstance(e, Num):
            return self.emit(e, 0, lambda value=complex(e.value): value)
        if isinstance(e, Name):
            self.names.add(e.ident)
            if e.ident in PARAMETER_NAMES:
                return self.emit(e, 0, lambda leaves, name=e.ident: complex(leaves[name]), 0)
            return self.emit(e, 1, operator.itemgetter(e.ident), 0)
        if isinstance(e, Neg):
            a = self(e.operand)
            return self.emit(("neg", a), self.sites[a],
                             (lambda x: -1.0 * x) if self.sites[a] else operator.neg, a)
        if isinstance(e, BinOp):
            return self.combine(e.op, self(e.left), self(e.right))
        if isinstance(e, Pow):
            a, k = self(e.base), e.exponent
            if not self.sites[a]:
                return self.emit(("^", a, k), 0, lambda x: x ** k, a)
            if k == 0:
                return self.emit(("^", a, 0), self.sites[a], _identity_like, a)
            out = a
            for _ in range(k - 1):
                out = self.combine("*", out, a)
            return out
        if isinstance(e, Call):
            return self.call(e.fn, [self(arg) for arg in e.args])
        raise TypeError(f"not an expression node: {e!r}")

    def call(self, fn: str, args: list) -> int:
        sites = [self.sites[a] for a in args]
        if fn in ("comm", "acomm"):
            a, b = args
            return self.combine("+" if fn == "acomm" else "-",
                                self.combine("*", a, b), self.combine("*", b, a))
        if fn == "tensor":   # dense operands only: the eval path
            if 0 in sites:
                raise EvalError("tensor takes two operator arguments")
            if sites != [1, 1]:
                raise EvalError("tensor takes single-site operators")
            return self.emit((fn, *args), 2, _tensor, *args)
        if fn == "phase":
            (a,) = args
            if not sites[0]:
                return self.emit((fn, a), 0, lambda x: np.exp(1j * np.pi * x), a)
            return self.emit((fn, a), sites[0], lambda x: _diagonal_map(
                fn, x, lambda v: np.exp(1j * np.pi * v)), a)
        if fn == "qbracket":
            if not sites[0]:
                raise EvalError("qbracket of a bare scalar: use qbracket(... * I, ...) "
                                "for an operator result or fold the scalar by hand")
            if sites[1]:
                raise EvalError("the second argument of qbracket must be a scalar")
            return self.emit((fn, *args), sites[0], _qbracket, *args)
        raise EvalError(f"unknown builtin {fn!r}")


def compile_trees(*trees: Expr) -> Program:
    """One program computing every tree on the same leaves."""
    compiler = _Compiler()
    outputs = tuple(compiler(tree) for tree in trees)
    return Program(tuple(compiler.steps), outputs, frozenset(compiler.names))


def evaluate(e: Expr, ctx: EvalContext) -> np.ndarray:
    """Evaluates to a dense matrix; a purely scalar expression is promoted
    to a multiple of the single-site identity."""
    program = compile_trees(e)
    leaves = {**ctx.rep.spec.param_dict, **ctx.bindings, **rep_generator_images(ctx.rep)}
    missing = sorted(program.names - leaves.keys())
    if missing:
        raise EvalError(f"family {ctx.rep.spec.family} has no generator or bound "
                        f"parameter {', '.join(missing)}")
    (value,) = program.run(leaves)   # a copy: the value may be one of the rep's own images
    return value * ctx.rep.identity if np.isscalar(value) else np.array(value, dtype=complex)


def evaluate_text(text: str, ctx: EvalContext) -> np.ndarray:
    return evaluate(parse(text), ctx)


# -- identity corpus ----------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    """One defining relation, ``family.ident``: its residual ``tree``
    (written ``text``) vanishes on the validity window of ``raise_degree``
    and is normed over max(1, the norm of ``scale``); ``program`` computes
    both."""
    family: str
    ident: str
    raise_degree: int
    text: str
    tree: Expr
    scale: Expr
    program: Program


def corpus_entry(line: str) -> CorpusEntry:
    """The relation a corpus line states: ``family ; id ; degree ; residual ; scale``."""
    parts = [p.strip() for p in line.split(";")]
    if len(parts) != 5:
        raise ValueError(f"expected 'family ; id ; degree ; residual ; scale', got {line!r}")
    family, ident, degree, text, scale = parts
    tree, scale_tree = parse(text), parse(scale)
    return CorpusEntry(family, ident, int(degree), text, tree, scale_tree,
                       compile_trees(tree, scale_tree))


@lru_cache(maxsize=None)
def load_corpus() -> tuple:
    """The checked-in defining-relation corpus, parsed and compiled once per process."""
    from importlib import resources
    raw = (resources.files("bosonhopf") / "data" / "identities.txt").read_text()
    lines = (line.strip() for line in raw.splitlines())
    return tuple(corpus_entry(line) for line in lines if line and not line.startswith("#"))
