"""A small expression language for stating operator identities.

Expressions are built from generator atoms (a, ad, N, K, b, bd, M, g,
ginv, I), numeric literals, named parameters (alpha, beta, sigma, tau,
delta, nu, rho, q), the arithmetic operators + - *, / by a scalar, ^k for
nonnegative integer k and a scalar's ^ with a scalar exponent (q^alpha,
q^(sigma/2)), and the builtin forms comm, acomm, tensor, qbracket, phase,
left and right (x (x) I and I (x) x of a single-site operator).
Parsing and evaluation are pure.

Trees compile to straight-line programs (:func:`compile_trees`) that run
on a table of leaves of either of two kinds.  ``evaluate`` takes the
generator images of an EvalContext's representation as dense matrices:
the ``eval`` command, where a sum may mix level shifts (``a + ad``) and
``tensor`` is a Kronecker product.  The rows of the identity corpus
(:class:`Identities`) run on sector operators (:class:`tensor.SectorOperator`).
``^k`` is repeated ``@``.  A program runs at a list of grid points of one
family and level count (:meth:`Program.run`), a point alone as a list of
one: at several, its operator leaves are the direct sums of the points'
images (:meth:`tensor.SectorOperator.direct_sum`), each scalar step runs
per point on that point's values, and a scalar meets an operator as the
array of its points' values.  A corpus line may also read a definition, apply
a map (``osp12(I2)``: I2 of osp12 on the map's images of e, f and h), and
read the Hopf tables' images ``Delta(x)``, ``S(x)`` and ``eps(x)``, leaves
the caller passes by those names; definitions and map images are expanded
where they are read.

qbracket and phase are diagonal functional calculus only, or a function of
a scalar: every use in the identity corpus acts on a diagonal operator or
a scalar, and general matrix functions are out of scope.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .fock import FockRep, diag_function, rep_generator_images
from .corpus import Statement, statement, statements
from .scalars import q_bracket
from .spec import FAMILIES, PARAM_NAMES
from .tensor import SectorOperator, kron

# every family's parameter names, each once, in family order
PARAMETER_NAMES = tuple(dict.fromkeys(name for names in PARAM_NAMES.values()
                                      for name in names))
GENERATOR_ATOMS = ("a", "ad", "N", "K", "b", "bd", "M", "g", "ginv", "I")
BUILTINS = {"comm": 2, "acomm": 2, "tensor": 2, "qbracket": 2, "phase": 1,
            "left": 1, "right": 1}
# The Hopf images a corpus line may read from the caller, by the site count
# of each: the coproduct, the antipode and the counit.
IMAGE_MAPS = {"Delta": 2, "S": 1, "eps": 0}


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
    op: str            # "+", "-", "*" or "/"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: "int | Expr"   # an expression exponent is a scalar's


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


Expr = Num | Name | Neg | BinOp | Pow | Call


# -- lexer --------------------------------------------------------------------

_TOKEN = re.compile(r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[^\W\d]\w*)"
                    r"|(?P<punct>[-+*/^(),])|(?P<space>[ \t\r\n]+)|(?P<bad>.)", re.S)


@dataclass(frozen=True)
class _Token:
    kind: str          # "num", "ident", a punctuation char, or "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list:
    toks, line, line_start = [], 1, 0
    for m in _TOKEN.finditer(text):
        kind, value, column = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line, column)
        if kind == "space":
            if "\n" in value:
                line += value.count("\n")
                line_start = m.start() + value.rindex("\n") + 1
            continue
        toks.append(_Token(value if kind == "punct" else kind, value, line, column))
    toks.append(_Token("end", "", line, len(text) - line_start + 1))
    return toks


# -- parser (recursive descent, standard precedence) --------------------------

class _Parser:
    def __init__(self, text: str, names):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.names = names

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
        while self.current.kind in ("*", "/"):
            op = self._eat(self.current.kind).kind
            e = BinOp(op, e, self.factor())
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
        if tok.kind in ("ident", "("):
            return Pow(base, self.primary())
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
                if self.names is not None and tok.text not in self.names:
                    raise ParseError(
                        f"unknown identifier {tok.text!r}", tok.line,
                        tok.column, expected=self.names)
                return Name(tok.text)
            if self.names is not None and tok.text not in BUILTINS:
                raise ParseError(f"unknown function {tok.text!r}", tok.line,
                                 tok.column, expected=sorted(BUILTINS))
            self._eat("(")
            args = [self.expression()]
            while self.current.kind == ",":
                self._eat(",")
                args.append(self.expression())
            self._eat(")")
            arity = BUILTINS.get(tok.text, 1)
            if len(args) != arity:
                raise ParseError(
                    f"{tok.text} takes {arity} argument(s), got {len(args)}",
                    tok.line, tok.column)
            return Call(tok.text, tuple(args))
        got = tok.text or "end of input"
        self._fail(f"unexpected {got!r}",
                   expected=("number", "identifier", "("))


def parse(text: str, names=GENERATOR_ATOMS + PARAMETER_NAMES) -> Expr:
    """The tree of ``text``, whose identifiers must be among ``names`` and
    whose functions among the builtins; ``names=None`` accepts any of
    either, as the corpus, whose definitions and maps add names, does."""
    return _Parser(text, names).parse()


# -- printer ------------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


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
        exponent = e.exponent
        if not isinstance(exponent, int):   # a bare number would read as an integer exponent
            exponent, lvl = _print(e.exponent)
            if lvl < _PRECEDENCE["atom"] or isinstance(e.exponent, Num):
                exponent = f"({exponent})"
        return f"{inner}^{exponent}", _PRECEDENCE["pow"]
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

    Value 0 stands for the leaves: the operator leaves (generator images)
    and each point's scalar leaves (parameter values), by name.  Step i,
    ``(fn, args)``, computes value i + 1 from the one or two values
    ``args``; ``outputs`` are the compiled trees' values and ``names`` the
    leaves they read.  ``sites[i]`` is 0 where value i is a scalar, else its
    site count.  Equal subtrees are computed once, so a product that a
    residual and its scale both form is formed once.  ``fn`` None is a
    product of two operators, which :meth:`run` forms reversed with
    ``anti``.  A point run alone is a batch of one (:meth:`run`).
    """
    steps: tuple
    outputs: tuple
    names: frozenset
    sites: tuple

    @cached_property
    def two_site(self) -> bool:
        """Whether a value is a two-site operator (a Delta image, left or right)."""
        return max(self.sites[1:], default=0) > 1

    def run(self, scalars: list, ops: dict, anti: bool = False) -> list:
        """The outputs' values at one or several grid points at once:
        ``scalars[p]`` holds point p's scalar leaves and ``ops`` the operator
        leaves, of one point or the direct sums of several points' one-site
        images.  A scalar step runs once per point on that point's values,
        so a scalar output is the list of them; an operator step runs once,
        a scalar operand taken as the array of its points' values, or at one
        point as its one value."""
        matmul = _reversed_matmul if anti else operator.matmul
        values, arrays, alone = [None], {}, len(scalars) == 1

        def operand(i):
            if self.sites[i]:
                return values[i]
            if i not in arrays:
                arrays[i] = values[i][0] if alone else np.array(values[i], dtype=complex)
            return arrays[i]

        for (fn, args), sites in zip(self.steps, self.sites[1:]):
            if args == (0,):   # a leaf or a number
                values.append(fn(ops) if sites else [fn(leaves) for leaves in scalars])
            elif not sites:
                values.append([fn(*point) for point in zip(*(values[a] for a in args))])
            elif len(args) == 2:
                values.append((fn or matmul)(operand(args[0]), operand(args[1])))
            else:
                values.append(fn(operand(args[0])))
        return [values[i] for i in self.outputs]


def _reversed_matmul(x, y):
    return y @ x


def _identity_like(x):
    if isinstance(x, SectorOperator):
        return SectorOperator(x.sectors, 0, SectorOperator.identity(x.sectors, complex).blocks,
                              x.summands)
    return np.eye(x.shape[0], dtype=complex)


def _diagonal_map(fn: str, x, values_fn):
    """``values_fn`` on the diagonal of a diagonal operator: entry by entry
    on a dense matrix (:func:`fock.diag_function`), on the whole diagonal
    at once on a sector operator, or a list of one function per summand of
    a direct sum (:meth:`SectorOperator.diagonal_map`)."""
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


def _pair(x, y):
    """x (x) y on the two-site space, None standing for I."""
    if isinstance(x if x is not None else y, SectorOperator):
        return SectorOperator.pair(x, y)
    eye = np.eye((x if x is not None else y).shape[0], dtype=complex)
    return kron(eye if x is None else x, eye if y is None else y)


def _qbracket(x, q):
    """[x]_q of a scalar, or of a diagonal operator; of a direct sum, ``q``
    is the array of its summands' bases, each mapping its own summand."""
    bases = q.tolist() if isinstance(q, np.ndarray) else [q]
    if any(base.imag != 0 for base in bases):
        raise EvalError("the deformation base of qbracket must be real")
    if np.isscalar(x):
        return q_bracket(x, q.real)
    fns = [lambda v, base=base.real: q_bracket(v, base) for base in bases]
    return _diagonal_map("qbracket", x, fns if isinstance(q, np.ndarray) else fns[0])


# Where the compiler looks a name up: the definitions and maps of
# ``family``; inside ``image(...)`` a generator is the leaf "image(name)"; in
# a map's scope a ``bound`` name is its image, read in ``parent`` (the scope
# the map is applied in), where an image's own expression (``binding``) also
# reads every name the map does not bind.
_Scope = namedtuple("_Scope", "family image bound parent binding",
                    defaults=("", "", None, None, False))


class _Compiler:
    """Emits the steps of a :class:`Program`, checking operand kinds as it
    goes: ``sites[i]`` is 0 for a scalar value and otherwise the value's
    site count, in units of the leaves' own.  With ``corpus`` (an
    :class:`Identities`), names and calls resolve to its definitions, maps
    and image leaves."""

    def __init__(self, corpus=None):
        self.steps, self.sites, self.index, self.names, self.corpus = [], [None], {}, set(), corpus

    def emit(self, key, sites: int, fn, *args) -> int:
        """The value ``key``, computed by ``fn`` from the values ``args``; one step per key."""
        i = self.index.get(key)
        if i is None:
            self.steps.append((fn, args))
            self.sites.append(sites)
            i = self.index[key] = len(self.steps)
        return i

    def combine(self, op: str, a: int, b: int, anti: bool = False) -> int:
        sa, sb = self.sites[a], self.sites[b]
        if op == "*" and sa and sb:
            if sa != sb:
                raise EvalError(f"cannot multiply a {sa}-site operator by a "
                                f"{sb}-site operator")
            if anti:   # an anti-homomorphism's image: the factors reversed
                return self.emit(("*r", a, b), sa, _reversed_matmul, a, b)
            return self.emit(("*", a, b), sa, None, a, b)
        if op == "*":   # a scalar factor multiplies from the left
            return self.emit(("*", a, b), sa or sb,
                             (lambda x, y: y * x) if sa else operator.mul, a, b)
        if op == "/":
            if sb:
                raise EvalError("the divisor of / must be a scalar")
            if not sa:
                return self.emit(("/", a, b), 0, operator.truediv, a, b)
            # an operator over y is (1/y) times it, the reciprocal a scalar step
            return self.combine("*", self.emit(("1/", b), 0, lambda y: 1.0 / y, b), a)
        # additive ops require matching arity; a bare scalar is not an operator
        if bool(sa) != bool(sb):
            raise EvalError(f"cannot apply {op!r} between a scalar and an "
                            "operator; multiply the scalar by I first")
        if sa != sb:
            raise EvalError(f"cannot apply {op!r} between a {sa}-site and a "
                            f"{sb}-site operator")
        return self.emit((op, a, b), sa, operator.add if op == "+" else operator.sub, a, b)

    def leaf(self, key: str, sites: int) -> int:
        self.names.add(key)
        return self.emit(("leaf", key), sites, operator.itemgetter(key) if sites
                         else lambda leaves: complex(leaves[key]), 0)

    def name(self, ident: str, scope: _Scope) -> int:
        corpus = self.corpus
        if ident in PARAMETER_NAMES or (corpus and ident in corpus.scalars):
            return self.leaf(ident, 0)
        defined = corpus.operators.get(scope.family, {}) if corpus else {}
        if ident in defined:
            return self(defined[ident], scope._replace(binding=False))
        if scope.bound is not None:
            if ident in scope.bound:
                return self(scope.bound[ident], scope._replace(binding=True))
            if scope.binding or ident == "I":
                return self.name(ident, scope.parent)
            return self.leaf(f"{scope.family}.{ident}", 1)   # unbound: no caller passes it
        if scope.image:
            return self.leaf(f"{scope.image}({ident})", IMAGE_MAPS[scope.image])
        return self.leaf(ident, 1)

    def __call__(self, e: Expr, scope: _Scope = _Scope()) -> int:
        anti = scope.image == "S"
        if isinstance(e, Num):
            return self.emit(e, 0, lambda _, value=complex(e.value): value, 0)
        if isinstance(e, Name):
            return self.name(e.ident, scope)
        if isinstance(e, Neg):
            a = self(e.operand, scope)
            return self.emit(("neg", a), self.sites[a],
                             (lambda x: -1.0 * x) if self.sites[a] else operator.neg, a)
        if isinstance(e, BinOp):
            if e.op == "*" and (getattr(e.left, "fn", ""), getattr(e.right, "fn", "")) == (
                    "left", "right"):
                return self.call("pair", [self(e.left.args[0], scope), self(e.right.args[0], scope)])
            return self.combine(e.op, self(e.left, scope), self(e.right, scope), anti)
        if isinstance(e, Pow):
            a = self(e.base, scope)
            if not isinstance(e.exponent, int):
                k = self(e.exponent, scope)
                if self.sites[a] or self.sites[k]:
                    raise EvalError("a non-literal exponent needs a scalar base and exponent")
                return self.emit(("^", a, k), 0, operator.pow, a, k)
            k = e.exponent
            if not self.sites[a]:
                return self.emit(("^", a, k), 0, lambda x: x ** k, a)
            if k == 0:
                return self.emit(("^", a, 0), self.sites[a], _identity_like, a)
            out = a
            for _ in range(k - 1):
                out = self.combine("*", out, a, anti)
            return out
        if isinstance(e, Call):
            if e.fn in BUILTINS:
                return self.call(e.fn, [self(arg, scope) for arg in e.args], anti)
            return self.apply(e.fn, e.args[0], scope)
        raise TypeError(f"not an expression node: {e!r}")

    def apply(self, fn: str, arg: Expr, scope: _Scope) -> int:
        """A Hopf image map's or a corpus map's value of ``arg``."""
        if fn in IMAGE_MAPS and self.corpus and scope.bound is None and not scope.image:
            return self(arg, _Scope(scope.family, image=fn))
        image_map = self.corpus and self.corpus.bindings.get((fn, scope.family))
        if not image_map:
            raise EvalError(f"no map {fn} <- {scope.family or 'eval'} in this scope")
        return self(arg, _Scope(fn, bound=image_map, parent=scope))

    def call(self, fn: str, args: list, anti: bool = False) -> int:
        sites = [self.sites[a] for a in args]
        if fn in ("comm", "acomm"):
            a, b = args
            return self.combine("+" if fn == "acomm" else "-",
                                self.combine("*", a, b, anti), self.combine("*", b, a, anti))
        if fn == "tensor":   # dense operands only: the eval path
            if 0 in sites:
                raise EvalError("tensor takes two operator arguments")
            if sites != [1, 1]:
                raise EvalError("tensor takes single-site operators")
            return self.emit((fn, *args), 2, _tensor, *args)
        if fn in ("left", "right", "pair"):   # pair: left(x)*right(y), x (x) y at once
            if set(sites) != {1}:
                raise EvalError(f"{fn} takes single-site operators")
            pair = {"left": lambda x: _pair(x, None), "right": lambda y: _pair(None, y)}
            return self.emit((fn, *args), 2, pair.get(fn, _pair), *args)
        if fn == "phase":
            (a,) = args
            if not sites[0]:
                return self.emit((fn, a), 0, lambda x: np.exp(1j * np.pi * x), a)
            return self.emit((fn, a), sites[0], lambda x: _diagonal_map(
                fn, x, lambda v: np.exp(1j * np.pi * v)), a)
        if fn == "qbracket":
            if sites[1]:
                raise EvalError("the second argument of qbracket must be a scalar")
            return self.emit((fn, *args), sites[0], _qbracket, *args)
        raise EvalError(f"unknown builtin {fn!r}")


def compile_trees(*trees: Expr, corpus=None, scope: _Scope = _Scope()) -> Program:
    """One program computing every tree on the same leaves; with ``corpus``,
    in ``scope``, the definitions and maps of a family by default."""
    compiler = _Compiler(corpus)
    outputs = tuple(compiler(tree, scope) for tree in trees)
    return Program(tuple(compiler.steps), outputs, frozenset(compiler.names),
                   tuple(compiler.sites))


def evaluate(e: Expr, ctx: EvalContext) -> np.ndarray:
    """Evaluates to a dense matrix; a purely scalar expression is promoted
    to a multiple of the single-site identity."""
    program = compile_trees(e)
    leaves = {**ctx.rep.spec.param_dict, **ctx.bindings, **rep_generator_images(ctx.rep)}
    missing = sorted(program.names - leaves.keys())
    if missing:
        raise EvalError(f"family {ctx.rep.spec.family} has no generator or bound "
                        f"parameter {', '.join(missing)}")
    (value,) = program.run([leaves], leaves)
    if isinstance(value, list):   # a scalar, at the one point
        return value[0] * leaves["I"]
    return np.asarray(value, dtype=complex)


def evaluate_text(text: str, ctx: EvalContext) -> np.ndarray:
    return evaluate(parse(text), ctx)


# -- identity corpus ----------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    """One relation or report row, ``family.ident``, of ``statement``: its
    residuals (``tree`` the first; ``text`` as written, ``reference`` set to
    zero) vanish on the validity window of ``raise_degree`` and are normed
    over max(1, the norm of its scale); ``program`` computes them and the
    scale, and :meth:`run` runs it at a list of grid points, one point
    alone as a list of one.  ``notes`` names the corpus scalars the program
    reads."""
    family: str
    ident: str
    raise_degree: int
    text: str
    tree: Expr
    program: Program
    statement: Statement
    reference: str
    notes: tuple = ()

    def run(self, scalars: list, ops: dict, anti: bool = False) -> tuple:
        """(residual, scale) at the points of :meth:`Program.run`: the
        residual one operator, or a tuple of operators and of scalar
        residuals, each the list of its points' moduli; the scale an
        operator, or such a list."""
        *parts, scale = [[abs(v) for v in x] if isinstance(x, list) else x
                         for x in self.program.run(scalars, ops, anti)]
        return parts[0] if len(parts) == 1 else tuple(parts), scale


class Identities:
    """The identity corpus, parsed and compiled: every relation and row
    (:meth:`entry`), the definitions and the maps' images (:meth:`images`).
    A definition that compiles to a scalar is a leaf (``scalars``: its
    family and tree; its value at a point :meth:`scalar_values`), an operator
    one (``operators``) and a map's images (``bindings[target, source]``)
    are expanded where a line reads them."""

    def __init__(self, lines: tuple):
        self.lines = lines
        self.scalars, self.operators, self.bindings, self._relation_lines = {}, {}, {}, {}
        for st in lines:
            if st.kind == "relation":
                self._relation_lines.setdefault(st.family, []).append(st)
            elif st.kind == "definition":
                tree, compiler = parse(st.texts[0], None), _Compiler(self)
                if compiler.sites[compiler(tree, _Scope(st.family))]:
                    self.operators.setdefault(st.family, {})[st.ident] = tree
                else:
                    self.scalars[st.ident] = (st.family, tree)
            elif st.kind == "map":
                self.bindings[st.target, st.family] = {
                    name: parse(text, None) for name, text in st.texts}

    def compile(self, *trees: Expr, family: str) -> Program:
        """One program of ``trees`` in the scope of ``family``'s definitions and maps."""
        return compile_trees(*trees, corpus=self, scope=_Scope(family))

    @lru_cache(maxsize=None)
    def entry(self, st: Statement) -> CorpusEntry:
        """The relation or row a statement states, compiled once."""
        return _entry(st, self)

    def relations(self, family: str) -> list:
        """The defining relations of a family or target algebra, in order."""
        return [self.entry(st) for st in self._relation_lines.get(family, ())]

    @lru_cache(maxsize=None)
    def images(self, target: str, source: str) -> Program:
        """The images of the map ``target <- source``, in its order, compiled once."""
        bound = self.bindings[target, source]
        return compile_trees(*map(Name, bound), corpus=self,
                             scope=_Scope(target, bound=bound, parent=_Scope(source)))

    @lru_cache(maxsize=256)
    def scalar_values(self, family: str, params: tuple) -> dict:
        """The family's scalars at a point of parameters ``params``, a tuple of
        (name, value) pairs; the dict is shared, not to be written."""
        leaves = dict(params)
        for name, (fam, tree) in self.scalars.items():
            if fam == family:
                ((leaves[name],),) = self.compile(tree, family=family).run([leaves], {})
        return {name: leaves[name] for name, (fam, _) in self.scalars.items() if fam == family}


@lru_cache(maxsize=None)
def identities() -> Identities:
    """The checked-in corpus, parsed and compiled once per process."""
    return Identities(statements())


def _entry(st: Statement, corpus: Identities | None = None) -> CorpusEntry:
    """The relation or row a statement states, compiled in ``corpus``'s scope."""
    parts = tuple(parse(text, None) for text in st.texts)
    program = compile_trees(*parts, parse(st.scale, None), corpus=corpus, scope=_Scope(st.family))
    return CorpusEntry(st.family, st.ident, st.degree, ", ".join(st.texts), parts[0], program,
                       st, st.reference,
                       tuple(sorted(program.names & (corpus.scalars if corpus else {}).keys())))


def corpus_entry(line: str) -> CorpusEntry:
    """The defining relation a corpus line states."""
    return _entry(statement(line))


@lru_cache(maxsize=None)
def load_corpus() -> tuple:
    """The five families' defining relations, in corpus order; they read no
    definition or map, so the rest of the corpus is not compiled for them."""
    return tuple(_entry(st) for st in statements()
                 if st.kind == "relation" and st.family in FAMILIES)
