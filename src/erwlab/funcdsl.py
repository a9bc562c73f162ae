"""Small arithmetic expression language for memory functions.

Expressions are parsed into immutable ASTs over a scalar variable ``x`` or
components ``x1..xs``, nested at most :data:`MAX_DEPTH` levels. Every tree
compiles to one numpy expression, the language's only evaluator; partial
operations run checked helpers inside it. Evaluation is pure.
:func:`derive_at` takes derivatives of arity-1 expressions at a point by
central finite differences with Richardson extrapolation; :mod:`erwlab.theory`
and :mod:`erwlab.sa` call it, and closed forms, when a model registers them,
take precedence at their call sites.

Grammar (see docs/grammar.md for the full EBNF)::

    expr    := term  (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom ("^" unary)?          # right associative
    atom    := NUMBER | VARIABLE | NAME "(" expr ("," expr)* ")"
             | "piecewise" "(" cond ":" expr (";" cond ":" expr)* ")"
             | "(" expr ")"
    cond    := expr ("<" | "<=" | ">" | ">=") expr
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from typing import Union

import numpy as np

# function name -> (compiled source, number of arguments); sqrt and log run
# the checked helpers below
_FUNCTIONS = {
    "abs": ("np.abs", 1), "sgn": ("np.sign", 1), "sqrt": ("_sqrt", 1), "sin": ("np.sin", 1),
    "tanh": ("np.tanh", 1), "exp": ("np.exp", 1), "log": ("_log", 1),
    "min": ("np.minimum", 2), "max": ("np.maximum", 2),
}


class DslError(ValueError):
    """Base class for expression language failures."""


class ParseError(DslError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class EvalDomainError(DslError):
    """Evaluation hit log/sqrt of a negative, a zero divisor, or an
    uncovered piecewise region."""


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based component; arity-1 expressions use index 0
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


@dataclass(frozen=True)
class Comparison:
    op: str  # < <= > >=
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Piecewise:
    branches: tuple  # of (Comparison, Node); first matching condition wins


Node = Union[Const, Var, BinOp, Neg, Call, Piecewise]


@dataclass(frozen=True)
class FuncExpr:
    """A parsed expression together with its declared arity."""

    ast: Node
    arity: int

    def __call__(self, x):
        return evaluate(self, x)

    def to_string(self) -> str:
        return print_ast(self.ast)

    @cached_property
    def fast(self):
        """Batch evaluator ``f(cols)``: the values at a list of coordinate
        arrays, one per variable, in their broadcast shape (a scalar for a
        tree without variables).

        The tree is compiled to one numpy expression on first use, which
        raises :class:`EvalDomainError` out of domain. A tree containing
        ``piecewise`` evaluates every branch at every point and raises where
        its value is NaN; other trees return the generated function itself."""
        return _compile(self)


def _div(a, b):
    if np.equal(b, 0).any():
        raise EvalDomainError("division by zero")
    return a / b


def _pow(a, b):
    # an integer constant exponent arrives as an int and takes any base;
    # where Python floats raise, numpy's IEEE pow gives the infinity
    if not isinstance(b, int) and np.less(a, 0).any():
        raise EvalDomainError("negative base with non-integer exponent")
    try:
        return a ** b
    except (OverflowError, ZeroDivisionError):
        return np.power(np.float64(a), b)


def _sqrt(a):
    if np.less(a, 0).any():
        raise EvalDomainError("sqrt of negative value")
    return np.sqrt(a)


def _log(a):
    if np.less_equal(a, 0).any():
        raise EvalDomainError("log of non-positive value")
    return np.log(a)


# Calls whose value is correctly rounded, and the exponents numpy computes as a
# reciprocal, ones, a copy, a square root or a square: their bits at a point do
# not depend on the layout of the array that holds it. exp, log, sin, tanh and
# other powers may run a SIMD loop whose last bit can, so a template keeps their
# operands the same in every member (see templates).
_EXACT_CALLS = frozenset({"abs", "sgn", "sqrt", "min", "max"})
_EXACT_EXPONENTS = frozenset({-1.0, 0.0, 0.5, 1.0, 2.0})


def _has_var(node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, tuple):
        return any(map(_has_var, node))
    return is_dataclass(node) and any(_has_var(getattr(node, f.name)) for f in fields(node))


def _leaf(node, free):
    """A constant as its literal, a variable as its coordinate array."""
    return repr(node.value) if isinstance(node, Const) else f"cols[{node.index}]"


def _emit(node, leaf=_leaf, free=False):
    """Python source evaluating ``node`` on the coordinate arrays ``cols``.

    Total operations become numpy operators and ufuncs. The partial ones
    (division by anything but a nonzero constant, a power other than an
    integer constant, sqrt and log) call the checked helpers above, which
    raise :class:`EvalDomainError` wherever any point leaves the domain.
    Every node compiles; :data:`MAX_DEPTH` keeps the source's nesting within
    what Python's parser accepts.

    ``leaf(node, free)`` writes each constant and variable. :func:`templates`
    starts with ``free`` True and keeps the leaves where it is False the same
    in every member: an exponent, a divisor, a subtree without variables
    (one value, computed on Python floats) and the operands of a call or
    power outside ``_EXACT_CALLS`` and ``_EXACT_EXPONENTS``."""
    if isinstance(node, (Const, Var)):
        return leaf(node, free)
    free = free and _has_var(node)
    if isinstance(node, Neg):
        return f"(-{_emit(node.operand, leaf, free)})"
    if isinstance(node, BinOp):
        constant = node.right.value if isinstance(node.right, Const) else None
        exact = node.op != "^" or constant in _EXACT_EXPONENTS
        left = _emit(node.left, leaf, free and exact)
        right = _emit(node.right, leaf, free and exact and (constant is None or node.op not in "/^"))
        if node.op == "/" and not constant:
            return f"_div({left}, {right})"
        if node.op == "^":
            integer = constant is not None and float(constant).is_integer()
            if integer and "cols[" in left:  # an array base, whose ** cannot raise
                return f"({left} ** {int(constant)})"
            return f"_pow({left}, {int(constant) if integer else right})"
        return f"({left} {node.op} {right})"
    if isinstance(node, Call):
        free = free and node.name in _EXACT_CALLS
        return f"{_FUNCTIONS[node.name][0]}({', '.join(_emit(a, leaf, free) for a in node.args)})"
    if isinstance(node, Piecewise):
        # nested np.where with the first branch outermost, so the first
        # match wins. Every branch runs at every point. Uncovered points
        # surface as NaN and are rejected by _build; the full-shape
        # default keeps the result full-shape when every branch is constant.
        source = "(zeros + np.nan)"
        for cond, branch in reversed(node.branches):
            test = f"({_emit(cond.left, leaf, free)} {cond.op} {_emit(cond.right, leaf, free)})"
            source = f"np.where({test}, {_emit(branch, leaf, free)}, {source})"
        return source
    raise DslError(f"cannot compile node {node!r}")


def _build(source, rows=None, names=None):
    """The function ``f(cols)`` that evaluates ``source``. ``names`` holds the
    arrays the source reads besides the helpers. A ``piecewise`` result has
    the broadcast shape of ``cols``, or with ``rows`` given, that many rows
    of the (s, B) array ``cols``."""
    namespace = {"np": np, "inf": math.inf, "_div": _div, "_pow": _pow, "_sqrt": _sqrt, "_log": _log,
                 **(names or {})}
    if "np.where" not in source:
        return eval(f"lambda cols: ({source})", namespace)  # noqa: S307 - generated from our own AST
    fn = eval(f"lambda cols, zeros: ({source})", namespace)  # noqa: S307 - generated from our own AST

    def run(cols):
        shape = np.broadcast(*cols).shape if rows is None else (rows,) + cols.shape[1:]
        out = fn(cols, np.zeros(shape))
        if np.isnan(out).any():
            raise EvalDomainError("piecewise evaluated outside its covered region")
        return out

    return run


def _compile(expr):
    return _build(_emit(expr.ast))


def templates(exprs) -> list:
    """Split ``exprs`` into groups that share one compiled template.

    Members of a group have trees of the same shape, and agree on every
    exponent, divisor and subtree without variables, and on whatever lies
    under a call or power whose bits could depend on memory layout (see
    ``_EXACT_CALLS``). A constant that differs across the m members becomes
    an (m, 1) column, and a variable whose index differs becomes rows of
    ``X``: a slice view for consecutive indices, else a gather. The
    template ``f(X)`` takes the coordinates as one (s, B) array ``X`` and
    returns the members' values as one (m, B) array, row j that of member
    j; its operations are the members' own, on the same values, so each row
    has the bits of that member's :attr:`FuncExpr.fast`. A member's errors
    and warnings are not its own, though: the caller runs a template under
    a raising ``np.errstate`` and evaluates its members one by one when it
    raises.

    Returns ``(members, f)`` pairs, in the order of each group's first
    member. A group of one comes with that member's ``fast``, which takes
    the list of coordinate arrays.
    """
    groups = {}  # template source -> [(index, its varying leaves)]
    for i, expr in enumerate(exprs):
        holes = []

        def leaf(node, free):
            if not free:
                return _leaf(node, free)
            holes.append(node)
            k = len(holes) - 1
            return f"{{{k}}}" if isinstance(node, Const) else f"cols[{{{k}}}]"

        groups.setdefault(_emit(expr.ast, leaf, True), []).append((i, holes))
    out = []
    for source, members in groups.items():
        if len(members) == 1:
            out.append(((members[0][0],), exprs[members[0][0]].fast))
            continue
        m, fills, names = len(members), [], {}
        for k, column in enumerate(zip(*(holes for _, holes in members))):
            if isinstance(column[0], Const):
                values = [node.value for node in column]
                if len(set(map(repr, values))) == 1:
                    fills.append(repr(values[0]))
                else:
                    names[f"_c{k}"] = np.array(values)[:, None]
                    fills.append(f"_c{k}")
            else:
                index = [node.index for node in column]
                if len(set(index)) == 1:
                    fills.append(str(index[0]))
                elif index == list(range(index[0], index[0] + m)):
                    fills.append(f"{index[0]}:{index[0] + m}")
                else:
                    names[f"_g{k}"] = np.array(index)
                    fills.append(f"_g{k}")
        out.append((tuple(i for i, _ in members), _build(source.format(*fills), m, names)))
    return out


# ---------------------------------------------------------------------------
# Tokenizer

_SINGLE = set("+-*/^(),;:")


def _tokenize(text):
    tokens = []  # (kind, value, offset)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_e = False
            while j < n and (
                text[j].isdigit()
                or text[j] == "."
                or (text[j] in "eE" and not seen_e and j + 1 < n and (text[j + 1].isdigit() or text[j + 1] in "+-"))
                or (text[j] in "+-" and j > i and text[j - 1] in "eE")
            ):
                if text[j] in "eE":
                    seen_e = True
                j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad number literal {text[i:j]!r}", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c in "<>":
            if i + 1 < n and text[i + 1] == "=":
                tokens.append(("cmp", c + "=", i))
                i += 2
            else:
                tokens.append(("cmp", c, i))
                i += 1
            continue
        if c in _SINGLE:
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, standard precedence)


# Deepest nesting parse accepts: one level per node, and per piecewise branch
# (one np.where each). The compiled source nests at most one parenthesis per
# level, which leaves affine and substitute room under Python's limit of 200.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens, arity):
        self.tokens = tokens
        self.pos = 0
        self.arity = arity
        self.level = 0  # parse_unary frames on the stack; every recursion passes there
        self.depths = {}  # id(node) -> levels of the tree under node; leaves are absent

    def depth(self, *nodes):
        return max(self.depths.get(id(node), 1) for node in nodes)

    def bound(self, depth, offset):
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", offset)

    def nest(self, node, depth, offset):
        self.bound(depth, offset)
        self.depths[id(node)] = depth
        return node

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def binop(self, op, left, right, offset):
        return self.nest(BinOp(op, left, right), 1 + self.depth(left, right), offset)

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op, _, offset = self.next()
            node = self.binop(op, node, self.parse_term(), offset)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op, _, offset = self.next()
            node = self.binop(op, node, self.parse_unary(), offset)
        return node

    def parse_unary(self):
        kind, _, offset = self.peek()
        self.level += 1
        self.bound(self.level, offset)
        if kind == "-":
            self.next()
            operand = self.parse_unary()
            node = self.nest(Neg(operand), 1 + self.depth(operand), offset)
        else:
            node = self.parse_power()
        self.level -= 1
        return node

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] == "^":
            offset = self.next()[2]
            # right associative; exponent binds tighter than unary minus
            return self.binop("^", base, self.parse_unary(), offset)
        return base

    def parse_atom(self):
        kind, value, offset = self.next()
        if kind == "num":
            return Const(value)
        if kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "name":
            if value == "piecewise":
                return self.parse_piecewise(offset)
            if self.peek()[0] == "(":
                self.next()
                args = [self.parse_expr()]
                while self.peek()[0] == ",":
                    self.next()
                    args.append(self.parse_expr())
                self.expect(")")
                return self.make_call(value, args, offset)
            return self.make_var(value, offset)
        raise ParseError(f"unexpected token {value!r}", offset)

    def parse_piecewise(self, offset):
        self.expect("(")
        branches = []
        while True:
            cond = self.parse_condition()
            self.expect(":")
            branches.append((cond, self.parse_expr()))
            if self.peek()[0] == ";":
                self.next()
                continue
            break
        self.expect(")")
        depth = max(i + self.depth(*branch) for i, branch in enumerate(branches, start=1))
        return self.nest(Piecewise(tuple(branches)), depth, offset)

    def parse_condition(self):
        left = self.parse_expr()
        kind, value, offset = self.next()
        if kind != "cmp":
            raise ParseError("piecewise branch needs a comparison", offset)
        right = self.parse_expr()
        return self.nest(Comparison(value, left, right), 1 + self.depth(left, right), offset)

    def make_call(self, name, args, offset):
        if name not in _FUNCTIONS:
            raise ParseError(f"unknown function {name!r}", offset)
        if len(args) != _FUNCTIONS[name][1]:
            raise ParseError(f"{name} takes {('one argument', 'two arguments')[_FUNCTIONS[name][1] - 1]}", offset)
        return self.nest(Call(name, tuple(args)), 1 + self.depth(*args), offset)

    def make_var(self, name, offset):
        if name == "x":
            if self.arity != 1:
                raise ParseError("variable 'x' requires arity 1; use x1..xs", offset)
            return Var(0, "x")
        if name.startswith("x") and name[1:].isdigit():
            idx = int(name[1:])
            if not 1 <= idx <= self.arity:
                raise ParseError(f"variable {name!r} exceeds declared arity {self.arity}", offset)
            return Var(idx - 1, name)
        raise ParseError(f"unknown identifier {name!r}", offset)


def parse(text: str, arity: int = 1) -> FuncExpr:
    """Parse ``text`` into a :class:`FuncExpr` with ``arity`` variables."""
    if not isinstance(arity, int) or arity < 1:
        raise DslError("arity must be a positive integer")
    if not isinstance(text, str):
        raise ParseError(f"expression must be a string, got {type(text).__name__}", 0)
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text), arity)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return FuncExpr(node, arity)


# ---------------------------------------------------------------------------
# Evaluation (numpy-vectorized, pure)


def evaluate(expr: FuncExpr, x):
    """Evaluate ``expr`` at point(s) ``x`` through :attr:`FuncExpr.fast`.

    For arity 1, ``x`` is a scalar or any array (evaluated elementwise).
    For arity s > 1, ``x`` is an s-vector or an array whose last axis has
    length s. A single point gives a float.
    """
    arr = np.asarray(x, dtype=float)
    if expr.arity > 1 and (arr.ndim == 0 or arr.shape[-1] != expr.arity):
        raise DslError(f"expected last axis of length {expr.arity}, got shape {arr.shape}")
    out = expr.fast([arr] if expr.arity == 1 else [arr[..., j] for j in range(expr.arity)])
    single_point = arr.ndim == (expr.arity > 1)
    return float(out) if single_point else np.asarray(out, dtype=float)


# ---------------------------------------------------------------------------
# Printer (parse . print . parse is the identity on ASTs)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def print_ast(node, parent_prec=0) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = print_ast(node.operand, _PREC["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PREC["neg"] else text
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        # left operand of ^ needs parens at equal precedence (right assoc);
        # right operands of - and / need them too (left assoc)
        left = print_ast(node.left, prec + (1 if node.op == "^" else 0))
        right = print_ast(node.right, prec + (1 if node.op in ("-", "/") else 0))
        text = f"{left} {node.op} {right}"
        return f"({text})" if prec < parent_prec or (prec == parent_prec) else text
    if isinstance(node, Call):
        args = ", ".join(print_ast(a) for a in node.args)
        return f"{node.name}({args})"
    if isinstance(node, Piecewise):
        parts = []
        for cond, branch in node.branches:
            parts.append(f"{print_ast(cond.left)} {cond.op} {print_ast(cond.right)} : {print_ast(branch)}")
        return "piecewise(" + " ; ".join(parts) + ")"
    raise DslError(f"cannot print node {node!r}")


# ---------------------------------------------------------------------------
# AST builders used by the model layer


def const(value) -> Node:
    # negative literals are stored as Neg(Const(...)) so printed text reparses
    # to the identical tree
    v = float(value)
    if v < 0:
        return Neg(Const(-v))
    return Const(v)


def affine(expr: FuncExpr, scale: float, shift: float) -> FuncExpr:
    """Return ``scale * expr + shift`` as a new expression."""
    return FuncExpr(BinOp("+", BinOp("*", const(scale), expr.ast), const(shift)), expr.arity)


def substitute(expr: FuncExpr, replacement: Node) -> FuncExpr:
    """Replace every variable occurrence by ``replacement`` (arity-1 only)."""
    if expr.arity != 1:
        raise DslError("substitute supports arity-1 expressions only")

    def walk(value):
        # every node is a frozen dataclass: rebuild it from its rewritten
        # fields, and the tuples of fields of Call and Piecewise likewise
        if isinstance(value, Var):
            return replacement
        if isinstance(value, tuple):
            return tuple(walk(v) for v in value)
        if is_dataclass(value):
            return type(value)(*(walk(getattr(value, f.name)) for f in fields(value)))
        return value  # an operator, a name or a number

    return FuncExpr(walk(expr.ast), 1)


# ---------------------------------------------------------------------------
# Numerical differentiation

# central difference stencils of O(h^2); offsets are in units of h
_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
    5: ((-3, -0.5), (-2, 2.0), (-1, -2.5), (1, 2.5), (2, -2.0), (3, 0.5)),
    6: ((-3, 1.0), (-2, -6.0), (-1, 15.0), (0, -20.0), (1, 15.0), (2, -6.0), (3, 1.0)),
}

MAX_DERIV_ORDER = 6


class NonSmoothError(DslError):
    """Raised when Richardson extrapolants diverge at the requested point."""


def derive_at(expr: FuncExpr, x0, order: int):
    """Derivative of the arity-1 ``expr`` of the given order at ``x0``.

    Uses central differences at steps ``1e-2 * 2**-k``, k = 0..6, combined by
    Richardson extrapolation; the returned pair is ``(value, error_estimate)``.
    Raises :class:`NonSmoothError` if successive extrapolants diverge, which
    signals a kink or jump within the sampled neighbourhood.
    """
    if expr.arity != 1:
        raise DslError(f"derive_at takes arity-1 expressions, got arity {expr.arity}")
    if not 1 <= order <= MAX_DERIV_ORDER:
        raise DslError(f"derivative order must be in 1..{MAX_DERIV_ORDER}")
    stencil = _STENCILS[order]
    x0 = np.asarray(x0, dtype=float)  # an array, as the NonSmoothError message shows it

    def estimate(h):
        total = 0.0
        for offset, coeff in stencil:
            total += coeff * evaluate(expr, float(x0) + offset * h)
        return total / h ** order

    # Richardson/Neville table with error tracking (Ridders' scheme): the
    # ladder eliminates successive powers of h (not only even ones, so
    # expressions with jumps in higher derivatives still converge); keep the
    # entry whose neighbouring extrapolants agree best.
    table = [[estimate(1e-2)]]
    best = table[0][0]
    best_err = math.inf
    for k in range(1, 7):
        h = 1e-2 * 2.0 ** (-k)
        row = [estimate(h)]
        for j in range(1, k + 1):
            factor = 2.0 ** j
            row.append((factor * row[j - 1] - table[k - 1][j - 1]) / (factor - 1.0))
        table.append(row)
        err = max(abs(row[-1] - row[-2]), abs(row[-1] - table[k - 1][-1]))
        if err <= best_err:
            best, best_err = row[-1], err
    if not math.isfinite(best) or best_err > 0.25 * max(1e-8, abs(best)):
        raise NonSmoothError(
            f"derivative estimates do not converge at {x0!r} (order {order}); "
            "the expression may be non-smooth there"
        )
    return best, best_err


def derivatives(expr: FuncExpr, x0, upto: int) -> list:
    """Values of :func:`derive_at` at ``x0`` for orders 1, 2, ... up to
    ``min(upto, MAX_DERIV_ORDER)``, ending before the first order that
    raises :class:`NonSmoothError`."""
    out = []
    for order in range(1, min(upto, MAX_DERIV_ORDER) + 1):
        try:
            value, _ = derive_at(expr, x0, order=order)
        except NonSmoothError:
            break
        out.append(value)
    return out
