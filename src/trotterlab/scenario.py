"""Scenario files: a line-oriented declarative format for experiment runs.

The file is UTF-8.  One directive per line, in any order; ``#`` starts a
comment; blank lines are ignored; fields are separated by whitespace
(spaces or tabs).  ``dim``, ``labels``, ``generator``, ``horizon``,
``schedule`` and ``seed`` appear at most once, the others once per name:

    dim N                           # 1 <= N <= 32
    labels NAME...
    generator gamma MATRIX          # scalar covariance matrix (dim 1 only)
    generator ce                    # Christensen-Evans parameters follow
    generator kernel PATH           # kernel JSON document
    eta LABEL MATRIX                # parameter lines for 'generator ce',
    beta LABEL MATRIX               # one of each per declared label
    matrix NAME MATRIX              # named matrix usable in expressions, not a label
    expression NAME = EXPR
    horizon T
    schedule dyadic KMIN KMAX       # 0 <= KMIN <= KMAX <= 20
    schedule random COUNT           # 1 <= COUNT <= 64
    candidate EXPRNAME LABEL        # test EXPR against an ambient unit
    expect EXPRNAME VERDICT         # norm-convergent | weak-only | divergent
    seed N                          # N >= 0; draws random schedules; recorded in reports

A scenario without a ``schedule`` line runs ``dyadic 3 10``.  Every error
in the file names its line, except a missing ``dim``, ``labels`` or
``generator`` line.  Verdicts compare generator entries, with no thresholds,
so the retired ``threshold`` directive is an error.  ``divergent`` means "not
even weakly" to the candidate; without a candidate no verdict is ``divergent``.

Matrices are nested bracket lists of Python numeric literals; complex
entries like ``(0.5+0.25j)`` are allowed.  Labels, matrix and expression
names are ASCII identifiers ``[A-Za-z_][A-Za-z0-9_]*``; a label or matrix
name, which expressions refer to, may not be a Python keyword, and
expression names also name the output files.  An expression is read with
Python's own parser (nothing is evaluated) and must fit this subset of
Python expression syntax:

    EXPR   := TERM (('+'|'-') TERM)*
    TERM   := SIGN* FACTOR ('*' FACTOR)*
    FACTOR := SIGN* (NUMBER | NAME | concat(NAME@FRAC, ...) | expm(t*NAME))
    SIGN   := '+' | '-'

NUMBER and FRAC are finite Python numeric literals, as in matrices
(``0x10`` and ``1_000`` included); a FRAC is real and positive.  A SIGN
in front of a factor or a whole term is the multiplier +1 or -1: both
``-xi2 + 2*xi1`` and ``-1*xi2 + 2*xi1`` have the terms of ``2*xi1 - xi2``
in their own order, and ``u@-0.5`` has a non-positive FRAC.  A NAME is a
unit label or a matrix name, an ASCII identifier that is not a Python
keyword.  Redundant parentheses (``2*(u)``) and a trailing comma in
``concat(...)`` are allowed.  An expression nested beyond the parser's
limit (about 2,970 terms on Python 3.11) is an error.

Each term contains exactly one unit factor (a unit label or a ``concat``
group).  Scalar and named-matrix factors to its left multiply from the
left, those to its right from the right, and ``expm(t*B)`` declares an
exponential twist on the side where it appears, right next to the unit
factor (``A*expm(t*B)*x*C``), at most one per term.  A term whose
multipliers or their product are not finite is an error.  Complex
coefficients can be split over terms (``2*xi1 + 1j*xi1``).  Parse errors
carry source positions.
"""

from __future__ import annotations

import ast
import keyword
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    OperatorKernel,
    christensen_evans_kernel,
    kernel_from_json_dict,
    scalar_kernel,
)
from .trotter import Partition, dyadic_schedule, random_schedule
from .units import Segment, Term, UnitExpression

__all__ = [
    "ScenarioParseError",
    "Scenario",
    "parse_scenario",
    "parse_expression",
    "build_generator",
    "build_schedule",
]

_VERDICTS = ("norm-convergent", "weak-only", "divergent")
_SCHEDULE_ARITY = {"dyadic": 2, "random": 1}
_SINGLE_DIRECTIVES = ("dim", "labels", "generator", "horizon", "schedule", "seed")
# Directives by the rank parse_scenario reads them in, after those they refer to.
_DIRECTIVES = {"dim": 0, "labels": 1, "generator": 2, "eta": 3, "beta": 3, "matrix": 4,
               "expression": 5, "horizon": 6, "schedule": 7, "candidate": 8, "expect": 9,
               "seed": 10}
# A dyadic partition of 2^20 parts already holds about 1M widths.
_DYADIC_KMAX = 20
# Every random partition (up to 4,096 widths) is built before any output.
_RANDOM_COUNT = 64
# A kernel is one (n, n, d^2, d^2) complex table of 16 n^2 d^4 bytes: the
# extension of a one-label kernel (n = 2) takes 64 MiB at d = 32 and 1 GiB at
# d = 64, before a pairing stacks copies of its entries.
_DIM_MAX = 32


class ScenarioParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        where = ""
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "") + ": "
        super().__init__(where + message)
        self.line = line
        self.col = col


@dataclass
class Scenario:
    dim: int = 0
    labels: tuple[str, ...] = ()
    generator_kind: str = ""
    gamma: np.ndarray | None = None
    eta: dict = field(default_factory=dict)
    beta: dict = field(default_factory=dict)
    kernel_path: str | None = None
    matrices: dict = field(default_factory=dict)
    expressions: dict = field(default_factory=dict)
    horizon: float = 1.0
    schedule_kind: str = "dyadic"
    schedule_args: tuple[int, ...] = (3, 10)
    candidates: dict = field(default_factory=dict)
    expectations: dict = field(default_factory=dict)
    seed: int = 0


# -- expression grammar -------------------------------------------------------

def _chain(node, ops):
    """``[(None, a), (op, b), (op, c)]`` for a left-nested chain ``a op b op c`` of ``ops``."""
    links = []
    while isinstance(node, ast.BinOp) and isinstance(node.op, ops):
        links.append((node.op, node.right))
        node = node.left
    return [(None, node)] + links[::-1]


def _signed(node):
    """``(sign, operand)`` of ``node`` under its leading ``+``/``-`` signs; sign is 1.0 or -1.0."""
    sign = 1.0
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        sign, node = (-sign if isinstance(node.op, ast.USub) else sign), node.operand
    return sign, node


@dataclass
class _ExprReader:
    """Builds the terms of an expression from its syntax tree; nothing is evaluated."""

    text: str
    line: int
    dim: int
    labels: tuple[str, ...]
    matrices: dict

    def fail(self, message: str, node):
        raise ScenarioParseError(message, self.line, node.col_offset + 1)

    def source(self, node) -> str:
        return ast.get_source_segment(self.text, node)

    @np.errstate(over="ignore", invalid="ignore")  # non-finite multipliers are refused below
    def term(self, node, sign: float) -> Term:
        outer, node = _signed(node)  # a sign in front of a parenthesised term
        links = [_signed(f) for _, f in _chain(node, ast.Mult)]
        sign *= outer * np.prod([s for s, _ in links])
        factors = [(f, *self.factor(f)) for _, f in links]
        unit_positions = [i for i, f in enumerate(factors) if f[1] == "unit"]
        if len(unit_positions) != 1:
            self.fail("each term needs exactly one unit label or concat group", node)
        at = unit_positions[0]
        eye = np.eye(self.dim, dtype=complex)
        sides = [sign * eye, eye]  # left, right
        twist = None
        twist_side = "none"
        for i, (factor, kind, payload) in enumerate(factors):
            if kind == "twist":
                if twist is not None:
                    raise ScenarioParseError("at most one expm twist per term", self.line)
                if abs(i - at) != 1:
                    self.fail(f"{self.source(factor)} must stand next to the unit factor", factor)
                twist = payload
                twist_side = "left" if i < at else "right"
            elif kind == "matrix":
                sides[i > at] = sides[i > at] @ payload
        if not all(np.isfinite(m).all() for m in (*sides, sides[0] @ sides[1])):
            self.fail(f"term {self.source(node)!r}: its multipliers or their product "
                      "are not finite", node)
        segments = factors[at][2]
        try:
            return Term(*sides, segments, twist=twist, twist_side=twist_side)
        except ValueError as exc:
            raise ScenarioParseError(str(exc), self.line) from exc

    def number(self, node) -> complex:
        sign, operand = _signed(node)
        value = operand.value if isinstance(operand, ast.Constant) else None
        if type(value) not in (int, float, complex):
            self.fail(f"expected a number, found {self.source(node)!r}", node)
        if not abs(value) <= sys.float_info.max:
            self.fail(f"number {self.source(node)!r} is not finite", node)
        return sign * complex(value)

    def matrix(self, node) -> np.ndarray:
        if not isinstance(node, ast.Name) or node.id not in self.matrices:
            self.fail(f"unknown matrix {self.source(node)!r}", node)
        matrix = self.matrices[node.id]
        if matrix.shape != (self.dim, self.dim):
            self.fail(f"matrix {node.id!r} has shape {matrix.shape}, "
                      f"expected ({self.dim}, {self.dim})", node)
        return matrix

    def factor(self, node):
        match node:
            case ast.Constant():  # a number c is the matrix c * I
                return "matrix", self.number(node) * np.eye(self.dim)
            case ast.Name(id=name) if name in self.labels:
                return "unit", (Segment(name, 1.0),)
            case ast.Name(id=name) if name not in self.matrices:
                self.fail(f"unknown name {name!r}", node)
            case ast.Name():
                return "matrix", self.matrix(node)
            case ast.Call(func=ast.Name(id="concat"), args=segments, keywords=[]):
                return "unit", tuple(map(self.segment, segments))
            case ast.Call(func=ast.Name(id="expm"), keywords=[],
                          args=[ast.BinOp(left=ast.Name(id="t"), op=ast.Mult(), right=matrix)]):
                return "twist", self.matrix(matrix)
        self.fail(f"unexpected {self.source(node)!r}: expected a number, a name, "
                  f"concat(LABEL@FRAC, ...) or expm(t*MATRIX)", node)

    def segment(self, node) -> Segment:
        match node:
            case ast.BinOp(left=ast.Name(id=label), op=ast.MatMult(), right=fraction):
                if label not in self.labels:
                    self.fail(f"unknown unit label {label!r}", node)
                frac = self.number(fraction)
                if frac.imag or frac.real <= 0:
                    self.fail(f"segment fraction {self.source(fraction)!r} "
                              f"must be real and positive", fraction)
                return Segment(label, frac.real)
        self.fail(f"expected LABEL@FRAC, found {self.source(node)!r}", node)


def parse_expression(text: str, dim: int, labels: tuple[str, ...],
                     matrices: dict, line: int = 0) -> UnitExpression:
    if not text.isascii():  # ast counts columns in bytes and NFKC-normalises names
        raise ScenarioParseError(f"non-ASCII character in expression {text!r}", line)
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ScenarioParseError(f"bad expression {text!r}: {exc.msg}", line,
                                 exc.offset or None) from None
    except (RecursionError, ValueError) as exc:  # too deep; a null byte on older Pythons
        raise ScenarioParseError(f"cannot parse expression: {exc}", line) from None
    reader = _ExprReader(text, line, dim, labels, matrices)
    return UnitExpression(dim, tuple(reader.term(term, -1.0 if isinstance(op, ast.Sub) else 1.0)
                                     for op, term in _chain(tree.body, (ast.Add, ast.Sub))))


# -- scenario parsing ---------------------------------------------------------

def _first_field(text: str) -> tuple[str, str]:
    """``text``'s first whitespace-separated field and the rest ("" where missing)."""
    first, rest = (text.split(None, 1) + ["", ""])[:2]
    return first, rest


def _is_numbers(value) -> bool:
    """Whether a literal is a number (not a bool) or a nested list or tuple of numbers."""
    if isinstance(value, (list, tuple)):
        return all(map(_is_numbers, value))
    return isinstance(value, (int, float, complex)) and not isinstance(value, bool)


def _parse_matrix(text: str, line: int) -> np.ndarray:
    not_numbers = f"{text!r} is not a nested list of numbers"
    try:
        value = ast.literal_eval(text)
        if not _is_numbers(value):  # numpy would read True, "1" and b"1" as numbers
            raise ValueError(not_numbers)
        matrix = np.asarray(value, dtype=complex)
    except (ValueError, SyntaxError, TypeError) as exc:
        # literal_eval's "malformed node" message shows the node's memory address.
        reason = not_numbers if str(exc).startswith("malformed node") else exc
        raise ScenarioParseError(f"bad matrix literal: {reason}", line) from None
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ScenarioParseError(f"matrix literal must be square, got shape {matrix.shape}",
                                 line)
    if not np.isfinite(matrix).all():
        raise ScenarioParseError("matrix literal has non-finite entries", line)
    return matrix


def _parse_name(kind: str, text: str, line: int) -> str:
    """``text`` if it is an ASCII identifier, and no keyword unless it names an expression."""
    if not (text.isascii() and text.isidentifier()):
        raise ScenarioParseError(f"bad {kind} name {text!r}: not an ASCII identifier", line)
    if kind != "expression" and keyword.iskeyword(text):
        raise ScenarioParseError(f"bad {kind} name {text!r}: a Python keyword", line)
    return text


def _parse_number(kind, text: str, line: int):
    """``kind(text)`` for ``kind`` int or float, or a parse error at ``line``."""
    try:
        return kind(text)
    except ValueError:
        raise ScenarioParseError(f"expected {kind.__name__}, got {text!r}", line) from None


def _parse_schedule(spec: str, sep: str | None, line: int | None = None):
    """``(kind, args)`` of ``dyadic MIN MAX`` or ``random COUNT``, fields split at ``sep``."""
    kind, *args = spec.split(sep) or [""]
    try:
        args = tuple(int(a) for a in args)
    except ValueError:
        args = ()
    if _SCHEDULE_ARITY.get(kind) != len(args):
        s = sep or " "
        raise ScenarioParseError(f"bad schedule spec {spec!r}: expected dyadic{s}MIN{s}MAX "
                                 f"or random{s}COUNT, with integer arguments", line)
    if kind == "dyadic" and args[0] < 0:
        raise ScenarioParseError(f"schedule spec {spec!r}: KMIN {args[0]} is negative", line)
    if args[-1] > (limit := _DYADIC_KMAX if kind == "dyadic" else _RANDOM_COUNT):
        raise ScenarioParseError(f"schedule spec {spec!r}: {args[-1]} exceeds {limit}", line)
    if (args[1] - args[0] + 1 if kind == "dyadic" else args[0]) < 1:
        raise ScenarioParseError(f"schedule spec {spec!r}: the schedule is empty", line)
    return kind, args


def parse_scenario(text: str) -> Scenario:
    directives = {}  # key -> (rank, line number, head, text after the head)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, rest = _first_field(line)
        if head == "threshold":
            raise ScenarioParseError("the threshold directive is retired: verdicts compare "
                                     "generator entries, with no thresholds", line_no)
        if head not in _DIRECTIVES:
            raise ScenarioParseError(f"unknown directive {head!r}", line_no)
        # A single directive may appear once, any other once per name.
        key = (head,) if head in _SINGLE_DIRECTIVES else (head, re.match(r"[^\s=]*", rest)[0])
        if key in directives:
            raise ScenarioParseError(f"{' '.join(key)} is already defined", line_no)
        directives[key] = _DIRECTIVES[head], line_no, head, rest
    for head in ("dim", "labels", "generator"):
        if (head,) not in directives:
            raise ScenarioParseError(f"missing {head!r} directive")

    sc = Scenario()
    for _, line_no, head, rest in sorted(directives.values()):
        if head == "dim":
            sc.dim = _parse_number(int, rest, line_no)
            if sc.dim < 1:
                raise ScenarioParseError("dim must be positive", line_no)
            if sc.dim > _DIM_MAX:
                raise ScenarioParseError(f"dim {sc.dim} exceeds {_DIM_MAX}", line_no)
        elif head == "labels":
            sc.labels = tuple(rest.split())
            if not sc.labels:
                raise ScenarioParseError("labels line needs at least one label", line_no)
            if len(set(sc.labels)) != len(sc.labels):
                raise ScenarioParseError("duplicate labels", line_no)
        elif head == "generator":
            sc.generator_kind, payload = _first_field(rest)
            if sc.generator_kind == "gamma":
                sc.gamma = _parse_matrix(payload, line_no)
                n = len(sc.labels)
                if sc.dim != 1:
                    raise ScenarioParseError("generator gamma requires dim 1", line_no)
                if sc.gamma.shape != (n, n):
                    raise ScenarioParseError(f"gamma matrix has shape {sc.gamma.shape}, "
                                             f"expected ({n}, {n}) for {n} labels", line_no)
            elif sc.generator_kind == "kernel":
                sc.kernel_path = payload
                if not payload:
                    raise ScenarioParseError("generator kernel needs a path", line_no)
            elif sc.generator_kind == "ce":
                missing = [s for s in sc.labels
                           if ("eta", s) not in directives or ("beta", s) not in directives]
                if missing:
                    raise ScenarioParseError(f"missing eta/beta for labels {missing}", line_no)
            else:
                raise ScenarioParseError(f"unknown generator kind {sc.generator_kind!r}", line_no)
        elif head in ("eta", "beta"):
            label, payload = _first_field(rest)
            matrix = _parse_matrix(payload, line_no)
            if sc.generator_kind != "ce":
                raise ScenarioParseError(f"{head} {label!r} needs 'generator ce'", line_no)
            if label not in sc.labels:
                raise ScenarioParseError(f"{head} for undeclared label {label!r}", line_no)
            if matrix.shape != (sc.dim, sc.dim):
                raise ScenarioParseError(f"{head} {label} has shape {matrix.shape}, "
                                         f"expected ({sc.dim}, {sc.dim})", line_no)
            (sc.eta if head == "eta" else sc.beta)[label] = matrix
        elif head == "matrix":
            name, payload = _first_field(rest)
            name = _parse_name("matrix", name, line_no)
            sc.matrices[name] = _parse_matrix(payload, line_no)
            if name in sc.labels:
                raise ScenarioParseError(f"matrix {name!r} has the name of a unit label", line_no)
        elif head == "expression":
            name, _, expr_text = rest.partition("=")
            name = _parse_name("expression", name.strip(), line_no)
            sc.expressions[name] = parse_expression(expr_text.strip(), sc.dim, sc.labels,
                                                    sc.matrices, line_no)
        elif head == "horizon":
            sc.horizon = _parse_number(float, rest, line_no)
            if not 0 < sc.horizon < np.inf:
                raise ScenarioParseError("horizon must be positive and finite", line_no)
        elif head == "schedule":
            sc.schedule_kind, sc.schedule_args = _parse_schedule(rest, None, line_no)
        elif head == "candidate":
            parts = rest.split()
            if len(parts) != 2:
                raise ScenarioParseError("candidate needs: EXPRNAME LABEL", line_no)
            if parts[0] not in sc.expressions:
                raise ScenarioParseError(f"candidate for unknown expression {parts[0]!r}", line_no)
            if parts[1] not in sc.labels:
                raise ScenarioParseError(f"candidate label {parts[1]!r} unknown", line_no)
            sc.candidates[parts[0]] = parts[1]
        elif head == "expect":
            parts = rest.split()
            if len(parts) != 2 or parts[1] not in _VERDICTS:
                raise ScenarioParseError(f"expect needs: EXPRNAME one of {_VERDICTS}", line_no)
            if parts[0] not in sc.expressions:
                raise ScenarioParseError(f"expect for unknown expression {parts[0]!r}", line_no)
            sc.expectations[parts[0]] = parts[1]
        else:  # seed
            sc.seed = _parse_number(int, rest, line_no)
            if sc.seed < 0:
                raise ScenarioParseError(f"seed must be non-negative, got {sc.seed}", line_no)
    # After the expressions, so that one naming a bad label reports its column.
    for label in sc.labels:
        _parse_name("label", label, directives[("labels",)][1])
    return sc


# -- realization --------------------------------------------------------------

def build_generator(sc: Scenario, base_dir=None) -> OperatorKernel:
    """The generator of a parsed scenario; only a kernel document is checked here."""
    if sc.generator_kind == "gamma":
        return scalar_kernel(sc.gamma, sc.labels)
    if sc.generator_kind == "ce":
        return christensen_evans_kernel(sc.labels, sc.dim, sc.eta, sc.beta)
    import json  # generator kernel PATH
    from pathlib import Path
    path = Path(sc.kernel_path)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    with open(path) as handle:
        kernel = kernel_from_json_dict(json.load(handle))
    if kernel.dim != sc.dim or set(kernel.labels) != set(sc.labels):
        raise ScenarioParseError("kernel document does not match dim/labels")
    return kernel


def build_schedule(sc: Scenario, override: str | None = None,
                   seed: int | None = None) -> list[Partition]:
    """The scenario's schedule, or ``override`` given as ``dyadic:MIN:MAX`` or ``random:COUNT``."""
    kind, args = sc.schedule_kind, sc.schedule_args
    if override:
        kind, args = _parse_schedule(override, ":")
    if kind == "dyadic":
        return dyadic_schedule(sc.horizon, *args)
    return random_schedule(sc.horizon, args[0], seed if seed is not None else sc.seed)
