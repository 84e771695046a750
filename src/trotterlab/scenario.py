"""Scenario files: a line-oriented declarative format for experiment runs.

The file is UTF-8.  One directive per line; ``#`` starts a comment; blank
lines are ignored.  ``dim``, ``labels``, ``generator``, ``horizon``,
``schedule`` and ``seed`` appear at most once, the others once per name:

    dim N
    labels NAME...
    generator gamma MATRIX          # scalar covariance matrix (dim 1 only)
    generator ce                    # Christensen-Evans parameters follow
    generator kernel PATH           # kernel JSON document
    eta LABEL MATRIX                # parameter lines for 'generator ce',
    beta LABEL MATRIX               # one of each per declared label
    matrix NAME MATRIX              # named matrix usable in expressions, not a label
    expression NAME = EXPR
    horizon T
    schedule dyadic KMIN KMAX       # 0 <= KMIN, KMAX <= 20
    schedule random COUNT           # COUNT <= 64
    candidate EXPRNAME LABEL        # test EXPR against an ambient unit
    expect EXPRNAME VERDICT         # norm-convergent | weak-only | divergent
    threshold FIELD VALUE           # override a verdict threshold field
    seed N                          # draws random schedules; recorded in reports

Matrices are nested bracket lists of Python numeric literals; complex
entries like ``(0.5+0.25j)`` are allowed.  Matrix and expression names are
identifiers ``[A-Za-z_][A-Za-z0-9_]*``; expression names also name the
output files.  An expression is read with Python's own parser (nothing is
evaluated) and must fit this subset of Python expression syntax:

    EXPR   := TERM (('+'|'-') TERM)*
    TERM   := FACTOR ('*' FACTOR)*
    FACTOR := NUMBER | NAME | concat(NAME@FRAC, ...) | expm(t*NAME)

NUMBER and FRAC are finite Python numeric literals, as in matrices
(``0x10`` and ``1_000`` included); a FRAC is real and positive.  A NAME is
a unit label or a matrix name, an ASCII identifier that is not a Python
keyword.  Redundant parentheses (``2*(u)``) and a trailing comma in
``concat(...)`` are allowed.  An expression nested beyond the parser's
limit (about 2,970 terms on Python 3.11) is an error.

Each term contains exactly one unit factor (a unit label or a ``concat``
group).  Scalar and named-matrix factors to its left multiply from the
left, those to its right from the right, and ``expm(t*B)`` declares an
exponential twist on the side where it appears.  Complex coefficients can
be split over terms (``2*xi1 + 1j*xi1``).  Parse errors carry source
positions.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import (
    OperatorKernel,
    christensen_evans_kernel,
    kernel_from_json_dict,
    scalar_kernel,
)
from .trotter import Partition, VerdictThresholds, dyadic_schedule, random_schedule
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
# A dyadic partition of 2^20 parts already holds about 1M widths.
_DYADIC_KMAX = 20
# Every random partition (up to 4,096 widths) is built before any output.
_RANDOM_COUNT = 64


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
    thresholds: VerdictThresholds = field(default_factory=VerdictThresholds)
    seed: int = 0


# -- expression grammar -------------------------------------------------------

def _chain(node, ops):
    """``[(None, a), (op, b), (op, c)]`` for a left-nested chain ``a op b op c`` of ``ops``."""
    links = []
    while isinstance(node, ast.BinOp) and isinstance(node.op, ops):
        links.append((node.op, node.right))
        node = node.left
    return [(None, node)] + links[::-1]


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

    def term(self, node, sign: float) -> Term:
        factors = [self.factor(f) for _, f in _chain(node, ast.Mult)]
        unit_positions = [i for i, f in enumerate(factors) if f[0] == "unit"]
        if len(unit_positions) != 1:
            self.fail("each term needs exactly one unit label or concat group", node)
        at = unit_positions[0]
        eye = np.eye(self.dim, dtype=complex)
        left = sign * eye
        right = eye.copy()
        twist = None
        twist_side = "none"
        for i, (kind, payload) in enumerate(factors):
            if kind == "unit":
                continue
            if kind == "twist":
                if twist is not None:
                    raise ScenarioParseError("at most one expm twist per term", self.line)
                twist = payload
                twist_side = "left" if i < at else "right"
            elif kind == "scalar":
                if i < at:
                    left = left * payload
                else:
                    right = right * payload
            else:  # matrix
                if i < at:
                    left = left @ payload
                else:
                    right = right @ payload
        segments = factors[at][1]
        try:
            return Term(left, right, segments, twist=twist, twist_side=twist_side)
        except ValueError as exc:
            raise ScenarioParseError(str(exc), self.line) from exc

    def number(self, node) -> complex:
        value = node.value if isinstance(node, ast.Constant) else None
        if type(value) not in (int, float, complex):
            self.fail(f"expected a number, found {self.source(node)!r}", node)
        if not abs(value) <= sys.float_info.max:
            self.fail(f"number {self.source(node)!r} is not finite", node)
        return complex(value)

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
            case ast.Constant():
                return "scalar", self.number(node)
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

def _parse_matrix(text: str, line: int) -> np.ndarray:
    try:
        matrix = np.asarray(ast.literal_eval(text), dtype=complex)
    except (ValueError, SyntaxError, TypeError) as exc:
        raise ScenarioParseError(f"bad matrix literal: {exc}", line) from exc
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ScenarioParseError(f"matrix literal must be square, got shape {matrix.shape}",
                                 line)
    if not np.isfinite(matrix).all():
        raise ScenarioParseError("matrix literal has non-finite entries", line)
    return matrix


def _parse_name(kind: str, text: str, line: int) -> str:
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text):
        raise ScenarioParseError(f"bad {kind} name {text!r}", line)
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
    return kind, args


def parse_scenario(text: str) -> Scenario:
    sc = Scenario()
    defined = {}  # directive key -> line number
    pending_expressions: list[tuple[int, str, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        # A single directive may appear once, any other once per name (or field).
        key = (head,) if head in _SINGLE_DIRECTIVES else (head, re.match(r"[^\s=]*", rest)[0])
        if key in defined:
            raise ScenarioParseError(f"{' '.join(key)} is already defined", line_no)
        defined[key] = line_no
        if head == "dim":
            sc.dim = _parse_number(int, rest, line_no)
            if sc.dim < 1:
                raise ScenarioParseError("dim must be positive", line_no)
        elif head == "labels":
            sc.labels = tuple(rest.split())
            if not sc.labels:
                raise ScenarioParseError("labels line needs at least one label", line_no)
        elif head == "generator":
            kind, _, payload = rest.partition(" ")
            sc.generator_kind = kind
            if kind == "gamma":
                sc.gamma = _parse_matrix(payload.strip(), line_no)
            elif kind == "kernel":
                sc.kernel_path = payload.strip()
                if not sc.kernel_path:
                    raise ScenarioParseError("generator kernel needs a path", line_no)
            elif kind != "ce":
                raise ScenarioParseError(f"unknown generator kind {kind!r}", line_no)
        elif head in ("eta", "beta"):
            label, _, payload = rest.partition(" ")
            target = sc.eta if head == "eta" else sc.beta
            target[label] = _parse_matrix(payload.strip(), line_no)
        elif head == "matrix":
            name, _, payload = rest.partition(" ")
            name = _parse_name("matrix", name, line_no)
            sc.matrices[name] = _parse_matrix(payload.strip(), line_no)
        elif head == "expression":
            name, _, expr_text = rest.partition("=")
            name = _parse_name("expression", name.strip(), line_no)
            pending_expressions.append((line_no, name, expr_text.strip()))
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
            sc.candidates[parts[0]] = parts[1]
        elif head == "expect":
            parts = rest.split()
            if len(parts) != 2 or parts[1] not in _VERDICTS:
                raise ScenarioParseError(
                    f"expect needs: EXPRNAME one of {_VERDICTS}", line_no)
            sc.expectations[parts[0]] = parts[1]
        elif head == "threshold":
            parts = rest.split()
            if len(parts) != 2:
                raise ScenarioParseError("threshold needs: FIELD VALUE", line_no)
            if parts[0] not in vars(sc.thresholds):
                raise ScenarioParseError(f"unknown threshold field {parts[0]!r}, expected one "
                                         f"of {sorted(vars(sc.thresholds))}", line_no)
            value = _parse_number(float, parts[1], line_no)
            if not np.isfinite(value):
                raise ScenarioParseError("threshold value must be finite", line_no)
            sc.thresholds = replace(sc.thresholds, **{parts[0]: value})
        elif head == "seed":
            sc.seed = _parse_number(int, rest, line_no)
        else:
            raise ScenarioParseError(f"unknown directive {head!r}", line_no)

    if ("dim",) not in defined:
        raise ScenarioParseError("missing 'dim' directive")
    if not sc.labels:
        raise ScenarioParseError("missing 'labels' directive")
    if not sc.generator_kind:
        raise ScenarioParseError("missing 'generator' directive")
    for key, line_no in defined.items():
        head, name = key[0], key[-1]
        if head in ("eta", "beta") and sc.generator_kind != "ce":
            raise ScenarioParseError(f"{head} {name!r} needs 'generator ce'", line_no)
        if head in ("eta", "beta") and name not in sc.labels:
            raise ScenarioParseError(f"{head} for undeclared label {name!r}", line_no)
        if head == "matrix" and name in sc.labels:
            raise ScenarioParseError(f"matrix {name!r} has the name of a unit label", line_no)
        if head in ("candidate", "expect") and ("expression", name) not in defined:
            raise ScenarioParseError(f"{head} for unknown expression {name!r}", line_no)
        if head == "candidate" and sc.candidates[name] not in sc.labels:
            raise ScenarioParseError(f"candidate label {sc.candidates[name]!r} unknown", line_no)
    for line_no, name, expr_text in pending_expressions:
        sc.expressions[name] = parse_expression(expr_text, sc.dim, sc.labels,
                                                sc.matrices, line_no)
    return sc


# -- realization --------------------------------------------------------------

def build_generator(sc: Scenario, base_dir=None) -> OperatorKernel:
    if sc.generator_kind == "gamma":
        if sc.dim != 1:
            raise ScenarioParseError("generator gamma requires dim 1")
        if sc.gamma is None or sc.gamma.shape != (len(sc.labels), len(sc.labels)):
            raise ScenarioParseError("gamma matrix shape must match the label count")
        return scalar_kernel(sc.gamma, sc.labels)
    if sc.generator_kind == "ce":
        missing = [s for s in sc.labels if s not in sc.eta or s not in sc.beta]
        if missing:
            raise ScenarioParseError(f"missing eta/beta for labels {missing}")
        for name, table in (("eta", sc.eta), ("beta", sc.beta)):
            for label, matrix in table.items():
                if matrix.shape != (sc.dim, sc.dim):
                    raise ScenarioParseError(
                        f"{name} {label} has shape {matrix.shape}, "
                        f"expected ({sc.dim}, {sc.dim})")
        return christensen_evans_kernel(sc.labels, sc.dim, sc.eta, sc.beta)
    if sc.generator_kind == "kernel":
        import json
        from pathlib import Path
        path = Path(sc.kernel_path)
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        with open(path) as handle:
            kernel = kernel_from_json_dict(json.load(handle))
        if kernel.dim != sc.dim or set(kernel.labels) != set(sc.labels):
            raise ScenarioParseError("kernel document does not match dim/labels")
        return kernel
    raise ScenarioParseError(f"unknown generator kind {sc.generator_kind!r}")


def build_schedule(sc: Scenario, override: str | None = None,
                   seed: int | None = None) -> list[Partition]:
    """The scenario's schedule, or ``override`` given as ``dyadic:MIN:MAX`` or ``random:COUNT``."""
    kind, args = sc.schedule_kind, sc.schedule_args
    if override:
        kind, args = _parse_schedule(override, ":")
    if kind == "dyadic":
        return dyadic_schedule(sc.horizon, *args)
    return random_schedule(sc.horizon, args[0], seed if seed is not None else sc.seed)
