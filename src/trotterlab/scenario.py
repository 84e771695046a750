"""Scenario files: a line-oriented declarative format for experiment runs.

One directive per line; ``#`` starts a comment; blank lines are ignored:

    dim N
    labels NAME...
    generator gamma MATRIX          # scalar covariance matrix (dim 1 only)
    generator ce                    # Christensen-Evans parameters follow
    generator kernel PATH           # kernel JSON document
    eta LABEL MATRIX                # parameter lines for 'generator ce'
    beta LABEL MATRIX
    matrix NAME MATRIX              # named matrix usable in expressions
    expression NAME = EXPR
    horizon T
    schedule dyadic KMIN KMAX
    schedule random COUNT
    candidate EXPRNAME LABEL        # test EXPR against an ambient unit
    expect EXPRNAME VERDICT         # norm-convergent | weak-only | divergent
    threshold FIELD VALUE           # override a verdict threshold field
    seed N                          # draws random schedules; recorded in reports

Matrices are nested bracket lists of Python numeric literals; complex
entries like ``(0.5+0.25j)`` are allowed.  Expressions follow the unit
combination grammar:

    EXPR   := TERM (('+'|'-') TERM)*
    TERM   := FACTOR ('*' FACTOR)*
    FACTOR := NUMBER | NAME | concat(NAME@FRAC, ...) | expm(t*NAME)

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

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?j?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[-+*()@,=])")


def _tokenize(text: str, line: int):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ScenarioParseError(f"unexpected character {text[pos]!r}", line, pos + 1)
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        tokens.append((match.lastgroup, match.group(), match.start() + 1))
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _ExprParser:
    def __init__(self, text: str, line: int, dim: int,
                 labels: tuple[str, ...], matrices: dict):
        self.tokens = _tokenize(text, line)
        self.index = 0
        self.line = line
        self.dim = dim
        self.labels = labels
        self.matrices = matrices

    def peek(self):
        return self.tokens[self.index]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.index]
        if kind is not None and tok[0] != kind:
            raise ScenarioParseError(f"expected {kind}, found {tok[1]!r}", self.line, tok[2])
        if value is not None and tok[1] != value:
            raise ScenarioParseError(f"expected {value!r}, found {tok[1]!r}", self.line, tok[2])
        self.index += 1
        return tok

    def parse(self) -> UnitExpression:
        terms = [self.term(1.0)]
        while self.peek()[1] in ("+", "-"):
            sign = 1.0 if self.take()[1] == "+" else -1.0
            terms.append(self.term(sign))
        self.take("end")
        return UnitExpression(self.dim, tuple(terms))

    def term(self, sign: float) -> Term:
        factors = [self.factor()]
        while self.peek()[1] == "*":
            self.take()
            factors.append(self.factor())
        unit_positions = [i for i, f in enumerate(factors) if f[0] == "unit"]
        if len(unit_positions) != 1:
            tok = self.peek()
            raise ScenarioParseError(
                "each term needs exactly one unit label or concat group",
                self.line, tok[2])
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

    def factor(self):
        kind, value, col = self.peek()
        if kind == "number":
            self.take()
            return ("scalar", complex(value))
        if kind == "name":
            if value == "concat":
                return ("unit", self.concat_group())
            if value == "expm":
                return ("twist", self.expm_group())
            self.take()
            if value in self.labels:
                return ("unit", (Segment(value, 1.0),))
            if value in self.matrices:
                matrix = self.matrices[value]
                if matrix.shape != (self.dim, self.dim):
                    raise ScenarioParseError(
                        f"matrix {value!r} has shape {matrix.shape}, "
                        f"expected ({self.dim}, {self.dim})", self.line, col)
                return ("matrix", matrix)
            raise ScenarioParseError(f"unknown name {value!r}", self.line, col)
        raise ScenarioParseError(f"unexpected token {value!r}", self.line, col)

    def concat_group(self):
        self.take("name", "concat")
        self.take("sym", "(")
        segments = []
        while True:
            name = self.take("name")
            if name[1] not in self.labels:
                raise ScenarioParseError(f"unknown unit label {name[1]!r}", self.line, name[2])
            self.take("sym", "@")
            frac = self.take("number")
            segments.append(Segment(name[1], float(complex(frac[1]).real)))
            if self.peek()[1] == ",":
                self.take()
                continue
            break
        self.take("sym", ")")
        return tuple(segments)

    def expm_group(self):
        self.take("name", "expm")
        self.take("sym", "(")
        self.take("name", "t")
        self.take("sym", "*")
        name = self.take("name")
        if name[1] not in self.matrices:
            raise ScenarioParseError(f"unknown matrix {name[1]!r}", self.line, name[2])
        self.take("sym", ")")
        matrix = self.matrices[name[1]]
        if matrix.shape != (self.dim, self.dim):
            raise ScenarioParseError(
                f"matrix {name[1]!r} has shape {matrix.shape}, "
                f"expected ({self.dim}, {self.dim})", self.line, name[2])
        return matrix


def parse_expression(text: str, dim: int, labels: tuple[str, ...],
                     matrices: dict, line: int = 0) -> UnitExpression:
    return _ExprParser(text, line, dim, labels, matrices).parse()


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


def _parse_number(kind, text: str, line: int):
    """``kind(text)`` for ``kind`` int or float, or a parse error at ``line``."""
    try:
        return kind(text)
    except ValueError:
        raise ScenarioParseError(f"expected {kind.__name__}, got {text!r}", line) from None


def _parse_schedule(spec: str, sep: str | None, line: int | None = None):
    """``(kind, args)`` of ``dyadic MIN MAX`` or ``random COUNT``, fields split at ``sep``."""
    kind, *args = spec.split(sep) or [""]
    if _SCHEDULE_ARITY.get(kind) == len(args):
        try:
            return kind, tuple(int(a) for a in args)
        except ValueError:
            pass
    s = sep or " "
    raise ScenarioParseError(f"bad schedule spec {spec!r}: expected dyadic{s}MIN{s}MAX "
                             f"or random{s}COUNT, with integer arguments", line)


def parse_scenario(text: str) -> Scenario:
    sc = Scenario()
    seen_dim = False
    pending_expressions: list[tuple[int, str, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "dim":
            sc.dim = _parse_number(int, rest, line_no)
            if sc.dim < 1:
                raise ScenarioParseError("dim must be positive", line_no)
            seen_dim = True
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
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
                raise ScenarioParseError(f"bad matrix name {name!r}", line_no)
            sc.matrices[name] = _parse_matrix(payload.strip(), line_no)
        elif head == "expression":
            name, _, expr_text = rest.partition("=")
            name = name.strip()
            if not name:
                raise ScenarioParseError("expression needs a name", line_no)
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

    if not seen_dim:
        raise ScenarioParseError("missing 'dim' directive")
    if not sc.labels:
        raise ScenarioParseError("missing 'labels' directive")
    if not sc.generator_kind:
        raise ScenarioParseError("missing 'generator' directive")
    for line_no, name, expr_text in pending_expressions:
        sc.expressions[name] = parse_expression(expr_text, sc.dim, sc.labels,
                                                sc.matrices, line_no)
    for name in sc.candidates:
        if name not in sc.expressions:
            raise ScenarioParseError(f"candidate for unknown expression {name!r}")
        if sc.candidates[name] not in sc.labels:
            raise ScenarioParseError(f"candidate label {sc.candidates[name]!r} unknown")
    for name in sc.expectations:
        if name not in sc.expressions:
            raise ScenarioParseError(f"expectation for unknown expression {name!r}")
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
