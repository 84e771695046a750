"""Outside-in tracer for the trotterlab layers.

The tracer wraps, from outside the package, every public function of the
layer modules ``scenario``, ``kernels``, ``units``, ``trotter`` and
``algebra`` at every place a trotterlab module binds it (``from .kernels
import is_conditionally_cpd`` in ``cli`` and ``units`` makes two bindings
of one function), the methods that carry the hot work, and the
``scipy.linalg.expm`` attribute through which the package exponentiates.
Each call records a span (name, start, end, parent) in flat arrays; the
arrays are written out once, when the traced process ends, and reduced
to calls, total time and self time by :func:`summarize`.

Some counts are taken from call arguments where the work happens: the
repeat share of ``CpdSemigroup.entry_rep`` keys, the uniform-partition
pairings, the number of intervals paired and the number of matrices
handed to ``expm``.

Spans must come from one thread: a call from another thread raises,
because spans of two threads would overlap and corrupt self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("scenario", "kernels", "units", "trotter", "algebra")

# Every binding here must exist and end up wrapped: a rename in the package
# must break the benchmark instead of silently reporting zero calls.
REQUIRED_SITES = (
    ("trotterlab.cli", "is_conditionally_cpd"),
    ("trotterlab.units", "is_conditionally_cpd"),
    ("trotterlab.cli", "extend_generator"),
    ("trotterlab.cli", "convergence_verdict"),
    ("trotterlab.cli", "parse_scenario"),
    ("trotterlab.cli", "build_generator"),
    ("trotterlab.cli", "build_schedule"),
    ("trotterlab.trotter", "eval_pairing"),
    ("trotterlab.trotter", "superop_norm"),
    ("trotterlab.kernels", "superop_exp"),
    ("trotterlab.kernels", "CpdSemigroup.entry_rep"),
    ("trotterlab.trotter", "ConvergenceReport.write_csv"),
    ("trotterlab.trotter", "ConvergenceReport.write_json"),
    ("scipy.linalg", "expm"),
)

# Methods traced besides the layer modules' public functions.
METHODS = (
    ("trotterlab.kernels", "CpdSemigroup", "entry_rep"),
    ("trotterlab.trotter", "ConvergenceReport", "write_csv"),
    ("trotterlab.trotter", "ConvergenceReport", "write_json"),
)

EXPM = "scipy.linalg.expm"
COUNTERS = ("entry_rep_distinct", "entry_rep_repeats", "uniform_pairings",
            "pairing_intervals", "expm_matrices")

# Span flags: no enclosing span has the same name / the same layer.
OUTER_NAME = 1
OUTER_LAYER = 2

# The tolerance the package uses to call a partition uniform.
_UNIFORM_TOL = 1e-12


class TracerError(RuntimeError):
    """A site the tracer must wrap is missing or was not wrapped."""


def layer_of(name: str) -> str:
    """Layer of a span name; ``scipy.linalg.expm`` counts as ``scipy``."""
    return name.split(".", 1)[0]


def _resolve(module_name: str, dotted: str):
    obj = importlib.import_module(module_name)
    for part in dotted.split("."):
        if not hasattr(obj, part):
            raise TracerError(f"{module_name}.{dotted} no longer exists; "
                              "update the benchmark tracer's sites")
        obj = getattr(obj, part)
    return obj


def _is_uniform(partition) -> bool:
    return max(partition.parts) - min(partition.parts) <= _UNIFORM_TOL


class Tracer:
    """Records spans and argument counters for the wrapped calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.flags = array("b")
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._thread = threading.get_ident()
        self._entry_rep_keys: set = set()
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.wrapped_sites: list[str] = []

    def wrap(self, name: str, fn, on_call=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        name_id = len(self.names)
        self.names.append(name)
        layer = layer_of(name)
        depth = self._depth
        depth.setdefault(name, 0)
        depth.setdefault(layer, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                raise TracerError(f"{name} called from a second thread; "
                                  "traced runs must not set --threads")
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.flags.append((OUTER_NAME if depth[name] == 0 else 0)
                              | (OUTER_LAYER if depth[layer] == 0 else 0))
            self.end.append(0.0)
            self._stack.append(idx)
            depth[name] += 1
            depth[layer] += 1
            self.start.append(self.clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = self.clock()
                depth[name] -= 1
                depth[layer] -= 1
                self._stack.pop()

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- argument counters ----------------------------------------------------

    def count_entry_rep(self, args, kwargs):
        key = (args[1], args[2], float(args[3]))
        if key in self._entry_rep_keys:
            self.counters["entry_rep_repeats"] += 1
        else:
            self._entry_rep_keys.add(key)
            self.counters["entry_rep_distinct"] += 1

    def count_pairing(self, args, kwargs):
        if self._depth["trotter.eval_pairing"]:
            return  # the fast path's inner call pairs one interval of the outer call
        p1, p2 = args[1], args[3]
        self.counters["pairing_intervals"] += p1.size + p2.size
        if p1.size == p2.size and p1.size > 8 and _is_uniform(p1) and _is_uniform(p2):
            self.counters["uniform_pairings"] += 1

    def count_expm(self, args, kwargs):
        shape = np.shape(args[0] if args else kwargs["A"])
        self.counters["expm_matrices"] += int(np.prod(shape[:-2], dtype=np.int64))

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every lookup site; raise :class:`TracerError` if one is missing."""
        import scipy.linalg
        import trotterlab.cli  # noqa: F401  (imports every module the CLI uses)

        for module_name, dotted in REQUIRED_SITES:
            _resolve(module_name, dotted)

        wrappers: dict[int, tuple] = {}  # id(function) -> (function, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"trotterlab.{layer}")
            for public in module.__all__:
                fn = getattr(module, public)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    on_call = self.count_pairing if public == "eval_pairing" else None
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{public}", fn, on_call))
        expm = scipy.linalg.expm
        wrappers[id(expm)] = (expm, self.wrap(EXPM, expm, self.count_expm))

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "trotterlab" or n.startswith("trotterlab.")]
        for module in [*modules, scipy.linalg]:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self.wrapped_sites.append(f"{module.__name__}.{attr}")

        for module_name, cls_name, method in METHODS:
            cls = _resolve(module_name, cls_name)
            layer = module_name.rsplit(".", 1)[1]
            on_call = self.count_entry_rep if method == "entry_rep" else None
            setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}",
                                           getattr(cls, method), on_call))
            self.wrapped_sites.append(f"{module_name}.{cls_name}.{method}")

        for module_name, dotted in REQUIRED_SITES:
            if not getattr(_resolve(module_name, dotted), "__wrapped_by_tracer__", False):
                raise TracerError(f"{module_name}.{dotted} is bound to something "
                                  "the tracer did not wrap")

    def save(self, path) -> None:
        """Write the spans and counters to an ``.npz`` file."""
        if self._stack:
            raise TracerError("spans still open at save time")
        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 flags=np.frombuffer(self.flags, dtype=np.int8),
                 counters=np.array([self.counters[c] for c in COUNTERS], dtype=np.int64))


def self_times(start, end, parent) -> np.ndarray:
    """Per-span duration minus the time its direct children cover.

    Spans come from one thread, so the direct children of a span lie
    inside it and do not overlap each other.
    """
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested],
                          minlength=len(duration))
    return duration - covered


def summarize(names, name, start, end, parent, flags) -> dict[str, dict]:
    """Calls, total time and self time per span name and per layer.

    A name's total counts only its outermost spans, so recursion is not
    counted twice; a layer's total counts only spans with no enclosing span
    of the same layer.  Self times add up.
    """
    name = np.asarray(name, dtype=np.int64)
    flags = np.asarray(flags, dtype=np.int64)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    own = self_times(start, end, parent)
    outer_name = (flags & OUTER_NAME) != 0
    outer_layer = (flags & OUTER_LAYER) != 0
    k = len(names)
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name[outer_name], weights=duration[outer_name], minlength=k)
    layer_total = np.bincount(name[outer_layer], weights=duration[outer_layer], minlength=k)
    self_s = np.bincount(name, weights=own, minlength=k)
    out = {n: {"calls": int(calls[i]), "total_s": float(total[i]),
               "self_s": float(self_s[i])} for i, n in enumerate(names)}
    for layer in sorted({layer_of(n) for n in names}):
        ids = [i for i, n in enumerate(names) if layer_of(n) == layer]
        out[layer] = {"calls": int(calls[ids].sum()),
                      "total_s": float(layer_total[ids].sum()),
                      "self_s": float(self_s[ids].sum())}
    return out
