"""Layer spans and counters for the traced benchmark run, applied from outside.

The package is not edited: each public function named in ``LAYER_TARGETS`` is
replaced by a timing wrapper, and the wrapper is rebound in every ``aknsd``
module that imported the name directly (``from .series import series_mul``
leaves a second reference in ``baker``, ``hierarchy``, ``verify`` ...), so
internal calls go through it too.  Methods are wrapped on their class.

Spans are kept in memory as parallel lists and written as JSONL when the run
ends.  A span's self time is its duration minus the time its child spans
cover.  ``Fraction`` arithmetic is counted in a pass of its own, by wrapping
the operators of the ``Fraction`` class, because a wrapper on every rational
operation would inflate the span timings.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# (span name, attribute path inside the module "aknsd.<layer>")
LAYER_TARGETS = (
    ("matrices.matmul", "SmallMatrix.__matmul__"),
    ("matrices.inverse", "SmallMatrix.inverse"),
    ("series.series_mul", "series_mul"),
    ("series.series_inverse", "series_inverse"),
    ("lattice.shift_apply", "shift_apply"),
    ("lattice.delta_apply", "delta_apply"),
    ("lattice.zip_with", "LatticeFn.zip_with"),
    ("hierarchy.solve_dressing", "solve_dressing"),
    ("hierarchy.dressing_residual", "dressing_residual"),
    ("hierarchy.resolvent_dressed", "resolvent_dressed"),
    ("hierarchy.resolvent_direct", "resolvent_direct"),
    ("hierarchy.flow_field", "flow_field"),
    ("hierarchy.commutator_with_l", "commutator_with_l"),
    ("dynamics.rk4_evolve", "rk4_evolve"),
    ("dynamics.rk4_step", "rk4_step"),
    ("dynamics.commutativity_defect", "commutativity_defect"),
    ("dynamics.continuum_scan", "continuum_scan"),
    ("baker.bilinear_residual", "bilinear_residual"),
    ("baker.adjoint_check", "adjoint_check"),
    ("persist.save_state", "save_state"),
    ("persist.load_state", "load_state"),
    ("persist.export_trajectory_csv", "export_trajectory_csv"),
    ("config.parse_config", "parse_config"),
    ("verify.run_verify_suite", "run_verify_suite"),
    ("cli.main", "main"),
)

# wrapped functions whose second argument is the path they write
_WRITERS = {"persist.save_state", "persist.export_trajectory_csv"}


def _resolve(name: str, attr: str):
    """(owner object, attribute name, original function) for one target."""
    module = sys.modules["aknsd." + name.split(".")[0]]
    owner = module
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


def _aknsd_modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "aknsd" or key.startswith("aknsd."))]


class Patches:
    """Replace functions by wrappers everywhere they are bound; undo on exit."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, leaf: str, original, wrapper) -> None:
        if isinstance(owner, type):
            self._set(owner, leaf, wrapper)
            return
        for module in _aknsd_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.items = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.root_s = 0.0  # time covered by spans that have no parent
        self.bytes_written = 0
        self.leak_ratio_max = 0.0
        self.item_id = None
        self._stack = []  # open span indices
        self._child = []  # child time covered so far, per open span

    def wrap(self, name: str, fn):
        tracer = self
        writes_file = name in _WRITERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else None)
            tracer.items.append(tracer.item_id)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer._child.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                child = tracer._child.pop()
                dur = t1 - t0
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - child
                if tracer._child:
                    tracer._child[-1] += dur
                else:
                    tracer.root_s += dur
                if writes_file:
                    path = args[1] if len(args) > 1 else kwargs.get("path")
                    if path and os.path.exists(path):
                        tracer.bytes_written += os.path.getsize(path)

        return wrapper

    def leakage_probe(self, fn):
        """Wrap ``dynamics._leakage`` to keep the worst boundary/interior ratio.

        The ratio is formed as ``rk4_evolve`` forms it against ``leak_warn``
        and ``leak_hard``.
        """
        tracer = self

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            boundary, interior = fn(*args, **kwargs)
            ratio = boundary / max(interior, 1e-300)
            if ratio > tracer.leak_ratio_max:
                tracer.leak_ratio_max = ratio
            return boundary, interior

        return probe

    def install(self, patches: Patches) -> None:
        for name, attr in LAYER_TARGETS:
            owner, leaf, original = _resolve(name, attr)
            patches.replace(owner, leaf, original, self.wrap(name, original))
        dynamics = sys.modules["aknsd.dynamics"]
        patches.replace(dynamics, "_leakage", dynamics._leakage,
                        self.leakage_probe(dynamics._leakage))

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in zip(self.names, self.starts, self.ends, self.parents,
                           self.items):
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "item"), rec))))
                fh.write("\n")


def coeff_bits(dressing) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    best = 0
    for w in dressing.ws:
        for mat in w.values:
            for row in mat.rows:
                for x in row:
                    if isinstance(x, Fraction):
                        best = max(best, x.numerator.bit_length(),
                                   x.denominator.bit_length())
    return best


# Fraction operators whose calls count as rational arithmetic
FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__abs__",
                "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


class FractionCounter:
    """Counts ``Fraction`` operator calls and the largest coefficient height.

    Each operator in ``FRACTION_OPS`` is wrapped on the ``Fraction`` class, so
    every ``a + b`` or ``a == b`` with a ``Fraction`` operand that Python
    dispatches to it is counted; calls that ``fractions`` makes internally are
    not.  The height is read from every ``solve_dressing`` result.
    """

    def __init__(self):
        self.fraction_ops = 0
        self.coeff_bits_max = 0

    def _count(self, fn):
        counter = self

        @functools.wraps(fn)
        def op(*args):
            counter.fraction_ops += 1
            return fn(*args)

        return op

    def install(self, patches: Patches) -> None:
        for name in FRACTION_OPS:
            patches.replace(Fraction, name, getattr(Fraction, name),
                            self._count(getattr(Fraction, name)))
        owner, leaf, original = _resolve("hierarchy.solve_dressing",
                                         "solve_dressing")
        counter = self

        @functools.wraps(original)
        def solve_dressing(*args, **kwargs):
            dressing = original(*args, **kwargs)
            counter.coeff_bits_max = max(counter.coeff_bits_max,
                                         coeff_bits(dressing))
            return dressing

        patches.replace(owner, leaf, original, solve_dressing)
