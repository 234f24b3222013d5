"""Persistence: every document format of lattice data, and tabular export.

One value codec serves every document: a matrix is written as its row-major
entry strings, rationals as "p/q" in lowest terms and floats in their
shortest round-tripping decimal form, so state round-trips are bit-exact in
rational mode.  A document states the mode, ``m``, the sites and the step
once; a state document stores only what the state cannot derive (the
dressing depth is the number of stored orders, the solver conventions follow
from ``a``).
"""

from __future__ import annotations

import csv
import json
import re
from math import gcd

from . import scalars
from .config import _WINDOW_KEYS, _integer
from .errors import AknsdError, SchemaError
from .hierarchy import AknsData, Dressing, HierarchyState
from .lattice import LatticeFn, Window
from .matrices import SmallMatrix

STATE_VERSION = 3
_STATE_KEYS = {"version", "mode", "a", "window", "step", "u", "dressing"}


# -- the value codec -------------------------------------------------------------------


def _value_to_json(v: SmallMatrix) -> list:
    """A matrix as its row-major entry strings, each round-tripping exactly.

    A rational entry is written from the integer numerators, as
    ``format_scalar`` writes its ``Fraction``: ``p/q`` in lowest terms, ``p``
    when q is 1.
    """
    if v.mode == scalars.FLOAT:
        return [scalars.format_scalar(x) for row in v.rows for x in row]
    num, den = v.numerators()
    return [_lowest_text(x, den) for row in num for x in row]


def _lowest_text(p: int, q: int) -> str:
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def _value_from_json(entries, m: int, mode: str) -> SmallMatrix:
    entries = _list(entries, "a value", m * m)
    pairs = _lowest_terms(entries) if mode == scalars.RATIONAL else None
    if pairs is not None:
        return SmallMatrix.from_lowest_terms(
            tuple(pairs[i * m:(i + 1) * m] for i in range(m)))
    vals = [_scalar(x, mode) for x in entries]
    return SmallMatrix(m, mode, tuple(tuple(vals[i * m:(i + 1) * m]) for i in range(m)))


_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _lowest_terms(entries) -> list | None:
    """The entries as integer ``(p, q)`` pairs if each is written in lowest terms.

    That is what ``format_scalar`` writes: ``p`` or ``p/q`` with ASCII digits,
    ``q > 0`` and ``gcd(p, q) == 1``; those strings read as exactly ``p/q``.
    Any other entry gives None, and the value is read by ``_scalar``, which
    accepts and refuses what it always has.
    """
    pairs = []
    for text in entries:
        match = isinstance(text, str) and _CANONICAL.fullmatch(text)
        if not match:
            return None
        p, q = int(match[1]), int(match[2] or 1)
        if q == 0 or gcd(p, q) != 1:
            return None
        pairs.append((p, q))
    return pairs


def lattice_to_json(f: LatticeFn) -> dict:
    """First site and values of a computed field (zero tails, unit step).

    The document that holds it states the mode.
    """
    return {"n_min": f.lo, "values": [_value_to_json(v) for v in f.values]}


# Each reader raises ValueError; state_from_json turns it into a SchemaError.

def _scalar(text, mode: str):
    if not isinstance(text, str):
        raise ValueError(f"a scalar must be written as a string, not {text!r:.60}")
    return scalars.parse_scalar(text, mode)


def _list(x, what: str, length: int | None = None) -> list:
    if not isinstance(x, list) or length is not None and len(x) != length:
        count = "" if length is None else f" of {length} items"
        raise ValueError(f"{what} must be a list{count}, not {x!r:.60}")
    return x


def _keys(x, keys, what: str) -> dict:
    if not isinstance(x, dict) or set(x) != set(keys):
        raise ValueError(f"{what} must be an object with the keys {sorted(keys)}")
    return x


# -- state documents -------------------------------------------------------------------


def state_to_json(state: HierarchyState) -> dict:
    window = state.window
    return {
        "version": STATE_VERSION,
        "mode": state.mode,
        "a": [scalars.format_scalar(x) for x in state.data.a],
        "window": {"n_min": window.n_min, "n_max": window.n_max, "halo": window.halo},
        "step": scalars.format_scalar(state.step),
        "u": [_value_to_json(v) for v in state.U.values],
        "dressing": [[_value_to_json(v) for v in w.values] for w in state.dressing.ws],
    }


def state_from_json(doc) -> HierarchyState:
    """Check what arrives from outside; derive m, the sites, depth and tails.

    The state's own door (``HierarchyState``) checks the depth against the
    halo, and a lattice's door the step (positive and finite); each refusal,
    like every other, is a ``SchemaError``.
    """
    try:
        if not isinstance(doc, dict) or doc.get("version") != STATE_VERSION:
            raise ValueError(f"this program reads state version {STATE_VERSION} only")
        _keys(doc, _STATE_KEYS, "a state document")
        mode = scalars.check_mode(doc["mode"])
        a = tuple(_scalar(x, mode) for x in _list(doc["a"], "'a'"))
        data = AknsData(len(a), a, mode)
        win = _keys(doc["window"], _WINDOW_KEYS, "'window'")
        problems = []
        bounds = [_integer(win[k], f"window {k!r}", problems) for k in _WINDOW_KEYS]
        if problems:
            raise ValueError("; ".join(problems))
        window = Window(*bounds)
        step = _scalar(doc["step"], mode)
        step = None if step == 1 else step  # None: the unit step every builder uses
        lo, hi = window.stored_lo, window.stored_hi

        def lattice(values, what: str) -> LatticeFn:
            vals = _list(values, f"{what} (one value per stored site {lo}..{hi})",
                         hi - lo + 1)
            return LatticeFn.from_values(
                lo, [_value_from_json(v, data.m, mode) for v in vals], step=step)

        u = lattice(doc["u"], "'u'")
        ws = tuple(lattice(w, f"dressing order {k}")
                   for k, w in enumerate(_list(doc["dressing"], "'dressing'"), start=1))
        return HierarchyState(data, u, window, Dressing(len(ws), ws, data.conventions()))
    except (TypeError, ValueError, ZeroDivisionError, OverflowError, AknsdError) as exc:
        raise SchemaError(f"invalid state document: {exc}") from None


def save_state(state: HierarchyState, path: str) -> None:
    export_json(state_to_json(state), path)


def load_state(path: str) -> HierarchyState:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"state file is not valid JSON: {exc}") from None
    return state_from_json(doc)


# -- tabular export -------------------------------------------------------------------

TRAJECTORY_COLUMNS = ("step", "time", "n", "i", "j", "value")


def trajectory_rows(trajectory):
    """Deterministic row order: by step, then site, then entry indices."""
    for step, (t, u) in enumerate(trajectory.snapshots):
        time = scalars.format_scalar(t)
        for n, v in zip(u.sites(), u.values):
            for i, row in enumerate(v.rows, start=1):
                for j, x in enumerate(row, start=1):
                    yield step, time, n, i, j, scalars.format_scalar(x)


def export_trajectory_csv(trajectory, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        writer.writerows(trajectory_rows(trajectory))


def export_trajectory_json(trajectory, path: str) -> None:
    doc = {
        "flow": list(trajectory.flow),
        "h": trajectory.h,
        "steps": trajectory.steps,
        "snapshots": [
            {"time": scalars.format_scalar(t), "u": lattice_to_json(u)}
            for t, u in trajectory.snapshots
        ],
    }
    export_json(doc, path)


def read_trajectory_csv(path: str):
    """Rows back as tuples of strings (header checked)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRAJECTORY_COLUMNS:
            raise SchemaError(f"unexpected trajectory header {header!r}")
        return [tuple(row) for row in reader]


def export_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
