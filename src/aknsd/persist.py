"""Persistence: versioned state documents, tabular export.

State round-trips are bit-exact in rational mode: every scalar serialises to
a "p/q" string in lowest terms and floats to their shortest round-tripping
decimal form.  A state document stores only what the state cannot derive:
the dressing depth is the number of stored orders.
"""

from __future__ import annotations

import csv
import json

from . import scalars
from .errors import AknsdError, SchemaError
from .hierarchy import AknsData, Dressing, HierarchyState
from .lattice import Window, lattice_from_json, lattice_to_json

STATE_VERSION = 2
_STATE_KEYS = {"version", "mode", "a", "window", "u", "dressing", "conventions"}


def state_to_json(state: HierarchyState) -> dict:
    return {
        "version": STATE_VERSION,
        "mode": state.mode,
        "a": [scalars.format_scalar(x) for x in state.data.a],
        "window": {"n_min": state.window.n_min, "n_max": state.window.n_max,
                   "halo": state.window.halo},
        "u": lattice_to_json(state.U),
        "dressing": [lattice_to_json(w) for w in state.dressing.ws],
        "conventions": state.dressing.conventions,
    }


def state_from_json(doc: dict) -> HierarchyState:
    if not isinstance(doc, dict):
        raise SchemaError("state document must be a JSON object")
    version = doc.get("version")
    if version != STATE_VERSION:
        raise SchemaError(f"unsupported state version {version!r}")
    missing = _STATE_KEYS - set(doc)
    if missing:
        raise SchemaError(f"state document missing keys: {sorted(missing)}")
    try:
        mode = doc["mode"]
        a = tuple(scalars.parse_scalar(x, mode) for x in doc["a"])
        data = AknsData(len(a), a, mode)
        window = Window(**doc["window"])
        u = lattice_from_json(doc["u"])
        ws = tuple(lattice_from_json(w) for w in doc["dressing"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError,
            AknsdError) as exc:
        raise SchemaError(f"malformed state document: {exc!r}") from None
    if doc["conventions"] != data.conventions():
        raise SchemaError(f"conventions {doc['conventions']!r} are not the solver's "
                          f"for a = {doc['a']}")
    _check_lattices(data, u, ws)
    if not 1 <= len(ws) <= window.halo:
        raise SchemaError(f"dressing depth {len(ws)} outside 1..{window.halo} "
                          f"(the window halo)")
    return HierarchyState(data, u, window, Dressing(len(ws), ws, doc["conventions"]))


def _check_lattices(data: AknsData, u, ws) -> None:
    """Every order on u's sites, every value an m x m matrix in the state's mode."""
    for name, f in [("u", u)] + [(f"dressing order {k}", w)
                                 for k, w in enumerate(ws, start=1)]:
        if (f.lo, f.hi) != (u.lo, u.hi):
            raise SchemaError(f"{name} spans sites [{f.lo}, {f.hi}], "
                              f"u spans [{u.lo}, {u.hi}]")
        for v in (f.left_tail, f.right_tail, *f.values):
            if v.m != data.m:
                raise SchemaError(f"{name} holds a value that is not a "
                                  f"{data.m}x{data.m} matrix")
            if f.mode != data.mode or v.mode != data.mode:
                raise SchemaError(f"{name} is not in {data.mode} mode")


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
        for n in u.sites():
            v = u.at(n)
            for i in range(1, v.m + 1):
                for j in range(1, v.m + 1):
                    yield (step, scalars.format_scalar(t), n, i, j,
                           scalars.format_scalar(v.get(i, j)))


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
        "integrator": trajectory.integrator,
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
