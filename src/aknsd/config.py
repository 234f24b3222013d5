"""Experiment configuration: parsing, exhaustive validation, instance building.

Configurations are JSON documents.  Validation collects every violation and
reports them together; unknown keys are rejected so typos cannot silently
fall back to defaults.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from . import scalars
from .errors import ConfigError, InstanceError
from .hierarchy import AknsData, HierarchyState, make_potential
from .instances import (
    impulse_potential,
    random_potential,
    vacuum_potential,
)
from .lattice import LatticeFn, Window
from .matrices import SmallMatrix

_TOP_KEYS = {
    "m", "a", "window", "depth", "mode", "flows", "h", "steps",
    "eps_list", "tol", "seed", "potential", "out",
}
_WINDOW_KEYS = {"n_min", "n_max", "halo"}
_POTENTIAL_KEYS = {"type", "site", "i", "j", "value", "span", "density",
                   "amplitude", "triangular", "sites"}


@dataclass
class ExperimentConfig:
    m: int
    a: tuple
    window: Window
    depth: int
    mode: str
    flows: tuple
    h: float
    steps: int
    eps_list: tuple
    tol: float
    seed: int
    potential: dict
    out: str | None

    @property
    def first_flow(self) -> tuple:
        """The (k, alpha) that single-flow runs use: the first listed, else (1, 1)."""
        return self.flows[0] if self.flows else (1, 1)

    def tolerance(self, mode: str | None = None):
        """Check threshold: exact zero in rational mode, ``tol`` in float mode."""
        return 0 if (mode or self.mode) == scalars.RATIONAL else self.tol

    def data(self, mode: str | None = None) -> AknsData:
        mode = mode or self.mode
        return AknsData(self.m, tuple(scalars.as_scalar(x, mode) for x in self.a),
                        mode)

    def solve(self, potential=None, mode: str | None = None) -> HierarchyState:
        """Dressing of ``potential`` (default: the configured one) at the config's depth."""
        u = potential if potential is not None else self.build_potential(mode)
        return HierarchyState.solve(self.data(mode), u, self.window, self.depth,
                                    validate=False)

    def build_potential(self, mode: str | None = None) -> LatticeFn:
        """The configured potential in ``mode`` (default: the config's)."""
        return _potential(self.potential, self.window, self.data(mode), self.seed)


def _potential(pot: dict, window: Window, data: AknsData, seed: int) -> LatticeFn:
    """The potential that a config's ``potential`` object describes.

    Raises ConfigError naming every bad field: a value of the wrong type, a
    site outside the stored range, an index outside 1..m, a nonzero diagonal
    entry, or a rational that does not parse.  Rationals are read as exact
    fractions in both modes, then converted, so both modes accept the same
    text.
    """
    m, mode = data.m, data.mode
    stored = range(window.stored_lo, window.stored_hi + 1)
    problems = []

    def rational(x, what):
        try:
            q = Fraction(str(x))
            return scalars.as_scalar(q if mode == scalars.RATIONAL else float(q), mode)
        except (ValueError, ZeroDivisionError, OverflowError):
            problems.append(f"{what} must be a rational like \"1\" or \"-3/2\", "
                            f"not {x!r}")
            return scalars.zero(mode)

    def check():
        if problems:
            raise ConfigError("; ".join(problems))

    def integer(key, default, allowed: range):
        x = pot.get(key, default)
        if isinstance(x, bool) or not isinstance(x, int) or x not in allowed:
            problems.append(f"potential {key!r} must be an integer in "
                            f"{allowed.start}..{allowed.stop - 1}, not {x!r}")
            return None
        return x

    kind = pot.get("type", "vacuum")
    if kind == "vacuum":
        return vacuum_potential(window, m, mode)
    if kind == "impulse":
        site = integer("site", 0, stored)
        i = integer("i", 1, range(1, m + 1))
        j = integer("j", 2, range(1, m + 1))
        if i is not None and i == j:
            problems.append("impulse potential entry must be off-diagonal")
        value = rational(pot.get("value", 1), "potential 'value'")
        check()
        return impulse_potential(window, m, mode, site=site, i=i, j=j, value=value)
    if kind == "random":
        # sites -span..span must lie in the stored range
        span = integer("span", 4, range(0, min(-stored.start, stored.stop - 1) + 1))
        density = pot.get("density", 0.6)
        if isinstance(density, bool) or not isinstance(density, (int, float)) \
                or not 0 <= density <= 1:
            problems.append(f"potential 'density' must be a number in [0, 1], "
                            f"not {density!r}")
        triangular = pot.get("triangular", False)
        if not isinstance(triangular, bool):
            problems.append(f"potential 'triangular' must be true or false, "
                            f"not {triangular!r}")
        amp = pot.get("amplitude")
        if amp is not None:
            amp = rational(amp, "potential 'amplitude'")
        check()
        u = random_potential(window, data, random.Random(seed), span=span,
                             density=density, triangular=triangular)
        return u if amp is None else u.map(lambda v: v.scale(amp))
    if kind == "explicit":
        sites = pot.get("sites", {})
        if not isinstance(sites, dict):
            problems.append("potential 'sites' must map site numbers to matrices")
            sites = {}
        entries = {}
        for key, rows in sites.items():
            try:
                n = int(key)
            except ValueError:
                problems.append(f"potential site {key!r} is not an integer")
                continue
            if n not in stored:
                problems.append(f"potential site {key} outside the stored sites "
                                f"{stored.start}..{stored.stop - 1}")
                continue
            if not isinstance(rows, list) or len(rows) != m or \
                    any(not isinstance(r, list) or len(r) != m for r in rows):
                problems.append(f"matrix at site {key} is not {m}x{m}")
                continue
            entries[n] = SmallMatrix.from_rows(
                [[rational(x, f"entry at site {key}") for x in row] for row in rows],
                mode)
            problems.extend(f"potential at site {key} has nonzero diagonal entry ({d},{d})"
                            for d in range(1, m + 1) if entries[n].get(d, d) != 0)
        check()
        return make_potential(window, entries, m, mode)
    raise ConfigError(f"unknown potential type {kind!r}")


def flow_problems(k: int, alpha: int, m: int, depth: int) -> list:
    """Violations of the flow rule 0 <= k <= depth - 2, 1 <= alpha <= m."""
    problems = []
    if k < 0:
        problems.append(f"flow order {k} must be >= 0")
    elif k > depth - 2:
        problems.append(f"flow order {k} needs depth >= {k + 2}")
    if not (1 <= alpha <= m):
        problems.append(f"flow index alpha={alpha} outside 1..{m}")
    return problems


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")

    problems = []

    unknown = sorted(set(doc) - _TOP_KEYS)
    for key in unknown:
        problems.append(f"unknown key {key!r}")

    m = doc.get("m")
    if not isinstance(m, int) or not (2 <= m <= 8):
        problems.append("'m' must be an integer in 2..8")
        m = 2

    a_raw = doc.get("a")
    a = ()
    if not isinstance(a_raw, list) or len(a_raw) != m:
        problems.append("'a' must list exactly m rational strings")
    else:
        try:
            a = tuple(Fraction(str(x)) for x in a_raw)
        except (ValueError, ZeroDivisionError):
            problems.append("'a' entries must be rationals like \"1\" or \"-3/2\"")
        if a:
            if any(x == 0 for x in a):
                problems.append("'a' entries must be nonzero")
            if len(set(a)) != len(a):
                problems.append("'a' entries must be pairwise distinct")

    win_doc = doc.get("window", {"n_min": -8, "n_max": 8, "halo": 10})
    window = None
    if not isinstance(win_doc, dict) or set(win_doc) - _WINDOW_KEYS:
        problems.append("'window' must be an object with n_min, n_max, halo")
    else:
        try:
            window = Window(int(win_doc.get("n_min", -8)),
                            int(win_doc.get("n_max", 8)),
                            int(win_doc.get("halo", 10)))
        except Exception as exc:
            problems.append(f"bad window: {exc}")
    window_ok = window is not None
    if window is None:
        window = Window(-8, 8, 10)

    depth = doc.get("depth", 8)
    if not isinstance(depth, int) or depth < 1:
        problems.append("'depth' must be a positive integer")
        depth = 1
    elif depth > window.halo:
        problems.append(f"'depth' {depth} exceeds the window halo {window.halo}")

    mode = doc.get("mode", scalars.RATIONAL)
    if mode not in scalars.MODES:
        problems.append(f"'mode' must be one of {scalars.MODES}")
        mode = scalars.RATIONAL

    flows_raw = doc.get("flows", [[1, 1]])
    flows = []
    if not isinstance(flows_raw, list):
        problems.append("'flows' must be a list of [k, alpha] pairs")
    else:
        for item in flows_raw:
            if (not isinstance(item, list) or len(item) != 2
                    or not all(isinstance(x, int) for x in item)):
                problems.append(f"bad flow entry {item!r}")
                continue
            problems.extend(flow_problems(*item, m, depth))
            flows.append(tuple(item))

    h = doc.get("h", 0.01)
    try:
        h = float(h)
        if h <= 0:
            problems.append("'h' must be positive")
    except (TypeError, ValueError):
        problems.append("'h' must be a number")
        h = 0.01

    steps = doc.get("steps", 10)
    if not isinstance(steps, int) or steps < 1:
        problems.append("'steps' must be a positive integer")
        steps = 1

    eps_raw = doc.get("eps_list", ["1/2", "1/4", "1/8", "1/16"])
    eps_list = []
    if not isinstance(eps_raw, list) or not eps_raw:
        problems.append("'eps_list' must be a non-empty list")
    else:
        try:
            eps_list = [float(Fraction(str(x))) for x in eps_raw]
        except (ValueError, ZeroDivisionError):
            problems.append("'eps_list' entries must be rationals")
        if eps_list and any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            problems.append("'eps_list' must be strictly decreasing")

    tol = doc.get("tol", 1e-9)
    try:
        tol = float(tol)
        if not tol >= 0:
            problems.append("'tol' must be non-negative")
    except (TypeError, ValueError):
        problems.append("'tol' must be a number")
        tol = 1e-9

    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        problems.append("'seed' must be an integer")
        seed = 0

    pot = doc.get("potential", {"type": "vacuum"})
    if not isinstance(pot, dict):
        problems.append("'potential' must be an object")
        pot = {"type": "vacuum"}
    else:
        extra = sorted(set(pot) - _POTENTIAL_KEYS)
        for key in extra:
            problems.append(f"unknown potential key {key!r}")
        if window_ok:  # building the potential in both modes checks its fields
            try:
                for pmode in scalars.MODES:
                    _potential(pot, window, AknsData(m, a, pmode), seed)
            except InstanceError:
                pass  # 'm' or 'a' is invalid, and reported above
            except ConfigError as exc:
                problems.append(str(exc))

    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        problems.append("'out' must be a string path")
        out = None

    if problems:
        raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(problems))

    return ExperimentConfig(m=m, a=a, window=window, depth=depth, mode=mode,
                            flows=tuple(flows), h=h, steps=steps,
                            eps_list=tuple(eps_list), tol=tol, seed=seed,
                            potential=pot, out=out)
