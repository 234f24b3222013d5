"""Experiment configuration: parsing, exhaustive validation, instance building.

Configurations are JSON documents.  Validation collects every violation and
reports them together; unknown keys are rejected so typos cannot silently
fall back to defaults.
"""

from __future__ import annotations

import json
import math
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
_WINDOW_KEYS = ("n_min", "n_max", "halo")  # in the order of Window's fields
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

    def solve(self, potential=None) -> HierarchyState:
        """Dressing of ``potential`` (default: the configured one) at the config's depth."""
        u = potential if potential is not None else self.build_potential()
        return HierarchyState.solve(self.data(), u, self.window, self.depth,
                                    validate=False)

    def build_potential(self, mode: str | None = None) -> LatticeFn:
        """The configured potential in ``mode`` (default: the config's)."""
        return _potential(self.potential, self.window, self.data(mode), self.seed)


def _integer(x, what: str, problems: list, lo: int | None = None,
             hi: int | None = None) -> int | None:
    """A JSON integer (not a bool) in [lo, hi], an absent end being open.

    Each reader returns None after noting a problem, so that a caller can
    list every violation before it raises.
    """
    if isinstance(x, int) and not isinstance(x, bool) \
            and (lo is None or x >= lo) and (hi is None or x <= hi):
        return x
    span = f" in {lo}..{hi}" if hi is not None else f" >= {lo}" if lo is not None else ""
    problems.append(f"{what} must be an integer{span}, not {x!r}")
    return None


def _rational(x, what: str, problems: list) -> Fraction | None:
    """A text or number read exactly as Fraction(str(x)), with a finite float value."""
    try:
        q = Fraction(str(x))
        float(q)
        return q
    except (ValueError, ZeroDivisionError, OverflowError):
        problems.append(f"{what} must be a rational like \"1\" or \"-3/2\" "
                        f"within float range, not {x!r}")
        return None


def _number(x, what: str, problems: list, rule, rule_text: str) -> float | None:
    """A finite JSON number (not a bool or a text) that passes ``rule``, as a float."""
    value = math.nan
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            value = float(x)
        except OverflowError:  # an integer beyond float range
            pass
    if math.isfinite(value) and rule(value):
        return value
    problems.append(f"{what} must be {rule_text} (a finite number), not {x!r}")
    return None


def _potential(pot: dict, window: Window, data: AknsData, seed: int) -> LatticeFn:
    """The potential that a config's ``potential`` object describes.

    Raises ConfigError naming every bad field: a value of the wrong type, a
    site outside the stored range, an index outside 1..m, a nonzero diagonal
    entry, or a rational that does not parse.  Rationals are read as exact
    fractions in both modes, then converted, so both modes accept the same
    text.
    """
    m, mode = data.m, data.mode
    stored_lo, stored_hi = window.stored_lo, window.stored_hi
    problems = []

    def check():
        if problems:
            raise ConfigError("; ".join(problems))

    kind = pot.get("type", "vacuum")
    if kind == "vacuum":
        return vacuum_potential(window, m, mode)
    if kind == "impulse":
        site = _integer(pot.get("site", 0), "potential 'site'", problems,
                        stored_lo, stored_hi)
        i = _integer(pot.get("i", 1), "potential 'i'", problems, 1, m)
        j = _integer(pot.get("j", 2), "potential 'j'", problems, 1, m)
        if i is not None and i == j:
            problems.append("impulse potential entry must be off-diagonal")
        value = _rational(pot.get("value", 1), "potential 'value'", problems)
        check()
        return impulse_potential(window, m, mode, site=site, i=i, j=j, value=value)
    if kind == "random":
        # sites -span..span must lie in the stored range
        span = _integer(pot.get("span", 4), "potential 'span'", problems,
                        0, min(-stored_lo, stored_hi))
        density = _number(pot.get("density", 0.6), "potential 'density'", problems,
                          lambda v: 0 <= v <= 1, "in [0, 1]")
        triangular = pot.get("triangular", False)
        if not isinstance(triangular, bool):
            problems.append(f"potential 'triangular' must be true or false, "
                            f"not {triangular!r}")
        amp = pot.get("amplitude")
        if amp is not None:
            amp = _rational(amp, "potential 'amplitude'", problems)
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
                n = None
            if n is None or str(n) != key:  # int() also reads " 1", "+1", "1_0"
                problems.append(f"potential site {key!r} is not an integer")
                continue
            if not stored_lo <= n <= stored_hi:
                problems.append(f"potential site {key} outside the stored sites "
                                f"{stored_lo}..{stored_hi}")
                continue
            if not isinstance(rows, list) or len(rows) != m or \
                    any(not isinstance(r, list) or len(r) != m for r in rows):
                problems.append(f"matrix at site {key} is not {m}x{m}")
                continue
            qs = [[_rational(x, f"entry at site {key}", problems) for x in row]
                  for row in rows]
            if any(q is None for row in qs for q in row):
                continue
            problems.extend(f"potential at site {key} has nonzero diagonal entry ({d},{d})"
                            for d in range(1, m + 1) if qs[d - 1][d - 1] != 0)
            entries[n] = SmallMatrix.from_rows(qs, mode)
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

    m = _integer(doc.get("m"), "'m'", problems, 2, 8) or 2

    a_raw = doc.get("a")
    a = ()
    if not isinstance(a_raw, list) or len(a_raw) != m:
        problems.append("'a' must list exactly m rational strings")
    else:
        a = tuple(_rational(x, "'a' entry", problems) for x in a_raw)
        if None in a:
            a = ()
        # as floats, so that both modes hold: float(x) == 0 when x underflows
        if any(float(x) == 0 for x in a):
            problems.append("'a' entries must be nonzero")
        if len({float(x) for x in a}) != len(a):
            problems.append("'a' entries must be pairwise distinct")

    win_doc = doc.get("window", {"n_min": -8, "n_max": 8, "halo": 10})
    window = None
    if not isinstance(win_doc, dict) or set(win_doc) - set(_WINDOW_KEYS):
        problems.append("'window' must be an object with n_min, n_max, halo")
    else:
        n_min = _integer(win_doc.get("n_min", -8), "window 'n_min'", problems)
        n_max = _integer(win_doc.get("n_max", 8), "window 'n_max'", problems)
        halo = _integer(win_doc.get("halo", 10), "window 'halo'", problems, 0)
        if n_min is not None and n_max is not None and n_min > n_max:
            problems.append("window needs n_min <= n_max")
        elif None not in (n_min, n_max, halo):
            window = Window(n_min, n_max, halo)
    window_ok = window is not None
    if window is None:
        window = Window(-8, 8, 10)

    depth = _integer(doc.get("depth", 8), "'depth'", problems, 1)
    if depth is None:
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
            if not isinstance(item, list) or len(item) != 2:
                problems.append(f"bad flow entry {item!r}")
                continue
            k, alpha = (_integer(x, f"flow entry {item!r}", problems) for x in item)
            if k is not None and alpha is not None:
                problems.extend(flow_problems(k, alpha, m, depth))
                flows.append((k, alpha))

    h = _number(doc.get("h", 0.01), "'h'", problems, lambda v: v > 0, "positive")
    steps = _integer(doc.get("steps", 10), "'steps'", problems, 1)

    eps_raw = doc.get("eps_list", ["1/2", "1/4", "1/8", "1/16"])
    eps_list = []
    if not isinstance(eps_raw, list) or not eps_raw:
        problems.append("'eps_list' must be a non-empty list")
    else:
        eps_q = [_rational(x, "'eps_list' entry", problems) for x in eps_raw]
        if None not in eps_q:
            eps_list = [float(q) for q in eps_q]
            if any(e <= 0 for e in eps_list):
                problems.append("'eps_list' entries must be positive")
            if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
                problems.append("'eps_list' must be strictly decreasing")

    tol = _number(doc.get("tol", 1e-9), "'tol'", problems, lambda v: v >= 0,
                  "non-negative")
    seed = _integer(doc.get("seed", 0), "'seed'", problems)

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
                    _potential(pot, window, AknsData(m, a, pmode), seed or 0)
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
