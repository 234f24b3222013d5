"""Experiment configuration: parsing, exhaustive validation, instance building.

Configurations are JSON documents.  Validation collects every violation and
reports them together; unknown keys are rejected so typos cannot silently
fall back to defaults.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import scalars
from .errors import ConfigError
from .hierarchy import AknsData, HierarchyState, make_potential
from .instances import (
    impulse_potential,
    random_potential,
    vacuum_potential,
)
from .lattice import Window
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
    depth: int = 8
    mode: str = scalars.RATIONAL
    flows: tuple = ((1, 1),)
    h: float = 0.01
    steps: int = 10
    eps_list: tuple = (0.5, 0.25, 0.125, 0.0625)
    tol: float = 1e-9
    seed: int = 0
    potential: dict = field(default_factory=lambda: {"type": "vacuum"})
    out: str | None = None

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

    def build_potential(self, mode: str | None = None, rng: random.Random | None = None):
        mode = mode or self.mode
        pot = self.potential
        kind = pot.get("type", "vacuum")
        if kind == "vacuum":
            return vacuum_potential(self.window, self.m, mode)
        if kind == "impulse":
            value = pot.get("value", 1)
            if isinstance(value, str):
                value = Fraction(value)
            return impulse_potential(
                self.window, self.m, mode, site=pot.get("site", 0),
                i=pot.get("i", 1), j=pot.get("j", 2),
                value=scalars.as_scalar(value if mode == scalars.RATIONAL
                                        else float(value), mode),
            )
        if kind == "random":
            rng = rng or random.Random(self.seed)
            u = random_potential(self.window, self.data(mode), rng,
                                 span=pot.get("span", 4),
                                 density=pot.get("density", 0.6),
                                 triangular=pot.get("triangular", False))
            amp = pot.get("amplitude")
            if amp is not None:
                amp = scalars.as_scalar(Fraction(amp) if mode == scalars.RATIONAL
                                        and isinstance(amp, str) else amp, mode)
                u = u.map(lambda v: v.scale(amp))
            return u
        # explicit
        entries = {}
        for key, rows in pot.get("sites", {}).items():
            mat_rows = [
                [scalars.parse_scalar(str(x), mode) for x in row] for row in rows
            ]
            entries[int(key)] = SmallMatrix.from_rows(mat_rows, mode)
        return make_potential(self.window, entries, self.m, mode)


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
        kind = pot.get("type", "vacuum")
        if kind not in ("vacuum", "impulse", "random", "explicit"):
            problems.append(f"unknown potential type {kind!r}")
        if kind == "impulse":
            i, j = pot.get("i", 1), pot.get("j", 2)
            if i == j:
                problems.append("impulse potential entry must be off-diagonal")
        if kind == "explicit":
            for key, rows in pot.get("sites", {}).items():
                try:
                    site_rows = [[Fraction(str(x)) for x in row] for row in rows]
                except (ValueError, ZeroDivisionError):
                    problems.append(f"bad matrix at site {key}")
                    continue
                if len(site_rows) != m or any(len(r) != m for r in site_rows):
                    problems.append(f"matrix at site {key} is not {m}x{m}")
                    continue
                for d in range(m):
                    if site_rows[d][d] != 0:
                        problems.append(
                            f"potential at site {key} has nonzero diagonal "
                            f"entry ({d + 1},{d + 1})"
                        )

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
