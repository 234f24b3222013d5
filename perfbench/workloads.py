"""The benchmark's three workloads: inputs from the seed, items, their checks.

Every item is a closed-loop call sequence into the public ``aknsd`` API,
made by one client on one thread.  Each workload has one fixed batch of
items.  Random inputs are seeded by their own name
(``random.Random("exact_dressing/m3/5")``), so every input has a reference
output recorded on the commit that defined the benchmark (``reference.json``,
written by ``record_reference.py``).  The run seed sets the order of the items
in each repetition of the batch; it does not change the work, so runs with
different seeds stay comparable.

Functions are looked up through their module at call time
(``hierarchy.resolvent_dressed(...)``) so that the traced run's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from aknsd import cli, config, dynamics, hierarchy, instances, persist, scalars
from aknsd.errors import ConsistencyError

DESK_CONFIGS = ("desk_m2", "desk_m3")
VERIFY_SUITES = ("algebra", "resolvent", "bilinear", "dynamics", "limit")
# suites whose checks run in the config's (rational) mode; the others are float
EXACT_SUITES = ("algebra", "resolvent", "bilinear")
FLOAT_TOL = 1e-12


@dataclass
class Outcome:
    """Result of one item.

    ``failed`` counts toward the failure ratio.  ``correct`` is false only
    when an output differs from the reference or breaks an exact identity; a
    refusal that the reference also records is a failure with correct output.
    """

    failed: bool = False
    correct: bool = True
    problems: list = field(default_factory=list)
    leak_warnings: int = 0

    def wrong(self, problem: str) -> None:
        self.failed = True
        self.correct = False
        self.problems.append(problem)


def load_configs(root: Path) -> dict:
    configs = {}
    for name in DESK_CONFIGS:
        text = (root / "configs" / f"{name}.json").read_text(encoding="utf-8")
        configs[name] = config.parse_config(text)
    return configs


def leak_messages(caught) -> int:
    return sum(1 for w in caught if str(w.message).startswith("boundary leakage"))


def seeded_order(items: list, workload: str, seed: int, b: int) -> list:
    """The items of repetition ``b`` of the batch, in the seed's order."""
    return random.Random(f"{workload}/order/{seed}/{b}").sample(items, len(items))


# -- exact_dressing ----------------------------------------------------------------


def dressing_digest(state) -> str:
    """sha256 over every dressing coefficient's canonical ``p/q`` string."""
    h = hashlib.sha256()
    for k, w in enumerate(state.dressing.ws, start=1):
        for n, mat in zip(w.sites(), w.values):
            for i, row in enumerate(mat.rows, start=1):
                for j, x in enumerate(row, start=1):
                    h.update(f"{k} {n} {i} {j} {scalars.format_scalar(x)}\n".encode())
    return h.hexdigest()


def check_exact_state(state, expected_digest: str, workdir: str) -> list:
    """The exact per-item checks; returns the list of violations."""
    problems = []
    residual = hierarchy.dressing_residual(state)
    if residual != 0:
        problems.append(f"dressing residual {residual}")
    for alpha in range(1, state.data.m + 1):
        dressed = hierarchy.resolvent_dressed(state, alpha)
        direct = hierarchy.resolvent_direct(state.data, state.U, alpha, state.depth)
        if dressed.series.sites() != direct.series.sites():
            problems.append(f"resolvent ranges differ for alpha {alpha}")
            continue
        if any(dressed.series.at(n).get(d) != direct.series.at(n).get(d)
               for n in dressed.series.sites()
               for d in range(-state.depth, 1)):
            problems.append(f"dressed and direct resolvents differ for alpha {alpha}")
    first = os.path.join(workdir, "state_a.json")
    second = os.path.join(workdir, "state_b.json")
    persist.save_state(state, first)
    loaded = persist.load_state(first)
    residual = hierarchy.dressing_residual(loaded)
    if residual != 0:
        problems.append(f"dressing residual after load {residual}")
    persist.save_state(loaded, second)
    with open(first, "rb") as fa, open(second, "rb") as fb:
        if fa.read() != fb.read():
            problems.append("second save differs from the first")
    digest = dressing_digest(state)
    if digest != expected_digest:
        problems.append(f"dressing digest {digest[:12]} != reference {expected_digest[:12]}")
    return problems


class ExactDressing:
    """Rational dressing, residual, both resolvents and a state round trip."""

    name = "exact_dressing"
    pairs = 4  # (m=2, m=3) item pairs in the batch

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.configs = load_configs(root)
        self.reference = None

    @staticmethod
    def potential(cfg, m: int, j: int):
        rng = random.Random(f"exact_dressing/m{m}/{j}")
        return instances.random_potential(cfg.window, cfg.data(), rng)

    def batch(self, b: int) -> list:
        items = []
        for j in seeded_order(list(range(self.pairs)), self.name, self.seed, b):
            for name in DESK_CONFIGS:
                cfg = self.configs[name]
                items.append({"config": name, "m": cfg.m, "index": j,
                              "u": self.potential(cfg, cfg.m, j)})
        return items

    @staticmethod
    def key(item) -> str:
        return f"m{item['m']}/{item['index']}"

    def run_item(self, item, workdir: str) -> Outcome:
        cfg = self.configs[item["config"]]
        out = Outcome()
        state = hierarchy.HierarchyState.solve(cfg.data(), item["u"], cfg.window,
                                               cfg.depth)
        for problem in check_exact_state(state, self.reference[self.key(item)],
                                         workdir):
            out.wrong(problem)
        return out


# -- float_evolution ---------------------------------------------------------------


def lattice_values(u) -> dict:
    return {"lo": u.lo, "values": [[list(r) for r in v.rows] for v in u.values]}


def max_abs_diff(u, ref: dict) -> float:
    if u.lo != ref["lo"] or len(u.values) != len(ref["values"]):
        return float("inf")
    return max(abs(x - y)
               for v, rv in zip(u.values, ref["values"])
               for row, rrow in zip(v.rows, rv)
               for x, y in zip(row, rrow))


def refused_step(exc: ConsistencyError):
    """The RK4 step named in a hard-leakage refusal, else None."""
    match = re.search(r"at step (\d+)", str(exc))
    return int(match.group(1)) if match else None


class FloatEvolution:
    """``aknsd evolve`` on seeded random potentials, every configured flow."""

    name = "float_evolution"

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.configs = load_configs(root)
        n_flows = max(len(c.flows) for c in self.configs.values())
        self.combos = [(name, tuple(self.configs[name].flows[i]))
                       for i in range(n_flows) for name in DESK_CONFIGS
                       if i < len(self.configs[name].flows)]
        self.reference = None

    @staticmethod
    def potential(cfg, name: str, flow: tuple):
        """Drawn as the dynamics verification suite draws its potential."""
        rng = random.Random(f"float_evolution/{name}/{flow[0]},{flow[1]}")
        u = instances.random_potential(cfg.window, cfg.data(scalars.FLOAT), rng,
                                       span=3)
        return u.map(lambda v: v.scale(0.1))

    def batch(self, b: int) -> list:
        return [{"config": name, "flow": flow,
                 "u": self.potential(self.configs[name], name, flow)}
                for name, flow in seeded_order(self.combos, self.name, self.seed, b)]

    @staticmethod
    def key(item) -> str:
        k, alpha = item["flow"]
        return f"{item['config']}/{k},{alpha}"

    def evolve(self, item):
        cfg = self.configs[item["config"]]
        data = cfg.data(scalars.FLOAT)
        state = hierarchy.HierarchyState.solve(data, item["u"], cfg.window,
                                               cfg.depth, validate=False)
        return dynamics.rk4_evolve(state, dynamics.FlowIndex(*item["flow"]),
                                   cfg.h, cfg.steps)

    def run_item(self, item, workdir: str) -> Outcome:
        ref = self.reference[self.key(item)]
        out = Outcome()
        try:
            traj = self.evolve(item)
        except ConsistencyError as exc:
            step = refused_step(exc)
            out.failed = True
            out.problems.append(f"refused at step {step}: {exc}")
            if "refused_at_step" not in ref or ref["refused_at_step"] != step:
                out.wrong(f"reference: {ref}")
            return out
        if "refused_at_step" in ref:
            out.wrong(f"completed, but the reference refused at step "
                      f"{ref['refused_at_step']}")
        path = os.path.join(workdir, "trajectory.csv")
        persist.export_trajectory_csv(traj, path)
        rows = persist.read_trajectory_csv(path)
        final = traj.final
        m = final.values[0].m
        n_sites = final.hi - final.lo + 1
        if len(rows) != len(traj.snapshots) * n_sites * m * m:
            out.wrong(f"trajectory CSV has {len(rows)} rows")
        else:
            tail = rows[-n_sites * m * m:]
            back = [float(r[5]) for r in tail]
            want = [x for v in final.values for row in v.rows for x in row]
            if back != want:
                out.wrong("trajectory CSV does not read back the final potential")
        if "final" in ref:
            diff = max_abs_diff(final, ref["final"])
            if not diff <= FLOAT_TOL:
                out.wrong(f"final potential differs from the reference by {diff}")
        return out


# -- verify_cli ---------------------------------------------------------------------


class VerifyCli:
    """``aknsd verify`` for every suite on both desk configs."""

    name = "verify_cli"

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.configs = load_configs(root)  # set-up parses the configs, as the CLI will
        self.items = [(name, suite) for name in DESK_CONFIGS for suite in VERIFY_SUITES]
        self.reference = None

    def batch(self, b: int) -> list:
        return [{"config": name, "suite": suite}
                for name, suite in seeded_order(self.items, self.name, self.seed, b)]

    @staticmethod
    def key(item) -> str:
        return f"{item['config']}/{item['suite']}"

    def report(self, item, workdir: str):
        path = os.path.join(workdir, "report.json")
        argv = ["verify", "--config", str(self.root / "configs" / f"{item['config']}.json"),
                "--suite", item["suite"], "--out", path]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        with open(path, encoding="utf-8") as fh:
            return code, json.load(fh)

    def run_item(self, item, workdir: str) -> Outcome:
        ref = self.reference[self.key(item)]
        out = Outcome()
        code, doc = self.report(item, workdir)
        if code != ref["exit"]:
            out.wrong(f"exit code {code}, expected {ref['exit']}")
        verdicts = [[c["check"], c["pass"]] for c in doc["checks"]]
        if verdicts != ref["checks"]:
            out.wrong(f"verdicts {verdicts} != expected {ref['checks']}")
        if item["suite"] in EXACT_SUITES and doc["mode"] == scalars.RATIONAL:
            for c in doc["checks"]:
                # an exact residual is rendered "0"; an untouched int 0 passes
                # through the float formatter as "0.0", which is still exact
                if c["require"] == "le" and c["residual"] not in ("0", "0.0"):
                    out.wrong(f"{c['check']} residual {c['residual']} is not 0")
        return out


WORKLOADS = {cls.name: cls for cls in (ExactDressing, FloatEvolution, VerifyCli)}


def run_with_leak_count(workload, item, workdir: str) -> Outcome:
    """Run one item, counting leakage warnings; unexpected errors are wrong."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = workload.run_item(item, workdir)
        except Exception:  # a benchmark item must not stop the run
            out = Outcome()
            out.wrong(traceback.format_exc())
    out.leak_warnings = leak_messages(caught)
    return out
