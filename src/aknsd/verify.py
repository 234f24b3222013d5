"""Verification-suite orchestration and reporting.

Each suite runs the invariant checks of one module family on configured and
seeded-random instances, producing one record per check: name, parameters,
residual, threshold and verdict.  Every source of randomness flows from the
config seed, and reports carry a hash of the canonical configuration, so a
given (config, seed) pair yields a byte-identical report.

The residual of each identity of a solved state is formed where the
operation it checks lives, on the state's entry columns: ``hierarchy``
(``dressing_residual``, ``commutator_residual``,
``product_algebra_residual``, ``sum_identity_residual``,
``cross_solver_difference``) and ``baker`` (``bilinear_residuals``,
``difference_transfer_residual``, ``adjoint_check``).  This module reads
public names only: nothing of ``columns`` and no private name.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

from . import __version__, scalars
from .baker import (
    adjoint_check,
    bilinear_l_capacity,
    bilinear_residual,
    bilinear_residuals,
    difference_transfer_residual,
)
from .config import ExperimentConfig
from .dynamics import (
    CONSISTENCY_TOL,
    SCAN_MIN_ORDER,
    FlowIndex,
    ScanReport,
    check_scan_steps,
    commutativity_defect,
    continuum_scan,
    gaussian_bump_profile,
    interior_diff_max,
    observed_order,
    rk4_step,
)
from .errors import AknsdError, ConsistencyError
from .hierarchy import (
    Dressing,
    HierarchyState,
    commutator_residual,
    cross_solver_difference,
    dressing_residual,
    flow_field,
    product_algebra_residual,
    sum_identity_residual,
)
from .instances import random_matrix, random_potential
from .lattice import LatticeFn, Window, delta_apply, inner_product, shift_apply, site_max
from .matrices import SmallMatrix
from .series import MatSeries, series_diff_max, series_inverse, series_mul, series_project


@dataclass
class VerificationReport:
    suite: str
    config_hash: str
    seed: int
    mode: str
    checks: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "pass" if all(c["pass"] for c in self.checks) else "fail"

    def add(self, name: str, residual, threshold, parameters=None, *,
            require: str = "le") -> None:
        """Verdict rule: "le" residual <= threshold; "ge" >=; "gt" strictly >."""
        res = float(residual)
        thr = float(threshold)
        if require == "le":
            ok = res <= thr
        elif require == "ge":
            ok = res >= thr
        else:
            ok = res > thr
        self.checks.append({
            "check": name,
            "parameters": parameters or {},
            "residual": scalars.format_scalar(residual),
            "threshold": repr(thr),
            "require": require,
            "pass": bool(ok),
        })

    def to_json(self) -> dict:
        return {
            "version": 1,
            "package_version": __version__,
            "suite": self.suite,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "mode": self.mode,
            "checks": self.checks,
            "verdict": self.verdict,
        }


def config_hash(config: ExperimentConfig) -> str:
    doc = {
        "m": config.m,
        "a": [str(x) for x in config.a],
        "window": [config.window.n_min, config.window.n_max, config.window.halo],
        "depth": config.depth,
        "mode": config.mode,
        "flows": [list(f) for f in config.flows],
        "h": repr(config.h),
        "steps": config.steps,
        "eps_list": [repr(e) for e in config.eps_list],
        "tol": repr(config.tol),
        "seed": config.seed,
        "potential": config.potential,
    }
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def limit_scan(config: ExperimentConfig) -> ScanReport:
    """The desk continuum scan: first-order flows of a Gaussian bump, float mode."""
    return continuum_scan(config.data(scalars.FLOAT), gaussian_bump_profile(config.m),
                          list(config.eps_list), x_span=4.0,
                          halo=min(config.window.halo, 6))


def bilinear_analytic_grid(state: HierarchyState) -> list:
    """Values of the analytic bilinear cells whose capacity is at least 0.

    The cells are difference power 0 and 1 times the words () and
    ((k, alpha),) with k = 0, 1, each checked through l <= min(6, capacity),
    word by word (``bilinear_residuals``).
    """
    grid = {}
    for word in [()] + [((k, alpha),) for k in (0, 1) for alpha in range(1, state.data.m + 1)]:
        cells = [(m_delta, min(6, cap)) for m_delta in (0, 1)
                 if (cap := bilinear_l_capacity(state.depth, word, m_delta)) >= 0]
        if cells:
            grid[word] = cells
    return bilinear_residuals(state, grid)


def _rand_series(rng, m, lo, hi, mode):
    return MatSeries.from_coeffs(
        {d: random_matrix(rng, m, mode) for d in range(lo, hi + 1)},
        m, mode, lo=lo, hi=hi,
    )


def _compact(rng, config: ExperimentConfig, keep) -> LatticeFn:
    """A random test function on the stored range: a value at each site n with |n| <= 3
    strictly inside the range for which ``keep()`` holds, zero elsewhere.

    Values strictly inside the stored range only, so summation by parts leaves
    no boundary term.  The site is tested before ``keep`` and the value draw.
    """
    m, mode = config.m, config.mode
    lo, hi = config.window.stored_lo, config.window.stored_hi
    zero = SmallMatrix.zero(m, mode)
    return LatticeFn.from_values(lo, [random_matrix(rng, m, mode)
                                      if abs(n) <= 3 and lo < n < hi and keep() else zero
                                      for n in range(lo, hi + 1)])


# -- suites ------------------------------------------------------------------------


def _suite_algebra(config: ExperimentConfig, report: VerificationReport) -> None:
    rng = random.Random(config.seed)
    mode = config.mode
    tol = config.tolerance()
    m = config.m

    assoc, dist = [], []
    for _ in range(4):
        a = _rand_series(rng, m, rng.randint(-3, -1), rng.randint(0, 1), mode)
        b = _rand_series(rng, m, rng.randint(-3, -1), rng.randint(0, 1), mode)
        c = _rand_series(rng, m, rng.randint(-3, -1), rng.randint(0, 1), mode)
        assoc.append(series_diff_max(series_mul(series_mul(a, b), c),
                                     series_mul(a, series_mul(b, c))))
        dist.append(series_diff_max(series_mul(a, b + c),
                                    series_mul(a, b) + series_mul(a, c)))
    report.add("series_mul_associative", scalars.max_of(assoc, mode), tol)
    report.add("series_mul_distributive", scalars.max_of(dist, mode), tol)

    ident = MatSeries.constant(SmallMatrix.identity(m, mode))
    defects = []
    for _ in range(3):
        a = ident + _rand_series(rng, m, -2, -1, mode)
        defects.append(series_diff_max(series_mul(a, series_inverse(a, 4)), ident))
    report.add("series_inverse_two_sided", scalars.max_of(defects, mode), tol)

    defects = []
    for _ in range(3):
        a = _rand_series(rng, m, -3, 2, mode)
        back = series_project(a, "plus") + series_project(a, "minus")
        defects.append(series_diff_max(back, a))
    report.add("plus_minus_reassembly", scalars.max_of(defects, mode), tol)

    f, g = (_compact(rng, config, lambda: rng.random() < 0.8) for _ in range(2))
    prod = f.zip_with(g, lambda x, y: x @ y)
    lhs = delta_apply(prod)
    rhs = shift_apply(f, 1).zip_with(delta_apply(g), lambda x, y: x @ y) + \
        delta_apply(f).zip_with(g, lambda x, y: x @ y)
    report.add("leibniz_law", site_max(lhs - rhs), tol)

    pair = abs(inner_product(delta_apply(f, "forward"), g) -
               inner_product(f, delta_apply(g, "dual")))
    report.add("difference_adjointness", pair, tol)


def _suite_resolvent(config: ExperimentConfig, report: VerificationReport) -> None:
    rng = random.Random(config.seed + 1)
    tol = config.tolerance()
    m = config.m

    state = config.solve()
    mode = state.mode
    report.add("dressing_residual_configured", dressing_residual(state), tol)

    for trial in range(3):
        u = random_potential(config.window, config.data(), rng)
        report.add("dressing_residual_random", dressing_residual(config.solve(u)),
                   tol, {"trial": trial})

    comm = [commutator_residual(state, alpha) for alpha in range(1, m + 1)]
    report.add("resolvent_commutator", scalars.max_of(comm, mode), tol)
    report.add("resolvent_product_algebra", product_algebra_residual(state), tol)
    report.add("resolvent_sum_identity", sum_identity_residual(state), tol)

    cross = [cross_solver_difference(state, alpha) for alpha in range(1, m + 1)]
    report.add("cross_solver_equality", scalars.max_of(cross, mode), tol)

    closed = []
    for alpha in range(1, m + 1):
        f = flow_field(state.data, state.U, 0, alpha, tol=tol)
        e = state.data.projector(alpha)
        closed.append(site_max(f.zip_with(state.U,
                                          lambda v, u: v - ((e @ u) - (u @ e)))))
    report.add("flow_k0_closed_form", scalars.max_of(closed, mode), tol)


def _suite_bilinear(config: ExperimentConfig, report: VerificationReport) -> None:
    rng = random.Random(config.seed + 2)
    tol = config.tolerance()
    state = config.solve()
    mode = state.mode
    m = config.m

    values = bilinear_analytic_grid(state)
    report.add("bilinear_analytic_grid", scalars.max_of(values, mode), tol,
               {"cells": len(values)})

    report.add("difference_transfer_is_za_minus_u", difference_transfer_residual(state), tol)

    pairing, kernel = adjoint_check(state, *(_compact(rng, config, lambda: True)
                                             for _ in range(2)))
    report.add("adjoint_pairing", pairing, tol)
    report.add("adjoint_dual_kernel", kernel, tol)

    # the band of the word-() difference expression sets how many residues
    # there are to read; at depth 1 there are none
    l_max = min(2, bilinear_l_capacity(state.depth, (), 1))
    detected = None
    for trial in range(3):
        k_ord = rng.randrange(state.depth)
        site = rng.randint(config.window.n_min, config.window.n_max)
        w = state.dressing.ws[k_ord]
        bump = SmallMatrix.unit(m, 1, 2, mode)
        vals = tuple(v + bump if n == site else v
                     for n, v in zip(w.sites(), w.values))
        ws = list(state.dressing.ws)
        ws[k_ord] = LatticeFn(w.lo, w.hi, vals, w.left_tail, w.right_tail,
                              w.step, w.mode)
        bad = HierarchyState(state.data, state.U, state.window,
                             Dressing(state.depth, tuple(ws),
                                      state.dressing.conventions))
        value = bilinear_residual(bad, l_max, 1, ())
        detected = value if detected is None else min(detected, value)
    report.add("perturbation_detected", detected, 0, {"trials": 3}, require="gt")


def _suite_dynamics(config: ExperimentConfig, report: VerificationReport) -> None:
    # the halo is the depth the configured flows need: a wider stored range
    # sharpens the resonant edge modes of tied |a_i| pairs past the explicit
    # stability limit at desk h
    halo = min(config.depth,
               max(2, max((k for k, _ in config.flows), default=1) + 2))
    window = Window(config.window.n_min, config.window.n_max, halo)
    rng = random.Random(config.seed + 3)
    data = config.data(scalars.FLOAT)
    u = random_potential(window, data, rng, span=3).map(lambda v: v.scale(0.1))

    flow = FlowIndex(*config.first_flow)
    pair = (config.flows + ((0, 1), (0, 2)))[:2]
    try:
        f0 = flow_field(data, u, flow.k, flow.alpha, tol=CONSISTENCY_TOL)

        def euler_defect(h):
            u1 = rk4_step(data, u, h, flow)
            eul = u.zip_with(f0, lambda a, b: a + b.scale(h))
            return interior_diff_max(u1, eul, window)

        d1, d2 = euler_defect(0.02), euler_defect(0.01)
        report.add("rk4_vs_euler_order", observed_order(d1, d2), 1.7, {"d1": d1, "d2": d2},
                   require="ge")

        defect, sw_order = commutativity_defect(
            data, u, window, FlowIndex(*pair[0]), FlowIndex(*pair[1]), config.h,
            min(config.steps, 3))
    except ConsistencyError as exc:
        # a refused run (boundary leakage, a non-finite potential) is one failing
        # check, one refused run against none allowed; the checks before it stay
        report.add("dynamics_run_refused", 1, 0, {"error": str(exc)})
        return
    report.add("commutativity_defect", defect, 1e-6,
               {"flows": [list(pair[0]), list(pair[1])], "h": config.h})
    report.add("commutativity_order", sw_order, 2.0, require="ge")


def _suite_limit(config: ExperimentConfig, report: VerificationReport) -> None:
    scan = limit_scan(config)
    report.add("continuum_cauchy_order", _worst_order(scan.cauchy_orders), SCAN_MIN_ORDER,
               {"norms": scan.cauchy_norms}, require="ge")
    report.add("continuum_dx_relation_order", _worst_order(scan.dx_orders), SCAN_MIN_ORDER,
               {"norms": scan.dx_residual_norms, "flags": scan.flags},
               require="ge")


def _worst_order(orders) -> float:
    """The smallest order, inf for none; a nan among them is the result.

    Builtin ``min`` keeps a nan only when it comes first.
    """
    return next((o for o in orders if o != o), min(orders, default=math.inf))


_SUITE_FNS = {
    "algebra": _suite_algebra,
    "resolvent": _suite_resolvent,
    "bilinear": _suite_bilinear,
    "dynamics": _suite_dynamics,
    "limit": _suite_limit,
}
SUITES = (*_SUITE_FNS, "all")


def run_verify_suite(config: ExperimentConfig, suite: str = "all") -> VerificationReport:
    if suite not in SUITES:
        raise AknsdError(f"unknown suite {suite!r}; expected one of {SUITES}")
    report = VerificationReport(suite, config_hash(config), config.seed, config.mode)
    names = list(_SUITE_FNS) if suite == "all" else [suite]
    if "limit" in names:  # refuse the scan's step sizes before any suite runs
        check_scan_steps(config.eps_list)
    for name in names:
        _SUITE_FNS[name](config, report)
    return report
