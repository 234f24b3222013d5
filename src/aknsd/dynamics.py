"""Time evolution of the potential, flow-commutativity runs, continuum scan.

The flows are non-stiff at desk scale, so a classical explicit 4-stage
Runge-Kutta step is used; no dressing is solved at any stage.  The stepper
carries the *full* degree-0 coefficient of the flow commutator (including
the diagonal drift): dropping the diagonal would break both the exact
commutativity of the flows and the Lax consistency that the bilinear
verifier's finite-difference path relies on.

Support growth is handled by window padding plus a leakage monitor rather
than adaptive windows; a stage's field is one site narrower than the stored
range, and the missing edge value is frozen at zero (it feeds back into no
interior site of the recursions).  Time stepping is float only.  ``rk4_step``
runs all four stages on the potential's entry columns (the float column
primitives of ``columns``), bit for bit the ring operations of the per-site stages,
and builds one lattice at the end; a potential that is no longer finite is
refused.

The continuum scan checks its step sizes once, at its door
(``check_scan_steps``): at least three, each one half of the one before, so
that it always measures an order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

from . import scalars
from .errors import ConsistencyError, InstanceError, ModeError
from .columns import _FloatColumns
from .hierarchy import AknsData, HierarchyState, _flow_pass, flow_field
from .lattice import LatticeFn, Window, delta_apply, inverse_step, site_max
from .matrices import SmallMatrix

# flow-field consistency tolerance of every float flow evaluation
CONSISTENCY_TOL = 1e-8
# boundary/interior amplitude ratios that warn about and refuse an RK4 step
LEAK_WARN = 0.25
LEAK_HARD = 4.0
# order-swap defects at or below this are machine roundoff
NOISE_FLOOR = 1e-13
# observed convergence order the continuum scan must reach
SCAN_MIN_ORDER = 1.0


class FlowIndex(NamedTuple):
    """Label (k, alpha) of one hierarchy flow."""

    k: int
    alpha: int


@dataclass
class Trajectory:
    """Snapshots (time, potential) of one integration run."""

    flow: FlowIndex
    h: float
    steps: int
    snapshots: list  # (t, LatticeFn)
    warnings: list = field(default_factory=list)

    @property
    def final(self) -> LatticeFn:
        return self.snapshots[-1][1]


def _check_float(u: LatticeFn) -> None:
    """Time evolution is float only: refuse a potential of another mode."""
    if u.mode != scalars.FLOAT:
        raise ModeError("time evolution requires float mode")


def rk4_step(data: AknsData, u: LatticeFn, h, flow: FlowIndex) -> LatticeFn:
    """One classical 4-stage step of dU/dt = flow_field(U) from the float potential ``u``.

    ``u`` is read into entry columns once, each tail as one more site at its
    end, and every stage runs on them.  Stage 1 is ``flow_field``, with every
    refusal U can raise; stages 2 to 4 are its checked column pass
    (``hierarchy._flow_pass``) on the stage potentials.  A stage field is one
    site narrower than ``u``: it is frozen at zero on the last site and on
    the tails, and ``u + c f`` is ``x + s * y`` entry by entry with
    ``s = float(c)``, the operations of ``a + b.scale(c)``.  So the frozen
    entries are computed, not kept: ``-0.0 + 0.0`` is ``0.0``.
    """
    _check_float(u)
    f1 = flow_field(data, u, flow.k, flow.alpha, tol=CONSISTENCY_TOL)

    def axpy(x, c, f):
        s = float(c)
        return [[a + s * b for a, b in zip(xc, (0.0, *fc, 0.0, 0.0))] for xc, fc in zip(x, f)]

    kit = _FloatColumns(data)
    x = kit.read([u.left_tail, *u.values, u.right_tail])
    fields = [kit.read(f1.values)]
    for c in (h / 2, h / 2, h):
        stage = [col[1:-2] for col in axpy(x, c, fields[-1])]  # at the transitions
        fields.append(_flow_pass(data, stage, inverse_step(u), *flow, CONSISTENCY_TOL))
    for c, f in zip((h / 6, h / 3, h / 3, h / 6), fields):
        x = axpy(x, c, f)
    left, *vals, right = kit.build(x)
    return LatticeFn(u.lo, u.hi, tuple(vals), left, right, u.step, u.mode)


def _leakage(u: LatticeFn, window: Window):
    """(max over the two outermost stored sites each side, max over the window)."""
    interior = site_max(u, sites=range(window.n_min, window.n_max + 1))
    edge_sites = list(range(u.lo, min(u.lo + 2, u.hi + 1))) + \
        list(range(max(u.hi - 1, u.lo), u.hi + 1))
    return site_max(u, sites=edge_sites), interior


def rk4_evolve(state: HierarchyState, flow: FlowIndex, h, steps: int) -> Trajectory:
    """``integrate`` from the state's potential; its dressing is not read."""
    return integrate(state.data, state.U, state.window, flow, h, steps)


def integrate(data: AknsData, u: LatticeFn, window: Window, flow: FlowIndex,
              h, steps: int) -> Trajectory:
    """Integrate dU/dt = flow_field(U) from ``u`` with the classical 4-stage scheme.

    Float mode only: time stepping is approximate by nature.  Each stage's
    field comes from its potential alone.  Boundary leakage (solution
    amplitude reaching the stored edge) triggers a warning beyond
    ``LEAK_WARN`` of the norm over ``window``'s interior and an error beyond
    ``LEAK_HARD``.
    """
    _check_float(u)
    if not h > 0:
        raise InstanceError("step size must be positive")
    traj = Trajectory(flow, float(h), steps, [(0.0, u)])
    for s in range(1, steps + 1):
        u = rk4_step(data, u, h, flow)
        boundary, interior = _leakage(u, window)
        if not (math.isfinite(boundary) and math.isfinite(interior)):
            raise ConsistencyError(
                f"non-finite potential at step {s} (boundary {boundary}, interior {interior})"
            )
        scale = max(interior, 1e-300)
        if boundary > LEAK_HARD * scale:
            raise ConsistencyError(
                f"boundary leakage {boundary} exceeds hard limit at step {s}"
            )
        if boundary > LEAK_WARN * scale:
            msg = f"boundary leakage {boundary:.3e} at step {s} (interior {interior:.3e})"
            traj.warnings.append(msg)
            warnings.warn(msg, stacklevel=3)
        traj.snapshots.append((s * float(h), u))
    return traj


def commutativity_defect(data: AknsData, U: LatticeFn, window: Window,
                         f1: FlowIndex, f2: FlowIndex, h, steps: int):
    """Order-swap experiment: evolve ``U`` along f1 then f2, and swapped.

    The exact flows commute, so the reported defect is pure integrator error;
    the order estimate is log2 of the defect ratio between resolutions h and
    h/2 at fixed total time.  Defects at or below ``NOISE_FLOOR`` are machine
    roundoff (k=0 pairings are suppressed to O(h^6) by the charge grading and
    land there); the ratio of two noise values carries no order information,
    so the estimate is reported as infinite in that regime.
    """

    def run(first, second, step_size, n_steps):
        u = U
        for flow in (first, second):
            u = integrate(data, u, window, flow, step_size, n_steps).final
        return u

    def defect_at(step_size, n_steps):
        a = run(f1, f2, step_size, n_steps)
        b = run(f2, f1, step_size, n_steps)
        return interior_diff_max(a, b, window)

    d1 = defect_at(float(h), steps)
    d2 = defect_at(float(h) / 2, 2 * steps)
    return d1, math.inf if d1 <= NOISE_FLOOR else observed_order(d1, d2)


def observed_order(a, b) -> float:
    """The observed order ``log2(a / b)`` of two successive error norms.

    An error that falls to zero gives inf, and two zero errors do too.  An
    error that grew from exactly zero gives -inf, so it fails every order
    check.  A nan norm gives a nan order, which fails them as well: ``a > 0``
    is false for a nan, so a plain positivity guard would report it as inf
    and pass it.
    """
    if a > 0 and b > 0:
        return math.log2(a / b)
    if a != a or b != b:
        return math.nan
    return -math.inf if b > 0 else math.inf


def interior_diff_max(a: LatticeFn, b: LatticeFn, window: Window):
    """Max-abs entry of a - b over the window's region of interest."""
    return site_max(a - b, sites=range(window.n_min, window.n_max + 1))


# -- continuum-limit scan ------------------------------------------------------------


def _rms(entries) -> float:
    if not entries:
        return 0.0
    return math.sqrt(sum(x * x for x in entries) / len(entries))


def gaussian_bump_profile(m: int):
    """Smooth sampled profile: 0.4 * exp(-x^2) at (1,2) and (2,1)."""

    def profile(x: float) -> SmallMatrix:
        rows = [[0.0] * m for _ in range(m)]
        rows[0][1] = rows[1][0] = 0.4 * math.exp(-(x * x))
        return SmallMatrix.from_rows(rows, scalars.FLOAT)

    return profile


@dataclass
class ScanReport:
    """Cauchy self-convergence and the x-derivative relation residuals.

    Norms are taken over the coarsest common x-grid.  The ``*_norms`` /
    ``*_orders`` fields use the RMS norm, under which the observed decay
    orders are the enforced quantities; the max-norm values are reported
    alongside (their observed orders approach the limit order from below
    when the next-order correction shares the sign of the leading term).
    """

    eps_list: list
    cauchy_norms: list
    cauchy_orders: list
    dx_residual_norms: list
    dx_orders: list
    flags: list
    cauchy_norms_max: list
    dx_residual_norms_max: list

    @property
    def passed(self) -> bool:
        """Every observed order, Cauchy and dx-relation, reaches SCAN_MIN_ORDER: no flag."""
        return not self.flags

    def to_json(self) -> dict:
        return {
            "eps": [scalars.format_scalar(e) for e in self.eps_list],
            "k": 1,
            "cauchy_norms": self.cauchy_norms,
            "cauchy_orders": self.cauchy_orders,
            "dx_residual_norms": self.dx_residual_norms,
            "dx_orders": self.dx_orders,
            "flags": self.flags,
            "cauchy_norms_max": self.cauchy_norms_max,
            "dx_residual_norms_max": self.dx_residual_norms_max,
        }


def check_scan_steps(eps_list) -> list:
    """The scan's step sizes as floats: at least three, each positive and finite and
    one half of the one before.

    This is the scan's one door.  A Cauchy order compares the differences of
    the fields at consecutive step sizes, so fewer than three step sizes
    measure none; consecutive fields are compared on common x-points, so the
    steps must be strictly decreasing and halved.  A step of 0, below 0, inf
    or nan samples no window: it is refused before any ratio is taken.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3:
        raise InstanceError(f"the scan needs at least 3 step sizes to measure a Cauchy "
                            f"order; got {len(eps_list)}")
    if not all(0 < e < math.inf for e in eps_list):  # a nan fails it too
        raise InstanceError(f"step sizes must be positive and finite; got {eps_list}")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise InstanceError("step sizes must be strictly decreasing")
    if any(abs(e1 / e2 - 2.0) > 1e-12 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise InstanceError("scan expects halved steps for common x-points")
    return eps_list


def continuum_scan(data: AknsData, profile, eps_list, *,
                   x_span: float = 4.0, halo: int = 6) -> ScanReport:
    """Deformed-step scan: compute the first-order flow fields at each step size.

    ``profile`` maps x to a potential matrix; it is sampled as f(n * eps) per
    step on a refined window covering [-x_span, x_span].  Reported are the
    Cauchy differences of the fields between consecutive (halved) step sizes
    on common x-points, their observed orders, and the residual of
    sum_alpha a_alpha F_{1 alpha} - Delta_eps U, the discrete shadow of the
    x-derivative relation.  Everything is reported; nothing is asserted here.
    """
    if data.mode != scalars.FLOAT:
        raise ModeError("the continuum scan runs in float mode")
    eps_list = check_scan_steps(eps_list)

    fields = []
    dx_norms = []
    dx_norms_max = []
    windows = []
    for run, eps in enumerate(eps_list):
        n_half = int(round(x_span / eps))
        window = Window(-n_half, n_half, halo)
        u = LatticeFn.from_values(
            window.stored_lo,
            [profile(n * eps) for n in range(window.stored_lo, window.stored_hi + 1)],
            step=eps,
        )
        per_alpha = {
            alpha: flow_field(data, u, 1, alpha, tol=CONSISTENCY_TOL)
            for alpha in range(1, data.m + 1)
        }
        fields.append(per_alpha)
        windows.append(window)

        # norms restricted to the coarsest common x-grid so refinement
        # cannot bias the observed orders by sampling higher peaks
        stride = 2 ** run
        combo = None
        for alpha, f in per_alpha.items():
            term = f.map(lambda v, a=alpha: v.scale(data.a[a - 1]))
            combo = term if combo is None else combo + term
        du = delta_apply(u, "forward")
        resid = combo - du.restrict(combo.lo, combo.hi)
        entries = [
            abs(x)
            for n in range(window.n_min, window.n_max + 1)
            if resid.lo <= n <= resid.hi and n % stride == 0
            for row in resid.at(n).rows
            for x in row
        ]
        dx_norms.append(_rms(entries))
        dx_norms_max.append(scalars.max_of(entries, scalars.FLOAT))

    cauchy = []
    cauchy_max = []
    for idx in range(len(eps_list) - 1):
        coarse, fine = fields[idx], fields[idx + 1]
        win = windows[idx]
        stride = 2 ** idx
        entries = []
        for alpha in coarse:
            fc, ff = coarse[alpha], fine[alpha]
            for n in range(win.n_min, win.n_max + 1):
                if n % stride != 0:
                    continue
                if fc.lo <= n <= fc.hi and ff.lo <= 2 * n <= ff.hi:
                    d = fc.at(n) - ff.at(2 * n)
                    entries.extend(abs(x) for row in d.rows for x in row)
        cauchy.append(_rms(entries))
        cauchy_max.append(scalars.max_of(entries, scalars.FLOAT))

    def orders(norms):
        return [observed_order(a, b) for a, b in zip(norms, norms[1:])]

    cauchy_orders = orders(cauchy)
    dx_orders = orders(dx_norms)
    flags = []
    for name, ords in (("cauchy", cauchy_orders), ("dx_relation", dx_orders)):
        for i, o in enumerate(ords):
            if not o >= SCAN_MIN_ORDER:  # a nan order is flagged too
                flags.append(f"{name} order {o:.3f} < 1 between eps[{i}] and eps[{i+1}]")
    return ScanReport(eps_list, cauchy, cauchy_orders, dx_norms, dx_orders,
                      flags, cauchy_max, dx_norms_max)
