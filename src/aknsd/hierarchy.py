"""The discrete AKNS-D core: dressing, resolvents, projections, flows.

The Lax operator is ``L = Delta - z A + U`` with ``A`` a constant diagonal
matrix with distinct nonzero entries and ``U`` an off-diagonal potential of
compact support.  Everything below follows from two expanded operator
identities (see docs/derivations.md for the Leibniz steps):

* the dressing relation ``L w_hat = (Lambda w_hat)(Delta - z A)`` is, order by
  order in ``z**-k``::

      Delta w_k + U w_k = A w_{k+1} - (Lambda w_{k+1}) A,      w_0 = I,

  which per entry (i, j) is the two-point recursion
  ``a_i w(n) - a_j w(n+1) = rhs(n)``;

* the commutator of a multiplication operator ``P`` with ``L`` is itself a
  multiplication operator::

      [P, L]_D = -Delta P - z ((Lambda P) A - A P) + (Lambda P) U - U P.

Off-diagonal recursion entries are solved in the contracting direction
(forward from a zero left tail when ``|a_i| <= |a_j|``, else backward from a
zero right tail; exact ties go forward) and diagonal entries by discrete
integration from a zero left tail.  On a finite window this boundary policy
*is* the contract: the recursion is enforced at every stored transition, so
the dressing residual vanishes identically in rational mode, and the direct
resolvent recursion reuses the identical kernel so both constructions agree
entry for entry.

Each public operation on a potential (``solve_dressing``,
``resolvent_direct``, ``commutator_with_l``, ``flow_field``) checks once
that U has the instance's dimension and mode (``_check_instance``); the
dressing defect reads a state, whose door checked it.  A lattice checked
its own values and tails when it was built, so no kernel checks an operand
again.

A ``HierarchyState`` is checked once, when it is built (its door,
``__post_init__``).  Every way to a state (``HierarchyState.solve``,
``persist.state_from_json``, a state assembled by hand) passes it, so every
state that exists is consistent and survives a save and a load byte for
byte.

Every Lax kernel runs on entry columns, one list per matrix entry over the
sites, in both modes and through the same compositions:

* ``_order_columns`` is the one order loop: the two-point solve on the
  columns of a right-hand side, ``_DRESSING_RHS`` (``D + U x``) for
  ``solve_dressing`` and ``_DIRECT_RHS`` (``D - (p - q)``) for
  ``resolvent_direct`` and the flow field.  Its first order, I or E_alpha,
  is diagonal and the same at every site: its products with U are row and
  column scalings (``kit.diagonal_product``) and its Delta is formed on one
  transition;
* ``_series_columns`` is the one series pass, on a lattice of series on
  entry columns (``columns._ColumnSeries``), degree by degree with a
  per-degree kernel: ``_bracket_degree`` (``((p - q) - D) - z``) for
  ``commutator_with_l`` and ``_defect_degree`` (``(rhs_d - A x') + x1' A``)
  for the dressing defect; ``_transition_pass`` runs it on the transitions
  that P and U share;
* ``flow_field`` is one whole-lattice pass from U to the field (``_flow_pass``,
  which ``dynamics.rk4_step`` also runs on its stage columns); it reuses each
  order's ``(p - q, D)`` columns for the positive degrees of [B, L]_D.

What differs by mode is one layer of column primitives, the kits of
``columns`` (``_kit`` picks one from the instance); the float ones keep the
operation order of the ring operations they replace, so float results are
the same bit for bit.

The dressing's series stay on entry columns from the solve to the checks:
a state reads its solved orders into columns once (``HierarchyState._columns``,
a ``columns._DressingColumns``), which forms w_hat^{-1} and each R_alpha
there on first use and keeps them.  ``hat``, ``hat_inverse``,
``resolvent_dressed`` and ``resolvent_direct`` build a lattice of series
only to return one.  The residuals that the verifier checks reduce the
columns directly: ``dressing_residual`` and ``commutator_residual`` (the
series pass over the state's transitions, ``_transition_pass``),
``product_algebra_residual``, ``sum_identity_residual`` and
``cross_solver_difference``.

See docs/derivations.md sections 1 to 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import chain
from math import inf
from operator import add, sub
from typing import Callable, NamedTuple

from . import scalars
from .columns import _ColumnSeries, _DressingColumns, _check_flow_order, _kit
from .errors import ConsistencyError, DimensionError, InstanceError, ModeError
from .lattice import LatticeFn, Window, inverse_step, site_max
from .matrices import SmallMatrix
from .series import (
    MatSeries,
    _check_knows_a_degree,
    series_mul,  # noqa: F401  (perfbench/test_perfbench.py reads hierarchy.series_mul)
    series_project,
)


@dataclass(frozen=True)
class AknsData:
    """Diagonal part A = diag(a_1..a_m); entries finite, pairwise distinct, nonzero."""

    m: int
    a: tuple
    mode: str = scalars.RATIONAL

    def __post_init__(self):
        if not (2 <= self.m <= 8):
            raise InstanceError(f"instance dimension {self.m} outside 2..8")
        if len(self.a) != self.m:
            raise InstanceError("need exactly m diagonal entries")
        if not all(abs(x) < inf for x in self.a):  # nan fails; a big Fraction does not overflow
            raise InstanceError("diagonal entries must be finite")
        if any(x == 0 for x in self.a):
            raise InstanceError("diagonal entries must be nonzero")
        if len({x for x in self.a}) != self.m:
            raise InstanceError("diagonal entries must be pairwise distinct")

    @property
    def matrix(self) -> SmallMatrix:
        return SmallMatrix.diag(self.a, self.mode)

    def projector(self, alpha: int) -> SmallMatrix:
        if not 1 <= alpha <= self.m:
            raise InstanceError(f"basis index {alpha} outside 1..{self.m}")
        return SmallMatrix.basis_projector(self.m, alpha, self.mode)

    def direction(self, i: int, j: int) -> str:
        """Recursion direction for the off-diagonal entry (i, j), 1-based."""
        if i == j:
            return "integrate"
        ai = scalars.scalar_abs(self.a[i - 1])
        aj = scalars.scalar_abs(self.a[j - 1])
        return "forward" if ai <= aj else "backward"

    def conventions(self) -> dict:
        return {
            "policy": "contracting",
            "tie_break": "forward",
            "diagonal": "zero-left-integration",
            "directions": {
                f"{i},{j}": self.direction(i, j)
                for i in range(1, self.m + 1)
                for j in range(1, self.m + 1)
                if i != j
            },
        }


def _check_instance(data: AknsData, U: LatticeFn) -> None:
    """Refuse a potential whose dimension or mode is not the instance's."""
    if U.m != data.m:
        raise DimensionError(f"a {U.m}x{U.m} potential for an instance of m = {data.m}")
    if U.mode != data.mode:
        raise ModeError(f"a {U.mode} potential for a {data.mode} instance")


def validate_potential(U: LatticeFn) -> LatticeFn:
    """Check the potential invariants: zero tails, and zero diagonal entries.

    Evolved potentials are exempt: their callers skip validation, because the
    hierarchy flows of order k >= 1 rotate a pure-gauge diagonal component
    into U (see docs/derivations.md), so only *input* data is constrained.
    """
    if not U.left_tail.is_zero() or not U.right_tail.is_zero():
        raise InstanceError("potential must carry zero tails on both sides")
    for n, v in zip(U.sites(), U.values):
        for i in range(U.m):
            if v.rows[i][i] != 0:
                raise InstanceError(
                    f"potential has nonzero diagonal entry at site {n}"
                )
    return U


def make_potential(window: Window, entries: dict, m: int,
                   mode: str = scalars.RATIONAL) -> LatticeFn:
    """Potential from a site -> SmallMatrix mapping; zero elsewhere."""
    zero = SmallMatrix.zero(m, mode)
    vals = [entries.get(n, zero) for n in range(window.stored_lo, window.stored_hi + 1)]
    return validate_potential(LatticeFn.from_values(window.stored_lo, vals))


# -- dressing ----------------------------------------------------------------------


@dataclass(frozen=True)
class Dressing:
    """Solved dressing coefficients w_1..w_N plus the conventions that fixed them."""

    depth: int  # must equal len(ws)
    ws: tuple  # LatticeFn per order, index 0 <-> w_1
    conventions: dict = field(compare=False)

    def __post_init__(self):
        if self.depth != len(self.ws):
            raise InstanceError(
                f"dressing depth {self.depth} but {len(self.ws)} solved orders"
            )


def solve_dressing(data: AknsData, U: LatticeFn, depth: int) -> Dressing:
    """Order-by-order solve of Delta w_k + U w_k = A w_{k+1} - (Lambda w_{k+1}) A.

    The order loop on entry columns (``_solve_columns`` with ``_DRESSING_RHS``).
    """
    _check_instance(data, U)
    if depth < 1:
        raise InstanceError("dressing depth must be >= 1")
    kit = _kit(data)
    orders = _solve_columns(kit, U, SmallMatrix.identity(data.m, U.mode), depth, _DRESSING_RHS)
    return Dressing(depth, tuple(LatticeFn.from_values(U.lo, kit.build(c), step=U.step)
                                 for c in orders[1:]), data.conventions())


# -- solved state --------------------------------------------------------------------


def _check_depth(depth: int, window: Window) -> None:
    """A dressing depth is in 1..halo: the shifts the window stores."""
    if not 1 <= depth <= window.halo:
        raise InstanceError(f"dressing depth {depth} outside 1..{window.halo} (the window halo)")


@dataclass
class HierarchyState:
    """A potential together with its solved dressing at a given depth.

    A state is checked once, when it is built (its door): the potential
    lives on the window's stored sites, and nowhere else, and fits the
    instance (``_check_instance``); the depth is in 1..halo, the shifts the
    window stores; each dressing order lives on the potential's sites, in
    its mode, dimension and step.

    The dressing's series live on entry columns (``_columns``, read from the
    solved orders once); ``hat``, ``hat_inverse`` and ``resolvent_dressed``
    build lattices of series from them.
    """

    data: AknsData
    U: LatticeFn
    window: Window
    dressing: Dressing

    def __post_init__(self):
        if (self.U.lo, self.U.hi) != (self.window.stored_lo, self.window.stored_hi):
            raise DimensionError(f"the potential's sites {self.U.lo}..{self.U.hi} are not the "
                                 f"window's stored sites")
        _check_instance(self.data, self.U)
        _check_depth(self.depth, self.window)
        for k, w in enumerate(self.dressing.ws, start=1):
            w._compat(self.U)
            if (w.lo, w.hi) != (self.U.lo, self.U.hi):
                raise DimensionError(f"dressing order {k} lives on {w.lo}..{w.hi}, not on the "
                                     f"potential's sites {self.U.lo}..{self.U.hi}")

    @property
    def depth(self) -> int:
        return self.dressing.depth

    @property
    def mode(self) -> str:
        return self.U.mode

    @property
    def step(self):
        return self.U.eps()

    @staticmethod
    def solve(data: AknsData, U: LatticeFn, window: Window, depth: int,
              *, validate: bool = True) -> "HierarchyState":
        """The state of ``U`` solved at ``depth``; a depth the door would refuse is
        refused, with the door's text, before the solve."""
        if validate:
            validate_potential(U)
        _check_depth(depth, window)
        return HierarchyState(data, U, window, solve_dressing(data, U, depth))

    @cached_property
    def _columns(self) -> _DressingColumns:
        """w_hat on entry columns, with its inverse and resolvents formed there."""
        return _DressingColumns.read(_kit(self.data), self.U, self.dressing.ws)

    @cached_property
    def hat(self) -> LatticeFn:
        """The dressing series I + sum_k w_k z^-k as a series-valued function."""
        return self._columns.hat.lattice()

    @cached_property
    def hat_inverse(self) -> LatticeFn:
        """w_hat^{-1} per site, on the sites of ``hat``."""
        return self._columns.hat_inverse.lattice()


def dressing_residual(state: HierarchyState):
    """Max-abs coefficient of Delta w_hat + U w_hat - z A w_hat + z (Lambda w_hat) A.

    This is the multiplication-operator part of the difference between the
    two sides of the dressing relation; it vanishes exactly in rational mode
    at every site where the recursion was enforced.  (T') over the state's
    transitions on entry columns (``_transition_pass``).
    """
    return _transition_pass(state._columns.hat, state.U, _defect_degree).max_abs()


# -- resolvents ----------------------------------------------------------------------


@dataclass(frozen=True)
class Resolvent:
    """Series R with R_(0) = E_alpha satisfying [R, L]_D = 0 through its depth."""

    series: LatticeFn  # MatSeries-valued, band [-depth, 0]


def resolvent_dressed(state: HierarchyState, alpha: int) -> Resolvent:
    """R_alpha = w_hat E_alpha w_hat^{-1} on the sites of ``state.hat``, formed on entry
    columns (``columns._DressingColumns.resolvent``)."""
    return Resolvent(state._columns.resolvent(alpha).lattice())


def resolvent_direct(data: AknsData, U: LatticeFn, alpha: int, depth: int) -> Resolvent:
    """Order-by-order solve of Delta R_i - [R_i, U]_D + [R_{i+1}, A]_D = 0.

    Shares the recursion kernel (direction policy, zero integration
    constants) with the dressing solver, so the result is comparable entry
    for entry with the dressed construction: the order loop on entry columns
    (``_solve_columns`` with ``_DIRECT_RHS``), one whole-lattice pass per
    order.
    """
    _check_instance(data, U)
    return Resolvent(_direct_columns(data, U, alpha, depth).lattice())


def _direct_columns(data: AknsData, U: LatticeFn, alpha: int, depth: int) -> _ColumnSeries:
    kit = _kit(data)
    orders = _solve_columns(kit, U, data.projector(alpha), depth, _DIRECT_RHS)
    return _ColumnSeries.from_orders(kit, U.lo, U.step, orders)


def cross_solver_difference(state: HierarchyState, alpha: int):
    """Max-abs entry of R_alpha dressed minus R_alpha direct, over sites and orders,
    on entry columns."""
    dressed = state._columns.resolvent(alpha)
    return (dressed - _direct_columns(state.data, state.U, alpha, state.depth)).max_abs()


def commutator_residual(state: HierarchyState, alpha: int):
    """Max-abs coefficient of [R_alpha, L]_D over the state's transitions, on entry
    columns: ``commutator_with_l`` of R_alpha, reduced."""
    return _transition_pass(state._columns.resolvent(alpha), state.U, _bracket_degree).max_abs()


def product_algebra_residual(state: HierarchyState):
    """Max-abs entry of R_a R_b - delta_ab R_b over a, b = 1..m, the sites and the orders,
    on entry columns."""
    rs = _resolvents(state)
    zero = rs[0].constant(MatSeries.zero(state.data.m, state.mode))
    return scalars.max_of(((ra * rb - (rb if a == b else zero)).max_abs()
                           for a, ra in enumerate(rs) for b, rb in enumerate(rs)), state.mode)


def sum_identity_residual(state: HierarchyState):
    """Max-abs entry of R_1 + ... + R_m - I over the sites and the orders, on entry
    columns; the resolvents are added in the order of alpha."""
    rs = _resolvents(state)
    ident = rs[0].constant(MatSeries.constant(SmallMatrix.identity(state.data.m, state.mode)))
    return (reduce(add, rs) - ident).max_abs()


def _resolvents(state: HierarchyState) -> list:
    """R_1..R_m of the state's dressing on entry columns."""
    return [state._columns.resolvent(alpha) for alpha in range(1, state.data.m + 1)]


# -- discrete commutators --------------------------------------------------------------


def commutator_with_l(P: LatticeFn, data: AknsData, U: LatticeFn) -> LatticeFn:
    """Multiplication-operator part of [P, L]_D for L = Delta - z A + U.

    Expanded form: -Delta P - z ((Lambda P) A - A P) + (Lambda P) U - U P,
    with the deformed difference ``(P(n+1) - P(n)) / eps`` when the lattice
    carries a step.  Each site is built degree by degree from P(n), P(n+1)
    and U(n) (``_transition_pass`` with ``_bracket_degree``), on
    ``[max(P.lo, U.lo), min(P.hi - 1, U.hi)]``, and each tail is the same
    pass on one transition of P's tail and U's, in the tail's own band.
    P's site series must share one band and validity start
    (``_ColumnSeries.read``).
    """
    _check_instance(data, U)
    P._compat(U)
    kit = _kit(data)
    sites = _transition_pass(_ColumnSeries.read(kit, P), U, _bracket_degree).lattice()

    def tail(t, u):
        """The pass on one transition of P's tail t and U's tail u."""
        two = _ColumnSeries.read(kit, LatticeFn(0, 1, (t, t), t, t, P.step, P.mode))
        one = LatticeFn(0, 0, (u,), u, u, U.step, U.mode)
        return _transition_pass(two, one, _bracket_degree).lattice().values[0]

    return replace(sites, left_tail=tail(P.left_tail, U.left_tail),
                   right_tail=tail(P.right_tail, U.right_tail))


def _transition_pass(P: _ColumnSeries, U: LatticeFn, degree) -> _ColumnSeries:
    """The site kernel ``degree`` of P and U at the transitions they share,
    ``[max(P.n_lo, U.lo), min(P.n_hi - 1, U.hi)]``: ``_series_columns`` on the overlap."""
    lo, hi = max(P.n_lo, U.lo), min(P.n_hi - 1, U.hi)
    if lo > hi:
        raise DimensionError("operand ranges do not overlap")
    return _series_columns(P.restrict(lo, hi + 1), P.kit.read(U.values[lo - U.lo:hi - U.lo + 1]),
                           inverse_step(U), degree)


def _site_band(c: MatSeries) -> tuple:
    """First degree and validity start of a site kernel's result from the band of c.

    A fully known band [lo, hi] gives [lo, hi + 1]; validity from v gives
    [v + 1, hi + 1], valid from v + 1.
    """
    _check_knows_a_degree(c.lo if c.valid_lo is None else c.valid_lo, c.hi)
    vlo = None if c.valid_lo is None else c.valid_lo + 1
    return (c.lo if vlo is None else vlo), vlo


# -- Lax kernels on entry columns -------------------------------------------------


def _lax_columns(kit, x, u, inv) -> tuple:
    """The columns of ``(x(n+1) U(n)) - (U(n) x(n))`` and of ``Delta x``.

    ``x`` is one coefficient at the sites 0..L, ``u`` is U at the
    transitions 0..L-1, and both results are at the transitions.
    """
    pq = kit.combine(kit.products([c[1:] for c in x], u), kit.products(u, x), sub)
    return pq, kit.delta(x, inv)


def _dressing_parts(kit, x, u, inv) -> tuple:
    """The columns of ``U(n) x(n)`` and of ``Delta x``, laid out as in ``_lax_columns``.

    ``Delta x + U x`` is their sum ``D + (U x)``, the ring operations'
    ``Delta x + (u @ x)`` in that order.
    """
    return kit.products(u, x), kit.delta(x, inv)


def _dressing_first(kit, x: SmallMatrix, u) -> list:
    """``U x`` of ``_dressing_parts`` for a constant diagonal ``x``: a column scaling."""
    return kit.diagonal_product(x, u, False)


def _lax_first(kit, x: SmallMatrix, u) -> list:
    """``x U - U x`` of ``_lax_columns`` for a constant diagonal ``x``: a row scaling
    minus a column scaling."""
    return kit.combine(kit.diagonal_product(x, u, True), kit.diagonal_product(x, u, False), sub)


class _Rhs(NamedTuple):
    """A right-hand side of the order loop ``_order_columns``: the order after x solves
    ``op(D, s)`` entry by entry with ``(s, D) = parts(kit, x, U, inv)``, or with
    ``s = first(kit, x, U)`` when x is the constant diagonal first order."""

    parts: Callable
    first: Callable
    op: Callable


# ``Delta x + U x`` and ``Delta x - ((Lambda x) U - U x)``
_DRESSING_RHS = _Rhs(_dressing_parts, _dressing_first, add)
_DIRECT_RHS = _Rhs(_lax_columns, _lax_first, sub)


def _transition_columns(kit, U: LatticeFn) -> list:
    """U at its transitions U.lo..U.hi - 1 as entry columns."""
    if U.lo == U.hi:
        raise DimensionError("a recursion order needs at least two sites")
    return kit.read(U.values[:-1])


def _repeated(x, n: int) -> list:
    """Columns formed on one transition, at ``n`` transitions: a constant's.  Tuples,
    because a lazy column would be consumed by the exact kit's zero test."""
    return [(v,) * n for (v,) in x]


def _order_columns(kit, u, inv, first: SmallMatrix, depth: int, rhs: _Rhs,
                   last: bool = False) -> tuple:
    """The order loop on U's transitions ``u``: ``first``, ``depth`` more orders, each the
    two-point solve of the right-hand side of the one before (``_DRESSING_RHS`` or
    ``_DIRECT_RHS``), and the ``(s, D)`` columns of the orders < depth, and of order
    ``depth`` too when ``last``.

    ``first`` is diagonal and the same at every site: its products with U are
    row and column scalings (``rhs.first``), and its Delta is formed on one
    transition.
    """
    n = len(u[0])
    orders = [kit.constant(first, n + 1)]
    kept = [(rhs.first(kit, first, u), _repeated(kit.delta(kit.constant(first, 2), inv), n))]
    for j in range(depth):
        s, d = kept[-1]
        orders.append(kit.solve(kit.combine(d, s, rhs.op)))
        if last or j < depth - 1:
            kept.append(rhs.parts(kit, orders[-1], u, inv))
    return orders, kept


def _solve_columns(kit, U: LatticeFn, first: SmallMatrix, depth: int, rhs: _Rhs) -> list:
    """Orders 0..depth of ``_order_columns`` on U's sites; below depth 1 only ``first``,
    which needs no transition."""
    if depth < 1:
        return [kit.constant(first, U.hi - U.lo + 1)]
    return _order_columns(kit, _transition_columns(kit, U), inverse_step(U), first, depth,
                          rhs)[0]


def _z_columns(kit, x) -> list:
    """The columns of the z-term ``(x(n+1) A) - (A x(n))``."""
    return kit.combine(*kit.scalings(x), sub)


def _lax_degree(kit, pq, dx, z) -> list:
    """One coefficient of [P, L]_D on entry columns: ``((p - q) - D) - z``."""
    return kit.combine(kit.combine(pq, dx, sub), z, sub)


def _top_degree(kit, z) -> list:
    """The top coefficient of [P, L]_D on entry columns: the zero minus the z-term."""
    return kit.combine(kit.zero(len(z[0])), z, sub)


def _bracket_degree(kit, x, xp, u, inv) -> list:
    """Degree d of [P, L]_D from the columns x of P_d and xp of P_(d-1).

    ``((p - q) - D) - z`` with z the z-term of xp; on the top degree (x None)
    the zero minus z.
    """
    z = _z_columns(kit, xp)
    return _top_degree(kit, z) if x is None else _lax_degree(kit, *_lax_columns(kit, x, u, inv), z)


def _defect_degree(kit, x, xp, u, inv) -> list:
    """Degree d of (T') from the columns x of W_d and xp of W_(d-1).

    ``((D + (U x)) - (0 + a_r xp)) + (0 + xp(n+1) a_k)``, the operations of
    ``(rhs_d - A xp) + xp(n+1) A``; on the top degree (x None) ``rhs_d`` is
    the zero.
    """
    right, left = kit.scalings(xp)
    if x is None:
        v = kit.zero(len(xp[0]))
    else:
        q, d = _dressing_parts(kit, x, u, inv)
        v = kit.combine(d, q, add)
    return kit.combine(kit.combine(v, left, sub), right, add)


def _series_columns(p: _ColumnSeries, u: list, inv, degree) -> _ColumnSeries:
    """The series pass: ``degree`` at each transition of ``p``, U's columns there ``u``.

    ``degree`` is ``_bracket_degree`` or ``_defect_degree``:
    ``degree(kit, x, xp, u, inv)`` forms degree d from the columns of
    coefficient d (None on the top degree) and d - 1, which below a fully
    known band is the zero matrix.  The result lives on the transitions
    ``p.n_lo..p.n_hi - 1``; bands as in ``_site_band``.
    """
    kit = p.kit
    first, vlo = _site_band(p)
    xs = [kit.zero(p.n_hi - p.n_lo + 1), *p.coeffs, None]
    degrees = [degree(kit, xs[i], xs[i - 1], u, inv) for i in range(first - p.lo + 1, len(xs))]
    return replace(p, n_hi=p.n_hi - 1, lo=first, hi=p.hi + 1, valid_lo=vlo,
                   coeffs=tuple(degrees))


# -- projections and the hierarchy flow field ----------------------------------------------


def projector_b(resolvent: Resolvent, k: int, part: str) -> LatticeFn:
    """One projection of z^k R_alpha: ``"plus"`` is B, ``"minus"`` is Bbar.

    B, the non-negative degrees, reads R_(0)..R_(k), so ``"plus"`` needs
    ``0 <= k <= depth``; Bbar starts at R_(k+1), so ``"minus"`` needs
    ``0 <= k < depth``.  ``series_project`` refuses the k beyond the band.
    """
    _check_flow_order(k)
    return resolvent.series.map(lambda s: series_project(s.shift_degree(k), part),
                                map_tails=False)


def flow_field(data: AknsData, U: LatticeFn, k: int, alpha: int, *,
               tol=0) -> LatticeFn:
    """The (k, alpha) flow of the potential: degree-0 part of [B_{k alpha}, L]_D.

    ``B = (z^k R_alpha)_+`` comes from the direct resolvent R_(0)..R_(k), all
    that B holds; no dressing is solved.  Every coefficient at z-degree >= 1
    must vanish (up to ``tol``; exactly in rational mode), and a nan among them
    is refused as well.  The full degree-0 coefficient is returned; its
    diagonal, measured by ``diagonal_drift``, is the discrete gauge drift
    Delta of R_{(k+1),pp}.  It refuses what ``resolvent_direct``,
    ``projector_b`` and ``commutator_with_l`` refuse, in their order, and runs
    ``_flow_pass``.
    """
    _check_instance(data, U)
    data.projector(alpha)  # refuses an alpha outside 1..m
    _check_flow_order(k)
    if U.lo == U.hi and k == 0:  # no order to solve: the commutator has no site
        raise DimensionError("operand ranges do not overlap")
    kit = _kit(data)
    degree0 = _flow_pass(data, _transition_columns(kit, U), inverse_step(U), k, alpha, tol)
    return LatticeFn.from_values(U.lo, kit.build(degree0), step=U.step)


def _flow_pass(data: AknsData, u: list, inv, k: int, alpha: int, tol) -> list:
    """The flow field's degree-0 entry columns from U's columns ``u`` at its transitions.

    B_d = R_(k-d), d = 0..k, from ``_order_columns``.  Degree d >= 1 of
    [B, L]_D is ``((p - q) - D) - z(R_(k-d+1))``, and its ``p - q`` and ``D``
    are those of R_(k-d) that the right-hand side of order k - d + 1 formed;
    degree 0 reads those of R_(k), which the loop forms last (``last``; at
    k = 0 they are the first order's scalings), with the zero matrix's z-term.
    The top degree k + 1 is ``_top_degree`` of R_(0).  A positive degree
    above ``tol`` is refused.
    """
    kit = _kit(data)
    e = data.projector(alpha)
    orders, lax = _order_columns(kit, u, inv, e, k, _DIRECT_RHS, last=True)
    positive = [_lax_degree(kit, pq, dx, _z_columns(kit, x))
                for (pq, dx), x in zip(lax, orders[1:])]
    # R_(0) = e and the zero are the same at every site: their z-terms are
    # formed on one transition
    positive.append(_top_degree(kit, _z_columns(kit, kit.constant(e, 2))))
    pos = scalars.max_of(chain.from_iterable(map(kit.magnitudes, positive)), data.mode)
    if not pos <= tol:  # a nan fails it too
        raise ConsistencyError(f"positive z-degrees of the flow commutator do not vanish "
                               f"(residual {pos})")
    return _lax_degree(kit, *lax[-1], _repeated(_z_columns(kit, kit.zero(2)), len(u[0])))


def diagonal_drift(f: LatticeFn):
    """Max-abs diagonal entry of a flow field: its discrete gauge drift."""
    return site_max(f, lambda v: v.diagonal_part().max_abs())
