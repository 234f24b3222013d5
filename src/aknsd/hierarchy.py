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

Each public operation (``solve_dressing``, ``resolvent_direct``,
``_sitewise`` behind ``commutator_with_l`` and the dressing defect,
``flow_field``) checks once that U has the instance's dimension and mode
(``_check_instance``).  A lattice checked its own values and tails when it
was built, so no kernel checks an operand again.

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
  ``resolvent_direct`` and the flow field;
* ``_series_columns`` is the one series pass, degree by degree with a
  per-degree kernel: ``_bracket_degree`` (``((p - q) - D) - z``) for
  ``commutator_with_l`` and ``_defect_degree`` (``(rhs_d - A x') + x1' A``)
  for the dressing defect;
* ``flow_field`` is one whole-lattice pass from U to the field (``_flow_pass``,
  which ``dynamics.rk4_step`` also runs on its stage columns); it reuses each
  order's ``(p - q, D)`` columns for the positive degrees of [B, L]_D.

What differs by mode is one layer of column primitives, ``_FloatColumns``
and ``_ExactColumns`` (``_kit`` picks one from the instance): reading and
building matrices, the zero, sums and differences, the deformed
difference Delta x (one pass in float mode), products, the A scalings
(A is diagonal, so its products are row and column scalings) and the
two-point solve.  The float primitives keep the operation order of the
ring operations they replace, so float results are the same bit for bit.
A rational coefficient is integer numerator columns over one denominator
column, summed unreduced over the per-site lcm of its terms' denominators;
each entry's recursion reads integer pairs with one gcd per step
(``_solve_exact``), and a solved order is made canonical by
``matrices.over_lcm``.  The two classes share only the instance and the
recursions (``_Columns``).

The dressing's inverse and the dressed resolvents run on the same columns,
one order at a time from the orders of ``hat`` (``_order``):
``hat_inverse`` is v_0 = I, v_j = -(w_1 v_(j-1) + ... + w_j v_0)
(``_inverse_orders``), and degree -d of ``w_hat E_alpha w_hat^{-1}`` is the
sum of the rank-one products (column alpha of w_i)(row alpha of v_(d-i)),
i = d..0 (``resolvent_dressed``).

See docs/derivations.md sections 1 to 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import accumulate, chain, repeat
from math import copysign, gcd, lcm
from operator import add, floordiv, mul, sub

from . import scalars
from .errors import ConsistencyError, DimensionError, InstanceError, ModeError, ValidityError
from .lattice import LatticeFn, Window, inverse_step, site_max
from .matrices import SmallMatrix, over_lcm
from .series import (
    MatSeries,
    _check_knows_a_degree,
    series_diff_max,
    series_mul,  # noqa: F401  (perfbench/test_perfbench.py reads hierarchy.series_mul)
    series_project,
)


@dataclass(frozen=True)
class AknsData:
    """Diagonal part A = diag(a_1..a_m); entries pairwise distinct, nonzero."""

    m: int
    a: tuple
    mode: str = scalars.RATIONAL

    def __post_init__(self):
        if not (2 <= self.m <= 8):
            raise InstanceError(f"instance dimension {self.m} outside 2..8")
        if len(self.a) != self.m:
            raise InstanceError("need exactly m diagonal entries")
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


# -- shared recursion kernel ------------------------------------------------------


def _orders_to_series(orders: list, m: int) -> LatticeFn:
    """Per site, the series sum_k orders[k](n) z^-k, valid through its depth."""
    first = orders[0]
    depth = len(orders) - 1
    top_down = orders[::-1]
    vals = tuple(MatSeries(m, first.mode, -depth, 0, tuple(f.at(n) for f in top_down), -depth)
                 for n in first.sites())
    zero = MatSeries.zero(m, first.mode)
    return LatticeFn(first.lo, first.hi, vals, zero, zero, first.step, first.mode)


def solve_two_point(a_i, a_j, rhs: list, direction: str, mode: str) -> list:
    """Solve a_i w(n) - a_j w(n+1) = rhs(n) at every transition of a range.

    ``rhs[k]`` is the right-hand side at the k-th transition; the result has
    one value per site.  The chosen direction fixes the one free constant:
    zero at the starting edge.  This is the float kernel of
    ``_order_columns``, and on ``Fraction``s the reference of the
    integer kernel ``_solve_exact``.
    """
    steps = {"forward": lambda w, r: (a_i * w - r) / a_j,
             "backward": lambda w, r: (a_j * w + r) / a_i,
             "integrate": lambda w, r: w - r / a_i}
    if direction not in steps:
        raise ValueError(f"unknown direction {direction!r}")
    back = direction == "backward"
    out = list(accumulate(rhs[::-1] if back else rhs, steps[direction],
                          initial=scalars.zero(mode)))
    return out[::-1] if back else out


def _solve_exact(a_i, a_j, rhs: list, direction: str) -> list:
    """``solve_two_point`` on integers, one gcd per step.

    ``rhs[k]`` is the right-hand side at the k-th transition as a
    (numerator, positive denominator) pair, not necessarily reduced.  Returns
    one (p, q) pair per site, in lowest terms with q > 0.  With ``a = p/q``,
    ``w = x/y`` and ``rhs = N/D`` each step reads
    ``(c_x x D + c_r N y) / (c_d y D)`` (see docs/derivations.md).
    """
    p_i, q_i = a_i.numerator, a_i.denominator
    p_j, q_j = a_j.numerator, a_j.denominator
    if direction == "forward":
        c = (q_j * p_i, -q_i * q_j, p_j * q_i)
    elif direction == "backward":
        c = (q_i * p_j, q_i * q_j, p_i * q_j)
        rhs = rhs[::-1]
    elif direction == "integrate":
        c = (p_i, -q_i, p_i)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    g = gcd(*c) if c[2] > 0 else -gcd(*c)
    c_x, c_r, c_d = (x // g for x in c)
    x, y = 0, 1
    out = [(0, 1)]
    for n_num, n_den in rhs:
        if n_num or x:
            num, den = c_x * x * n_den + c_r * n_num * y, c_d * y * n_den
            g = gcd(num, den)
            x, y = num // g, den // g
        out.append((x, y))
    return out[::-1] if direction == "backward" else out


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

    The order loop on entry columns (``_solve_lattices`` with ``_DRESSING_RHS``).
    """
    _check_instance(data, U)
    if depth < 1:
        raise InstanceError("dressing depth must be >= 1")
    ws = _solve_lattices(data, U, SmallMatrix.identity(data.m, U.mode), depth, _DRESSING_RHS)
    return Dressing(depth, tuple(ws), data.conventions())


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
    """

    data: AknsData
    U: LatticeFn
    window: Window
    dressing: Dressing
    # resolvent_dressed per alpha, filled by ``resolvent``
    _resolvents: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    def hat(self) -> LatticeFn:
        """The dressing series I + sum_k w_k z^-k as a series-valued function."""
        ident = self.U.constant(SmallMatrix.identity(self.data.m, self.mode))
        return _orders_to_series([ident, *self.dressing.ws], self.data.m)

    @cached_property
    def hat_inverse(self) -> LatticeFn:
        """w_hat^{-1} per site, on the sites of ``hat`` (``_inverse_orders``)."""
        return _orders_to_series(_inverse_orders(_kit(self.data), self.hat, self.depth),
                                 self.data.m)

    def resolvent(self, alpha: int):
        if alpha not in self._resolvents:
            self._resolvents[alpha] = resolvent_dressed(self, alpha)
        return self._resolvents[alpha]


def dressing_residual(state: HierarchyState):
    """Max-abs coefficient of Delta w_hat + U w_hat - z A w_hat + z (Lambda w_hat) A.

    This is the multiplication-operator part of the difference between the
    two sides of the dressing relation; it vanishes exactly in rational mode
    at every site where the recursion was enforced.
    """
    return site_max(_dressing_defect(state))


def _dressing_defect(state: HierarchyState) -> LatticeFn:
    """Delta w_hat + U w_hat - z A w_hat + z (Lambda w_hat) A: (T') by ``_sitewise``."""
    return _sitewise(state.hat, state.data, state.U, _defect_degree)


# -- resolvents ----------------------------------------------------------------------


@dataclass(frozen=True)
class Resolvent:
    """Series R with R_(0) = E_alpha satisfying [R, L]_D = 0 through its depth."""

    series: LatticeFn  # MatSeries-valued, band [-depth, 0]


def resolvent_dressed(state: HierarchyState, alpha: int) -> Resolvent:
    """R_alpha = w_hat E_alpha w_hat^{-1} on entry columns, on the sites of ``state.hat``.

    Degree -d is the sum of (column alpha of w_i)(row alpha of v_(d-i)) over
    i = d..0, w and v the orders of ``hat`` and ``hat_inverse``: each a
    product of an m x 1 and a 1 x m coefficient (``products``), summed in
    that order.
    """
    state.data.projector(alpha)  # refuses an alpha outside 1..m
    kit, m, k, depth = _kit(state.data), state.data.m, alpha - 1, state.depth
    hat, inv = state.hat, state.hat_inverse
    cols = [_pick(kit.read(_order(hat, i)), slice(k, m * m, m), m) for i in range(depth + 1)]
    rows = [_pick(kit.read(_order(inv, j)), slice(k * m, k * m + m), m)
            for j in range(depth + 1)]
    lattice = partial(LatticeFn.from_values, hat.lo, step=hat.step)
    orders = [lattice(kit.build(_sum(kit, (kit.products(cols[i], rows[d - i])
                                           for i in range(d, -1, -1)))))
              for d in range(depth + 1)]
    return Resolvent(_orders_to_series(orders, m))


def resolvent_direct(data: AknsData, U: LatticeFn, alpha: int, depth: int) -> Resolvent:
    """Order-by-order solve of Delta R_i - [R_i, U]_D + [R_{i+1}, A]_D = 0.

    Shares the recursion kernel (direction policy, zero integration
    constants) with the dressing solver, so the result is comparable entry
    for entry with the dressed construction: the order loop on entry columns
    (``_solve_lattices`` with ``_DIRECT_RHS``), one whole-lattice pass per
    order.
    """
    _check_instance(data, U)
    e = data.projector(alpha)
    orders = [U.constant(e), *_solve_lattices(data, U, e, depth, _DIRECT_RHS)]
    return Resolvent(_orders_to_series(orders, data.m))


def cross_solver_difference(state: HierarchyState, alpha: int):
    """Max-abs entry of R_alpha dressed minus R_alpha direct, over sites and orders."""
    dressed = state.resolvent(alpha).series
    direct = resolvent_direct(state.data, state.U, alpha, state.depth).series
    return scalars.max_of(
        (series_diff_max(dressed.at(n), direct.at(n)) for n in dressed.sites()),
        state.mode,
    )


# -- discrete commutators --------------------------------------------------------------


def commutator_with_l(P: LatticeFn, data: AknsData, U: LatticeFn) -> LatticeFn:
    """Multiplication-operator part of [P, L]_D for L = Delta - z A + U.

    Expanded form: -Delta P - z ((Lambda P) A - A P) + (Lambda P) U - U P,
    with the deformed difference ``(P(n+1) - P(n)) / eps`` when the lattice
    carries a step.  Each site is built degree by degree from P(n), P(n+1)
    and U(n), and the tails are the same kernel on the tails (``_sitewise``,
    the entry-column pass with ``_bracket_degree``).  The sites run over
    ``[max(P.lo, U.lo), min(P.hi - 1, U.hi)]``.  P's site series must share
    one band and validity start.
    """
    return _sitewise(P, data, U, _bracket_degree)


def _sitewise(P: LatticeFn, data: AknsData, U: LatticeFn, degree) -> LatticeFn:
    """A site kernel of P and U on ``[max(P.lo, U.lo), min(P.hi - 1, U.hi)]``.

    One pass over all sites on entry columns, ``_series_columns`` with the
    per-degree kernel ``degree``; the tails are the same pass on one
    transition of the tails.
    """
    _check_instance(data, U)
    P._compat(U)
    lo, hi = max(P.lo, U.lo), min(P.hi - 1, U.hi)
    if lo > hi:
        raise DimensionError("operand ranges do not overlap")
    if len({(s.lo, s.hi, s.valid_lo) for s in P.values}) != 1:
        raise DimensionError("a site kernel needs one band across P's sites")
    run = partial(_series_columns, data=data, inv=inverse_step(P), degree=degree)
    vals = run([P.at(n) for n in range(lo, hi + 2)], [U.at(n) for n in range(lo, hi + 1)])
    tails = [run([t, t], [u])[0]
             for t, u in ((P.left_tail, U.left_tail), (P.right_tail, U.right_tail))]
    return LatticeFn(lo, hi, tuple(vals), *tails, P.step, P.mode)


def _site_band(c: MatSeries) -> tuple:
    """First degree and validity start of a site kernel's result from the band of c.

    A fully known band [lo, hi] gives [lo, hi + 1]; validity from v gives
    [v + 1, hi + 1], valid from v + 1.
    """
    _check_knows_a_degree(c.lo if c.valid_lo is None else c.valid_lo, c.hi)
    vlo = None if c.valid_lo is None else c.valid_lo + 1
    return (c.lo if vlo is None else vlo), vlo


# -- entry columns -----------------------------------------------------------------------
#
# Every Lax kernel runs here, in both modes.  A coefficient over consecutive
# sites is held as entry columns, row-major: column r*m + k lists entry (r, k)
# site by site.  A float coefficient is its m*m columns of doubles; a rational
# one is its m*m integer numerator columns and, last, one column of positive
# denominators, SmallMatrix's layout laid out as columns.  So slicing and
# repeating columns, and counting sites with ``len(x[0])``, read the same in
# both modes, and the rest is the column primitives of ``_FloatColumns`` and
# ``_ExactColumns`` (docs/derivations.md section 4).


def _products(a, b, m: int) -> list:
    """The columns of the products ``a(n) b(n)``, over the sites of the shorter columns.

    ``a`` holds the entry columns of m x J matrices and ``b`` of J x m ones,
    row-major, J = m or 1 (a column times a row).  An entry is the ``sum`` of
    its J terms from the integer 0, as in ``matrices._product``: of doubles,
    or of integer numerators.
    """
    n = len(b) // m
    js, ms = range(n), range(m)
    return [list(map(sum, zip(*[map(mul, a[r * n + j], b[j * m + k]) for j in js])))
            for r in ms for k in ms]


class _Columns:
    """What the column primitives of both modes share: the instance and the
    two-point recursion of each entry column."""

    def __init__(self, data: AknsData):
        self.data, self.m = data, data.m

    def recursions(self) -> list:
        """Per entry column, the ``(a_i, a_j, direction)`` of its two-point recursion."""
        m, a = self.m, self.data.a
        return [(a[i], a[j], self.data.direction(i + 1, j + 1)) for i in range(m) for j in range(m)]


class _FloatColumns(_Columns):
    """The float column primitives: each the operations of the ring operations it
    replaces, in their order, so each double is the same bit for bit."""

    def read(self, mats) -> list:
        """The entry columns of matrices at consecutive sites."""
        return list(zip(*[tuple(chain.from_iterable(x.rows)) for x in mats]))

    def build(self, x) -> list:
        """One matrix per site; the sites whose entries are all +0.0 share one zero
        matrix (a -0.0 keeps its site a matrix of its own)."""
        m, zero = self.m, SmallMatrix.zero(self.m, scalars.FLOAT)
        return [zero if not any(site) and min(map(copysign, repeat(1.0), site)) > 0
                else SmallMatrix._floats(m, tuple(zip(*[iter(site)] * m))) for site in zip(*x)]

    def zero(self, n: int) -> list:
        return [(0.0,) * n] * (self.m * self.m)

    def combine(self, x, y, op) -> list:
        """``op(x, y)`` entry by entry, ``op`` ``add`` or ``sub``, over the shorter columns."""
        return [list(map(op, p, q)) for p, q in zip(x, y)]

    def scale(self, x, s) -> list:
        return [[s * d for d in c] for c in x]

    def delta(self, x, inv) -> list:
        """The columns of ``Delta x``: ``inv * (x(n+1) - x(n))`` per entry in one pass,
        the doubles of ``scale(combine(..., sub), inv)``."""
        return [[inv * (b - a) for a, b in zip(c, c[1:])] for c in x]

    def products(self, x, y) -> list:
        return _products(x, y, self.m)

    def scalings(self, x) -> tuple:
        """The columns of ``x(n+1) A`` and of ``A x(n)``, A = diag(a), as iterators.

        Entry (r, k) is ``0 + x1_rk a_k`` and ``0 + a_r x_rk``: the scalings of
        ``matrices._diag_product``.
        """
        m, a = self.m, self.data.a
        return ([map(add, repeat(0), map(mul, c[1:], repeat(a[i % m]))) for i, c in enumerate(x)],
                [map(add, repeat(0), map(mul, repeat(a[i // m]), c)) for i, c in enumerate(x)])

    def solve(self, rhs) -> list:
        """``solve_two_point`` on each entry column of a right-hand side."""
        return [solve_two_point(a_i, a_j, c, way, scalars.FLOAT)
                for (a_i, a_j, way), c in zip(self.recursions(), rhs)]

    def magnitudes(self, x):
        return map(abs, chain.from_iterable(x))


class _ExactColumns(_Columns):
    """The rational column primitives, on numerator columns over a denominator column.

    A sum is formed as ``SmallMatrix.sum_of_products`` forms one: its terms
    are scaled to the per-site lcm of their denominators and summed unreduced.  A
    solved order returns to canonical columns (``solve``), and a built matrix
    gets the one gcd sweep.
    """

    def read(self, mats) -> list:
        return list(zip(*[(*chain.from_iterable(num), den)
                          for num, den in map(SmallMatrix.numerators, mats)]))

    def build(self, x) -> list:
        """One canonical matrix per site; the sites whose numerators are all zero
        share one zero matrix, a lean one: its ``rows`` are not formed."""
        m = self.m
        zero = SmallMatrix._canonical(m, ((0,) * m,) * m, 1)
        return [SmallMatrix._exact(m, tuple(zip(*[iter(site)] * m)), site[-1])
                if any(site[:-1]) else zero for site in zip(*x)]

    def zero(self, n: int) -> list:
        return [*[(0,) * n] * (self.m * self.m), (1,) * n]

    def combine(self, x, y, op) -> list:
        den = list(map(lcm, x[-1], y[-1]))
        fx, fy = list(map(floordiv, den, x[-1])), list(map(floordiv, den, y[-1]))
        return [*(list(map(op, map(mul, p, fx), map(mul, q, fy)))
                  for p, q in zip(x[:-1], y[:-1])), den]

    def scale(self, x, s) -> list:
        p, q = s.numerator, s.denominator
        return [*([p * v for v in c] for c in x[:-1]), [q * d for d in x[-1]]]

    def delta(self, x, inv) -> list:
        """The columns of ``Delta x``: ``x(n+1) - x(n)``, times ``inv`` = 1 / eps."""
        return self.scale(self.combine([c[1:] for c in x], x, sub), inv)

    def products(self, x, y) -> list:
        return [*_products(x[:-1], y[:-1], self.m), list(map(mul, x[-1], y[-1]))]

    def scalings(self, x) -> tuple:
        """The columns of ``x(n+1) A`` and of ``A x(n)``, A = diag(a) = diag(d) / q in
        lowest terms: d_k or d_r times a numerator, q times the site's denominator."""
        m, a = self.m, self.data.a
        q = lcm(*(f.denominator for f in a))
        d = [f.numerator * (q // f.denominator) for f in a]
        den = [q * v for v in x[-1]]
        return ([*([d[i % m] * v for v in c[1:]] for i, c in enumerate(x[:-1])), den[1:]],
                [*([d[i // m] * v for v in c] for i, c in enumerate(x[:-1])), den])

    def solve(self, rhs) -> list:
        """``_solve_exact`` on each entry, then canonical columns: each site's
        lowest-terms pairs over their lcm (``matrices.over_lcm``)."""
        *cols, den = rhs
        pairs = [_solve_exact(a_i, a_j, list(zip(c, den)), way)
                 for (a_i, a_j, way), c in zip(self.recursions(), cols)]
        nums, dens = zip(*map(over_lcm, zip(*pairs)))
        return [*map(list, zip(*nums)), list(dens)]

    def magnitudes(self, x):
        return (Fraction(abs(v), d) for c in x[:-1] for v, d in zip(c, x[-1]) if v)


def _kit(data: AknsData) -> _Columns:
    """The column primitives of the instance's mode."""
    return (_FloatColumns if data.mode == scalars.FLOAT else _ExactColumns)(data)


def _sum(kit, terms):
    """The sum of coefficients' columns, added in the order of ``terms``."""
    return reduce(partial(kit.combine, op=add), terms)


def _order(f: LatticeFn, k: int) -> list:
    """The coefficient of z^-k at each site of a lattice of series whose band ends at 0."""
    return [s.coeffs[-1 - k] for s in f.values]


def _pick(x, entries: slice, m: int) -> list:
    """The entry columns ``x[entries]`` of a coefficient and its denominator column,
    if it has one: its column (an m x 1 coefficient) or its row (1 x m)."""
    return [*x[entries], *x[m * m:]]


def _inverse_orders(kit, hat: LatticeFn, depth: int) -> list:
    """The orders v_0..v_depth of the inverse of ``hat`` as lattices on its sites.

    v_0 = w_0 = I, and v_j is ``-1`` times ``w_1 v_(j-1) + ... + w_j v_0``,
    summed in that order.  Each order is built as it is formed, and the next
    orders read its canonical columns.
    """
    lattice = partial(LatticeFn.from_values, hat.lo, step=hat.step)
    w = [kit.read(_order(hat, i)) for i in range(1, depth + 1)]
    orders = [lattice(_order(hat, 0))]
    v = [kit.read(orders[0].values)]
    for j in range(1, depth + 1):
        acc = _sum(kit, (kit.products(w[i - 1], v[j - i]) for i in range(1, j + 1)))
        orders.append(lattice(kit.build(kit.scale(acc, -1))))
        v.append(kit.read(orders[-1].values))
    return orders


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


# The right-hand sides of the order loop ``_order_columns``, as (parts, op):
# the order after x solves ``op(D, s)`` entry by entry with
# ``(s, D) = parts(kit, x, U, inv)``: ``Delta x + U x`` and
# ``Delta x - ((Lambda x) U - U x)``.
_DRESSING_RHS = (_dressing_parts, add)
_DIRECT_RHS = (_lax_columns, sub)


def _transition_columns(kit, U: LatticeFn) -> list:
    """U at its transitions U.lo..U.hi - 1 as entry columns."""
    if U.lo == U.hi:
        raise DimensionError("a recursion order needs at least two sites")
    return kit.read(U.values[:-1])


def _order_columns(kit, u, inv, first: SmallMatrix, depth: int, parts, op) -> tuple:
    """The order loop on U's transitions ``u``: ``first``, ``depth`` more orders, each the
    two-point solve of the right-hand side of the one before (``parts`` and ``op`` of
    ``_DRESSING_RHS`` or ``_DIRECT_RHS``), and the ``(s, D)`` columns of orders < depth."""
    orders, kept = [[c * (len(u[0]) + 1) for c in kit.read([first])]], []
    for _ in range(depth):
        kept.append(parts(kit, orders[-1], u, inv))
        s, d = kept[-1]
        orders.append(kit.solve(kit.combine(d, s, op)))
    return orders, kept


def _solve_lattices(data: AknsData, U: LatticeFn, first: SmallMatrix, depth: int,
                    rhs) -> list:
    """Orders 1..depth of ``_order_columns`` on U, as lattices on U's sites."""
    if depth < 1:
        return []
    kit = _kit(data)
    orders = _order_columns(kit, _transition_columns(kit, U), inverse_step(U), first, depth,
                            *rhs)[0]
    return [LatticeFn.from_values(U.lo, kit.build(c), step=U.step) for c in orders[1:]]


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


def _series_columns(cs: list, us: list, data: AknsData, inv, degree) -> list:
    """The series pass: ``degree`` at each transition of the series ``cs``, U(n) = ``us[n]``.

    ``degree`` is ``_bracket_degree`` or ``_defect_degree``:
    ``degree(kit, x, xp, u, inv)`` forms degree d from the columns of
    coefficient d (None on the top degree) and d - 1, which below a fully
    known band is the zero matrix.  The series share one band, and each
    coefficient is read into entry columns once.  Bands as in ``_site_band``.
    """
    kit = _kit(data)
    c0 = cs[0]
    first, vlo = _site_band(c0)
    u = kit.read(us)
    xs = [kit.zero(len(cs)),
          *(kit.read([c.coeffs[i] for c in cs]) for i in range(len(c0.coeffs))), None]
    degrees = [degree(kit, xs[i], xs[i - 1], u, inv) for i in range(first - c0.lo + 1, len(xs))]
    per_site = zip(*map(kit.build, degrees))
    return [MatSeries(kit.m, c.mode, first, c0.hi + 1, coeffs, vlo)
            for c, coeffs in zip(cs, per_site)]


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


def _check_flow_order(k: int) -> None:
    if k < 0:
        raise ValidityError(f"flow order {k} must be >= 0")


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
    only degree 0 forms new ones, of R_(k), with the zero matrix's z-term.
    The top degree k + 1 is ``_top_degree`` of R_(0).  A positive degree
    above ``tol`` is refused.
    """
    kit = _kit(data)
    e = data.projector(alpha)
    orders, lax = _order_columns(kit, u, inv, e, k, *_DIRECT_RHS)
    positive = [_lax_degree(kit, pq, dx, _z_columns(kit, orders[j + 1]))
                for j, (pq, dx) in enumerate(lax)]
    # R_(0) = e and the zero are the same at every site: their z-terms are
    # formed on one transition
    positive.append(_top_degree(kit, _z_columns(kit, [c * 2 for c in kit.read([e])])))
    pos = scalars.max_of(chain.from_iterable(map(kit.magnitudes, positive)), data.mode)
    if not pos <= tol:  # a nan fails it too
        raise ConsistencyError(f"positive z-degrees of the flow commutator do not vanish "
                               f"(residual {pos})")
    z0 = [repeat(z) for (z,) in _z_columns(kit, kit.zero(2))]
    return _lax_degree(kit, *_lax_columns(kit, orders[-1], u, inv), z0)


def diagonal_drift(f: LatticeFn):
    """Max-abs diagonal entry of a flow field: its discrete gauge drift."""
    return site_max(f, lambda v: v.diagonal_part().max_abs())
