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
``flow_field``) chooses its mode once: rational data runs per site, float
data on entry columns, and no kernel tests the mode again.

Rational mode.  One order loop, ``_solve_orders``, runs the dressing solve and
the direct resolvent from a first order and a right-hand-side site kernel;
each entry's recursion reads integer pairs with one gcd per step
(``_solve_exact``).  Everything that reads w_hat, R or P is built site by
site, degree by degree, from the values at n and n + 1 alone:

* ``_dressing_rhs_site``: ``Delta w + U w``, the dressing right-hand side;
* ``_direct_rhs_site``: the direct resolvent's ``Delta r - ((Lambda r) U - U r)``;
* ``_template``: degree d of ``rhs(c_d) - A c_(d-1) + c1_(d-1) A``;
* ``_defect_site``: (T'), the template with the dressing right-hand side;
* ``_commutator_site``: ``[P, L]_D``, minus the template with the direct one;
* ``_resolvent_site``: degree d of ``w_hat E_alpha w_hat^{-1}`` is the sum of
  the rank-one products (column alpha of w_i)(row alpha of winv_j), i + j = d
  (both modes).

A is diagonal, so its products are row and column scalings.  A right-hand
side is a list of ``SmallMatrix.from_terms`` terms, which its consumer sums
once (the template together with the z-terms).

Float mode runs on entry columns, one list per matrix entry over the sites,
with the operation order of the ring operations each kernel replaces, so
float results are the same bit for bit:

* ``_order_columns`` is the one float order loop: ``solve_two_point`` on the
  columns of a right-hand side, ``_DRESSING_RHS`` (``D + U x``) for
  ``solve_dressing`` and ``_DIRECT_RHS`` (``D - (p - q)``) for
  ``resolvent_direct`` and the flow field;
* ``_series_columns`` is the one float series pass, degree by degree with a
  per-degree kernel: ``_BRACKET`` (``((p - q) - D) - z``) for
  ``commutator_with_l`` and ``_DEFECT`` (``(rhs_d - A x') + x1' A``) for the
  dressing defect;
* ``flow_field`` is one whole-lattice pass from U to the field (``_flow_pass``,
  which ``dynamics.rk4_step`` also runs on its stage columns); it reuses each
  order's ``(p - q, D)`` columns for the positive degrees of [B, L]_D.

See docs/derivations.md sections 1 to 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, chain, repeat
from math import gcd
from operator import add, mul, sub

from . import scalars
from .errors import ConsistencyError, DimensionError, InstanceError, ValidityError
from .lattice import LatticeFn, Window, site_max
from .matrices import SmallMatrix
from .series import (
    MatSeries,
    _check_knows_a_degree,
    product_band,
    series_diff_max,
    series_inverse,
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


def validate_potential(U: LatticeFn) -> LatticeFn:
    """Check the potential invariants: zero tails, and zero diagonal entries.

    Evolved potentials are exempt: their callers skip validation, because the
    hierarchy flows of order k >= 1 rotate a pure-gauge diagonal component
    into U (see docs/derivations.md), so only *input* data is constrained.
    """
    if not U.left_tail.is_zero() or not U.right_tail.is_zero():
        raise InstanceError("potential must carry zero tails on both sides")
    for n in U.sites():
        v = U.at(n)
        for i in range(v.m):
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


def _solve_order(data: AknsData, rhs: list, lo: int, step) -> LatticeFn:
    """One rational recursion order from its right-hand sides at the transitions lo, lo + 1, ...

    Each right-hand side is the ``from_terms`` terms of one matrix, as the
    right-hand-side site kernels give them.
    """
    if not rhs:
        raise DimensionError("a recursion order needs at least two sites")
    m = data.m
    parts = [SmallMatrix.from_terms(r, m).numerators() for r in rhs]
    cols = [_solve_exact(data.a[i], data.a[j], [(num[i][j], den) for num, den in parts],
                         data.direction(i + 1, j + 1)) for i in range(m) for j in range(m)]
    return LatticeFn.from_values(lo, _site_matrices(cols, m, SmallMatrix.from_lowest_terms),
                                 step=step)


def _solve_orders(data: AknsData, U: LatticeFn, first: LatticeFn, rhs_site, depth: int) -> list:
    """The rational order loop: ``first`` and ``depth`` more orders on U's sites.

    Each order is solved from the one before: order x gives the next one the
    right-hand side
    ``rhs_site(x(n), x(n + 1), U(n), inv)`` at each transition n of U.
    """
    inv = _inverse_step(U)
    orders = [first]
    for _ in range(depth):
        x = orders[-1]
        rhs = [rhs_site(x.at(n), x.at(n + 1), U.at(n), inv) for n in range(U.lo, U.hi)]
        orders.append(_solve_order(data, rhs, U.lo, U.step))
    return orders


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

    The mode is U's.  Rational: the order loop ``_solve_orders`` with
    ``_dressing_rhs_site``.  Float: the same recursion on entry columns
    (``_solve_columns`` with ``_DRESSING_RHS``).
    """
    if depth < 1:
        raise InstanceError("dressing depth must be >= 1")
    ident = SmallMatrix.identity(data.m, U.mode)
    if U.mode == scalars.FLOAT:
        ws = _float_lattices(U, data.m, _solve_columns(data, U, ident, depth, *_DRESSING_RHS))
    else:
        ws = _solve_orders(data, U, U.constant(ident), _dressing_rhs_site, depth)[1:]
    return Dressing(depth, tuple(ws), data.conventions())


# -- solved state --------------------------------------------------------------------


@dataclass
class HierarchyState:
    """A potential together with its solved dressing at a given depth."""

    data: AknsData
    U: LatticeFn
    window: Window
    dressing: Dressing
    # resolvent_dressed per alpha, filled by ``resolvent``
    _resolvents: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        if depth > window.halo:
            raise InstanceError(
                f"depth {depth} exceeds window halo {window.halo}"
            )
        if validate:
            validate_potential(U)
        return HierarchyState(data, U, window, solve_dressing(data, U, depth))

    @cached_property
    def hat(self) -> LatticeFn:
        """The dressing series I + sum_k w_k z^-k as a series-valued function."""
        ident = self.U.constant(SmallMatrix.identity(self.data.m, self.mode))
        return _orders_to_series([ident, *self.dressing.ws], self.data.m)

    @cached_property
    def hat_inverse(self) -> LatticeFn:
        return self.hat.map(lambda s: series_inverse(s, self.depth), map_tails=False)

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
    return _sitewise(state.hat, state.data, state.U, _defect_site, _DEFECT)


def _dressing_rhs_site(x: SmallMatrix, x1: SmallMatrix, u: SmallMatrix, inv) -> list:
    """Rational ``Delta x + U x`` at one site, from x = w(n) and x1 = w(n+1).

    The ``from_terms`` terms, without the U term where U(n) is zero, for the
    consumer to sum once.  The float one is formed on entry columns
    (``_dressing_parts``).
    """
    terms = _delta_terms(x, x1, inv)
    if not u.is_zero():  # an exact zero term adds nothing
        terms.append(u.product_term(x))
    return terms


# -- resolvents ----------------------------------------------------------------------


@dataclass(frozen=True)
class Resolvent:
    """Series R with R_(0) = E_alpha satisfying [R, L]_D = 0 through its depth."""

    series: LatticeFn  # MatSeries-valued, band [-depth, 0]


def resolvent_dressed(state: HierarchyState, alpha: int) -> Resolvent:
    """R_alpha = w_hat E_alpha w_hat^{-1}, computed sitewise (``_resolvent_site``)."""
    state.data.projector(alpha)  # refuses an alpha outside 1..m
    return Resolvent(state.hat.zip_with(state.hat_inverse,
                                        partial(_resolvent_site, k=alpha - 1)))


def _resolvent_site(w: MatSeries, wi: MatSeries, k: int) -> MatSeries:
    """``w E wi`` at one site, E the projector on the 0-based index k.

    Degree d sums the rank-one products (column k of w_i)(row k of wi_j) over
    i + j = d.  E is a fully known degree-0 factor, so ``w E`` has the band
    and validity of ``w``, and the result those of the product ``w wi``.
    """
    lo, hi, vlo = product_band(w, wi)
    coeffs = tuple(SmallMatrix.sum_of_rank_one(
        ((w.coeffs[i - w.lo], wi.coeffs[d - i - wi.lo])
         for i in range(max(w.lo, d - wi.hi), min(w.hi, d - wi.lo) + 1)),
        k, w.m, w.mode) for d in range(lo, hi + 1))
    return MatSeries(w.m, w.mode, lo, hi, coeffs, vlo)


def resolvent_direct(data: AknsData, U: LatticeFn, alpha: int, depth: int) -> Resolvent:
    """Order-by-order solve of Delta R_i - [R_i, U]_D + [R_{i+1}, A]_D = 0.

    Shares the recursion kernel (direction policy, zero integration
    constants) with the dressing solver, so the result is comparable entry
    for entry with the dressed construction.  The mode is the instance's.
    Rational: the order loop ``_solve_orders`` with ``_direct_rhs_site``.
    Float: the same recursion on entry columns (``_solve_columns`` with
    ``_DIRECT_RHS``), one whole-lattice pass per order.
    """
    e = data.projector(alpha)
    if data.mode != scalars.FLOAT:
        orders = _solve_orders(data, U, U.constant(e), _direct_rhs_site, depth)
    else:
        orders = [U.constant(e),
                  *_float_lattices(U, data.m, _solve_columns(data, U, e, depth, *_DIRECT_RHS))]
    return Resolvent(_orders_to_series(orders, data.m))


def _direct_rhs_site(r: SmallMatrix, r1: SmallMatrix, u: SmallMatrix, inv) -> list:
    """``Delta r - ((Lambda r) U - U r)`` at one site, from r = R(n) and r1 = R(n+1).

    Rational: the ``from_terms`` terms, without the U terms where U(n) is
    zero.  The float one is formed on entry columns (``_lax_columns``).
    """
    terms = _delta_terms(r, r1, inv)
    if not u.is_zero():  # an exact zero term adds nothing
        terms += [_minus(r1.product_term(u)), u.product_term(r)]
    return terms


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
    and U(n), and the tails are the same kernel on the tails (``_sitewise``:
    ``_commutator_site`` in rational mode, the entry-column pass with
    ``_BRACKET`` in float mode).  The sites run over
    ``[max(P.lo, U.lo), min(P.hi - 1, U.hi)]``.  P's site series must share
    one band and validity start.
    """
    return _sitewise(P, data, U, _commutator_site, _BRACKET)


def _sitewise(P: LatticeFn, data: AknsData, U: LatticeFn, site, kernel) -> LatticeFn:
    """A site kernel of P and U on ``[max(P.lo, U.lo), min(P.hi - 1, U.hi)]``.

    The mode is chosen here, once, from P.  Rational: ``site(P(n), P(n+1),
    U(n))`` at each site.  Float: one pass over all sites on entry columns,
    ``_series_columns`` with ``kernel``.  The tails are the same on the tails,
    the pass on one transition.  The site kernel gets ``A`` and the inverse
    step (None for the unit step), the pass the instance and the inverse step.
    """
    P._compat(U)
    lo, hi = max(P.lo, U.lo), min(P.hi - 1, U.hi)
    if lo > hi:
        raise DimensionError("operand ranges do not overlap")
    if len({(s.lo, s.hi, s.valid_lo) for s in P.values}) != 1:
        raise DimensionError("a site kernel needs one band across P's sites")
    a_mat, inv = data.matrix, _inverse_step(P)
    if P.at(lo).mode == scalars.FLOAT:
        run = partial(_series_columns, data=data, inv=inv, kernel=kernel)
    else:
        def run(cs, us):
            return [site(c, c1, u, a_mat=a_mat, inv=inv) for c, c1, u in zip(cs, cs[1:], us)]
    vals = run([P.at(n) for n in range(lo, hi + 2)], [U.at(n) for n in range(lo, hi + 1)])
    tails = [run([t, t], [u])[0]
             for t, u in ((P.left_tail, U.left_tail), (P.right_tail, U.right_tail))]
    return LatticeFn(lo, hi, tuple(vals), *tails, P.step, P.mode)


def _inverse_step(f: LatticeFn):
    """1 / eps of a lattice, or None for the unit step (no division at all)."""
    eps = f.eps()
    return None if eps == 1 else scalars.one(f.mode) / eps


def _site_band(c: MatSeries) -> tuple:
    """First degree and validity start of a site kernel's result from the band of c.

    A fully known band [lo, hi] gives [lo, hi + 1]; validity from v gives
    [v + 1, hi + 1], valid from v + 1.
    """
    _check_knows_a_degree(c.lo if c.valid_lo is None else c.valid_lo, c.hi)
    vlo = None if c.valid_lo is None else c.valid_lo + 1
    return (c.lo if vlo is None else vlo), vlo


def _minus(term: tuple) -> tuple:
    """The negative of a ``from_terms`` term."""
    return term[0], -term[1]


def _delta_terms(x: SmallMatrix, x1: SmallMatrix, inv) -> list:
    """``(x1 - x) / eps`` as ``from_terms`` terms; the deformed one is swept once more."""
    if inv is None:
        return [x1.numerators(), _minus(x.numerators())]
    return [(x1 - x).scale(inv).numerators()]


def _template(c: MatSeries, c1: MatSeries, u: SmallMatrix, a_mat: SmallMatrix, inv,
              rhs) -> MatSeries:
    """Rational ``rhs_d - A c_(d-1) + c1_(d-1) A`` at one site, rhs_d = ``rhs(c_d, c1_d, ...)``.

    rhs_d is zero above the band; the A terms are row and column scalings.
    Each degree is one ``from_terms`` sum of the terms of rhs_d and the
    scalings.  Bands as in ``_site_band``.
    """
    first, vlo = _site_band(c)
    coeffs = []
    for d in range(first, c.hi + 2):
        rhs_d = rhs(c.get(d), c1.get(d), u, inv) if d <= c.hi else []
        coeffs.append(SmallMatrix.from_terms(
            [*rhs_d, _minus(c.get(d - 1).diag_term(a_mat, left=True)),
             c1.get(d - 1).diag_term(a_mat, left=False)], c.m))
    return MatSeries(c.m, c.mode, first, c.hi + 1, tuple(coeffs), vlo)


# (T') at one site from c = w_hat(n), c1 = w_hat(n+1) and u = U(n): degree d is
# ((Delta c_d + U c_d) - A c_(d-1)) + c1_(d-1) A, the template with the dressing rhs
_defect_site = partial(_template, rhs=_dressing_rhs_site)


def _commutator_site(c: MatSeries, c1: MatSeries, u: SmallMatrix, *,
                     a_mat: SmallMatrix, inv) -> MatSeries:
    """Rational [P, L]_D at one site from c = P(n), c1 = P(n+1) (one band) and u = U(n).

    Degree d reads ``((c1_d U) - (U c_d)) - Delta c_d`` minus the z-term
    ``(c1_(d-1) A) - (A c_(d-1))``, the top degree d = hi + 1 the zero minus
    its z-term: minus the template with the direct right-hand side
    (docs/derivations.md section 1).
    """
    return -_template(c, c1, u, a_mat, inv, _direct_rhs_site)


# -- float entry columns ---------------------------------------------------------------
#
# Every float kernel runs here.  A float coefficient over consecutive sites is
# held as m*m entry columns, row-major: column r*m + k lists entry (r, k) site
# by site.  The solves, the dressing defect, the commutator and the flow field
# run on them in whole-lattice passes, with the operations of the ring
# operations they replace, so each double is the same bit for bit
# (docs/derivations.md section 4).


def _columns(mats) -> list:
    """The m*m entry columns of float matrices at consecutive sites."""
    return list(zip(*[tuple(chain.from_iterable(x.rows)) for x in mats]))


def _site_matrices(cols, m: int, build) -> list:
    """One matrix per site from m*m entry columns: ``build`` of the site's rows."""
    return [build(tuple(zip(*[iter(site)] * m))) for site in zip(*cols)]


def _float_lattices(U: LatticeFn, m: int, coeffs: list) -> list:
    """Float coefficients on entry columns over U's sites as lattices on them."""
    build = partial(SmallMatrix._floats, m)
    return [LatticeFn.from_values(U.lo, _site_matrices(c, m, build), step=U.step)
            for c in coeffs]


def _products(a, b, m: int) -> list:
    """The columns of the products ``a(n) b(n)``, over the sites of the shorter columns.

    An entry is the ``sum`` of its m terms from the integer 0, as in
    ``matrices._product``.
    """
    ms = range(m)
    return [list(map(sum, zip(*[map(mul, a[r * m + j], b[j * m + k]) for j in ms])))
            for r in ms for k in ms]


def _delta_columns(x, inv) -> list:
    """The columns of ``Delta x``: ``x(n+1) - x(n)``, times ``inv`` for a deformed step."""
    dx = [list(map(sub, c[1:], c)) for c in x]
    return dx if inv is None else [[inv * d for d in c] for c in dx]


def _lax_columns(x, u, m: int, inv) -> tuple:
    """The columns of ``(x(n+1) U(n)) - (U(n) x(n))`` and of ``Delta x``.

    ``x`` is one coefficient at the sites 0..L, ``u`` is U at the
    transitions 0..L-1, and both results are at the transitions.
    """
    pq = [list(map(sub, p, q))
          for p, q in zip(_products([c[1:] for c in x], u, m), _products(u, x, m))]
    return pq, _delta_columns(x, inv)


def _dressing_parts(x, u, m: int, inv) -> tuple:
    """The columns of ``U(n) x(n)`` and of ``Delta x``, laid out as in ``_lax_columns``.

    ``Delta x + U x`` is their sum ``D + (U x)``, the ring operations'
    ``Delta x + (u @ x)`` in that order.
    """
    return _products(u, x, m), _delta_columns(x, inv)


# The float right-hand sides of the order loop ``_solve_columns``, as
# (check, parts, op): ``check(x, v)`` checks a U value v against the first
# order x as the ring operations did (``u @ x`` checks v first, the direct
# kernel x first), and the order after x solves ``op(D, s)`` entry by entry
# with ``(s, D) = parts(x, U, m, inv)``: ``Delta x + U x`` and
# ``Delta x - ((Lambda x) U - U x)``.
_DRESSING_RHS = (lambda x, v: v._compat(x), _dressing_parts, add)
_DIRECT_RHS = (SmallMatrix._compat, _lax_columns, sub)


def _transition_columns(U: LatticeFn, check) -> list:
    """U at its transitions U.lo..U.hi - 1 as entry columns, each value passed to ``check``."""
    vals = U.values[:-1]
    for v in vals:
        check(v)
    if U.lo == U.hi:
        raise DimensionError("a recursion order needs at least two sites")
    return _columns(vals)


def _order_columns(data: AknsData, u, inv, first: SmallMatrix, depth: int, parts, op) -> tuple:
    """The float order loop on U's transitions ``u``: ``first``, ``depth`` more orders, each
    ``solve_two_point`` on the right-hand side of the one before (``parts`` and ``op`` of
    ``_DRESSING_RHS`` or ``_DIRECT_RHS``), and the ``(s, D)`` columns of orders < depth."""
    m = data.m
    orders, kept = [[(x,) * (len(u[0]) + 1) for x in chain.from_iterable(first.rows)]], []
    for _ in range(depth):
        kept.append(parts(orders[-1], u, m, inv))
        orders.append([solve_two_point(data.a[i // m], data.a[i % m], list(map(op, d, s)),
                                       data.direction(i // m + 1, i % m + 1), scalars.FLOAT)
                       for i, (s, d) in enumerate(zip(*kept[-1]))])
    return orders, kept


def _solve_columns(data: AknsData, U: LatticeFn, first: SmallMatrix, depth: int,
                   check, parts, op) -> list:
    """Orders 1..depth of ``_order_columns`` on U; ``check(first, v)`` checks each value v."""
    if depth < 1:
        return []
    u = _transition_columns(U, partial(check, first))
    return _order_columns(data, u, _inverse_step(U), first, depth, parts, op)[0][1:]


def _scalings(x, a: tuple) -> list:
    """Per entry column of x, those of ``x(n+1) A`` and of ``A x(n)``, A = diag(a).

    Entry (r, k) is ``0 + x1_rk a_k`` and ``0 + a_r x_rk``: the scalings of
    ``matrices._diag_product``.
    """
    m = len(a)
    return [(map(add, repeat(0), map(mul, c[1:], repeat(a[i % m]))),
             map(add, repeat(0), map(mul, repeat(a[i // m]), c))) for i, c in enumerate(x)]


def _z_columns(x, a: tuple) -> list:
    """The columns of the z-term ``(x(n+1) A) - (A x(n))``."""
    return [list(map(sub, right, left)) for right, left in _scalings(x, a)]


def _lax_degree(pq, dx, z) -> list:
    """One coefficient of [P, L]_D on entry columns: ``((p - q) - D) - z``."""
    return [list(map(sub, map(sub, sc, dc), zc)) for sc, dc, zc in zip(pq, dx, z)]


def _top_degree(z) -> list:
    """The top coefficient of [P, L]_D on entry columns: the zero minus the z-term."""
    return [[0.0 - y for y in zc] for zc in z]


def _bracket_degree(x, xp, u, m: int, inv, a: tuple) -> list:
    """Degree d of [P, L]_D from the columns x of P_d and xp of P_(d-1).

    ``((p - q) - D) - z`` with z the z-term of xp; on the top degree (x None)
    ``0.0 - z``.
    """
    z = _z_columns(xp, a)
    return _top_degree(z) if x is None else _lax_degree(*_lax_columns(x, u, m, inv), z)


def _defect_degree(x, xp, u, m: int, inv, a: tuple) -> list:
    """Degree d of (T') from the columns x of W_d and xp of W_(d-1).

    ``((D + (U x)) - (0 + a_r xp)) + (0 + xp(n+1) a_k)``, the operations of
    ``(rhs_d - A xp) + xp(n+1) A``; on the top degree (x None) ``rhs_d`` is
    the zero.
    """
    v = repeat(repeat(0.0)) if x is None else \
        [map(add, d, q) for q, d in zip(*_dressing_parts(x, u, m, inv))]
    return [list(map(add, map(sub, vc, left), right))
            for vc, (right, left) in zip(v, _scalings(xp, a))]


def _bracket_check(c: MatSeries, c1: MatSeries, u: SmallMatrix, data: AknsData) -> None:
    """The operand checks of [P, L]_D at one transition: P(n) against P(n+1), then U(n)."""
    c._compat(c1)
    c.coeffs[0]._compat(u)


def _defect_check(c: MatSeries, c1: MatSeries, u: SmallMatrix, data: AknsData) -> None:
    """The operand checks of (T') at one transition, those of ``u @ c_d`` and then of
    the scaling ``A c_(d-1)``."""
    u._compat(c.coeffs[0])
    c.coeffs[0]._compat(data.matrix)


# The float per-degree kernels of the series pass, as (check, degree): [P, L]_D
# and the dressing defect (T')
_BRACKET = (_bracket_check, _bracket_degree)
_DEFECT = (_defect_check, _defect_degree)


def _series_columns(cs: list, us: list, data: AknsData, inv, kernel) -> list:
    """The float series pass: ``kernel`` at each transition of the series ``cs``, U(n) = ``us[n]``.

    ``kernel`` is ``_BRACKET`` or ``_DEFECT``, a pair ``(check, degree)``:
    ``check(c, c1, u, data)`` runs at each transition first, and
    ``degree(x, xp, u, m, inv, a)`` forms degree d from the columns of
    coefficient d (None on the top degree) and d - 1, which below a fully
    known band is the zero matrix.  The series share one band, and each
    coefficient is read into entry columns once.  Bands as in ``_site_band``.
    """
    check, degree = kernel
    c0 = cs[0]
    first, vlo = _site_band(c0)
    for c, c1, u in zip(cs, cs[1:], us):
        check(c, c1, u, data)
    m = c0.m
    u = _columns(us)
    xs = [[(0.0,) * len(cs)] * (m * m),
          *(_columns([c.coeffs[i] for c in cs]) for i in range(len(c0.coeffs))), None]
    degrees = [degree(xs[i], xs[i - 1], u, m, inv, data.a)
               for i in range(first - c0.lo + 1, len(xs))]
    build = partial(SmallMatrix._floats, m)
    per_site = zip(*[_site_matrices(cols, m, build) for cols in degrees])
    return [MatSeries(m, c.mode, first, c0.hi + 1, coeffs, vlo)
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
    Delta of R_{(k+1),pp}.  Float mode refuses what ``resolvent_direct``,
    ``projector_b`` and ``commutator_with_l`` refuse, in their order, and runs
    ``_flow_pass``; rational mode builds B and ``commutator_with_l``.
    """
    if data.mode == scalars.FLOAT:
        e = data.projector(alpha)
        u = _transition_columns(U, e._compat) if k >= 1 else None  # R_(1) reads U first
        scalars.join_modes(e.mode, U.mode)  # the site series of R carry U's mode
        _check_flow_order(k)
        if U.lo == U.hi:
            raise DimensionError("operand ranges do not overlap")
        if u is None:  # k = 0: the commutator reads U first, and its tail kernel the tails
            u = _transition_columns(U, e._compat)
        e._compat(U.left_tail)
        e._compat(U.right_tail)
        degree0 = _flow_pass(data, u, _inverse_step(U), k, alpha, tol)
        return _float_lattices(U, data.m, [degree0])[0]
    comm = commutator_with_l(projector_b(resolvent_direct(data, U, alpha, k), k, "plus"),
                             data, U)
    _check_positive_degrees(site_max(comm, lambda s: scalars.max_of(
        (s.get(d).max_abs() for d in range(max(1, s.lo), s.hi + 1)), s.mode)), tol)
    return LatticeFn.from_values(U.lo, [comm.at(n).get(0) for n in comm.sites()], step=U.step)


def _check_positive_degrees(pos, tol) -> None:
    if not pos <= tol:  # a nan fails it too
        raise ConsistencyError(f"positive z-degrees of the flow commutator do not vanish "
                               f"(residual {pos})")


def _flow_pass(data: AknsData, u: list, inv, k: int, alpha: int, tol) -> list:
    """The float flow field's degree-0 entry columns from U's columns ``u`` at its transitions.

    B_d = R_(k-d), d = 0..k, from ``_order_columns``.  Degree d >= 1 of
    [B, L]_D is ``((p - q) - D) - z(R_(k-d+1))``, and its ``p - q`` and ``D``
    are those of R_(k-d) that the right-hand side of order k - d + 1 formed;
    only degree 0 forms new ones, of R_(k), with the zero matrix's z-term.
    The top degree k + 1 is ``_top_degree`` of R_(0).  A positive degree
    above ``tol`` is refused; ``u`` is not checked here (``flow_field`` does).
    """
    e, a = data.projector(alpha), data.a
    orders, lax = _order_columns(data, u, inv, e, k, *_DIRECT_RHS[1:])
    positive = [_lax_degree(pq, dx, _z_columns(orders[j + 1], a))
                for j, (pq, dx) in enumerate(lax)]
    # R_(0) = e and the zero are the same at every site: their z-terms are
    # formed on one transition
    positive.append(_top_degree(_z_columns([(x, x) for x in chain.from_iterable(e.rows)], a)))
    _check_positive_degrees(scalars.max_of(
        map(abs, chain.from_iterable(chain.from_iterable(positive))), scalars.FLOAT), tol)
    z0 = [repeat(z) for (z,) in _z_columns([(0.0, 0.0)] * (data.m * data.m), a)]
    return _lax_degree(*_lax_columns(orders[-1], u, data.m, inv), z0)


def diagonal_drift(f: LatticeFn):
    """Max-abs diagonal entry of a flow field: its discrete gauge drift."""
    return site_max(f, lambda v: v.diagonal_part().max_abs())
