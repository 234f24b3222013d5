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

One driver, ``_solve_orders``, runs both solves from a first order and a
right-hand-side site kernel.  Each entry's recursion reads a list: integer
pairs with one gcd per step in rational mode (``_solve_exact``), doubles in
float mode (``solve_two_point``, also the reference recursion for tests).

Everything that reads w_hat, R or P is built site by site, degree by degree,
from the values at n and n + 1 alone:

* ``_dressing_rhs_site``: ``Delta w + U w``, the dressing right-hand side;
* ``_direct_rhs_site``: the direct resolvent's ``Delta r - ((Lambda r) U - U r)``;
* ``_template``: degree d of ``rhs(c_d) - A c_(d-1) + c1_(d-1) A``;
* ``_defect_site``: (T'), the template with the dressing right-hand side;
* ``_commutator_site``: ``[P, L]_D``, minus the template with the direct one;
* ``_resolvent_site``: degree d of ``w_hat E_alpha w_hat^{-1}`` is the sum of
  the rank-one products (column alpha of w_i)(row alpha of winv_j), i + j = d.

A is diagonal, so its products are row and column scalings.  In rational
mode a right-hand side is a list of ``SmallMatrix.from_terms`` terms, which
its consumer sums once (the template together with the z-terms).  In float
mode every kernel keeps the operation order of the ring operations it
replaces, so float results are the same bit for bit; ``_direct_rhs_site`` and
``_commutator_floats``, which carry every flow evaluation, form each
coefficient in one entrywise pass over the row tuples, with the products from
``matrices._product`` (see docs/derivations.md sections 1 to 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate
from math import gcd

from . import scalars
from .errors import ConsistencyError, DimensionError, InstanceError, ValidityError
from .lattice import LatticeFn, Window, site_max
from .matrices import SmallMatrix, _product
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
    zero at the starting edge.  This is the float kernel of ``_solve_order``,
    and on ``Fraction``s the reference of the integer kernel ``_solve_exact``.
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
    """One recursion order from its right-hand sides at the transitions lo, lo + 1, ...

    Each right-hand side is a float matrix or, in rational mode, the
    ``from_terms`` terms of one, as the right-hand-side site kernels give them.
    """
    if not rhs:
        raise DimensionError("a recursion order needs at least two sites")
    m = data.m
    pairs = [(i, j) for i in range(m) for j in range(m)]
    if isinstance(rhs[0], SmallMatrix):
        parts = [r.rows for r in rhs]
        cols = [solve_two_point(data.a[i], data.a[j], [rows[i][j] for rows in parts],
                                data.direction(i + 1, j + 1), scalars.FLOAT) for i, j in pairs]
        build = partial(SmallMatrix._floats, m)
    else:
        parts = [SmallMatrix.from_terms(r, m).numerators() for r in rhs]
        cols = [_solve_exact(data.a[i], data.a[j], [(num[i][j], den) for num, den in parts],
                             data.direction(i + 1, j + 1)) for i, j in pairs]
        build = SmallMatrix.from_lowest_terms
    # cols holds one column of site values per entry, row-major: regroup per site
    vals = [build(tuple(site[r * m:(r + 1) * m] for r in range(m)))
            for site in zip(*cols)]
    return LatticeFn.from_values(lo, vals, step=step)


def _solve_orders(data: AknsData, U: LatticeFn, first: LatticeFn, rhs_site, depth: int) -> list:
    """``first`` and ``depth`` more orders on U's sites, each solved from the one before.

    Order x gives the next one the right-hand side
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
    """Order-by-order solve of Delta w_k + U w_k = A w_{k+1} - (Lambda w_{k+1}) A."""
    if depth < 1:
        raise InstanceError("dressing depth must be >= 1")
    ident = U.constant(SmallMatrix.identity(data.m, U.mode))
    ws = _solve_orders(data, U, ident, _dressing_rhs_site, depth)[1:]
    return Dressing(depth, tuple(ws), data.conventions())


# -- solved state --------------------------------------------------------------------


@dataclass
class HierarchyState:
    """A potential together with its solved dressing at a given depth."""

    data: AknsData
    U: LatticeFn
    window: Window
    dressing: Dressing

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
        if not hasattr(self, "_resolvents"):
            self._resolvents = {}
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
    """Delta w_hat + U w_hat - z A w_hat + z (Lambda w_hat) A, site by site (``_defect_site``)."""
    return _sitewise(state.hat, state.data, state.U, _defect_site)


def _dressing_rhs_site(x: SmallMatrix, x1: SmallMatrix, u: SmallMatrix, inv):
    """``Delta x + U x`` at one site, from x = w(n) and x1 = w(n+1).

    Float: the matrix ``_delta + (u @ x)``, in this operation order.
    Rational: its ``from_terms`` terms, without the U term where U(n) is zero,
    for the consumer to sum once.
    """
    if x.mode == scalars.FLOAT:
        return _delta(x, x1, inv) + (u @ x)
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

    Shares the order loop and the recursion kernel (direction policy, zero
    integration constants) with the dressing solver, so the result is
    comparable entry for entry with the dressed construction.
    """
    orders = _solve_orders(data, U, U.constant(data.projector(alpha)), _direct_rhs_site, depth)
    return Resolvent(_orders_to_series(orders, data.m))


def _direct_rhs_site(r: SmallMatrix, r1: SmallMatrix, u: SmallMatrix, inv):
    """``Delta r - ((Lambda r) U - U r)`` at one site, from r = R(n) and r1 = R(n+1).

    Float: one entrywise pass, ``D_rk - ((r1 U)_rk - (U r)_rk)`` with the
    difference ``D`` of ``_delta``, in this operation order.  Rational: the
    ``from_terms`` terms, without the U terms where U(n) is zero.
    """
    if r.mode == scalars.FLOAT:
        r._compat(u)
        r1._compat(u)
        x, x1 = r.rows, r1.rows
        return SmallMatrix._floats(r.m, tuple([tuple([
            (b - e if inv is None else inv * (b - e)) - (p - q)
            for p, q, e, b in zip(pr, qr, xr, x1r)])
            for pr, qr, xr, x1r in zip(_product(x1, u.rows), _product(u.rows, x), x, x1)]))
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
    and U(n) (``_commutator_site``); the tails are the same kernel on the
    tails.  The sites run over ``[max(P.lo, U.lo), min(P.hi - 1, U.hi)]``.
    P's site series must share one band and validity start.
    """
    return _sitewise(P, data, U, _commutator_site)


def _sitewise(P: LatticeFn, data: AknsData, U: LatticeFn, kernel) -> LatticeFn:
    """``kernel(P(n), P(n+1), U(n))`` on ``[max(P.lo, U.lo), min(P.hi - 1, U.hi)]``.

    The tails are the kernel on the tails.  The kernel also gets ``A`` and
    the inverse step (None for the unit step).
    """
    P._compat(U)
    lo, hi = max(P.lo, U.lo), min(P.hi - 1, U.hi)
    if lo > hi:
        raise DimensionError("operand ranges do not overlap")
    if len({(s.lo, s.hi, s.valid_lo) for s in P.values}) != 1:
        raise DimensionError("a site kernel needs one band across P's sites")
    site = partial(kernel, a_mat=data.matrix, inv=_inverse_step(P))
    vals = tuple(site(P.at(n), P.at(n + 1), U.at(n)) for n in range(lo, hi + 1))
    return LatticeFn(lo, hi, vals,
                     site(P.left_tail, P.left_tail, U.left_tail),
                     site(P.right_tail, P.right_tail, U.right_tail), P.step, P.mode)


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


def _delta(x: SmallMatrix, x1: SmallMatrix, inv) -> SmallMatrix:
    """The difference ``(x1 - x) / eps`` of one coefficient."""
    dx = x1 - x
    return dx if inv is None else dx.scale(inv)


def _minus(term: tuple) -> tuple:
    """The negative of a ``from_terms`` term."""
    return term[0], -term[1]


def _delta_terms(x: SmallMatrix, x1: SmallMatrix, inv) -> list:
    """``_delta`` as ``from_terms`` terms; the deformed one is swept once more."""
    if inv is None:
        return [x1.numerators(), _minus(x.numerators())]
    return [_delta(x, x1, inv).numerators()]


def _template(c: MatSeries, c1: MatSeries, u: SmallMatrix, a_mat: SmallMatrix, inv,
              rhs) -> MatSeries:
    """``rhs_d - A c_(d-1) + c1_(d-1) A`` at one site, rhs_d = ``rhs(c_d, c1_d, u, inv)``.

    rhs_d is zero above the band; the A terms are row and column scalings.
    Rational: each degree is one ``from_terms`` sum of the terms of rhs_d and
    the scalings.  Float: ``(rhs_d - A c_(d-1)) + c1_(d-1) A``.  Bands as in
    ``_site_band``.
    """
    first, vlo = _site_band(c)
    exact = c.mode == scalars.RATIONAL
    zero = [] if exact else SmallMatrix.zero(c.m, c.mode)  # rhs_d above the band
    coeffs = []
    for d in range(first, c.hi + 2):
        xp, x1p = c.get(d - 1), c1.get(d - 1)
        rhs_d = rhs(c.get(d), c1.get(d), u, inv) if d <= c.hi else zero
        if exact:
            coeffs.append(SmallMatrix.from_terms(
                [*rhs_d, _minus(xp.diag_term(a_mat, left=True)),
                 x1p.diag_term(a_mat, left=False)], c.m))
        else:
            coeffs.append((rhs_d - xp.mul_diag(a_mat, left=True))
                          + x1p.mul_diag(a_mat, left=False))
    return MatSeries(c.m, c.mode, first, c.hi + 1, tuple(coeffs), vlo)


# (T') at one site from c = w_hat(n), c1 = w_hat(n+1) and u = U(n): degree d is
# ((Delta c_d + U c_d) - A c_(d-1)) + c1_(d-1) A, the template with the dressing rhs
_defect_site = partial(_template, rhs=_dressing_rhs_site)


def _commutator_site(c: MatSeries, c1: MatSeries, u: SmallMatrix, *,
                     a_mat: SmallMatrix, inv) -> MatSeries:
    """[P, L]_D at one site from c = P(n), c1 = P(n+1) (one band) and u = U(n).

    Degree d reads ``((c1_d U) - (U c_d)) - Delta c_d`` minus the z-term
    ``(c1_(d-1) A) - (A c_(d-1))``, the top degree d = hi + 1 the zero minus
    its z-term.  That is minus the template with the direct right-hand side,
    which gives the rational coefficients; the negation would flip the sign
    of a float zero, so floats come from ``_commutator_floats``
    (docs/derivations.md section 1).
    """
    if c.mode == scalars.FLOAT:
        return _commutator_floats(c, c1, u, a_mat, inv)
    return -_template(c, c1, u, a_mat, inv, _direct_rhs_site)


def _commutator_floats(c: MatSeries, c1: MatSeries, u: SmallMatrix, a_mat: SmallMatrix,
                       inv) -> MatSeries:
    """Float ``_commutator_site``, one entrywise pass per coefficient.

    Entry (r, k) of degree d is
    ``((p - q) - D) - ((0 + x1'_rk a_k) - (0 + a_r x'_rk))`` with
    ``p = (c1_d U)_rk``, ``q = (U c_d)_rk`` (``_product``), ``D`` the
    difference of ``_delta`` and ``x' = c_(d-1)``, ``x1' = c1_(d-1)``: the
    operation order of the ring operations, so the doubles are the same bit
    for bit (docs/derivations.md section 4).  Below a fully known band the
    coefficient is the zero matrix, whose z-term is +0.0 for a finite A, and
    ``v - 0.0`` is v.  The top degree is ``0.0 - z``.
    """
    first, vlo = _site_band(c)
    c._compat(c1)
    c.coeffs[0]._compat(u)
    m = c.m
    a = tuple(a_mat.rows[r][r] for r in range(m))
    zero = SmallMatrix.zero(m, scalars.FLOAT).rows
    xs = (zero, *[x.rows for x in c.coeffs])
    x1s = (zero, *[x.rows for x in c1.coeffs])
    ur = u.rows
    coeffs = []
    for i in range(first - c.lo + 1, len(xs)):
        x, x1, xp, x1p = xs[i], x1s[i], xs[i - 1], x1s[i - 1]
        coeffs.append(SmallMatrix._floats(m, tuple([tuple([
            ((p - q) - (b - e if inv is None else inv * (b - e)))
            - ((0 + bp * ak) - (0 + ar * ep))
            for p, q, e, b, ep, bp, ak in zip(pr, qr, xr, x1r, xpr, x1pr, a)])
            for pr, qr, xr, x1r, xpr, x1pr, ar
            in zip(_product(x1, ur), _product(ur, x), x, x1, xp, x1p, a)])))
    coeffs.append(SmallMatrix._floats(m, tuple([tuple([
        0.0 - ((0 + bp * ak) - (0 + ar * ep)) for ep, bp, ak in zip(xpr, x1pr, a)])
        for xpr, x1pr, ar in zip(xs[-1], x1s[-1], a)])))
    return MatSeries(m, c.mode, first, c.hi + 1, tuple(coeffs), vlo)


# -- projections and the hierarchy flow field ----------------------------------------------


def projector_b(resolvent: Resolvent, k: int, part: str) -> LatticeFn:
    """One projection of z^k R_alpha: ``"plus"`` is B, ``"minus"`` is Bbar.

    B, the non-negative degrees, reads R_(0)..R_(k), so ``"plus"`` needs
    ``0 <= k <= depth``; Bbar starts at R_(k+1), so ``"minus"`` needs
    ``0 <= k < depth``.  ``series_project`` refuses the k beyond the band.
    """
    if k < 0:
        raise ValidityError(f"flow order {k} must be >= 0")
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
    Delta of R_{(k+1),pp}.
    """
    b = projector_b(resolvent_direct(data, U, alpha, k), k, "plus")
    comm = commutator_with_l(b, data, U)
    pos = site_max(comm, lambda s: scalars.max_of(
        (s.get(d).max_abs() for d in range(max(1, s.lo), s.hi + 1)), s.mode))
    if not pos <= tol:  # a nan fails it too
        raise ConsistencyError(
            f"positive z-degrees of the flow commutator do not vanish "
            f"(residual {pos})"
        )
    return LatticeFn.from_values(comm.lo, [comm.at(n).get(0) for n in comm.sites()],
                                 step=comm.step)


def diagonal_drift(f: LatticeFn):
    """Max-abs diagonal entry of a flow field: its discrete gauge drift."""
    return site_max(f, lambda v: v.diagonal_part().max_abs())
