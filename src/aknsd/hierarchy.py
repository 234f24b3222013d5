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

In rational mode each entry's recursion runs on integer (numerator,
denominator) pairs with one gcd per step (``_solve_exact``); the float mode
runs ``solve_two_point``, which stays the reference recursion for tests.

Everything else that reads w_hat, R or P is built site by site, degree by
degree, from the values at n and n + 1 alone:

* ``_resolvent_site``: degree d of ``w_hat E_alpha w_hat^{-1}`` is the sum of
  the rank-one products (column alpha of w_i)(row alpha of winv_j), i + j = d;
* ``_defect_site``: the coefficients of (T'),
  ``Delta w_d + U w_d - A w_(d-1) + (Lambda w)_(d-1) A``;
* ``_direct_rhs_site``: the direct resolvent's right-hand side
  ``Delta r - ((Lambda r) U - U r)``;
* ``_commutator_site``: the coefficients of ``[P, L]_D``.

A is diagonal, so its products are row and column scalings.  In rational mode
each coefficient of the first three is one ``SmallMatrix.from_terms`` sum,
swept once, and the commutator is composed from ring operations.  In float
mode every kernel keeps the operation order of the ring operations it
replaces, so float results are the same bit for bit; ``_direct_rhs_site``
and ``_commutator_site``, which carry every flow evaluation, form each
coefficient in one entrywise pass over the row tuples, with the products
from ``matrices._product`` (see docs/derivations.md sections 2, 3 and 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from math import gcd

from . import scalars
from .errors import ConsistencyError, DimensionError, InstanceError, ValidityError
from .lattice import LatticeFn, Window, delta_apply, site_max
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


def solve_two_point(a_i, a_j, rhs, lo: int, hi: int, direction: str, mode: str):
    """Solve a_i w(n) - a_j w(n+1) = rhs(n) for n in [lo, hi-1] on [lo, hi].

    ``rhs`` maps transition sites to scalars; missing sites mean zero.  The
    chosen direction fixes the one free constant: zero at the starting edge.
    This is the float kernel of ``_solve_order``, and on ``Fraction``s the
    reference that the integer kernel ``_solve_exact`` is tested against.
    """
    z = scalars.zero(mode)
    w = {n: z for n in range(lo, hi + 1)}
    if direction == "forward":
        for n in range(lo, hi):
            w[n + 1] = (a_i * w[n] - rhs.get(n, z)) / a_j
    elif direction == "backward":
        for n in range(hi - 1, lo - 1, -1):
            w[n] = (a_j * w[n + 1] + rhs.get(n, z)) / a_i
    elif direction == "integrate":
        for n in range(lo, hi):
            w[n + 1] = w[n] - rhs.get(n, z) / a_i
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return [w[n] for n in range(lo, hi + 1)]


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


def _solve_order(data: AknsData, rhs: LatticeFn, lo: int, hi: int) -> LatticeFn:
    """One recursion order: rhs is matrix-valued on [lo, hi-1]; result on [lo, hi]."""
    m = data.m
    mode = rhs.mode
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    if mode == scalars.FLOAT:
        parts = [(n, rhs.at(n).rows) for n in range(lo, hi)]
        cols = [solve_two_point(data.a[i - 1], data.a[j - 1],
                                {n: rows[i - 1][j - 1] for n, rows in parts},
                                lo, hi, data.direction(i, j), mode) for i, j in pairs]
        build = partial(SmallMatrix, m, mode)
    else:
        parts = [rhs.at(n).numerators() for n in range(lo, hi)]
        cols = [_solve_exact(data.a[i - 1], data.a[j - 1],
                             [(num[i - 1][j - 1], den) for num, den in parts],
                             data.direction(i, j)) for i, j in pairs]
        build = SmallMatrix.from_lowest_terms
    # cols holds one column of site values per entry, row-major: regroup per site
    vals = [build(tuple(site[r * m:(r + 1) * m] for r in range(m)))
            for site in zip(*cols)]
    return LatticeFn.from_values(lo, vals, step=rhs.step)


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
    lo, hi = U.lo, U.hi
    w_prev = U.constant(SmallMatrix.identity(data.m, U.mode))
    ws = []
    for _ in range(depth):
        dw = delta_apply(w_prev, "forward")
        rhs = dw + U.zip_with(w_prev, lambda u, w: u @ w).restrict(lo, hi - 1)
        w_next = _solve_order(data, rhs, lo, hi)
        ws.append(w_next)
        w_prev = w_next
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


def _defect_site(c: MatSeries, c1: MatSeries, u: SmallMatrix, *,
                 a_mat: SmallMatrix, inv) -> MatSeries:
    """(T') at one site from c = w_hat(n), c1 = w_hat(n+1) (one band) and u = U(n).

    Degree d reads ``((Delta c_d + U c_d) - A c_(d-1)) + c1_(d-1) A``, the A
    terms as row and column scalings; above the band the first two terms are
    zero.  In rational mode each degree is one ``from_terms`` sum, without the
    U term where U(n) is zero.  Bands as in ``_site_band``.
    """
    first, vlo = _site_band(c)
    exact = c.mode == scalars.RATIONAL
    u_terms = exact and not u.is_zero()  # an exact zero term adds nothing
    zero = SmallMatrix.zero(c.m, c.mode)
    coeffs = []
    for d in range(first, c.hi + 2):
        x, x1, xp, x1p = c.get(d), c1.get(d), c.get(d - 1), c1.get(d - 1)
        if exact:
            terms = _z_terms(xp, x1p, a_mat)
            if d <= c.hi:
                terms += _delta_terms(x, x1, inv)
                if u_terms:
                    terms.append(u.product_term(x))
            coeffs.append(SmallMatrix.from_terms(terms, c.m))
            continue
        out = zero if d > c.hi else _delta(x, x1, inv) + (u @ x)
        coeffs.append((out - xp.mul_diag(a_mat, left=True)) + x1p.mul_diag(a_mat, left=False))
    return MatSeries(c.m, c.mode, first, c.hi + 1, tuple(coeffs), vlo)


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

    Shares the recursion kernel, direction policy and zero integration
    constants with the dressing solver, so the result is comparable entry for
    entry with the dressed construction.  Each order's right-hand side is
    built site by site (``_direct_rhs_site``).
    """
    lo, hi = U.lo, U.hi
    inv = _inverse_step(U)
    orders = [U.constant(data.projector(alpha))]
    for _ in range(depth):
        r = orders[-1]
        rhs = [_direct_rhs_site(r.at(n), r.at(n + 1), U.at(n), inv) for n in range(lo, hi)]
        orders.append(_solve_order(data, LatticeFn.from_values(lo, rhs, step=U.step), lo, hi))
    return Resolvent(_orders_to_series(orders, data.m))


def _direct_rhs_site(r: SmallMatrix, r1: SmallMatrix, u: SmallMatrix, inv) -> SmallMatrix:
    """``Delta r - ((Lambda r) U - U r)`` at one site, from r = R(n) and r1 = R(n+1).

    Float: one entrywise pass, ``D_rk - ((r1 U)_rk - (U r)_rk)`` with the
    difference ``D`` of ``_delta``, in this operation order.  Rational: one
    ``from_terms`` sum, without the U terms where U(n) is zero.
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
    return SmallMatrix.from_terms(terms, r.m)


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


def _z_terms(x: SmallMatrix, x1: SmallMatrix, a_mat: SmallMatrix) -> list:
    """``-A x + x1 A`` as ``from_terms`` terms: a row and a column scaling."""
    return [_minus(x.diag_term(a_mat, left=True)), x1.diag_term(a_mat, left=False)]


def _commutator_site(c: MatSeries, c1: MatSeries, u: SmallMatrix, *,
                     a_mat: SmallMatrix, inv) -> MatSeries:
    """[P, L]_D at one site from c = P(n), c1 = P(n+1) (one band) and u = U(n).

    Degree d reads ``((c1_d U) - (U c_d)) - Delta c_d`` minus the z-term
    ``(c1_(d-1) A) - (A c_(d-1))``, whose products with the diagonal A are
    column and row scalings; the top degree d = hi + 1 is the zero minus its
    z-term.  Bands as in ``_site_band``.  Float coefficients come from
    ``_commutator_floats``, rational ones from the ring operations.
    """
    first, vlo = _site_band(c)
    if c.mode == scalars.FLOAT:
        coeffs = _commutator_floats(c, c1, u, a_mat, inv, first)
    else:
        coeffs = []
        for i in range(first - c.lo, c.hi - c.lo + 1):
            x, x1 = c.coeffs[i], c1.coeffs[i]
            out = ((x1 @ u) - (u @ x)) - _delta(x, x1, inv)
            if i > 0:
                out = out - _z_term(c.coeffs[i - 1], c1.coeffs[i - 1], a_mat)
            coeffs.append(out)
        x, x1 = c.coeffs[-1], c1.coeffs[-1]
        coeffs.append(SmallMatrix.zero(c.m, c.mode) - _z_term(x, x1, a_mat))
    return MatSeries(c.m, c.mode, first, c.hi + 1, tuple(coeffs), vlo)


def _commutator_floats(c: MatSeries, c1: MatSeries, u: SmallMatrix, a_mat: SmallMatrix,
                       inv, first: int) -> list:
    """The float coefficients of ``_commutator_site``, one entrywise pass each.

    Entry (r, k) of degree d is
    ``((p - q) - D) - ((0 + x1'_rk a_k) - (0 + a_r x'_rk))`` with
    ``p = (c1_d U)_rk``, ``q = (U c_d)_rk`` (``_product``), ``D`` the
    difference of ``_delta`` and ``x' = c_(d-1)``, ``x1' = c1_(d-1)``: the
    operation order of the ring operations, so the doubles are the same bit
    for bit (docs/derivations.md section 4).  Below a fully known band the
    coefficient is the zero matrix, whose z-term is +0.0 for a finite A, and
    ``v - 0.0`` is v.  The top degree is ``0.0 - z``.
    """
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
    return coeffs


def _z_term(x: SmallMatrix, x1: SmallMatrix, a_mat: SmallMatrix) -> SmallMatrix:
    """``(x1 A) - (A x)`` by a column and a row scaling."""
    return x1.mul_diag(a_mat, left=False) - x.mul_diag(a_mat, left=True)


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
