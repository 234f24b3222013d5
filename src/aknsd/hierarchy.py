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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from math import gcd

from . import scalars
from .errors import ConsistencyError, InstanceError, ValidityError
from .lattice import LatticeFn, Window, delta_apply, shift_apply, site_max
from .matrices import SmallMatrix
from .series import (
    MatSeries,
    series_diff_max,
    series_inverse,
    series_mul,
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


def _constant_on(U: LatticeFn, value) -> LatticeFn:
    """``value`` at every site of U's range and in both tails."""
    return LatticeFn(U.lo, U.hi, (value,) * (U.hi - U.lo + 1), value, value,
                     U.step, U.mode)


def _orders_to_series(orders: list, m: int) -> LatticeFn:
    """Per site, the series sum_k orders[k](n) z^-k, valid through its depth."""
    first = orders[0]
    depth = len(orders) - 1

    def site_series(n):
        return MatSeries.from_coeffs(
            {-k: f.at(n) for k, f in enumerate(orders)}, m, first.mode,
            lo=-depth, hi=0, valid_lo=-depth,
        )

    zero = MatSeries.zero(m, first.mode)
    return LatticeFn(first.lo, first.hi, tuple(site_series(n) for n in first.sites()),
                     zero, zero, first.step, first.mode)


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
        cols = [solve_two_point(data.a[i - 1], data.a[j - 1],
                                {n: rhs.at(n).get(i, j) for n in range(lo, hi)},
                                lo, hi, data.direction(i, j), mode) for i, j in pairs]
        build = partial(SmallMatrix, m, mode)
    else:
        parts = [rhs.at(n).numerators() for n in range(lo, hi)]
        cols = [_solve_exact(data.a[i - 1], data.a[j - 1],
                             [(num[i - 1][j - 1], den) for num, den in parts],
                             data.direction(i, j)) for i, j in pairs]
        build = SmallMatrix.from_lowest_terms
    # cols holds one column of site values per entry, row-major: regroup per site
    vals = tuple(build(tuple(site[r * m:(r + 1) * m] for r in range(m)))
                 for site in zip(*cols))
    zero = SmallMatrix.zero(m, mode)
    return LatticeFn(lo, hi, vals, zero, zero, rhs.step, mode)


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
    w_prev = _constant_on(U, SmallMatrix.identity(data.m, U.mode))
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
        ident = _constant_on(self.U, SmallMatrix.identity(self.data.m, self.mode))
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
    a_mat = state.data.matrix
    hat = state.hat
    lam_hat = shift_apply(hat, 1)
    d_hat = delta_apply(hat, "forward")
    u_term = state.U.zip_with(hat, lambda u, s: s.left_mul_mat(u))
    za_term = hat.map(lambda s: s.left_mul_mat(a_mat).shift_degree(1), map_tails=False)
    lam_term = lam_hat.map(lambda s: s.right_mul_mat(a_mat).shift_degree(1), map_tails=False)
    return (d_hat + u_term.restrict(d_hat.lo, d_hat.hi)) - \
        za_term.restrict(d_hat.lo, d_hat.hi) + lam_term


# -- resolvents ----------------------------------------------------------------------


@dataclass(frozen=True)
class Resolvent:
    """Series R with R_(0) = E_alpha satisfying [R, L]_D = 0 through its depth."""

    alpha: int
    series: LatticeFn  # MatSeries-valued, band [-depth, 0]
    depth: int


def resolvent_dressed(state: HierarchyState, alpha: int) -> Resolvent:
    """R_alpha = w_hat E_alpha w_hat^{-1}, computed sitewise."""
    e_alpha = MatSeries.constant(state.data.projector(alpha))
    vals = state.hat.zip_with(
        state.hat_inverse,
        lambda w, wi: series_mul(series_mul(w, e_alpha), wi),
    )
    return Resolvent(alpha, vals, state.depth)


def resolvent_direct(data: AknsData, U: LatticeFn, alpha: int, depth: int) -> Resolvent:
    """Order-by-order solve of Delta R_i - [R_i, U]_D + [R_{i+1}, A]_D = 0.

    Shares the recursion kernel, direction policy and zero integration
    constants with the dressing solver, so the result is comparable entry for
    entry with the dressed construction.
    """
    lo, hi = U.lo, U.hi
    orders = [_constant_on(U, data.projector(alpha))]
    for _ in range(depth):
        r_prev = orders[-1]
        d_prev = delta_apply(r_prev, "forward")
        lam_prev = shift_apply(r_prev, 1)
        comm_u = lam_prev.zip_with(U.restrict(lam_prev.lo, lam_prev.hi),
                                   lambda r, u: r @ u) - \
            U.zip_with(r_prev, lambda u, r: u @ r).restrict(lam_prev.lo, lam_prev.hi)
        rhs = d_prev - comm_u
        orders.append(_solve_order(data, rhs, lo, hi))
    return Resolvent(alpha, _orders_to_series(orders, data.m), depth)


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
    with the deformed difference when the lattice carries a step.
    """
    a_mat = data.matrix
    d_p = delta_apply(P, "forward")
    lam_p = shift_apply(P, 1)
    lo, hi = lam_p.lo, lam_p.hi
    z_term = lam_p.map(lambda s: s.right_mul_mat(a_mat), map_tails=False) - \
        P.map(lambda s: s.left_mul_mat(a_mat), map_tails=False).restrict(lo, hi)
    z_term = z_term.map(lambda s: s.shift_degree(1), map_tails=False)
    u_term = lam_p.zip_with(U.restrict(lo, hi), lambda s, u: s.right_mul_mat(u)) - \
        P.zip_with(U, lambda s, u: s.left_mul_mat(u)).restrict(lo, hi)
    return u_term - d_p - z_term


# -- projections and the hierarchy flow field ----------------------------------------------


def projector_b(resolvent: Resolvent, k: int):
    """(B, Bbar): non-negative and strictly-negative parts of z^k R_alpha."""
    if not 0 <= k < resolvent.depth:
        raise ValidityError(
            f"flow order {k} outside the resolvent validity depth {resolvent.depth}"
        )
    shifted = resolvent.series.map(lambda s: s.shift_degree(k), map_tails=False)
    b = shifted.map(lambda s: series_project(s, "plus"), map_tails=False)
    bbar = shifted.map(lambda s: series_project(s, "minus"), map_tails=False)
    return b, bbar


def flow_field(data: AknsData, U: LatticeFn, k: int, alpha: int, *,
               tol=0) -> LatticeFn:
    """The (k, alpha) flow of the potential: degree-0 part of [B_{k alpha}, L]_D.

    ``B = (z^k R_alpha)_+`` comes from the direct resolvent through order k+1
    (what ``projector_b`` reads); no dressing is solved.  Every coefficient at
    z-degree >= 1 must vanish (up to ``tol``; exactly in rational mode).  The
    full degree-0 coefficient is returned; its diagonal, measured by
    ``diagonal_drift``, is the discrete gauge drift Delta of R_{(k+1),pp}.
    """
    if k < 0:
        raise ValidityError(f"flow order {k} must be >= 0")
    b, _ = projector_b(resolvent_direct(data, U, alpha, k + 1), k)
    comm = commutator_with_l(b, data, U)
    pos = site_max(comm, lambda s: scalars.max_of(
        (s.get(d).max_abs() for d in range(max(1, s.lo), s.hi + 1)), s.mode))
    if pos > tol:
        raise ConsistencyError(
            f"positive z-degrees of the flow commutator do not vanish "
            f"(residual {pos})"
        )
    zero = SmallMatrix.zero(data.m, U.mode)
    return LatticeFn(comm.lo, comm.hi,
                     tuple(comm.at(n).get(0) for n in comm.sites()),
                     zero, zero, comm.step, comm.mode)


def diagonal_drift(f: LatticeFn):
    """Max-abs diagonal entry of a flow field: its discrete gauge drift."""
    return site_max(f, lambda v: v.diagonal_part().max_abs())
