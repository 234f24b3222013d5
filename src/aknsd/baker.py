"""Baker functions, tau-function exponential sums, and the bilinear verifier.

The Baker function is ``w = w_hat * g`` where ``g(n; t, z) =
(1 + eps z A)^n exp(sum_k z^k E_alpha t_{k alpha})`` is diagonal and satisfies
``Lambda g = (1 + eps z A) g``.  Every residue check below is
cancellation-reduced: the exponential factor is eliminated analytically
before any series arithmetic, so only ``w_hat``-shaped series, projections
``B`` / ``Bbar`` and the polynomial ``z A - U`` enter the computation (the
reductions are spelled out in docs/derivations.md).  In rational mode the
checks are exact; the finite-difference paths replace one analytic
derivative by a centered difference and converge at second order in the
differencing step.  Every series of a bilinear cell and of the dual kernel
is a lattice of series on entry columns (``columns._ColumnSeries``): each
product is formed for all the sites at once and multiplied out, and the
region a residual reads is a cut of the state's dressing columns
(``columns._DressingColumns``, ``_region``), passed beside the state.  The
transfer check ``difference_transfer_residual`` and the dual kernel of
``adjoint_check`` reduce those columns too, with U read as degree-0 series
(``_ColumnSeries.of_matrices``).

Tau functions are finite sums of exponentials ``exp(+-xi_g(x))`` carried by
their Miwa points ``(g, x, +-1)`` and taken at t = 0: the discrete time shift
multiplies a term by ``(1 + a_g x)^(+-n)`` and the Miwa shift by
``(1 - x/z)^(+-1)``, both rational, so every tau identity is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import scalars
from .dynamics import FlowIndex, rk4_step
from .errors import ConsistencyError, InstanceError, ValidityError
from .columns import _ColumnSeries, _DressingColumns
from .hierarchy import AknsData, HierarchyState
from .lattice import LatticeFn, inner_product, delta_apply, inverse_step
from .matrices import SmallMatrix
from .series import MatSeries, series_mul  # noqa: F401  (perfbench reads baker.series_mul)


# -- tau functions as sums over Miwa points -----------------------------------------


@dataclass(frozen=True)
class TauExpSum:
    """Finite sum of terms c * prod exp(s xi_g(x)) at t = 0, xi_g(x) = sum_k x^k t_kg.

    ``terms`` holds (c, points) pairs, each point a (g, x, s) triple with
    s = +1 or -1, points sorted within a term and terms with equal points
    merged.  The discrete and the Miwa shift multiply c by rational factors
    (docs/derivations.md section 8), so both stay exact in rational mode.
    """

    mode: str
    terms: tuple

    @staticmethod
    def make(terms, mode: str = scalars.RATIONAL) -> "TauExpSum":
        """terms: iterable of (c, points), each point a (gamma, x, sign) triple."""
        merged = {}
        for c, points in terms:
            for gamma, _, sign in points:
                if gamma < 1 or sign not in (1, -1):
                    raise InstanceError(f"bad Miwa point component {gamma} or sign {sign}")
            key = tuple(sorted((g, scalars.as_scalar(x, mode), s) for g, x, s in points))
            merged[key] = merged.get(key, scalars.zero(mode)) + scalars.as_scalar(c, mode)
        return TauExpSum(mode, tuple((c, p) for p, c in sorted(merged.items()) if c != 0))

    @staticmethod
    def one(mode: str = scalars.RATIONAL) -> "TauExpSum":
        return TauExpSum.make([(1, ())], mode)

    def discrete_shift(self, n: int, data: AknsData) -> "TauExpSum":
        """tau at lattice site n: each point multiplies c by (1 + a_g x)^(s n)."""
        a_entries = data.a
        terms = []
        for c, points in self.terms:
            for gamma, x, sign in points:
                if gamma > len(a_entries) or 1 + a_entries[gamma - 1] * x == 0:
                    raise InstanceError(
                        f"Miwa point ({gamma}, {x}) needs a component in "
                        f"1..{len(a_entries)} and 1 + a_gamma x != 0")
                c = c * (1 + a_entries[gamma - 1] * x) ** (sign * n)
            terms.append((c, points))
        return TauExpSum(self.mode, tuple(terms))

    def evaluate(self):
        """Value at t = 0: the sum of the coefficients."""
        return sum((c for c, _ in self.terms), scalars.zero(self.mode))


def miwa_shift(tau: TauExpSum, gamma: int, depth: int) -> list:
    """Coefficients of z^0, z^-1, ..., z^-depth of tau Miwa-shifted in ``gamma``.

    Each point (gamma, x, s) multiplies its term by (1 - x/z)^s, carried
    through z^-depth; points of other components are left alone.
    """
    zero = scalars.zero(tau.mode)
    total = [zero] * (depth + 1)
    for c, points in tau.terms:
        h = [c] + [zero] * depth
        for g, x, sign in points:
            if g != gamma:
                continue
            if sign == 1:  # times 1 - x/z
                h = [h[0]] + [h[j] - x * h[j - 1] for j in range(1, depth + 1)]
            else:  # over 1 - x/z
                for j in range(1, depth + 1):
                    h[j] += x * h[j - 1]
        total = [u + v for u, v in zip(total, h)]
    return total


def tau_lambda_defect(tau: TauExpSum, data: AknsData, n: int):
    """Largest |c| difference between tau shifted to site n + 1 and shifted by 1, then n.

    Both shifts keep the terms and their order, so the terms align one to one.
    """
    lhs = tau.discrete_shift(n + 1, data)
    rhs = tau.discrete_shift(1, data).discrete_shift(n, data)
    return scalars.max_of(
        (scalars.scalar_abs(a - b) for (a, _), (b, _) in zip(lhs.terms, rhs.terms)),
        tau.mode)


# -- Baker candidate from tau data ---------------------------------------------------


def baker_from_tau(tau_d: TauExpSum, companions: dict, n: int, data: AknsData,
                   depth: int) -> MatSeries:
    """Assemble the dressing-shaped candidate from tau data at site n, t = 0.

    Diagonal entries are Miwa-shifted-over-unshifted ratios of the scalar
    tau; off-diagonal entries (alpha, beta) carry the explicit z^-1 prefactor
    and the companion tau_{alpha beta}, Miwa-shifted in the column index
    (gamma = beta).
    """
    if depth < 1:
        raise ValidityError("candidate depth must be >= 1")
    m = data.m
    mode = tau_d.mode
    tau_site = tau_d.discrete_shift(n, data)
    denom = tau_site.evaluate()
    if denom == 0:
        raise ConsistencyError(f"tau denominator vanishes at site {n}")
    zero = scalars.zero(mode)
    rows = [[[zero] * m for _ in range(m)] for _ in range(depth + 1)]
    entries = [(alpha, alpha, 0, miwa_shift(tau_site, alpha, depth))
               for alpha in range(1, m + 1)]
    for (alpha, beta), tau_ab in companions.items():
        if alpha == beta or not (1 <= alpha <= m and 1 <= beta <= m):
            raise InstanceError(
                f"companion key ({alpha}, {beta}) is not an off-diagonal pair in 1..{m}")
        shifted = miwa_shift(tau_ab.discrete_shift(n, data), beta, depth - 1)
        entries.append((alpha, beta, 1, shifted))
    for alpha, beta, lag, coeffs in entries:
        for j, v in enumerate(coeffs):
            rows[j + lag][alpha - 1][beta - 1] = v / denom
    coeffs = {-j: SmallMatrix.from_rows(rows[j], mode) for j in range(depth + 1)}
    return MatSeries.from_coeffs(coeffs, m, mode, lo=-depth, hi=0, valid_lo=-depth)


# -- bilinear residue verifier ---------------------------------------------------------


def _stepped_regions(state: HierarchyState, region: _DressingColumns, flow: FlowIndex,
                     fd_step: float) -> list:
    """The dressings one RK4 step of +fd_step and of -fd_step along ``flow`` away, cut
    to the sites of ``region``.

    Float mode only: ``rk4_step`` refuses a rational potential.
    """
    states = (HierarchyState.solve(state.data, rk4_step(state.data, state.U, sign * fd_step, flow),
                                   state.window, state.depth, validate=False)
              for sign in (1.0, -1.0))
    return [s._columns.cut(region.hat.n_lo, region.hat.n_hi) for s in states]


def _centered(plus: _ColumnSeries, minus: _ColumnSeries, fd_step: float) -> _ColumnSeries:
    """The centered difference (plus - minus) / (2 fd_step), site by site."""
    return (plus - minus).scale(1.0 / (2.0 * fd_step))


def _displacement_polynomial(state: HierarchyState, k: int, alpha: int,
                             delta: float) -> MatSeries:
    """g(t + delta e_{k alpha}) g(t)^{-1} = exp(delta z^k E_alpha), truncated.

    For k = 0 the factor is exact (all powers sit at degree 0); for k >= 1
    it is kept through the cubic term z^(3k), a tail of size O(delta^4).
    """
    e = state.data.projector(alpha)
    ident = SmallMatrix.identity(state.data.m, state.mode)
    if k == 0:
        return MatSeries.constant(ident + e.scale(math.exp(delta) - 1.0))
    coeffs = {0: ident}
    fac = 1.0
    for j in range(1, 4):
        fac *= delta / j
        coeffs[j * k] = e.scale(fac)
    return MatSeries.from_coeffs(coeffs, state.data.m, state.mode)


def _mixed_word_factor(state: HierarchyState, region: _DressingColumns, k1: int, alpha1: int,
                       k2: int, alpha2: int, fd_step: float) -> _ColumnSeries:
    """(d_1 d_2 w) g^{-1} with the outer derivative taken numerically.

    d_2 w = B_2 w analytically; the centered difference of B_2(t) w(t) along
    the (k1, alpha1) flow is taken with g(t +- delta) g(t)^{-1} kept as the
    displacement polynomial, whose tail stays below the O(delta^2)
    differencing error, so only evolved dressing factors remain.  The
    displacement multiplies the sites only; the tails are B_2 w's.
    """
    legs = []
    for sign, cut in zip((1.0, -1.0),
                         _stepped_regions(state, region, FlowIndex(k1, alpha1), fd_step)):
        leg = cut.resolvent(alpha2).project("plus", k2) * cut.hat
        disp = leg.constant(_displacement_polynomial(state, k1, alpha1, sign * fd_step))
        legs.append(replace(leg * disp, tails=leg.tails))
    return _centered(*legs, fd_step)


def _step_polynomial(state: HierarchyState) -> MatSeries:
    """The exact polynomial I + eps z A, the one-site ratio of the g-factor."""
    return MatSeries.from_coeffs(
        {0: SmallMatrix.identity(state.data.m, state.mode),
         1: state.data.matrix.scale(state.step)},
        state.data.m, state.mode,
    )


def _word_factor(state: HierarchyState, region: _DressingColumns, word: tuple, path: str,
                 fd_step) -> _ColumnSeries:
    """The dressing-shaped series Y = (d^word w) g^{-1} on the region's sites."""
    hat = region.hat
    if len(word) == 0:
        return hat

    if len(word) == 1:
        (k, alpha), = word
        # d(W g) g^{-1} = dW + W z^k E_alpha
        zke = hat.constant(MatSeries.monomial(state.data.projector(alpha), k))
        if path == "analytic":
            # dW = -Bbar_{k alpha} W, so Y = W z^k E_alpha - Bbar W
            return hat * zke - region.resolvent(alpha).project("minus", k) * hat
        if path == "numeric":
            # the centered difference of the re-solved dressing along the flow
            plus, minus = _stepped_regions(state, region, FlowIndex(k, alpha), fd_step)
            return _centered(plus.hat, minus.hat, fd_step) + hat * zke
        raise ValueError(f"unknown path {path!r} for length-1 words")

    if len(word) != 2:
        raise InstanceError("derivative words are limited to length 2")
    (k1, a1), (k2, a2) = word
    if path == "analytic":
        # d_1 d_2 w = f w with f = (z^k2 [B_1, R_2])_+ + B_2 B_1, all of it
        # assembled from series products; f w w^{-1} stays free of negative
        # powers exactly when the hierarchy relations hold
        r2 = region.resolvent(a2)
        b2 = r2.project("plus", k2)
        b1 = region.resolvent(a1).project("plus", k1)
        f = (b1 * r2 - r2 * b1).project("plus", k2) + b2 * b1
        return f * hat
    if path == "mixed":
        return _mixed_word_factor(state, region, k1, a1, k2, a2, fd_step)
    raise ValueError(f"unknown path {path!r} for length-2 words")


def _expression(state: HierarchyState, region: _DressingColumns, y: _ColumnSeries,
                m_delta: int) -> _ColumnSeries:
    """(Delta^m d^word w) w^{-1} from the word factor ``y``, on the sites where
    ``y`` (at n, and at n + 1 for the difference form) and the inverse are.

    Every bilinear cell goes through here, so here the difference power m is
    checked to be 0 or 1.  With w = Y g and g(n+1) = (1 + eps z A) g(n), the
    difference form reduces to [Y(n+1) (1 + eps z A) - Y(n)] w_hat(n)^{-1} / eps.
    """
    if m_delta not in (0, 1):
        raise InstanceError("the difference power must be 0 or 1")
    if m_delta == 0:
        return y * region.hat_inverse
    lam_y = y.shift(1)
    diff = lam_y * lam_y.constant(_step_polynomial(state)) - y
    return (diff * region.hat_inverse).scale(inverse_step(state.U))


def _expression_columns(state: HierarchyState, m_delta: int, word: tuple, *,
                        path: str = "analytic", fd_step: float = 1e-5) -> _ColumnSeries:
    """``bilinear_expression`` on entry columns, on every site of the dressing."""
    region = state._columns
    return _expression(state, region, _word_factor(state, region, word, path, fd_step), m_delta)


def bilinear_expression(state: HierarchyState, m_delta: int, word: tuple, *,
                        path: str = "analytic", fd_step: float = 1e-5) -> LatticeFn:
    """The cancellation-reduced series (Delta^m d^word w) w^{-1} per site."""
    return _expression_columns(state, m_delta, word, path=path, fd_step=fd_step).lattice()


def difference_transfer_residual(state: HierarchyState):
    """Max-abs entry of (D_eps w) w^{-1} - (z A - U), on every site of the dressing and
    on entry columns: its degree 1 against A, its degree 0 against -U."""
    expr = _expression_columns(state, 1, ())
    a_term = expr.constant(MatSeries.monomial(state.data.matrix, 1))
    u_term = _ColumnSeries.of_matrices(expr.kit, state.U)
    return scalars.max_of(((expr - a_term).magnitude(1), (expr + u_term).magnitude(0)),
                          state.mode)


def bilinear_l_capacity(depth: int, word: tuple, m_delta: int) -> int:
    """Largest l whose residue the expression band supports at this depth.

    Each unit of flow order k and the single z-degree of the step polynomial
    I + eps z A (present when the difference power is 1) consume one order
    of the truncation band: capacity = depth - sum(k) - 1 - m_delta.  This
    is the closed form of the band of ``bilinear_expression`` on the analytic
    and numeric paths, -1 minus its lowest valid degree, and a test checks
    that the two agree.  On the mixed path the displacement polynomial
    spends 3 * k1 orders where the analytic derivative spends k1, so its band
    ends 2 * k1 orders short of this formula; only the band bounds it.
    """
    return depth - sum(k for k, _ in word) - 1 - m_delta


def bilinear_residual(state: HierarchyState, l_max: int, m_delta: int,
                      word: tuple = (), *, path: str = "analytic",
                      fd_step: float = 1e-5):
    """Residues res_z(z^l (Delta^m d^word w) w^{-1}) plus negative-degree mass.

    Returns the sum of the maximum residue magnitude over l <= l_max and the
    maximum absolute coefficient over all valid negative degrees (the sharper
    no-negative-powers claim), both over the window's region of interest.
    The expression's validity band is the depth budget: an l_max whose
    residue lies below it is refused.  The expression is formed on the region
    only (``_region``).
    """
    return _word_residuals(state, _region(state), word, [(m_delta, l_max)], path, fd_step)[0]


def bilinear_residuals(state: HierarchyState, grid: dict) -> list:
    """``bilinear_residual`` on the analytic path of every cell of ``grid``.

    ``grid`` maps each word to its ``(m_delta, l_max)`` cells; the values
    come word by word, in the cells' order.  One region serves every cell, so
    w_hat^{-1} and each resolvent are formed once, and each word factor Y is
    formed once, for all the cells of its word.
    """
    region = _region(state)
    return [v for word, cells in grid.items()
            for v in _word_residuals(state, region, word, cells, "analytic", None)]


def _region(state: HierarchyState) -> _DressingColumns:
    """The state's dressing columns cut to the sites [n_min, n_max + 1], all that a
    bilinear residual reads: the difference form reads Y(n + 1), hence the one site
    past n_max.  Every product there is site-local, so each value is the state's own
    at its site (docs/derivations.md section 5)."""
    return state._columns.cut(state.window.n_min, state.window.n_max + 1)


def _word_residuals(state: HierarchyState, region: _DressingColumns, word: tuple, cells: list,
                    path: str, fd_step) -> list:
    """The residual of each ``(m_delta, l_max)`` cell of one word, from one Y.

    Y, formed on [n_min, n_max + 1], is cut to [n_min, n_max] for the plain
    form, so each expression is formed on the region of interest only.
    """
    y = _word_factor(state, region, word, path, fd_step)
    lo, hi = state.window.n_min, state.window.n_max
    return [_residue_mass(_expression(state, region, y.restrict(lo, hi + m_delta), m_delta),
                          l_max)
            for m_delta, l_max in cells]


def _residue_mass(expr: _ColumnSeries, l_max: int):
    """The residues through l_max plus the negative-degree mass, over the sites of ``expr``.

    The residue degrees -1 .. -1 - l_max are negative degrees, so each
    degree's magnitude is read once, for both maxima.
    """
    if not expr.valid_at(-1 - l_max):
        raise ValidityError(
            f"depth budget exceeded: residues need degree {-1 - l_max}, "
            f"valid band starts at {expr.valid_lo}"
        )
    # the magnitudes of degrees -1, -2, ... down to the band's start
    mags = [expr.magnitude(d) for d in range(-1, min(expr.valid_degrees().start, 0) - 1, -1)]
    return scalars.max_of(mags[:l_max + 1], expr.mode) + scalars.max_of(mags, expr.mode)


# -- adjoint / dual checks ----------------------------------------------------------


def adjoint_check(state: HierarchyState, f: LatticeFn, g: LatticeFn):
    """(pairing residual, dual-kernel residual) for the dual operator.

    The dual of L = Delta - z A + U under <f, g> = sum tr(f g) acts by the
    dual difference and right multiplications: L* g = Delta* g - z g A + g U.
    The pairing residual compares <L f, g> with <f, L* g> degree by degree in
    z.  The kernel residual evaluates the reduced dual-Baker relation
    K(n) = (I + eps z A) w_hat(n)^{-1} - w_hat(n+1)^{-1} (I + eps z A - eps U(n)),
    which vanishes where the dressing relation holds (docs/derivations.md
    walks through the reduction, including the unit shift that the
    transposed-inverse kernel carries).
    """
    a_mat = state.data.matrix
    u = state.U

    lf0 = delta_apply(f, "forward") + \
        u.zip_with(f, lambda uu, ff: uu @ ff).restrict(f.lo, f.hi - 1)
    lf1 = f.map(lambda v: -(a_mat @ v))
    rg0 = delta_apply(g, "dual") + \
        g.zip_with(u, lambda gg, uu: gg @ uu).restrict(g.lo + 1, g.hi)
    rg1 = g.map(lambda v: -(v @ a_mat))
    pair0 = inner_product(lf0, g.restrict(lf0.lo, lf0.hi)) - \
        inner_product(f.restrict(rg0.lo, rg0.hi), rg0)
    pair1 = inner_product(lf1, g) - inner_product(f, rg1)
    pairing_residual = scalars.max_of(map(scalars.scalar_abs, (pair0, pair1)), state.mode)

    # the kernel on entry columns, at the sites of the shifted inverse
    inv = state._columns.hat_inverse
    lam_inv = inv.shift(1)
    left = inv.constant(_step_polynomial(state))
    eps_u = _ColumnSeries.of_matrices(inv.kit, u).scale(state.step)
    kernel = left * inv - lam_inv * (lam_inv.constant(_step_polynomial(state)) - eps_u)
    return pairing_residual, kernel.max_abs()
