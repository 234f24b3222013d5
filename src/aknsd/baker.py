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
differencing step.

Tau functions are finite sums of exponentials ``exp(+-xi_g(x))`` carried by
their Miwa points ``(g, x, +-1)`` and taken at t = 0: the discrete time shift
multiplies a term by ``(1 + a_g x)^(+-n)`` and the Miwa shift by
``(1 - x/z)^(+-1)``, both rational, so every tau identity is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import scalars
from .dynamics import FlowIndex, rk4_step
from .errors import ConsistencyError, InstanceError, ValidityError
from .hierarchy import AknsData, HierarchyState, projector_b
from .lattice import LatticeFn, inner_product, delta_apply, inverse_step, shift_apply
from .matrices import SmallMatrix
from .series import MatSeries, series_mul, series_project


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


class _Region(HierarchyState):
    """A state seen on the sites [n_min, n_max + 1], all that a bilinear residual reads.

    The same instance, potential, window and dressing, with the dressing
    series cut to these sites, so the inverse and the resolvents a residual
    forms from it are formed there only; the difference form reads
    Y(n + 1), hence the one site past n_max.  Every product of the
    expression is site-local, so each value is the state's own at its site
    (docs/derivations.md section 5).  A region lives for one call of
    ``bilinear_residual`` or ``bilinear_residuals``.
    """

    @cached_property
    def hat(self) -> LatticeFn:
        return HierarchyState.hat.func(self).restrict(self.window.n_min, self.window.n_max + 1)


def _stepped_states(state: HierarchyState, flow: FlowIndex, fd_step: float) -> list:
    """The states one RK4 step of +fd_step and of -fd_step along ``flow`` away.

    Float mode only: ``rk4_step`` refuses a rational potential.
    """
    return [
        HierarchyState.solve(state.data, rk4_step(state.data, state.U, sign * fd_step, flow),
                             state.window, state.depth, validate=False)
        for sign in (1.0, -1.0)
    ]


def _hat_derivative_numeric(state: HierarchyState, k: int, alpha: int,
                            fd_step: float) -> LatticeFn:
    """Centered difference of the re-solved dressing along the (k, alpha) flow."""
    plus, minus = _stepped_states(state, FlowIndex(k, alpha), fd_step)
    return _centered(plus.hat, minus.hat, fd_step)


def _centered(plus: LatticeFn, minus: LatticeFn, fd_step: float) -> LatticeFn:
    """The centered difference (plus - minus) / (2 fd_step), site by site."""
    inv = 1.0 / (2.0 * fd_step)
    return plus.zip_with(minus, lambda a, b: (a - b).scale(inv))


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


def _mixed_word_factor(state: HierarchyState, k1: int, alpha1: int,
                       k2: int, alpha2: int, fd_step: float) -> LatticeFn:
    """(d_1 d_2 w) g^{-1} with the outer derivative taken numerically.

    d_2 w = B_2 w analytically; the centered difference of B_2(t) w(t) along
    the (k1, alpha1) flow is taken with g(t +- delta) g(t)^{-1} kept as the
    displacement polynomial, whose tail stays below the O(delta^2)
    differencing error, so only evolved dressing factors remain.
    """
    stepped = _stepped_states(state, FlowIndex(k1, alpha1), fd_step)
    legs = []
    for sign, solved in zip((1.0, -1.0), stepped):
        b = projector_b(solved.resolvent(alpha2), k2, "plus")
        disp = _displacement_polynomial(state, k1, alpha1, sign * fd_step)
        leg = b.zip_with(solved.hat, series_mul).map(
            lambda s: series_mul(s, disp), map_tails=False)
        legs.append(leg)
    return _centered(*legs, fd_step)


def _step_polynomial(state: HierarchyState) -> MatSeries:
    """The exact polynomial I + eps z A, the one-site ratio of the g-factor."""
    return MatSeries.from_coeffs(
        {0: SmallMatrix.identity(state.data.m, state.mode),
         1: state.data.matrix.scale(state.step)},
        state.data.m, state.mode,
    )


def _word_factor(state: HierarchyState, word: tuple, path: str,
                 fd_step: float) -> LatticeFn:
    """The dressing-shaped series Y = (d^word w) g^{-1} per site."""
    if len(word) == 0:
        return state.hat

    if len(word) == 1:
        (k, alpha), = word
        # d(W g) g^{-1} = dW + W z^k E_alpha
        zke = MatSeries.monomial(state.data.projector(alpha), k)
        if path == "analytic":
            # dW = -Bbar_{k alpha} W, so Y = W z^k E_alpha - Bbar W
            bbar = projector_b(state.resolvent(alpha), k, "minus")
            return state.hat.zip_with(bbar, lambda w, b: series_mul(w, zke) - series_mul(b, w))
        if path == "numeric":
            d_hat = _hat_derivative_numeric(state, k, alpha, fd_step)
            return d_hat.zip_with(state.hat, lambda d, w: d + series_mul(w, zke))
        raise ValueError(f"unknown path {path!r} for length-1 words")

    if len(word) != 2:
        raise InstanceError("derivative words are limited to length 2")
    (k1, a1), (k2, a2) = word
    if path == "analytic":
        # d_1 d_2 w = f w with f = (z^k2 [B_1, R_2])_+ + B_2 B_1, all of it
        # assembled from series products; f w w^{-1} stays free of negative
        # powers exactly when the hierarchy relations hold
        b2 = projector_b(state.resolvent(a2), k2, "plus")
        b1 = projector_b(state.resolvent(a1), k1, "plus")
        r2 = state.resolvent(a2).series

        def bracket(bb, rr):
            return series_mul(bb, rr) - series_mul(rr, bb)

        comm = b1.zip_with(r2, bracket)
        db2 = comm.map(
            lambda s: series_project(s.shift_degree(k2), "plus"), map_tails=False
        )
        f = db2.zip_with(b1.zip_with(b2, lambda x, y: series_mul(y, x)),
                         lambda a, b: a + b)
        return f.zip_with(state.hat, series_mul)
    if path == "mixed":
        return _mixed_word_factor(state, k1, a1, k2, a2, fd_step)
    raise ValueError(f"unknown path {path!r} for length-2 words")


def _expression(state: HierarchyState, y: LatticeFn, m_delta: int) -> LatticeFn:
    """(Delta^m d^word w) w^{-1} from the word factor ``y``, on the sites where
    ``y`` (at n, and at n + 1 for the difference form) and ``hat_inverse`` are.

    Every bilinear cell goes through here, so here the difference power m is
    checked to be 0 or 1.  With w = Y g and g(n+1) = (1 + eps z A) g(n), the
    difference form reduces to [Y(n+1) (1 + eps z A) - Y(n)] w_hat(n)^{-1} / eps.
    """
    if m_delta not in (0, 1):
        raise InstanceError("the difference power must be 0 or 1")
    if m_delta == 0:
        return y.zip_with(state.hat_inverse, series_mul)
    mid = _step_polynomial(state)
    lam_y = shift_apply(y, 1)
    diff = lam_y.zip_with(y.restrict(lam_y.lo, lam_y.hi),
                          lambda yn1, yn: series_mul(yn1, mid) - yn)
    eps_inv = inverse_step(state.U)
    return diff.zip_with(state.hat_inverse,
                         lambda d, wi: series_mul(d, wi).scale(eps_inv))


def bilinear_expression(state: HierarchyState, m_delta: int, word: tuple, *,
                        path: str = "analytic", fd_step: float = 1e-5) -> LatticeFn:
    """The cancellation-reduced series (Delta^m d^word w) w^{-1} per site."""
    return _expression(state, _word_factor(state, word, path, fd_step), m_delta)


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
    only (``_Region``).
    """
    return _word_residuals(_region(state), word, [(m_delta, l_max)], path, fd_step)[0]


def bilinear_residuals(state: HierarchyState, grid: dict) -> list:
    """``bilinear_residual`` on the analytic path of every cell of ``grid``.

    ``grid`` maps each word to its ``(m_delta, l_max)`` cells; the values
    come word by word, in the cells' order.  One region serves every cell, so
    w_hat^{-1} and each resolvent are formed once, and each word factor Y is
    formed once, for all the cells of its word.
    """
    region = _region(state)
    return [v for word, cells in grid.items()
            for v in _word_residuals(region, word, cells, "analytic", None)]


def _region(state: HierarchyState) -> _Region:
    return _Region(state.data, state.U, state.window, state.dressing)


def _word_residuals(region: _Region, word: tuple, cells: list, path: str,
                    fd_step) -> list:
    """The residual of each ``(m_delta, l_max)`` cell of one word, from one Y.

    Y, formed on [n_min, n_max + 1], is cut to [n_min, n_max] for the plain
    form, so each expression is formed on the region of interest only.
    """
    y = _word_factor(region, word, path, fd_step)
    lo, hi = region.window.n_min, region.window.n_max
    return [_residue_mass(_expression(region, y.restrict(lo, hi + m_delta), m_delta),
                          l_max, region.mode)
            for m_delta, l_max in cells]


def _residue_mass(expr: LatticeFn, l_max: int, mode: str):
    """The residues through l_max plus the negative-degree mass, over the sites of ``expr``.

    The residue degrees -1 .. -1 - l_max are negative degrees, so each
    coefficient's magnitude is read once, for both maxima.
    """
    for s in expr.values:
        if not s.valid_at(-1 - l_max):
            raise ValidityError(
                f"depth budget exceeded: residues need degree {-1 - l_max}, "
                f"valid band starts at {s.valid_lo}"
            )
    # per site, the magnitudes of degrees -1, -2, ... down to the band's start
    mags = [[s.get(d).max_abs() for d in range(-1, min(s.valid_degrees().start, 0) - 1, -1)]
            for s in expr.values]
    res_max = scalars.max_of((v for site in mags for v in site[:l_max + 1]), mode)
    neg_max = scalars.max_of((v for site in mags for v in site), mode)
    return res_max + neg_max


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

    eps = state.step
    left = _step_polynomial(state)
    lam_inv = shift_apply(state.hat_inverse, 1)

    def kernel(n):
        right = left - MatSeries.constant(u.at(n).scale(eps))
        return series_mul(left, state.hat_inverse.at(n)) - \
            series_mul(lam_inv.at(n), right)

    kernel_residual = scalars.max_of(
        (kernel(n).max_abs() for n in lam_inv.sites()), state.mode)
    return pairing_residual, kernel_residual
