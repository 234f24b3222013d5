"""Baker functions, tau-function exponential sums, and the bilinear verifier.

The Baker function is ``w = w_hat * g`` where ``g(n; t, z) =
(1 + z A)^n exp(sum_k z^k E_alpha t_{k alpha})`` is diagonal and satisfies
``Lambda g = (1 + eps z A) g``.  Every residue check below is
cancellation-reduced: the exponential factor is eliminated analytically
before any series arithmetic, so only ``w_hat``-shaped series, projections
``B`` / ``Bbar`` and the polynomial ``z A - U`` enter the computation (the
reductions are spelled out in docs/derivations.md).  In rational mode the
checks are exact; the finite-difference paths replace one analytic
derivative by a centered difference and converge at second order in the
differencing step.

Tau functions are carried as finite exponential sums: the one class that is
closed under both the discrete time shift ``t_{k a} -> t_{k a} +
n (-1)^(k-1) a_a^k / k`` (absorbed into an exact exponent offset per term)
and Miwa shifts ``t_{k g} -> t_{k g} - z^-k / k`` (each term picks up an
exactly expandable series factor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import scalars
from .dynamics import CONSISTENCY_TOL, FlowIndex, make_field_fn, rk4_step
from .errors import ConsistencyError, InstanceError, ModeError, ValidityError
from .hierarchy import AknsData, HierarchyState, projector_b
from .lattice import LatticeFn, inner_product, delta_apply, shift_apply
from .matrices import SmallMatrix
from .series import MatSeries, series_mul, series_project

MAX_WORD_LEN = 2


# -- time points and derivative words ---------------------------------------------


@dataclass(frozen=True)
class TimePoint:
    """Finite mapping (k, alpha) -> t_{k alpha}; unspecified times are zero."""

    mode: str = scalars.RATIONAL
    entries: tuple = ()

    def __post_init__(self):
        seen = set()
        for (k, alpha), _ in self.entries:
            if k < 0 or alpha < 1:
                raise InstanceError(f"bad time label ({k}, {alpha})")
            if (k, alpha) in seen:
                raise InstanceError(f"duplicate time label ({k}, {alpha})")
            seen.add((k, alpha))

    @staticmethod
    def make(mapping: dict, mode: str = scalars.RATIONAL) -> "TimePoint":
        items = tuple(
            sorted(((k, a), scalars.as_scalar(v, mode))
                   for (k, a), v in mapping.items() if v != 0)
        )
        return TimePoint(mode, items)

    def get(self, k: int, alpha: int):
        for (kk, aa), v in self.entries:
            if (kk, aa) == (k, alpha):
                return v
        return scalars.zero(self.mode)

    def as_dict(self) -> dict:
        return {label: v for label, v in self.entries}


def make_word(*flows) -> tuple:
    """A derivative word: an ordered tuple of FlowIndex, length <= 2."""
    word = tuple(FlowIndex(int(k), int(a)) for (k, a) in flows)
    if len(word) > MAX_WORD_LEN:
        raise InstanceError(f"derivative words are limited to length {MAX_WORD_LEN}")
    return word


def shifted_times(n: int, t: TimePoint, data, k_max: int) -> TimePoint:
    """Discrete time shift t'_{k a} = t_{k a} + n (-1)^(k-1) a_a^k / k, k >= 1.

    The k = 0 times are excluded (the shift divides by k); they ride along
    unchanged in the z^0 factor of g.
    """
    a_entries = _diag_entries(data)
    mode = t.mode
    out = dict(t.as_dict())
    for k in range(1, k_max + 1):
        for alpha, a in enumerate(a_entries, start=1):
            shift = _unit_time_shift(k, a, mode)
            out[(k, alpha)] = out.get((k, alpha), scalars.zero(mode)) + n * shift
    return TimePoint.make(out, mode)


def _unit_time_shift(k: int, a, mode: str):
    """(-1)^(k-1) a^k / k: what one lattice step adds to t_{k alpha}, k >= 1."""
    sign = 1 if k % 2 == 1 else -1
    return scalars.as_scalar(sign, mode) * (a ** k) / k


# -- the exponential factor g -----------------------------------------------------


def _diag_entries(data) -> tuple:
    if isinstance(data, AknsData):
        return data.a
    return tuple(data)


def _exp_series_coeffs(x: dict, depth: int, mode: str) -> list:
    """Coefficients h_0..h_depth of exp(sum_k x_k y^k) via j h_j = sum i x_i h_{j-i}."""
    h = [scalars.one(mode)] + [scalars.zero(mode)] * depth
    for j in range(1, depth + 1):
        acc = scalars.zero(mode)
        for i in range(1, j + 1):
            xi = x.get(i)
            if xi:
                acc += i * xi * h[j - i]
        h[j] = acc / j
    return h


def _binom_coeffs(n: int, a, depth: int, mode: str) -> list:
    """Coefficients of (1 + a y)^n through y^depth; n may be negative."""
    out = [scalars.one(mode)]
    c = scalars.one(mode)
    for j in range(1, depth + 1):
        c = c * (n - (j - 1)) / j
        out.append(c * (a ** j))
    return out


@dataclass(frozen=True)
class GFactor:
    """Truncation to degrees [0, K] of g(n; t, z); diagonal by construction.

    ``truncated`` records that the true object carries degrees above K (it
    does unless n lies in [0, K] and all k >= 1 times vanish), so the series
    field must only be consumed degreewise through the band.
    """

    n: int
    band: int
    series: MatSeries
    truncated: bool

    def coeff(self, d: int) -> SmallMatrix:
        if d < 0:
            return SmallMatrix.zero(self.series.m, self.series.mode)
        if d > self.band:
            raise ValidityError(f"degree {d} above the g-factor band {self.band}")
        return self.series.get(d)


def g_series(n: int, t: TimePoint, data, band: int) -> GFactor:
    """g(n; t, z) = (1 + z A)^n exp(sum_{k>=0} z^k E_alpha t_{k alpha}).

    Scalar specialisation (one diagonal entry, a = 1, t = 0) is the discrete
    exponential with Delta Exp = z Exp.  Negative n expands the inverse
    binomial factor, which needs every a_alpha nonzero.
    """
    if band < 1:
        raise ValidityError("g-factor band must be at least 1")
    a_entries = _diag_entries(data)
    mode = t.mode
    if any(a == 0 for a in a_entries):
        raise InstanceError("g-factor needs nonzero diagonal entries")
    m = len(a_entries)
    diag = []
    truncated = not (0 <= n <= band)
    for alpha, a in enumerate(a_entries, start=1):
        t0 = t.get(0, alpha)
        if t0 == 0:
            front = scalars.one(mode)
        elif mode == scalars.FLOAT:
            front = math.exp(t0)
        else:
            raise ModeError(
                "rational mode needs t_{0,alpha} = 0 (exp of a nonzero "
                "rational is not rational)"
            )
        x = {k: t.get(k, alpha) for k in range(1, band + 1)}
        if any(x.values()):
            truncated = True
        exp_part = _exp_series_coeffs(x, band, mode)
        bin_part = _binom_coeffs(n, a, band, mode)
        entry = [
            front * sum(bin_part[i] * exp_part[d - i] for i in range(d + 1))
            for d in range(band + 1)
        ]
        diag.append(entry)
    coeffs = {
        d: SmallMatrix.diag([diag[i][d] for i in range(m)], mode)
        for d in range(band + 1)
    }
    series = MatSeries.from_coeffs(coeffs, m, mode, lo=0, hi=band)
    return GFactor(n, band, series, truncated)


# -- tau functions as exponential sums ------------------------------------------------


@dataclass(frozen=True)
class TauTerm:
    """One term c * exp(offset + sum p_{k a} t_{k a})."""

    c: object
    offset: object
    p: tuple  # sorted tuple of ((k, alpha), Scalar)

    def exponent_at(self, t: TimePoint):
        acc = self.offset
        for (k, a), v in self.p:
            tv = t.get(k, a)
            if tv != 0:
                acc = acc + v * tv
        return acc


@dataclass(frozen=True)
class TauExpSum:
    """Finite sum of exponentials in the times; closed under all shifts used here."""

    mode: str
    terms: tuple

    @staticmethod
    def make(terms, mode: str = scalars.RATIONAL) -> "TauExpSum":
        """terms: iterable of (c, {(k, alpha): p}), each with a zero offset."""
        built = tuple(
            TauTerm(scalars.as_scalar(c, mode), scalars.zero(mode),
                    tuple(sorted(((k, a), scalars.as_scalar(v, mode))
                                 for (k, a), v in p.items() if v != 0)))
            for c, p in terms
        )
        return TauExpSum(mode, built).canonical()

    @staticmethod
    def one(mode: str = scalars.RATIONAL) -> "TauExpSum":
        return TauExpSum.make([(1, {})], mode)

    def canonical(self) -> "TauExpSum":
        merged = {}
        for t in self.terms:
            key = (t.offset, t.p)
            merged[key] = merged.get(key, scalars.zero(self.mode)) + t.c
        terms = tuple(
            TauTerm(c, off, p)
            for (off, p), c in sorted(merged.items(), key=lambda kv: (kv[0][1], kv[0][0]))
            if c != 0
        )
        return TauExpSum(self.mode, terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TauExpSum):
            return NotImplemented
        return self.canonical().terms == other.canonical().terms

    def __add__(self, other: "TauExpSum") -> "TauExpSum":
        scalars.join_modes(self.mode, other.mode)
        return TauExpSum(self.mode, self.terms + other.terms).canonical()

    def discrete_shift(self, n: int, data) -> "TauExpSum":
        """tau_D(n; t) = tau(t'): the shift folds into exact exponent offsets."""
        a_entries = _diag_entries(data)
        out = []
        for term in self.terms:
            off = term.offset
            for (k, alpha), v in term.p:
                if k < 1:
                    continue
                off = off + v * n * _unit_time_shift(k, a_entries[alpha - 1], self.mode)
            out.append(TauTerm(term.c, off, term.p))
        return TauExpSum(self.mode, tuple(out)).canonical()

    def evaluate(self, t: TimePoint):
        """Value at a time point.

        Rational mode stays exact and therefore requires every term's total
        exponent to vanish (exp of a nonzero rational is transcendental);
        float mode evaluates the exponentials numerically.
        """
        total = scalars.zero(self.mode)
        for term in self.terms:
            arg = term.exponent_at(t)
            if self.mode == scalars.FLOAT:
                total += term.c * math.exp(arg)
            elif arg == 0:
                total += term.c
            else:
                raise ModeError(
                    "exact evaluation impossible: term exponent is nonzero; "
                    "use float mode"
                )
        return total


def miwa_shift_terms(tau: TauExpSum, gamma: int, depth: int) -> list:
    """Degreewise Miwa shift: coefficient of z^-j is again a TauExpSum.

    Each term picks up the factor exp(-sum_{k>=1} p_{k gamma} z^-k / k),
    expanded exactly through the requested depth.
    """
    out = [[] for _ in range(depth + 1)]
    for term in tau.terms:
        x = {}
        for (k, a), v in term.p:
            if a == gamma and k >= 1:
                x[k] = -v / k
        h = _exp_series_coeffs(x, depth, tau.mode)
        for j in range(depth + 1):
            if h[j] != 0:
                out[j].append(TauTerm(term.c * h[j], term.offset, term.p))
    return [TauExpSum(tau.mode, tuple(ts)).canonical() for ts in out]


def miwa_shift(tau: TauExpSum, gamma: int, depth: int,
               t: TimePoint | None = None) -> MatSeries:
    """Miwa-shifted tau as a scalar series, coefficients evaluated at ``t``."""
    if t is None:
        t = TimePoint(tau.mode)
    per_degree = miwa_shift_terms(tau, gamma, depth)
    coeffs = {
        -j: SmallMatrix.from_rows([[per_degree[j].evaluate(t)]], tau.mode)
        for j in range(depth + 1)
    }
    return MatSeries.from_coeffs(coeffs, 1, tau.mode, lo=-depth, hi=0, valid_lo=-depth)


def tau_lambda_consistent(tau: TauExpSum, data, n: int) -> bool:
    """Does evaluating at (n+1, t) equal evaluating at (n, t shifted one unit)?"""
    lhs = tau.discrete_shift(n + 1, data)
    rhs = tau.discrete_shift(1, data).discrete_shift(n, data)
    return lhs == rhs


# -- Baker candidate from tau data ---------------------------------------------------


def baker_from_tau(tau_d: TauExpSum, companions: dict, n: int, t: TimePoint,
                   data: AknsData, depth: int) -> MatSeries:
    """Assemble the dressing-shaped candidate from tau data at site n.

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
    denom = tau_site.evaluate(t)
    if denom == 0:
        raise ConsistencyError(f"tau denominator vanishes at site {n}")
    entry_series = {}
    for alpha in range(1, m + 1):
        num = miwa_shift(tau_site, alpha, depth, t)
        entry_series[(alpha, alpha)] = {
            d: num.get(d).get(1, 1) / denom for d in range(-depth, 1)
        }
    for (alpha, beta), tau_ab in companions.items():
        if alpha == beta:
            raise InstanceError("companions are indexed by off-diagonal pairs")
        shifted = miwa_shift(tau_ab.discrete_shift(n, data), beta, depth - 1, t)
        entry_series[(alpha, beta)] = {
            d - 1: shifted.get(d).get(1, 1) / denom for d in range(-(depth - 1), 1)
        }
    coeffs = {}
    for d in range(-depth, 1):
        rows = [[scalars.zero(mode)] * m for _ in range(m)]
        for (alpha, beta), entry in entry_series.items():
            rows[alpha - 1][beta - 1] = entry.get(d, scalars.zero(mode))
        coeffs[d] = SmallMatrix.from_rows(rows, mode)
    return MatSeries.from_coeffs(coeffs, m, mode, lo=-depth, hi=0, valid_lo=-depth)


# -- bilinear residue verifier ---------------------------------------------------------


@dataclass(frozen=True)
class BilinearCheck:
    """Residue and negative-degree parts of one bilinear evaluation."""

    residue_max: object
    negative_max: object
    l_max: int
    m_delta: int
    word: tuple
    path: str

    @property
    def value(self):
        return self.residue_max + self.negative_max


def _hat_derivative_analytic(state: HierarchyState, k: int, alpha: int) -> LatticeFn:
    """d/dt_{k alpha} of the dressing series: -Bbar_{k alpha} * w_hat."""
    resolvent = state.resolvent(alpha)
    _, bbar = projector_b(resolvent, k)
    return bbar.zip_with(state.hat, lambda b, w: -series_mul(b, w))


def _stepped_states(state: HierarchyState, flow: FlowIndex, fd_step: float) -> list:
    """The states one RK4 step of +fd_step and of -fd_step along ``flow`` away."""
    if state.mode != scalars.FLOAT:
        raise ModeError("the finite-difference path requires float mode")
    field_fn = make_field_fn(state.data, flow, CONSISTENCY_TOL)
    return [
        HierarchyState.solve(state.data, rk4_step(state.U, sign * fd_step, field_fn),
                             state.window, state.depth, validate=False)
        for sign in (1.0, -1.0)
    ]


def _hat_derivative_numeric(state: HierarchyState, k: int, alpha: int,
                            fd_step: float) -> LatticeFn:
    """Centered difference of the re-solved dressing along the (k, alpha) flow."""
    plus, minus = _stepped_states(state, FlowIndex(k, alpha), fd_step)
    inv = 1.0 / (2.0 * fd_step)
    return plus.hat.zip_with(minus.hat, lambda a, b: (a - b).scale(inv))


def _displacement_polynomial(state: HierarchyState, k: int, alpha: int,
                             delta: float, terms: int = 4) -> MatSeries:
    """g(t + delta e_{k alpha}) g(t)^{-1} = exp(delta z^k E_alpha), truncated.

    For k = 0 the factor is exact (all powers sit at degree 0); for k >= 1
    it is kept through z^(k*(terms-1)), a tail of size O(delta^terms).
    """
    e = state.data.projector(alpha)
    ident = SmallMatrix.identity(state.data.m, state.mode)
    if k == 0:
        return MatSeries.constant(ident + e.scale(math.exp(delta) - 1.0))
    coeffs = {0: ident}
    fac = 1.0
    for j in range(1, terms):
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
        b, _ = projector_b(solved.resolvent(alpha2), k2)
        disp = _displacement_polynomial(state, k1, alpha1, sign * fd_step)
        leg = b.zip_with(solved.hat, series_mul).map(
            lambda s: series_mul(s, disp), map_tails=False)
        legs.append(leg)
    inv = 1.0 / (2.0 * fd_step)
    return legs[0].zip_with(legs[1], lambda a, b: (a - b).scale(inv))


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
        if path == "analytic":
            d_hat = _hat_derivative_analytic(state, k, alpha)
        elif path == "numeric":
            d_hat = _hat_derivative_numeric(state, k, alpha, fd_step)
        else:
            raise ValueError(f"unknown path {path!r} for length-1 words")
        # d(W g) g^{-1} = dW + W z^k E_alpha
        zke = MatSeries.monomial(state.data.projector(alpha), k)
        return d_hat.zip_with(state.hat, lambda d, w: d + series_mul(w, zke))

    (k1, a1), (k2, a2) = word
    if path == "analytic":
        # d_1 d_2 w = f w with f = (z^k2 [B_1, R_2])_+ + B_2 B_1, all of it
        # assembled from series products; f w w^{-1} stays free of negative
        # powers exactly when the hierarchy relations hold
        b2, _ = projector_b(state.resolvent(a2), k2)
        b1, _ = projector_b(state.resolvent(a1), k1)
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


def bilinear_expression(state: HierarchyState, m_delta: int, word: tuple, *,
                        path: str = "analytic", fd_step: float = 1e-5) -> LatticeFn:
    """The cancellation-reduced series (Delta^m d^word w) w^{-1} per site."""
    if m_delta not in (0, 1):
        raise InstanceError("the difference power must be 0 or 1")
    word = make_word(*word)
    k_total = sum(k for k, _ in word)
    if state.depth - k_total - 1 < 1:
        raise ValidityError(
            f"depth budget exceeded: need depth > {k_total + 1}, have {state.depth}"
        )
    y = _word_factor(state, word, path, fd_step)
    if m_delta == 0:
        return y.zip_with(state.hat_inverse, series_mul)
    # with w = Y g and g(n+1) = (1 + eps z A) g(n), (Delta w)(n) w(n)^{-1}
    # reduces to [Y(n+1) (1 + eps z A) - Y(n)] w_hat(n)^{-1} / eps
    mid = _step_polynomial(state)
    eps_inv = scalars.one(state.mode) / state.step
    lam_y = shift_apply(y, 1)
    diff = lam_y.zip_with(y.restrict(lam_y.lo, lam_y.hi),
                          lambda yn1, yn: series_mul(yn1, mid) - yn)
    return diff.zip_with(state.hat_inverse,
                         lambda d, wi: series_mul(d, wi).scale(eps_inv))


def bilinear_l_capacity(depth: int, word: tuple, m_delta: int) -> int:
    """Largest l whose residue the expression band supports at this depth.

    Each unit of flow order k and the single z-degree of the step polynomial
    I + eps z A (present when the difference power is 1) consume one order
    of the truncation band: capacity = depth - sum(k) - 1 - m_delta.
    """
    return depth - sum(k for k, _ in word) - 1 - m_delta


def bilinear_residual(state: HierarchyState, l_max: int, m_delta: int,
                      word: tuple = (), *, path: str = "analytic",
                      fd_step: float = 1e-5):
    """Residues res_z(z^l (Delta^m d^word w) w^{-1}) plus negative-degree mass.

    Returns a :class:`BilinearCheck`; its ``value`` is the sum of the maximum
    residue magnitude over l <= l_max and the maximum absolute coefficient
    over all valid negative degrees (the sharper no-negative-powers claim),
    both over the window's region of interest.
    """
    expr = bilinear_expression(state, m_delta, word, path=path, fd_step=fd_step)
    expr = expr.restrict(state.window.n_min, state.window.n_max)
    res_max = scalars.zero(state.mode)
    neg_max = scalars.zero(state.mode)
    for n in expr.sites():
        s = expr.at(n)
        if not s.valid_at(-1 - l_max):
            raise ValidityError(
                f"depth budget exceeded: residues need degree {-1 - l_max}, "
                f"valid band starts at {s.valid_lo}"
            )
        for l in range(l_max + 1):
            v = s.get(-1 - l).max_abs()
            if v > res_max:
                res_max = v
        for d in range(min(s.valid_degrees().start, 0), 0):
            v = s.get(d).max_abs()
            if v > neg_max:
                neg_max = v
    return BilinearCheck(res_max, neg_max, l_max, m_delta, word, path)


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
    pairing_residual = max(scalars.scalar_abs(pair0), scalars.scalar_abs(pair1))

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
