"""Entry columns: the column primitives of both modes, and a lattice of series on them.

Every Lax kernel of ``hierarchy`` and the bilinear verifier of ``baker`` run
on entry columns.  A coefficient over consecutive sites is held as entry
columns, row-major: column r*m + k lists entry (r, k) site by site.  A float
coefficient is its m*m columns of doubles; a rational one is its m*m integer
numerator columns and, last, one column of positive denominators,
SmallMatrix's layout laid out as columns.  So slicing and repeating columns,
and counting sites with ``len(x[0])``, read the same in both modes.

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
``matrices.over_lcm``; any other order is made canonical by ``canonical``,
each site over the gcd of its denominator and numerators, which moves no
rational.  The two classes share only the instance, the constant columns
and the recursions (``_Columns``).  The exact products and sums skip the
numerator columns that are all zero, which drops terms that are exactly 0;
the float ones cannot, because ``0.0 * inf`` is nan.

``_ColumnSeries`` is a lattice of series whose sites share one band, one
list of entry columns per degree, with the operations of ``MatSeries`` at
every site: the verifier multiplies its series out on it rather than site
by site.  ``_DressingColumns`` holds a state's dressing w_hat on it and
forms w_hat^{-1} and the resolvents R_alpha there, one order at a time; a
cut of its sites is the bilinear verifier's region.

See docs/derivations.md sections 3 to 5.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import accumulate, chain, repeat
from math import copysign, gcd, lcm
from operator import add, floordiv, mul, sub

from . import scalars
from .errors import DimensionError, ValidityError
from .lattice import LatticeFn
from .matrices import SmallMatrix, over_lcm
from .series import Banded, MatSeries, product_band, project_band, series_mul, sum_band


# -- the two-point recursion --------------------------------------------------------


def solve_two_point(a_i, a_j, rhs: list, direction: str, mode: str) -> list:
    """Solve a_i w(n) - a_j w(n+1) = rhs(n) at every transition of a range.

    ``rhs[k]`` is the right-hand side at the k-th transition; the result has
    one value per site.  The chosen direction fixes the one free constant:
    zero at the starting edge.  This is the float kernel of
    ``hierarchy._order_columns``, and on ``Fraction``s the reference of the
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


# -- column primitives ------------------------------------------------------------


def _products(a, b, m: int, sparse: bool) -> list:
    """The columns of the products ``a(n) b(n)``, over the sites of the shorter columns.

    ``a`` holds the entry columns of m x J matrices and ``b`` of J x m ones,
    row-major, J = m or 1 (a column times a row).  An entry is the ``sum`` of
    its J terms from the integer 0, as in ``matrices._product``: of doubles,
    or of integer numerators.  ``sparse`` drops each term with a factor column
    that is all zero, and an entry with no term left is a zero column: exact
    on integers, but not on doubles, where ``0.0 * inf`` is nan.
    """
    n = len(b) // m
    js, ms = range(n), range(m)
    if not sparse:
        return [list(map(sum, zip(*[map(mul, a[r * n + j], b[j * m + k]) for j in js])))
                for r in ms for k in ms]
    live_a, live_b = [any(c) for c in a], [any(c) for c in b]
    zero = (0,) * min(len(a[0]), len(b[0]))
    out = []
    for r in ms:
        for k in ms:
            terms = [map(mul, a[r * n + j], b[j * m + k]) for j in js
                     if live_a[r * n + j] and live_b[j * m + k]]
            out.append(zero if not terms else list(terms[0]) if len(terms) == 1
                       else list(map(sum, zip(*terms))))
    return out


class _Columns:
    """What the column primitives of both modes share: the instance, constant
    columns and the two-point recursion of each entry column."""

    def __init__(self, data: AknsData):
        self.data, self.m = data, data.m

    def constant(self, x: SmallMatrix, n: int) -> list:
        """The columns of the matrix ``x`` at ``n`` sites."""
        return [c * n for c in self.read([x])]

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

    def canonical(self, x) -> list:
        """A double has one form: ``x`` itself."""
        return x

    def delta(self, x, inv) -> list:
        """The columns of ``Delta x``: ``inv * (x(n+1) - x(n))`` per entry in one pass,
        the doubles of ``scale(combine(..., sub), inv)``."""
        return [[inv * (b - a) for a, b in zip(c, c[1:])] for c in x]

    def products(self, x, y) -> list:
        return _products(x, y, self.m, False)

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

    A sum is formed unreduced: its terms are scaled to the per-site lcm of
    their denominators and summed.  A solved order returns to canonical
    columns (``solve``), and a built matrix gets the one gcd sweep.  Any
    positive denominator column is a valid result, so ``products`` and
    ``combine`` skip the numerator columns that are all zero: such a term is
    exactly 0.  They test lists and tuples only, never a lazy column.
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
        """``op(x, y)``, ``op`` ``add`` or ``sub``, over the shorter columns.  An operand
        whose numerators are all zero gives the other (negated for ``0 - y``);
        else only the entries with a nonzero operand are formed."""
        n = min(len(x[-1]), len(y[-1]))
        live_x, live_y = [any(c) for c in x[:-1]], [any(c) for c in y[:-1]]
        if not any(live_x):
            y = y if len(y[-1]) == n else [c[:n] for c in y]
            return y if op is add else [*([-v for v in c] for c in y[:-1]), y[-1]]
        if not any(live_y):
            return x if len(x[-1]) == n else [c[:n] for c in x]
        den = list(map(lcm, x[-1], y[-1]))
        fx, fy = list(map(floordiv, den, x[-1])), list(map(floordiv, den, y[-1]))
        zero = (0,) * n
        return [*(list(map(op, map(mul, p, fx), map(mul, q, fy))) if lp and lq
                  else list(map(mul, p, fx)) if lp
                  else list(map(op, zero, map(mul, q, fy))) if lq else zero
                  for p, q, lp, lq in zip(x[:-1], y[:-1], live_x, live_y)), den]

    def scale(self, x, s) -> list:
        p, q = s.numerator, s.denominator
        return [*([p * v for v in c] for c in x[:-1]), [q * d for d in x[-1]]]

    def canonical(self, x) -> list:
        """Each site over the gcd of its denominator and numerators: the columns that
        ``build`` and ``read`` give, without forming a matrix.  No rational moves."""
        g = list(map(gcd, x[-1], *x[:-1]))
        return x if g.count(1) == len(g) else [list(map(floordiv, c, g)) for c in x]

    def delta(self, x, inv) -> list:
        """The columns of ``Delta x``: ``x(n+1) - x(n)``, times ``inv`` = 1 / eps."""
        return self.scale(self.combine([c[1:] for c in x], x, sub), inv)

    def products(self, x, y) -> list:
        return [*_products(x[:-1], y[:-1], self.m, True), list(map(mul, x[-1], y[-1]))]

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


def _pick(x, entries: slice, m: int) -> list:
    """The entry columns ``x[entries]`` of a coefficient and its denominator column,
    if it has one: its column (an m x 1 coefficient) or its row (1 x m)."""
    return [*x[entries], *x[m * m:]]


# -- a lattice of series on entry columns ----------------------------------------------


@dataclass(frozen=True)
class _ColumnSeries(Banded):
    """A lattice of series on entry columns, one band at every site.

    The series at the sites ``n_lo..n_hi`` share one band ``(lo, hi,
    valid_lo)``; ``coeffs`` holds, per degree lo..hi, the kit's columns of
    that coefficient over the sites, and ``tails`` the two tails as series.
    Each operation is the ``MatSeries`` one at every site and on the tails, by
    the same band rules (``product_band``, ``sum_band``, ``project_band``),
    and a binary one runs on the sites both operands have, as
    ``LatticeFn.zip_with`` does.  The Cauchy product sums each degree's pairs
    in ``series_mul``'s order, ascending degree of the left factor: the same
    rationals, and for finite entries the same doubles (docs/derivations.md
    section 5).
    """

    kit: _Columns
    n_lo: int
    n_hi: int
    step: object
    lo: int
    hi: int
    valid_lo: int | None
    coeffs: tuple
    tails: tuple

    @staticmethod
    def read(kit, f: LatticeFn) -> "_ColumnSeries":
        """The columns of a lattice of series whose sites share one band."""
        bands = {(s.lo, s.hi, s.valid_lo) for s in f.values}
        if len(bands) != 1:
            raise DimensionError("a lattice of series on columns needs one band across its sites")
        (lo, hi, vlo), = bands
        coeffs = tuple(kit.read([s.coeffs[i] for s in f.values]) for i in range(hi - lo + 1))
        return _ColumnSeries(kit, f.lo, f.hi, f.step, lo, hi, vlo, coeffs,
                             (f.left_tail, f.right_tail))

    @staticmethod
    def of_matrices(kit, f: LatticeFn) -> "_ColumnSeries":
        """A lattice of matrices as the fully known degree-0 series at each site and
        in both tails."""
        return _ColumnSeries(kit, f.lo, f.hi, f.step, 0, 0, None, (kit.read(f.values),),
                             (MatSeries.constant(f.left_tail), MatSeries.constant(f.right_tail)))

    @staticmethod
    def from_orders(kit, n_lo: int, step, orders: list) -> "_ColumnSeries":
        """The series sum_k orders[k] z^-k at the sites n_lo.., valid through its depth,
        with zero tails; ``orders[k]`` holds the columns of order k."""
        depth, zero = len(orders) - 1, MatSeries.zero(kit.m, kit.data.mode)
        return _ColumnSeries(kit, n_lo, n_lo + len(orders[0][0]) - 1, step, -depth, 0, -depth,
                             tuple(orders[::-1]), (zero, zero))

    @property
    def mode(self) -> str:
        return self.kit.data.mode

    def lattice(self) -> LatticeFn:
        """The lattice of series, each coefficient built by the kit."""
        m, mode = self.kit.m, self.mode
        vals = tuple(MatSeries(m, mode, self.lo, self.hi, coeffs, self.valid_lo)
                     for coeffs in zip(*map(self.kit.build, self.coeffs)))
        return LatticeFn(self.n_lo, self.n_hi, vals, *self.tails, self.step, mode)

    def constant(self, s: MatSeries) -> "_ColumnSeries":
        """``s`` at every site of this lattice and in both tails."""
        n = self.n_hi - self.n_lo + 1
        return self._with((s.lo, s.hi, s.valid_lo), (self.kit.constant(x, n) for x in s.coeffs),
                          (s, s))

    def coef(self, d: int) -> list:
        """The columns of degree ``d``: zero outside the band, refused below validity."""
        if not self.valid_at(d):
            raise ValidityError(f"degree {d} below validity bound {self.valid_lo}")
        if self.lo <= d <= self.hi:
            return self.coeffs[d - self.lo]
        return self.kit.zero(self.n_hi - self.n_lo + 1)

    def _with(self, band: tuple, coeffs, tails) -> "_ColumnSeries":
        lo, hi, vlo = band
        return replace(self, lo=lo, hi=hi, valid_lo=vlo, coeffs=tuple(coeffs), tails=tuple(tails))

    # -- sites -------------------------------------------------------------------

    def _cut(self, lo: int, hi: int, first: int) -> "_ColumnSeries":
        """The sites lo..hi, holding the values from site ``first`` on."""
        if (lo, hi, first) == (self.n_lo, self.n_hi, self.n_lo):
            return self
        a = first - self.n_lo
        return replace(self, n_lo=lo, n_hi=hi,
                       coeffs=tuple([c[a:a + hi - lo + 1] for c in x] for x in self.coeffs))

    def restrict(self, lo: int, hi: int) -> "_ColumnSeries":
        """The sites of [lo, hi] this lattice has (``LatticeFn.restrict``)."""
        lo, hi = max(lo, self.n_lo), min(hi, self.n_hi)
        if lo > hi:
            raise DimensionError("restriction leaves no claimable site")
        return self._cut(lo, hi, lo)

    def shift(self, j: int) -> "_ColumnSeries":
        """The value at n is this lattice's at n + j (``lattice.shift_apply``)."""
        lo, hi = (self.n_lo, self.n_hi - j) if j > 0 else (self.n_lo - j, self.n_hi)
        if lo > hi:
            raise DimensionError("shift exceeds stored range")
        return self._cut(lo, hi, lo + j)

    def _pair(self, other: "_ColumnSeries") -> tuple:
        lo, hi = max(self.n_lo, other.n_lo), min(self.n_hi, other.n_hi)
        if lo > hi:
            raise DimensionError("operand ranges do not overlap")
        return self._cut(lo, hi, lo), other._cut(lo, hi, lo)

    # -- series --------------------------------------------------------------------

    def _combine(self, other: "_ColumnSeries", op) -> "_ColumnSeries":
        a, b = self._pair(other)
        lo, hi, vlo = sum_band(a, b)
        return a._with((lo, hi, vlo), (self.kit.combine(a.coef(d), b.coef(d), op)
                                       for d in range(lo, hi + 1)), map(op, a.tails, b.tails))

    def __add__(self, other: "_ColumnSeries") -> "_ColumnSeries":
        return self._combine(other, add)

    def __sub__(self, other: "_ColumnSeries") -> "_ColumnSeries":
        return self._combine(other, sub)

    def __mul__(self, other: "_ColumnSeries") -> "_ColumnSeries":
        """The Cauchy product at every site (``series_mul``)."""
        a, b = self._pair(other)
        lo, hi, vlo = product_band(a, b)
        kit = self.kit

        def degree(d):
            return _sum(kit, (kit.products(a.coeffs[i - a.lo], b.coeffs[d - i - b.lo])
                              for i in range(max(a.lo, d - b.hi), min(a.hi, d - b.lo) + 1)))

        return a._with((lo, hi, vlo), map(degree, range(lo, hi + 1)),
                       map(series_mul, a.tails, b.tails))

    def scale(self, s) -> "_ColumnSeries":
        return self._with((self.lo, self.hi, self.valid_lo),
                          (self.kit.scale(x, s) for x in self.coeffs),
                          (t.scale(s) for t in self.tails))

    def project(self, part: str, k: int = 0) -> "_ColumnSeries":
        """The projection ``part`` of z^k times the series at every site, k >= 0 a flow
        order; the tails are kept, as ``projector_b`` keeps them."""
        _check_flow_order(k)
        z = replace(self, lo=self.lo + k, hi=self.hi + k,
                    valid_lo=None if self.valid_lo is None else self.valid_lo + k)
        lo, hi, vlo = project_band(z, part)
        return z._with((lo, hi, vlo), map(z.coef, range(lo, hi + 1)), self.tails)

    def magnitude(self, d: int):
        """The largest entry magnitude of degree ``d`` over the sites."""
        return scalars.max_of(self.kit.magnitudes(self.coef(d)), self.mode)

    def max_abs(self):
        """The largest entry magnitude over the valid degrees and the sites."""
        return scalars.max_of(map(self.magnitude, self.valid_degrees()), self.mode)


# -- the dressing's series on entry columns ------------------------------------------------


class _DressingColumns:
    """A dressing w_hat on entry columns, with w_hat^{-1} and each resolvent
    R_alpha = w_hat E_alpha w_hat^{-1} formed on first use and kept.

    Each order of the inverse and of a resolvent is made canonical
    (``canonical``) as it is formed, so the next orders read small integers.
    ``cut`` gives the holder of some of the sites; every value there is the
    one here, because each order is site-local.  A holder keeps no state, so
    a state that keeps its holder forms no reference cycle.
    """

    def __init__(self, hat: _ColumnSeries):
        self.hat, self.kit = hat, hat.kit
        self._resolvents = {}

    @staticmethod
    def read(kit, U: LatticeFn, ws) -> "_DressingColumns":
        """I + sum_k w_k z^-k on U's sites, from the solved orders ``ws``."""
        ident = kit.constant(SmallMatrix.identity(kit.m, U.mode), U.hi - U.lo + 1)
        return _DressingColumns(_ColumnSeries.from_orders(
            kit, U.lo, U.step, [ident, *(kit.read(w.values) for w in ws)]))

    def _series(self, orders: list) -> _ColumnSeries:
        return _ColumnSeries.from_orders(self.kit, self.hat.n_lo, self.hat.step, orders)

    @cached_property
    def hat_inverse(self) -> _ColumnSeries:
        """v_0 = I, and v_j is ``-1`` times ``w_1 v_(j-1) + ... + w_j v_0``, summed in
        that order."""
        kit, w = self.kit, self.hat.coef
        v = [w(0)]
        for j in range(1, 1 - self.hat.lo):
            acc = _sum(kit, (kit.products(w(-i), v[j - i]) for i in range(1, j + 1)))
            v.append(kit.canonical(kit.scale(acc, -1)))
        return self._series(v)

    def resolvent(self, alpha: int) -> _ColumnSeries:
        """Degree -d of R_alpha: the sum of (column alpha of w_i)(row alpha of v_(d-i))
        over i = d..0, each a product of an m x 1 and a 1 x m coefficient."""
        if alpha not in self._resolvents:
            self.kit.data.projector(alpha)  # refuses an alpha outside 1..m
            kit, m, k, depth = self.kit, self.kit.m, alpha - 1, -self.hat.lo
            cols = [_pick(self.hat.coef(-i), slice(k, m * m, m), m) for i in range(depth + 1)]
            rows = [_pick(self.hat_inverse.coef(-j), slice(k * m, k * m + m), m)
                    for j in range(depth + 1)]
            self._resolvents[alpha] = self._series([
                kit.canonical(_sum(kit, (kit.products(cols[i], rows[d - i])
                                         for i in range(d, -1, -1))))
                for d in range(depth + 1)])
        return self._resolvents[alpha]

    def cut(self, lo: int, hi: int) -> "_DressingColumns":
        """The holder of the sites of [lo, hi] this one has; of all of them, this one."""
        hat = self.hat.restrict(lo, hi)
        return self if hat is self.hat else _DressingColumns(hat)


def _check_flow_order(k: int) -> None:
    if k < 0:
        raise ValidityError(f"flow order {k} must be >= 0")
