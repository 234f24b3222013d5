"""Shared builders and brute-force oracles for the test suite."""

from fractions import Fraction
from functools import partial
from math import gcd, lcm
import os
from pathlib import Path
import random
import subprocess
import sys

from aknsd import scalars
from aknsd.baker import TauExpSum, _step_polynomial, _word_factor, baker_from_tau
from aknsd.dynamics import CONSISTENCY_TOL
from aknsd.errors import ConsistencyError, DimensionError, InstanceError, ModeError
from aknsd.hierarchy import (
    Dressing,
    HierarchyState,
    Resolvent,
    _orders_to_series,
    _site_band,
    flow_field,
    projector_b,
    solve_two_point,
)
from aknsd.instances import DESK_DEPTH, DESK_WINDOW
from aknsd.lattice import LatticeFn, delta_apply, inverse_step, shift_apply, site_max
from aknsd.matrices import SmallMatrix, _product
from aknsd.series import MatSeries, series_mul

RAT = "rational"

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, env=None):
    """``python -m aknsd.cli ARGS`` in a child that imports this checkout's src.

    The repository ``src`` goes first on the child's PYTHONPATH, so the child
    needs neither an installed package nor an inherited PYTHONPATH.
    """
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "aknsd.cli", *args],
                          capture_output=True, text=True, env=env)


def ref_matmul(a, b):
    """Product of two matrices given as row lists of ``Fraction``s."""
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def ref_inverse(a):
    """Gauss-Jordan on row lists, first nonzero pivot; None when singular."""
    m = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(m)] for i, row in enumerate(a)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(m):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


def left_mul(mat, s):
    """``mat @ s`` for a matrix and a series: each coefficient multiplied on the left."""
    return MatSeries(s.m, s.mode, s.lo, s.hi, tuple(mat @ c for c in s.coeffs), s.valid_lo)


def right_mul(s, mat):
    """``s @ mat`` for a series and a matrix: each coefficient multiplied on the right."""
    return MatSeries(s.m, s.mode, s.lo, s.hi, tuple(c @ mat for c in s.coeffs), s.valid_lo)


def ref_commutator(P, data, U):
    """[P, L]_D as a composition of whole-lattice series operations.

    -Delta P - z ((Lambda P) A - A P) + (Lambda P) U - U P, one operation at
    a time.  The z-term maps the tails too, so the tails are [P, L]_D of a
    constant P and U.
    """
    a_mat = data.matrix
    d_p = delta_apply(P, "forward")
    lam_p = shift_apply(P, 1)
    lo, hi = lam_p.lo, lam_p.hi
    z_term = lam_p.map(lambda s: right_mul(s, a_mat)) - \
        P.map(lambda s: left_mul(a_mat, s)).restrict(lo, hi)
    z_term = z_term.map(lambda s: s.shift_degree(1))
    u_term = lam_p.zip_with(U.restrict(lo, hi), right_mul) - \
        P.zip_with(U, lambda s, u: left_mul(u, s)).restrict(lo, hi)
    return u_term - d_p - z_term


def ref_dressed_resolvent(state, alpha):
    """R_alpha = w_hat E_alpha w_hat^{-1} as two series products per site."""
    e_alpha = MatSeries.constant(state.data.projector(alpha))
    return state.hat.zip_with(state.hat_inverse,
                              lambda w, wi: series_mul(series_mul(w, e_alpha), wi))


def ref_dressing_defect(state):
    """Delta w_hat + U w_hat - z A w_hat + z (Lambda w_hat) A as whole-lattice sums.

    The z-terms keep the tails unmapped, so the tails are not (T') of the tails.
    """
    a_mat = state.data.matrix
    hat = state.hat
    lam_hat = shift_apply(hat, 1)
    d_hat = delta_apply(hat, "forward")
    u_term = state.U.zip_with(hat, lambda u, s: left_mul(u, s))
    za_term = hat.map(lambda s: left_mul(a_mat, s).shift_degree(1), map_tails=False)
    lam_term = lam_hat.map(lambda s: right_mul(s, a_mat).shift_degree(1), map_tails=False)
    return (d_hat + u_term.restrict(d_hat.lo, d_hat.hi)) - \
        za_term.restrict(d_hat.lo, d_hat.hi) + lam_term


def ref_direct_rhs(r_prev, U):
    """Delta r - ((Lambda r) U - U r) over the lattice, from three ``zip_with`` lambdas."""
    d_prev = delta_apply(r_prev, "forward")
    lam_prev = shift_apply(r_prev, 1)
    comm_u = lam_prev.zip_with(U.restrict(lam_prev.lo, lam_prev.hi),
                               lambda r, u: r @ u) - \
        U.zip_with(r_prev, lambda u, r: u @ r).restrict(lam_prev.lo, lam_prev.hi)
    return d_prev - comm_u


def ref_dressing_rhs(w, U):
    """Delta w + U w on [U.lo, U.hi - 1]: ``delta_apply``, a ``zip_with`` lambda, ``restrict``."""
    return delta_apply(w, "forward") + \
        U.zip_with(w, lambda u, x: u @ x).restrict(U.lo, U.hi - 1)


def _ref_delta(x, x1, inv):
    """``(x1 - x) / eps`` of one coefficient; ``inv`` is 1/eps, None for the unit step."""
    dx = x1 - x
    return dx if inv is None else dx.scale(inv)


def _ref_z_term(x, x1, a_mat):
    """``(x1 A) - (A x)`` by a column and a row scaling."""
    return x1.mul_diag(a_mat, left=False) - x.mul_diag(a_mat, left=True)


def ref_commutator_site(c, c1, u, a_mat, inv):
    """The coefficients of [P, L]_D at one site, one ring operation at a time.

    Degree d is ``((c1_d U) - (U c_d)) - Delta c_d`` minus the z-term of
    degree d - 1 (none below a fully known band), and the top degree is the
    zero matrix minus the z-term of the top coefficient.
    """
    first = c.lo if c.valid_lo is None else c.valid_lo + 1
    coeffs = []
    for i in range(first - c.lo, c.hi - c.lo + 1):
        x, x1 = c.coeffs[i], c1.coeffs[i]
        out = ((x1 @ u) - (u @ x)) - _ref_delta(x, x1, inv)
        if i > 0:
            out = out - _ref_z_term(c.coeffs[i - 1], c1.coeffs[i - 1], a_mat)
        coeffs.append(out)
    coeffs.append(SmallMatrix.zero(c.m, c.mode) - _ref_z_term(c.coeffs[-1], c1.coeffs[-1], a_mat))
    return coeffs


def ref_direct_rhs_site(r, r1, u, inv):
    """``Delta r - ((Lambda r) U - U r)`` at one site by ring operations."""
    return _ref_delta(r, r1, inv) - ((r1 @ u) - (u @ r))


def ref_direct_rhs_floats(r, r1, u, inv):
    """The float direct right-hand side at one site, as one entrywise pass.

    ``D_rk - ((r1 U)_rk - (U r)_rk)`` with the products of ``_product``: the
    per-site kernel the float direct resolvent ran on before it moved to
    entry columns, kept with its operand checks.
    """
    r._compat(u)
    r1._compat(u)
    x, x1 = r.rows, r1.rows
    return SmallMatrix._floats(r.m, tuple([tuple([
        (b - e if inv is None else inv * (b - e)) - (p - q)
        for p, q, e, b in zip(pr, qr, xr, x1r)])
        for pr, qr, xr, x1r in zip(_product(x1, u.rows), _product(u.rows, x), x, x1)]))


def ref_commutator_floats(c, c1, u, a_mat, inv):
    """Float [P, L]_D at one site, one entrywise pass per coefficient.

    Entry (r, k) of degree d is
    ``((p - q) - D) - ((0 + x1'_rk a_k) - (0 + a_r x'_rk))`` with
    ``p = (c1_d U)_rk``, ``q = (U c_d)_rk``, D the difference and
    ``x' = c_(d-1)``, ``x1' = c1_(d-1)``; below a fully known band x' is the
    zero matrix, and the top degree is ``0.0 - z``.  The per-site kernel the
    float commutator and flow field ran on before they moved to entry
    columns, kept with its band and operand checks.
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


def _site_matrices(cols, m, build):
    """One matrix per site from m*m entry columns: ``build`` of the site's rows."""
    return [build(tuple(zip(*[iter(site)] * m))) for site in zip(*cols)]


def ref_solve_order(data, rhs, lo, step):
    """One recursion order from its right-hand-side matrices, entry by entry.

    ``solve_two_point`` on each entry's list of doubles, or of ``Fraction``s
    in rational mode.  In float mode this is the per-site solve that the
    float order loop ran before the solves moved to entry columns.
    """
    if not rhs:
        raise DimensionError("a recursion order needs at least two sites")
    m, mode = data.m, data.mode
    pairs = [(i, j) for i in range(m) for j in range(m)]
    parts = [r.rows for r in rhs]
    cols = [solve_two_point(data.a[i], data.a[j], [rows[i][j] for rows in parts],
                            data.direction(i + 1, j + 1), mode) for i, j in pairs]
    build = partial(SmallMatrix._floats, m) if mode == scalars.FLOAT else \
        partial(SmallMatrix, m, mode)
    return LatticeFn.from_values(lo, _site_matrices(cols, m, build), step=step)


def ref_solve_orders_floats(data, U, first, rhs_site, depth):
    """The float order loop site by site: ``rhs_site(x(n), x(n + 1), U(n), inv)`` each step."""
    inv = inverse_step(U)
    orders = [first]
    for _ in range(depth):
        x = orders[-1]
        rhs = [rhs_site(x.at(n), x.at(n + 1), U.at(n), inv) for n in range(U.lo, U.hi)]
        orders.append(ref_solve_order(data, rhs, U.lo, U.step))
    return orders


def ref_dressing_rhs_floats(x, x1, u, inv):
    """The float dressing right-hand side at one site: ``_delta + (u @ x)``, in this order."""
    return _ref_delta(x, x1, inv) + (u @ x)


def ref_template_floats(c, c1, u, a_mat, inv, rhs):
    """Float ``(rhs_d - A c_(d-1)) + c1_(d-1) A`` at one site by ring operations.

    rhs_d is ``rhs(c_d, c1_d, u, inv)``, the zero matrix above the band: the
    per-site float kernel of the dressing defect before it moved to entry
    columns.
    """
    first, vlo = _site_band(c)
    zero = SmallMatrix.zero(c.m, c.mode)  # rhs_d above the band
    coeffs = []
    for d in range(first, c.hi + 2):
        xp, x1p = c.get(d - 1), c1.get(d - 1)
        rhs_d = rhs(c.get(d), c1.get(d), u, inv) if d <= c.hi else zero
        coeffs.append((rhs_d - xp.mul_diag(a_mat, left=True))
                      + x1p.mul_diag(a_mat, left=False))
    return MatSeries(c.m, c.mode, first, c.hi + 1, tuple(coeffs), vlo)


def ref_defect_floats(c, c1, u, a_mat, inv):
    """Float (T') at one site: the template with the float dressing right-hand side."""
    return ref_template_floats(c, c1, u, a_mat, inv, ref_dressing_rhs_floats)


def ref_sitewise(P, data, U, kernel):
    """``kernel(P(n), P(n+1), U(n), a_mat, inv)`` at each site, and on the tails.

    ``hierarchy._sitewise`` before it ran on entry columns, sites on
    ``[max(P.lo, U.lo), min(P.hi - 1, U.hi)]``.
    """
    P._compat(U)
    lo, hi = max(P.lo, U.lo), min(P.hi - 1, U.hi)
    if lo > hi:
        raise DimensionError("operand ranges do not overlap")
    if len({(s.lo, s.hi, s.valid_lo) for s in P.values}) != 1:
        raise DimensionError("a site kernel needs one band across P's sites")
    a_mat, inv = data.matrix, inverse_step(P)
    vals = tuple(kernel(P.at(n), P.at(n + 1), U.at(n), a_mat, inv) for n in range(lo, hi + 1))
    return LatticeFn(lo, hi, vals,
                     kernel(P.left_tail, P.left_tail, U.left_tail, a_mat, inv),
                     kernel(P.right_tail, P.right_tail, U.right_tail, a_mat, inv),
                     P.step, P.mode)


def ref_solve_dressing_floats(data, U, depth):
    """The float dressing solve site by site, with ``ref_dressing_rhs_floats``."""
    if depth < 1:
        raise InstanceError("dressing depth must be >= 1")
    ident = U.constant(SmallMatrix.identity(data.m, U.mode))
    ws = ref_solve_orders_floats(data, U, ident, ref_dressing_rhs_floats, depth)[1:]
    return Dressing(depth, tuple(ws), data.conventions())


def ref_dressing_defect_floats(state):
    """The float dressing defect site by site, tails included, with ``ref_defect_floats``."""
    return ref_sitewise(state.hat, state.data, state.U, ref_defect_floats)


def ref_resolvent_direct_floats(data, U, alpha, depth):
    """The float direct resolvent site by site: the order loop with ``ref_direct_rhs_floats``."""
    orders = ref_solve_orders_floats(data, U, U.constant(data.projector(alpha)),
                                     ref_direct_rhs_floats, depth)
    return Resolvent(_orders_to_series(orders, data.m))


def ref_commutator_with_l_floats(P, data, U):
    """The float [P, L]_D site by site, tails included, with ``ref_commutator_floats``."""
    return ref_sitewise(P, data, U, ref_commutator_floats)


def ref_flow_field_floats(data, U, k, alpha, tol=0):
    """The float flow field from the per-site objects: B = (z^k R)_+, [B, L]_D, degree 0.

    The direct resolvent of ``ref_resolvent_direct_floats``, ``projector_b``
    and ``ref_commutator_with_l_floats``, with the positive-degree check.
    """
    b = projector_b(ref_resolvent_direct_floats(data, U, alpha, k), k, "plus")
    comm = ref_commutator_with_l_floats(b, data, U)
    pos = site_max(comm, lambda s: scalars.max_of(
        (s.get(d).max_abs() for d in range(max(1, s.lo), s.hi + 1)), s.mode))
    if not pos <= tol:
        raise ConsistencyError(
            f"positive z-degrees of the flow commutator do not vanish "
            f"(residual {pos})"
        )
    return LatticeFn.from_values(comm.lo, [comm.at(n).get(0) for n in comm.sites()],
                                 step=comm.step)


def ref_axpy(u, c, f):
    """``u + c f`` over the lattice by ring operations."""
    return u.zip_with(f, lambda a, b: a + b.scale(c))


def ref_rk4_step(data, u, h, flow):
    """One classical RK4 step from per-site stages: ``flow_field`` with its last
    site frozen at zero, and ``ref_axpy``.  A rational potential is refused
    first, as ``rk4_step`` refuses it."""
    if u.mode != scalars.FLOAT:
        raise ModeError("time evolution requires float mode")

    def field(v):
        f = flow_field(data, v, flow.k, flow.alpha, tol=CONSISTENCY_TOL)
        return LatticeFn.from_values(v.lo, [*f.values, SmallMatrix.zero(data.m, scalars.FLOAT)],
                                     step=f.step)

    k1 = field(u)
    k2 = field(ref_axpy(u, h / 2, k1))
    k3 = field(ref_axpy(u, h / 2, k2))
    k4 = field(ref_axpy(u, h, k3))
    for c, k in ((h / 6, k1), (h / 3, k2), (h / 3, k3), (h / 6, k4)):
        u = ref_axpy(u, c, k)
    return u


def assert_canonical(mat):
    """A rational matrix's numerators and denominator share no factor; den > 0."""
    num, den = mat.numerators()
    assert den > 0
    assert gcd(den, *(x for row in num for x in row)) == 1


def product_term(a, b):
    """``a @ b`` of two rational matrices as an unreduced term ``(numerator rows, den)``."""
    (an, ad), (bn, bd) = a.numerators(), b.numerators()
    return _product(an, bn), ad * bd


def from_terms(terms, m):
    """The rational sum of integer terms ``(numerator rows, den)``, term by term.

    The pairwise rule the block product replaced: each term's numerators are
    scaled to the lcm of the denominators and summed, and the sum is swept
    once; a negative ``den`` subtracts its term; no terms give the shared zero.
    """
    terms = list(terms)
    if not terms:
        return SmallMatrix.zero(m, RAT)
    den = lcm(*(d for _, d in terms))
    flat = [sum(x) for x in zip(*([(den // d) * x for row in num for x in row]
                                  for num, d in terms))]
    return SmallMatrix._exact(m, tuple(tuple(flat[r * m:(r + 1) * m]) for r in range(m)), den)


def ref_bilinear_residual(state, l_max, m_delta, word):
    """The analytic bilinear residual formed on every stored site and cut to the
    region of interest after, then the residues through l_max plus the
    negative-degree mass.

    The length-1 word factor is formed in two passes, ``d = -Bbar W`` and then
    ``d + W z^k E_alpha``, and the difference form is always scaled by
    ``1 / eps``; a length-2 word takes ``baker._word_factor``.
    """
    if len(word) == 1:
        (k, alpha), = word
        bbar = projector_b(state.resolvent(alpha), k, "minus")
        d_hat = bbar.zip_with(state.hat, lambda b, w: -series_mul(b, w))
        zke = MatSeries.monomial(state.data.projector(alpha), k)
        y = d_hat.zip_with(state.hat, lambda d, w: d + series_mul(w, zke))
    elif word:
        y = _word_factor(state, word, "analytic", None)
    else:
        y = state.hat
    if m_delta == 0:
        expr = y.zip_with(state.hat_inverse, series_mul)
    else:
        mid = _step_polynomial(state)
        eps_inv = scalars.one(state.mode) / state.step
        lam_y = shift_apply(y, 1)
        diff = lam_y.zip_with(y.restrict(lam_y.lo, lam_y.hi),
                              lambda yn1, yn: series_mul(yn1, mid) - yn)
        expr = diff.zip_with(state.hat_inverse,
                             lambda d, wi: series_mul(d, wi).scale(eps_inv))
    expr = expr.restrict(state.window.n_min, state.window.n_max)
    sites = [expr.at(n) for n in expr.sites()]
    res_max = scalars.max_of((s.get(-1 - l).max_abs() for s in sites
                              for l in range(l_max + 1)), state.mode)
    neg_max = scalars.max_of((s.get(d).max_abs() for s in sites
                              for d in range(min(s.valid_degrees().start, 0), 0)), state.mode)
    return res_max + neg_max


def mat(rows, mode=RAT):
    return SmallMatrix.from_rows(rows, mode)


def rand_fraction(rng, num=3, den=(1, 2, 3)):
    return Fraction(rng.randint(-num, num), rng.choice(den))


def rand_matrix(rng, m, mode=RAT):
    return SmallMatrix.from_rows(
        [[rand_fraction(rng) for _ in range(m)] for _ in range(m)], mode
    )


def rand_series(rng, m, lo, hi, valid_lo=None, mode=RAT):
    coeffs = {d: rand_matrix(rng, m, mode) for d in range(lo, hi + 1)}
    return MatSeries.from_coeffs(coeffs, m, mode, lo=lo, hi=hi, valid_lo=valid_lo)


def extended_band_product(a, b, extra=4):
    """Oracle for product validity: recompute with wider bands, compare."""
    return series_mul(completion(a, extra), completion(b, extra))


def completion(s, extra=4, seed=12345):
    """A fully known series that agrees with ``s`` on every degree ``s`` knows.

    Each degree ``s`` does not know -- stored ones below ``valid_lo`` and
    ``extra`` more below its band -- gets a fresh random coefficient, so a
    recomputation exercises exactly what the original could not see.  A fully
    known ``s`` has no such degree and comes back as it is.
    """
    if s.valid_lo is None:
        return s
    rng = random.Random(seed)
    coeffs = {d: s.coeffs[d - s.lo] if d >= s.valid_lo else rand_matrix(rng, s.m, s.mode)
              for d in range(s.lo - extra, s.hi + 1)}
    return MatSeries.from_coeffs(coeffs, s.m, s.mode, lo=s.lo - extra, hi=s.hi)


def exp_series_coeffs(x: dict, depth: int, mode: str) -> list:
    """Taylor coefficients h_0..h_depth of exp(sum_k x_k y^k) via j h_j = sum i x_i h_{j-i}."""
    h = [scalars.one(mode)] + [scalars.zero(mode)] * depth
    for j in range(1, depth + 1):
        acc = scalars.zero(mode)
        for i in range(1, j + 1):
            xi = x.get(i)
            if xi:
                acc += i * xi * h[j - i]
        h[j] = acc / j
    return h


def rand_miwa_tau(rng, m, terms=3):
    """A rational tau sum of ``terms`` terms with up to 3 Miwa points each.

    The points x = k/3 or k/5, |k| <= 2, keep 1 + a x away from 0 for the
    desk values of a.
    """
    return TauExpSum.make(
        (rng.randint(1, 3),
         tuple((rng.randint(1, m), Fraction(rng.randint(-2, 2), rng.choice((3, 5))),
                rng.choice((1, -1))) for _ in range(rng.randint(0, 3))))
        for _ in range(terms))


def soliton_tau(i, j, c1=1, c2=2, p=Fraction(1, 2), P=Fraction(1, 3)):
    """The AKNS soliton's tau and its companions tau_ij, tau_ji (rational).

    tau = 1 + kappa exp(xi_i(p) - xi_j(p) + xi_j(P) - xi_i(P)) with
    kappa = c1 c2 / (p - P)^2, tau_ij = c1 exp(xi_i(p) - xi_j(p)) and
    tau_ji = c2 exp(xi_j(P) - xi_i(P)); see docs/derivations.md section 8.
    """
    kappa = Fraction(c1 * c2) / (p - P) ** 2
    tau = TauExpSum.make([(1, ()), (kappa, ((i, p, 1), (j, p, -1), (j, P, 1), (i, P, -1)))])
    companions = {(i, j): TauExpSum.make([(c1, ((i, p, 1), (j, p, -1)))]),
                  (j, i): TauExpSum.make([(c2, ((j, P, 1), (i, P, -1)))])}
    return tau, companions


def state_from_tau(data, tau, companions, window=DESK_WINDOW, depth=DESK_DEPTH):
    """The state whose dressing is the tau candidate on the stored window.

    The potential is read from the first order, U(n) = A w_1(n) - w_1(n+1) A,
    and may carry a gauge diagonal, so the state is assembled directly.
    """
    lo, hi = window.stored_lo, window.stored_hi
    cand = [baker_from_tau(tau, companions, n, data, depth) for n in range(lo, hi + 2)]
    a_mat = data.matrix
    u = LatticeFn.from_values(lo, [a_mat @ w.get(-1) - w1.get(-1) @ a_mat
                                   for w, w1 in zip(cand, cand[1:])])
    ws = tuple(LatticeFn.from_values(lo, [w.get(-k) for w in cand[:-1]])
               for k in range(1, depth + 1))
    return HierarchyState(data, u, window, Dressing(depth, ws, data.conventions()))
