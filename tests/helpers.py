"""Shared builders and brute-force oracles for the test suite."""

from fractions import Fraction
from math import gcd
import os
from pathlib import Path
import random
import subprocess
import sys

from aknsd.baker import TauExpSum, baker_from_tau
from aknsd.hierarchy import Dressing, HierarchyState
from aknsd.instances import DESK_DEPTH, DESK_WINDOW
from aknsd.lattice import LatticeFn, delta_apply, shift_apply
from aknsd.matrices import SmallMatrix
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
    z_term = lam_p.map(lambda s: s.right_mul_mat(a_mat)) - \
        P.map(lambda s: s.left_mul_mat(a_mat)).restrict(lo, hi)
    z_term = z_term.map(lambda s: s.shift_degree(1))
    u_term = lam_p.zip_with(U.restrict(lo, hi), lambda s, u: s.right_mul_mat(u)) - \
        P.zip_with(U, lambda s, u: s.left_mul_mat(u)).restrict(lo, hi)
    return u_term - d_p - z_term


def assert_canonical(mat):
    """A rational matrix's numerators and denominator share no factor; den > 0."""
    num, den = mat.numerators()
    assert den > 0
    assert gcd(den, *(x for row in num for x in row)) == 1


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
