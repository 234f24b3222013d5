"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk instances: m=2 with A=diag(1,-1) and m=3 with A=diag(1,2,-1), window
[-8, 8] with halo 10, truncation depth 8; rational mode (exact
arithmetic, zero tolerances) except where time stepping or finite
differencing is inherently approximate.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import contextlib
import json
import math
import random
import time

import pytest

from aknsd import scalars
from aknsd.baker import (
    TauExpSum,
    adjoint_check,
    baker_from_tau,
    bilinear_l_capacity,
    bilinear_residual,
    tau_lambda_defect,
)
from aknsd.dynamics import FlowIndex, commutativity_defect, continuum_scan, \
    gaussian_bump_profile
from aknsd.hierarchy import (
    Dressing,
    HierarchyState,
    commutator_with_l,
    diagonal_drift,
    dressing_residual,
    flow_field,
    resolvent_direct,
    resolvent_dressed,
)
from aknsd.instances import (
    DESK_DEPTH,
    DESK_WINDOW,
    desk_data,
    impulse_potential,
    random_potential,
)
from aknsd.lattice import LatticeFn
from aknsd.matrices import SmallMatrix
from aknsd.persist import load_state, save_state, state_to_json
from aknsd.verify import bilinear_analytic_grid, run_verify_suite
from helpers import RAT, rand_miwa_tau, run_cli, soliton_tau, state_from_tau

FLOAT = scalars.FLOAT
SEED = 20260810


@contextlib.contextmanager
def criterion(num, name, budget_s):
    start = time.time()
    info = {}
    try:
        yield info
    except BaseException:
        print(f"[criterion {num:2d}] {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    extra = f"; {info['note']}" if "note" in info else ""
    print(f"[criterion {num:2d}] {name}: PASS "
          f"({elapsed:.1f}s of {budget_s}s budget{extra})")
    assert elapsed <= budget_s, f"runtime budget exceeded: {elapsed:.1f}s"


def desk_state(m, potential, depth=DESK_DEPTH, mode=RAT):
    data = desk_data(m, mode)
    return HierarchyState.solve(data, potential, DESK_WINDOW, depth,
                                validate=False)


def test_criterion_1_dressing_exactness():
    with criterion(1, "dressing exactness on seeded random potentials", 30) as info:
        count = 0
        for m in (2, 3):
            data = desk_data(m)
            rng = random.Random(SEED + m)
            for _ in range(20):
                u = random_potential(DESK_WINDOW, data, rng)
                state = HierarchyState.solve(data, u, DESK_WINDOW, DESK_DEPTH)
                assert dressing_residual(state) == 0
                count += 1
        info["note"] = f"{count} instances, residual exactly 0"


def test_criterion_2_resolvent_identities():
    with criterion(2, "resolvent identities (commutator, algebra, sum)", 30) as info:
        from aknsd.series import series_mul

        for m in (2, 3):
            data = desk_data(m)
            rng = random.Random(SEED + 10 + m)
            state = desk_state(m, random_potential(DESK_WINDOW, data, rng))
            resolvents = {a: resolvent_dressed(state, a) for a in range(1, m + 1)}
            for alpha, r in resolvents.items():
                comm = commutator_with_l(r.series, state.data, state.U)
                assert all(comm.at(n).max_abs() == 0 for n in comm.sites()), alpha
            for a in range(1, m + 1):
                for b in range(1, m + 1):
                    prod = resolvents[a].series.zip_with(resolvents[b].series,
                                                         series_mul)
                    for n in prod.sites():
                        got = prod.at(n)
                        want = resolvents[b].series.at(n) if a == b else None
                        for d in range(-DESK_DEPTH, 1):
                            target = want.get(d) if want else \
                                SmallMatrix.zero(m, RAT)
                            assert got.get(d) == target
            total = None
            for a in range(1, m + 1):
                s = resolvents[a].series
                total = s if total is None else total.zip_with(s, lambda x, y: x + y)
            ident = SmallMatrix.identity(m, RAT)
            for n in total.sites():
                s = total.at(n)
                assert s.get(0) == ident
                assert all(s.get(d).is_zero() for d in range(-DESK_DEPTH, 0))
        info["note"] = "exact through depth, both instance classes"


def test_criterion_3_cross_solver_oracle():
    with criterion(3, "direct and dressed resolvents agree entry-for-entry", 30) as info:
        checked = 0
        for m in (2, 3):
            data = desk_data(m)
            rng = random.Random(SEED + 20 + m)
            for u in (impulse_potential(DESK_WINDOW, m),
                      random_potential(DESK_WINDOW, data, rng)):
                state = desk_state(m, u)
                for alpha in range(1, m + 1):
                    dressed = resolvent_dressed(state, alpha).series
                    direct = resolvent_direct(data, u, alpha, DESK_DEPTH).series
                    for n in dressed.sites():
                        for d in range(-DESK_DEPTH, 1):
                            assert dressed.at(n).get(d) == direct.at(n).get(d)
                    checked += 1
        info["note"] = f"{checked} resolvent pairs, exact equality"


def test_criterion_4_flow_well_definedness():
    with criterion(4, "flow positive degrees, degree-0 diagonal, k=0 form", 30) as info:
        # positive z-degrees vanish exactly for any admissible potential;
        # the degree-0 diagonal vanishes identically on the canonical
        # nilpotent-triangular instances (see notes in docs/derivations.md:
        # for two-sided potentials it is the exact jump Delta R_{(k+1),pp})
        for m in (2, 3):
            data = desk_data(m)
            rng = random.Random(SEED + 30 + m)
            full = random_potential(DESK_WINDOW, data, rng)
            for k in (0, 1, 2):
                for alpha in range(1, m + 1):
                    flow_field(data, full, k, alpha)  # exact check inside
            tri = random_potential(DESK_WINDOW, data, random.Random(SEED + 40 + m),
                                   triangular=True)
            for k in (0, 1, 2):
                for alpha in range(1, m + 1):
                    assert diagonal_drift(flow_field(data, tri, k, alpha)) == 0
            e_flows = {a: flow_field(data, full, 0, a) for a in range(1, m + 1)}
            for alpha, f in e_flows.items():
                e = data.projector(alpha)
                for n in f.sites():
                    u_n = full.at(n)
                    assert f.at(n) == (e @ u_n) - (u_n @ e)
        info["note"] = "positive degrees exact on random U; diagonal exact on triangular"


def test_criterion_5_bilinear_identity():
    with criterion(5, "bilinear residues (analytic exact, numeric 2nd order)", 120) as info:
        cells = 0
        for m in (2, 3):
            data = desk_data(m)
            rng = random.Random(SEED + 50 + m)
            state = desk_state(m, random_potential(DESK_WINDOW, data, rng))
            words = [()] + [((k, a),) for k in (0, 1) for a in range(1, m + 1)]
            for m_delta in (0, 1):
                for word in words:
                    l_max = min(6, bilinear_l_capacity(DESK_DEPTH, word, m_delta))
                    check = bilinear_residual(state, l_max, m_delta, word)
                    assert check == 0, (m, m_delta, word)
                    cells += 1

        # finite-difference path on the impulse instance class: the deep
        # dressing orders grow resonantly toward the window edge, so the
        # cancellation-noise floor of the centered difference scales with
        # the impulse amplitude; 0.005 puts the optimum well under 1e-8
        fdata = desk_data(2, FLOAT)
        fu = impulse_potential(DESK_WINDOW, 2, FLOAT, value=0.005)
        fstate = HierarchyState.solve(fdata, fu, DESK_WINDOW, DESK_DEPTH,
                                      validate=False)
        tight = bilinear_residual(fstate, 3, 0, ((1, 1),), path="numeric",
                                  fd_step=3e-6)
        assert tight <= 1e-8, tight
        r1 = bilinear_residual(fstate, 3, 0, ((1, 1),), path="numeric",
                               fd_step=4e-5)
        r2 = bilinear_residual(fstate, 3, 0, ((1, 1),), path="numeric",
                               fd_step=2e-5)
        order = math.log2(r1 / r2)
        assert order >= 1.7, order
        mrng = random.Random(SEED + 60)
        mu = random_potential(DESK_WINDOW, fdata, mrng, span=2).map(
            lambda v: v.scale(0.1))
        mstate = HierarchyState.solve(fdata, mu, DESK_WINDOW, DESK_DEPTH,
                                      validate=False)
        mixed = bilinear_residual(mstate, 2, 0, ((1, 1), (1, 2)), path="mixed",
                                  fd_step=2e-4)
        assert mixed <= 1e-6, mixed
        info["note"] = (f"{cells} exact cells; numeric {tight:.1e} <= 1e-8, "
                        f"order {order:.2f}; length-2 mixed {mixed:.1e} <= 1e-6")


def test_criterion_6_verifier_power():
    with criterion(6, "single-coefficient perturbations are detected", 30) as info:
        data = desk_data(2)
        rng = random.Random(SEED + 70)
        base = desk_state(2, random_potential(DESK_WINDOW, data, rng))
        detected = 0
        for _ in range(10):
            # off-diagonal coefficients at orders inside the commutator's
            # valid band: a diagonal bump at a site where the dressing is
            # locally diagonal cancels exactly inside the conjugation
            # (R' == R), and an order-N bump sits below the band
            k_ord = rng.randrange(DESK_DEPTH - 1)
            site = rng.randint(DESK_WINDOW.n_min, DESK_WINDOW.n_max)
            w = base.dressing.ws[k_ord]
            i = rng.choice((1, 2))
            bump = SmallMatrix.unit(2, i, 3 - i, RAT)
            vals = tuple(v + bump if n == site else v
                         for n, v in zip(w.sites(), w.values))
            ws = list(base.dressing.ws)
            ws[k_ord] = LatticeFn(w.lo, w.hi, vals, w.left_tail, w.right_tail,
                                  w.step, w.mode)
            bad = HierarchyState(data, base.U, DESK_WINDOW,
                                 Dressing(DESK_DEPTH, tuple(ws),
                                          base.dressing.conventions))
            bilinear = bilinear_residual(bad, 3, 1, ())
            comm = commutator_with_l(resolvent_dressed(bad, 1).series, data, base.U)
            comm_norm = max(comm.at(n).max_abs() for n in comm.sites())
            assert bilinear > 0 and comm_norm > 0, (k_ord, site)
            detected += 1
        info["note"] = f"{detected}/10 perturbations detected by both residuals"


def test_criterion_7_flow_commutativity():
    with criterion(7, "order-swap defect is pure integrator error", 60) as info:
        # dynamics run at depth 4 (k <= 2 needs no more) with the halo rule
        # "halo = truncation depth of the enclosing computation": a larger
        # stored range sharpens the resonant edge modes of the tied |a_i|
        # pair past the explicit stability limit at h = 1e-2
        from aknsd.lattice import Window

        window = Window(-8, 8, 4)
        data = desk_data(2, FLOAT)
        rng = random.Random(SEED + 80)
        u = random_potential(window, data, rng, span=3).map(
            lambda v: v.scale(0.12))
        notes = []
        for f1, f2 in (((1, 1), (2, 2)), ((0, 1), (1, 2))):
            defect, order = commutativity_defect(
                data, u, window, FlowIndex(*f1), FlowIndex(*f2), 1e-2, 5)
            assert defect <= 1e-6, (f1, f2, defect)
            assert order >= 2.0, (f1, f2, order)
            notes.append(f"{f1}x{f2}: defect {defect:.1e}, order "
                         f"{'inf (roundoff)' if math.isinf(order) else f'{order:.1f}'}")
        info["note"] = "; ".join(notes)


def test_criterion_8_tau_baker_construction():
    with criterion(8, "tau/Baker: vacuum, shift consistency, exact soliton", 30) as info:
        for m in (2, 3):
            data = desk_data(m)
            tau = TauExpSum.one()
            for n in (-4, 0, 3):
                w = baker_from_tau(tau, {}, n, data, 5)
                assert w.get(0) == SmallMatrix.identity(m, RAT)
                assert all(w.get(d).is_zero() for d in range(-5, 0))
            rng = random.Random(SEED + 90 + m)
            for trial in range(3):
                tau3 = rand_miwa_tau(rng, m)
                for n in (-2, 0, 4):
                    assert tau_lambda_defect(tau3, data, n) == 0
        # the AKNS soliton: exact dressing and bilinear grid, a bumped
        # companion is detected by both
        for m, i, j in ((2, 1, 2), (3, 1, 3), (3, 2, 3)):
            data = desk_data(m)
            tau, companions = soliton_tau(i, j)
            state = state_from_tau(data, tau, companions)
            assert dressing_residual(state) == 0
            assert all(v == 0 for v in bilinear_analytic_grid(state))
            companions[(i, j)] = soliton_tau(i, j, c1=2)[1][(i, j)]
            bumped = state_from_tau(data, tau, companions)
            assert dressing_residual(bumped) > 0
            assert any(v > 0 for v in bilinear_analytic_grid(bumped))
        info["note"] = "all identities exact in rational mode"


def test_criterion_9_continuum_scan():
    with criterion(9, "continuum scan: first-order self-convergence", 120) as info:
        data = desk_data(2, FLOAT)
        profile = gaussian_bump_profile(2)
        scan = continuum_scan(data, profile, [0.5, 0.25, 0.125, 0.0625],
                              x_span=4.0, halo=6)
        assert all(o >= 1.0 for o in scan.cauchy_orders), scan.cauchy_orders
        assert all(o >= 1.0 for o in scan.dx_orders), scan.dx_orders
        assert scan.cauchy_norms == sorted(scan.cauchy_norms, reverse=True)
        assert scan.dx_residual_norms == sorted(scan.dx_residual_norms,
                                                reverse=True)
        info["note"] = (
            f"cauchy orders {['%.2f' % o for o in scan.cauchy_orders]}, "
            f"dx orders {['%.2f' % o for o in scan.dx_orders]} (RMS norm; "
            f"max-norm values reported in the scan document)")


def test_criterion_10_infrastructure(tmp_path):
    with criterion(10, "round-trip, determinism, exit codes", 10) as info:
        data = desk_data(2)
        state = desk_state(2, impulse_potential(DESK_WINDOW, 2), depth=4)
        path = tmp_path / "state.json"
        save_state(state, str(path))
        back = load_state(str(path))
        assert state_to_json(back) == state_to_json(state)
        assert dressing_residual(back) == 0

        from aknsd.config import parse_config

        config = parse_config(json.dumps({
            "m": 2, "a": ["1", "-1"],
            "window": {"n_min": -4, "n_max": 4, "halo": 6},
            "depth": 4, "seed": SEED,
            "potential": {"type": "impulse"},
        }))
        r1 = json.dumps(run_verify_suite(config, "algebra").to_json(), sort_keys=True)
        r2 = json.dumps(run_verify_suite(config, "algebra").to_json(), sort_keys=True)
        assert r1 == r2

        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps({
            "m": 2, "a": ["1", "-1"],
            "window": {"n_min": -4, "n_max": 4, "halo": 6},
            "depth": 4, "seed": SEED,
        }))

        assert run_cli("dress", "--config", str(config_path)).returncode == 0

        doc = json.loads(path.read_text())
        doc["dressing"][0][5][1] = "1/2"
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text(json.dumps(doc))
        out = run_cli("dress", "--config", str(config_path), "--state", str(corrupt))
        assert out.returncode == 1, out.stdout + out.stderr

        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run_cli("dress", "--config", str(bad)).returncode == 2
        info["note"] = "exit codes 0/1/2 exercised via the CLI"
