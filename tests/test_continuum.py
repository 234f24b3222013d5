"""Deformed-step calculus and the continuum-limit scan."""

import math
from pathlib import Path
import random

import pytest

from aknsd import dynamics, scalars, verify
from aknsd.config import parse_config
from aknsd.dynamics import continuum_scan, gaussian_bump_profile
from aknsd.errors import InstanceError
from aknsd.hierarchy import flow_field
from aknsd.instances import desk_data, random_potential
from aknsd.lattice import LatticeFn, Window
from aknsd.matrices import SmallMatrix
from aknsd.verify import run_verify_suite

FLOAT = scalars.FLOAT

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_step_one_matches_undeformed_bit_for_bit():
    window = Window(-6, 6, 5)
    data = desk_data(2, FLOAT)
    rng = random.Random(0)
    u_plain = random_potential(window, data, rng, span=3)
    from aknsd.lattice import LatticeFn

    u_stepped = LatticeFn(u_plain.lo, u_plain.hi, u_plain.values,
                          u_plain.left_tail, u_plain.right_tail, 1.0, FLOAT)
    for k in (0, 1):
        f1 = flow_field(data, u_plain, k, 1, tol=1e-9)
        f2 = flow_field(data, u_stepped, k, 1, tol=1e-9)
        for n in f1.sites():
            assert f1.at(n).rows == f2.at(n).rows


def test_vacuum_scan_reports_zero():
    data = desk_data(2, FLOAT)

    def zero_profile(x):
        return SmallMatrix.zero(2, FLOAT)

    report = continuum_scan(data, zero_profile, [0.5, 0.25, 0.125],
                            x_span=2.0, halo=4)
    assert report.cauchy_norms == [0.0, 0.0]
    assert report.dx_residual_norms == [0.0, 0.0, 0.0]
    assert report.cauchy_orders == [math.inf] and report.dx_orders == [math.inf, math.inf]
    assert report.flags == [] and report.passed


def test_eps_list_validation():
    data = desk_data(2, FLOAT)
    profile = gaussian_bump_profile(2)
    with pytest.raises(InstanceError, match="strictly decreasing"):
        continuum_scan(data, profile, [0.25, 0.5, 1.0])
    with pytest.raises(InstanceError, match="halved steps"):
        continuum_scan(data, profile, [0.5, 0.3, 0.15])


def test_gaussian_bump_scan_first_order():
    data = desk_data(2, FLOAT)
    profile = gaussian_bump_profile(2)
    report = continuum_scan(data, profile, [0.5, 0.25, 0.125],
                            x_span=3.0, halo=4)
    assert len(report.cauchy_norms) == 2
    assert all(o >= 1.0 for o in report.cauchy_orders)
    assert all(o >= 1.0 for o in report.dx_orders)
    assert report.cauchy_norms[0] > report.cauchy_norms[1]
    assert report.dx_residual_norms[-1] < report.dx_residual_norms[0]


def test_scan_maxima_keep_a_nan(monkeypatch):
    # a nan at site 0 of one field, in the middle of every norm's entries:
    # builtin max keeps the finite entries that come before it
    field = dynamics.flow_field

    def field_with_nan(data, u, k, alpha, **kwargs):
        f = field(data, u, k, alpha, **kwargs)
        if alpha != 2:
            return f
        vals = tuple(SmallMatrix(2, FLOAT, ((0.0, math.nan), (0.0, 0.0))) if n == 0 else v
                     for n, v in zip(f.sites(), f.values))
        return LatticeFn(f.lo, f.hi, vals, f.left_tail, f.right_tail, f.step, f.mode)

    monkeypatch.setattr(dynamics, "flow_field", field_with_nan)
    report = continuum_scan(desk_data(2, FLOAT), gaussian_bump_profile(2), [0.5, 0.25, 0.125],
                            x_span=2.0, halo=4)
    assert len(report.cauchy_norms_max) == 2 and len(report.dx_residual_norms_max) == 3
    assert all(math.isnan(x) for x in report.cauchy_norms_max)
    assert all(math.isnan(x) for x in report.dx_residual_norms_max)


def _nan_on_calls(monkeypatch, calls):
    """Patch ``flow_field`` to put a nan at site 0 of the fields of ``calls``.

    ``calls`` are 0-based indices of the calls, counted across ``dynamics``
    (the scan and the RK4 step) and ``verify`` (the dynamics suite's Euler
    reference); the other fields are untouched.
    """
    field = dynamics.flow_field
    count = iter(range(10 ** 6))

    def field_with_nan(data, u, k, alpha, **kwargs):
        f = field(data, u, k, alpha, **kwargs)
        if next(count) not in calls:
            return f
        bad = SmallMatrix(data.m, FLOAT, tuple(
            tuple(math.nan if (r, c) == (0, 1) else 0.0 for c in range(data.m))
            for r in range(data.m)))
        vals = tuple(bad if n == 0 else v for n, v in zip(f.sites(), f.values))
        return LatticeFn(f.lo, f.hi, vals, f.left_tail, f.right_tail, f.step, f.mode)

    monkeypatch.setattr(dynamics, "flow_field", field_with_nan)
    monkeypatch.setattr(verify, "flow_field", field_with_nan)


def _checks(name, suite):
    config = parse_config((CONFIGS / f"{name}.json").read_text())
    report = run_verify_suite(config, suite)
    return report, {c["check"]: c for c in report.checks}


def test_a_nan_scan_norm_gives_a_nan_order(monkeypatch):
    # the first field of the first step: both norms that read it are nan, and
    # so are the orders formed from them; a zero norm still gives inf
    _nan_on_calls(monkeypatch, {0})
    report = continuum_scan(desk_data(2, FLOAT), gaussian_bump_profile(2), [0.5, 0.25, 0.125],
                            x_span=2.0, halo=4)
    assert math.isnan(report.cauchy_norms[0]) and math.isnan(report.dx_residual_norms[0])
    assert math.isnan(report.cauchy_orders[0]) and math.isnan(report.dx_orders[0])
    assert not report.passed
    assert any(f.startswith("cauchy order nan") for f in report.flags)
    monkeypatch.undo()
    zero = continuum_scan(desk_data(2, FLOAT), lambda x: SmallMatrix.zero(2, FLOAT),
                          [0.5, 0.25, 0.125], x_span=2.0, halo=4)
    assert zero.cauchy_orders == [math.inf] and zero.dx_orders == [math.inf, math.inf]
    assert zero.passed


@pytest.mark.parametrize("call", [0, 7])
def test_a_nan_scan_field_fails_the_limit_suite(monkeypatch, call):
    # desk_m2 scans 4 steps with 2 flows each: call 0 is the first field, whose
    # nan orders come first; call 7 the last, whose nan orders come after
    # finite ones, where builtin min would drop them
    _nan_on_calls(monkeypatch, {call})
    report, checks = _checks("desk_m2", "limit")
    for name in ("continuum_cauchy_order", "continuum_dx_relation_order"):
        assert checks[name]["residual"] == "nan"
        assert not checks[name]["pass"]
    assert report.verdict == "fail"


@pytest.mark.filterwarnings("ignore:boundary leakage")
def test_a_nan_field_fails_the_rk4_order_check(monkeypatch):
    # the first field of the dynamics suite is the Euler reference: both
    # defects are nan, and so is the order; the later fields are finite
    _nan_on_calls(monkeypatch, {0})
    report, checks = _checks("desk_m2", "dynamics")
    check = checks["rk4_vs_euler_order"]
    assert check["residual"] == "nan" and not check["pass"]
    assert report.verdict == "fail"
