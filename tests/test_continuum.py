"""Deformed-step calculus and the continuum-limit scan."""

import math
import random

import pytest

from aknsd import dynamics, scalars
from aknsd.dynamics import continuum_scan, gaussian_bump_profile
from aknsd.errors import InstanceError
from aknsd.hierarchy import flow_field
from aknsd.instances import desk_data, random_potential
from aknsd.lattice import LatticeFn, Window
from aknsd.matrices import SmallMatrix

FLOAT = scalars.FLOAT


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

    report = continuum_scan(data, zero_profile, [0.5, 0.25],
                            x_span=2.0, halo=4)
    assert report.cauchy_norms == [0.0]
    assert report.dx_residual_norms == [0.0, 0.0]


def test_eps_list_validation():
    data = desk_data(2, FLOAT)
    profile = gaussian_bump_profile(2)
    with pytest.raises(InstanceError):
        continuum_scan(data, profile, [0.25, 0.5])
    with pytest.raises(InstanceError):
        continuum_scan(data, profile, [0.5, 0.3])


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
    report = continuum_scan(desk_data(2, FLOAT), gaussian_bump_profile(2), [0.5, 0.25],
                            x_span=2.0, halo=4)
    assert math.isnan(report.cauchy_norms_max[0])
    assert all(math.isnan(x) for x in report.dx_residual_norms_max)
