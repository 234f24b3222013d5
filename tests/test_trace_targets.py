"""The benchmark's traced run wraps package functions by name; they must exist.

``perfbench/tracing.py`` replaces each function named in ``LAYER_TARGETS``
(and ``dynamics._leakage``) by a timing wrapper.  A rename in the package
would otherwise only surface when the traced benchmark runs.
"""

import sys
from pathlib import Path

import aknsd.cli  # noqa: F401  (imports every layer the targets name)
from aknsd import dynamics, hierarchy, scalars
from aknsd.hierarchy import HierarchyState
from aknsd.instances import desk_data, vacuum_potential
from aknsd.lattice import Window

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_every_traced_target_resolves_and_is_wrapped():
    originals = {name: tracing._resolve(name, attr)[2]
                 for name, attr in tracing.LAYER_TARGETS}
    leakage = dynamics._leakage
    tracer = tracing.Tracer()
    with tracing.Patches() as patches:
        tracer.install(patches)
        for name, attr in tracing.LAYER_TARGETS:
            assert tracing._resolve(name, attr)[2].__wrapped__ is originals[name]
        assert dynamics._leakage.__wrapped__ is leakage

        window = Window(-2, 2, 2)
        data = desk_data(2, scalars.FLOAT)
        state = HierarchyState.solve(data, vacuum_potential(window, 2, scalars.FLOAT),
                                     window, 2)
        dynamics.rk4_evolve(state, dynamics.FlowIndex(1, 1), 0.1, 1)
        # the rational solve, defect, direct resolvent and commutator: the
        # order loop and the series pass must not bypass the traced names;
        # the flow field calls neither the direct resolvent nor the
        # commutator, in either mode
        data = desk_data(2)
        state = HierarchyState.solve(data, vacuum_potential(window, 2), window, 2)
        hierarchy.dressing_residual(state)
        hierarchy.resolvent_direct(data, state.U, 1, 2)
        hierarchy.commutator_with_l(state.hat, data, state.U)
    for name in ("dynamics.rk4_evolve", "dynamics.rk4_step", "hierarchy.flow_field",
                 "hierarchy.solve_dressing", "hierarchy.dressing_residual",
                 "hierarchy.resolvent_direct", "hierarchy.commutator_with_l"):
        assert tracer.calls[name] >= 1, name
    for name, attr in tracing.LAYER_TARGETS:
        assert tracing._resolve(name, attr)[2] is originals[name]
    assert dynamics._leakage is leakage
