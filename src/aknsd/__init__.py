"""Exact-arithmetic workbench for the discrete AKNS-D hierarchy."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AknsdError,
    ConfigError,
    ConsistencyError,
    DimensionError,
    InstanceError,
    ModeError,
    SchemaError,
    SingularError,
    SupportError,
    ValidityError,
)
from .matrices import SmallMatrix  # noqa: F401
from .series import (  # noqa: F401
    MatSeries,
    series_inverse,
    series_mul,
    series_project,
)
from .lattice import LatticeFn, Window, delta_apply, inner_product, shift_apply  # noqa: F401
from .hierarchy import (  # noqa: F401
    AknsData,
    Dressing,
    HierarchyState,
    Resolvent,
    commutator_with_l,
    dressing_residual,
    flow_field,
    make_potential,
    projector_b,
    resolvent_direct,
    resolvent_dressed,
    solve_dressing,
    validate_potential,
)
from .dynamics import (  # noqa: F401
    FlowIndex,
    Trajectory,
    commutativity_defect,
    continuum_scan,
    gaussian_bump_profile,
    rk4_evolve,
)
from .baker import (  # noqa: F401
    TauExpSum,
    adjoint_check,
    baker_from_tau,
    bilinear_residual,
    miwa_shift,
    tau_lambda_defect,
)
from .config import ExperimentConfig, parse_config  # noqa: F401
from .persist import load_state, save_state  # noqa: F401
from .verify import VerificationReport, run_verify_suite  # noqa: F401
