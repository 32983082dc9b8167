"""Global-stability certification for periodic population models.

Build maps with make_model, assemble them with make_system, and run
certify_global_stability; or drive everything from a YAML config via
the envcert command-line tool.
"""

# Set before the submodule imports: report reads it while this package
# is still initialising.
__version__ = "0.1.0"

from .certify import (
    CandidateRecord,
    ConditionsReport,
    LocalStability,
    OracleReport,
    SchwarzianReport,
    StabilityCertificate,
    axiom_gate,
    certify_global_stability,
    closed_form_conditions,
    default_candidates,
    local_stability,
    schwarzian,
    schwarzian_test,
    two_cycle_oracle,
)
from .config import SystemConfig, config_from_dict, config_to_system, parse_system_config
from .envelopes import (
    Envelope,
    EnvelopeVerdict,
    FitReport,
    StructuralReport,
    envelops,
    fit_mobius,
    make_custom_envelope,
    make_mobius,
    make_piecewise_bh,
    make_reciprocal,
    structural_check,
)
from .models import (
    FAMILIES,
    AxiomReport,
    AxiomViolation,
    Interval,
    PopulationModel,
    make_model,
    verify_population_axioms,
)
from .numerics import (
    GridConfig,
    SignReport,
    adaptive_sign_check,
    bracketed_root,
    fd_derivative,
    scan_roots,
)
from .periodic import (
    GeometricCycle,
    PeriodicSystem,
    compose_array,
    find_geometric_cycles,
    iterate_orbit,
    make_system,
)
