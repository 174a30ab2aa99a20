"""Multi-user DASH rate adaptation as a non-cooperative game.

Utility model with analytic derivatives, Nash equilibrium solvers, the
distributed server-assisted adaptation loop, local stability analysis of
the update map, and a deterministic fluid simulator of a shared bottleneck
with evaluation metrics and scenario presets.
"""

from .model import (
    BufferView,
    GameParams,
    VideoQualityModel,
    adjustment_factor,
    estimated_buffer,
    quality,
    utility,
    utility_gradient,
    utility_hessian,
    utility_hessian_entries,
)
from .game import (
    EquilibriumResult,
    FocCoefficients,
    best_response,
    closed_form_identical_2user,
    foc_coefficients,
    solve_equilibrium,
)
from .adapt import (
    AdaptConfig,
    PayoffQuery,
    PayoffReply,
    PayoffServer,
    UserSession,
    payoff_gradient_server,
    run_round,
    update_rate,
)
from .stability import (
    StabilityReport,
    build_report,
    eigenvalues_small,
    jacobian_2user,
    jacobian_numeric,
    spectral_radius,
    stability_conditions_identical_2user,
)
from .netsim import (
    BandwidthProfile,
    CapSpec,
    SessionTrace,
    SimConfig,
    TraceRecord,
    allocate_shares,
    bandwidth_at,
    calibrate_nu,
    make_profile,
    quantize_rate,
    run_scenario,
)
from .metrics import QoeMetricParams, SummaryStats, qoe1, qoe2, summarize
from .scenarios import Scenario, UserSpec, list_presets, load_preset, load_scenario

__version__ = "0.1.0"
