"""Extended-H2 attitude estimation from MARG/IMU data, with an EKF baseline.

The library synthesizes an H2-optimal estimator gain offline from the
linearization of the attitude kinematics about the level/zero-bias operating
point, then runs that fixed gain through the full nonlinear models online.
A conventional EKF over the same models serves as the comparison baseline,
and a seeded Monte-Carlo harness reproduces slow/small (case I) and
fast/large (case II) flight scenarios with per-axis error metrics and
per-step timing.
"""

from .errors import (
    ConfigError,
    DegenerateSample,
    Eh2MargError,
    GimbalLockError,
    InnovationCovSingular,
    LengthMismatch,
    NonConvergence,
    NonFiniteState,
    SynthesisFailure,
    UnstableClosedLoop,
)
from .kinematics import (
    EPS_GIMBAL,
    EulerAngles,
    angle_error,
    dcm_body_from_inertial,
    euler_rates,
    kinematic_matrix,
    kinematic_matrix_inverse,
    wrap_angle,
)
from .sensors import ImuSample, ImuStream, NoiseParams, WorldConstants, simulate_imu_stream
from .dynamics import EulerState, Measurement6, integrate_step, measurement, state_derivative
from .linearization import (
    LinearModel,
    assemble_model,
    finite_difference_jacobian,
    jacobians_measurement,
    jacobians_process,
    nominal_model,
)
from .synthesis import (
    GainCertificate,
    LmiReport,
    h2_norm_of_error_system,
    load_gain_text,
    save_gain_text,
    solve_care,
    solve_lyapunov,
    synthesize_gain,
    verify_lmi,
)
from .filters import (
    DEFAULT_P0,
    EH2FilterState,
    EKFState,
    eh2_step,
    ekf_step,
    initialize_from_first_sample,
)
from .harness import (
    BACKEND,
    GIMBAL_MARGIN,
    MAX_STEPS,
    RunMetrics,
    ScenarioConfig,
    Trajectory,
    compute_metrics,
    generate_trajectory,
    metrics_without_timing,
    run_experiment,
    run_timing_benchmark,
    timing_stats,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "DEFAULT_P0",
    "EPS_GIMBAL",
    "GIMBAL_MARGIN",
    "MAX_STEPS",
    "ConfigError",
    "DegenerateSample",
    "EH2FilterState",
    "EKFState",
    "Eh2MargError",
    "EulerAngles",
    "EulerState",
    "GainCertificate",
    "GimbalLockError",
    "ImuSample",
    "ImuStream",
    "InnovationCovSingular",
    "LengthMismatch",
    "LinearModel",
    "LmiReport",
    "Measurement6",
    "NoiseParams",
    "NonConvergence",
    "NonFiniteState",
    "RunMetrics",
    "ScenarioConfig",
    "SynthesisFailure",
    "Trajectory",
    "UnstableClosedLoop",
    "WorldConstants",
    "angle_error",
    "assemble_model",
    "compute_metrics",
    "dcm_body_from_inertial",
    "eh2_step",
    "ekf_step",
    "euler_rates",
    "finite_difference_jacobian",
    "generate_trajectory",
    "h2_norm_of_error_system",
    "initialize_from_first_sample",
    "integrate_step",
    "jacobians_measurement",
    "jacobians_process",
    "kinematic_matrix",
    "kinematic_matrix_inverse",
    "load_gain_text",
    "measurement",
    "metrics_without_timing",
    "nominal_model",
    "run_experiment",
    "run_timing_benchmark",
    "save_gain_text",
    "simulate_imu_stream",
    "solve_care",
    "solve_lyapunov",
    "state_derivative",
    "synthesize_gain",
    "timing_stats",
    "verify_lmi",
    "wrap_angle",
    "__version__",
]
