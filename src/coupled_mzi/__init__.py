"""Coulomb-coupled electronic Mach-Zehnder interferometers.

One chiral interferometer acts as a generalized which-path detector for a
second one through a tunable interaction phase.  The package computes the
exact joint scattering statistics, the induced POVM and its contextual
values, conditioned averages including weak and semi-weak values,
fluctuation-damped measurements, and estimator error budgets; a CLI
reproduces parameter sweeps and quantum-erasure fringes as CSV.
"""

from .conditioning import (
    conditioned_average,
    post_selected_average,
    require_post_selection,
    semiweak_value,
    weak_value,
    xi_joint_interference,
)
from .config import ExperimentConfig, ScanSpec, evaluate_number, load_config, load_config_text
from .errors import (
    AmbiguousMeasurementError,
    ConfigError,
    CoupledMziError,
    ObservableRangeError,
    PostSelectionImpossibleError,
)
from .interaction import (
    InteractionGeometry,
    coupling_phase,
    dynamical_phase,
    geometry_for_phase,
    position_phase,
    sequential_phase,
    wavenumber_shift,
)
from .measurement import (
    ContextualValues,
    EfficientFactorization,
    MeasurementOperators,
    PovmPair,
    contextual_values,
    contextual_values_or_nan,
    efficient_factorization,
    limit_contextual_values,
    measurement_operators,
    povm_expectation,
    povm_pair,
    reconstruct_average,
)
from .params import (
    CouplingModel,
    DetectorDrain,
    DetectorParams,
    InterferometerConfig,
    JointInterferenceParams,
    ObservableCoefficients,
    QpcSetting,
    SystemDrain,
    SystemParams,
    damping_eta,
    detector_params,
    joint_interference_params,
    qpc_from_angle,
    qpc_from_transmission,
    system_params,
)
from .scattering import (
    JointAmplitudes,
    JointStatistics,
    PhysicalBias,
    average_current,
    concurrence,
    cross_noise_power,
    detector_drain_amplitudes,
    fringe_probability_table,
    joint_amplitudes,
    joint_probability_table,
    joint_statistics,
    qpc_unitary,
    reduced_system_state,
)
from .stochastic import (
    EstimateReport,
    ObservationBudget,
    averaged_bundles,
    averaged_detector_params,
    averaged_joint_table,
    contextual_estimate,
    observation_time,
    raised_cosine_pdf,
    sample_events,
)

__version__ = "0.1.0"
