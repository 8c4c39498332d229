"""Coulomb-coupled electronic Mach-Zehnder interferometers.

One chiral interferometer acts as a generalized which-path detector for a
second one through a tunable interaction phase.  The package computes the
exact joint scattering statistics, the induced POVM and its contextual
values, conditioned averages including weak and semi-weak values,
fluctuation-damped measurements, and estimator error budgets; a CLI
reproduces parameter sweeps and quantum-erasure fringes as CSV.
"""

from .conditioning import (
    AveragedExperiment,
    post_selected_average,
    require_post_selection,
    semiweak_value,
    weak_value,
    xi_joint_interference,
)
from .config import ExperimentConfig, evaluate_number, load_config, load_config_text
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
    measurement_operators,
    povm_expectation,
    povm_pair,
    reconstruct_average,
    semiweak_contextual_values,
    strong_contextual_values,
    weak_contextual_values,
)
from .params import (
    CouplingModel,
    DetectorDrain,
    FringeParams,
    InterferometerConfig,
    ObservableCoefficients,
    QpcSetting,
    SystemDrain,
    damping_eta,
    detector_params,
    qpc_from_angle,
    qpc_from_transmission,
)
from .scattering import (
    JointStatistics,
    PhysicalBias,
    average_current,
    concurrence,
    cross_noise_power,
    detector_drain_amplitudes,
    joint_amplitudes,
    joint_probability_table,
    reduced_system_state,
)
from .stochastic import (
    EstimateReport,
    ObservationBudget,
    contextual_estimate,
    observation_time,
    sample_events,
    sample_events_tally,
)

__version__ = "0.1.0"
