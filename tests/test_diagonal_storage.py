"""Exported value types hold only their independent numbers, and the
measurement operators, POVM and joint statistics reject bad input at their
public constructors."""

import dataclasses
import math

import numpy as np
import pytest

import coupled_mzi
from coupled_mzi import (
    JointStatistics,
    MeasurementOperators,
    PovmPair,
    joint_probability_table,
    measurement_operators,
    povm_pair,
)
from helpers import random_mzi

NAN, INF = math.nan, math.inf


INIT_FIELDS = {
    "AveragedExperiment": ("detector", "system", "coupling", "observable"),
    "ContextualValues": ("alpha_d1", "alpha_d2"),
    "CouplingModel": ("gamma", "sigma", "pair_probability"),
    "EfficientFactorization": ("disturbance_unitary", "root_d1", "root_d2", "dropped_phases"),
    "EstimateReport": ("estimate", "n", "empirical_variance", "predicted_mse", "mse_upper_bound"),
    "ExperimentConfig": ("detector", "system", "coupling", "observable", "bias", "geometry",
                         "budget"),
    "FringeParams": ("beta_plus", "beta_minus", "visibility", "Gamma", "Delta"),
    "InteractionGeometry": ("copropagation_length", "channel_separation", "screening_length",
                            "propagation_speed", "coulomb_constant"),
    "InterferometerConfig": ("qpc1", "qpc2", "tuning_phase"),
    "JointStatistics": ("joint",),
    "MeasurementOperators": ("diag_d1", "diag_d2"),
    "ObservableCoefficients": ("a0", "a3"),
    "ObservationBudget": ("path_length", "fermi_velocity", "target_rms", "tau_m"),
    "PhysicalBias": ("bias_voltage", "fermi_energy", "temperature"),
    "PovmPair": ("diag_d1", "diag_d2"),
    "QpcSetting": ("transmission", "reflection", "chi", "xi"),
}
"""Constructor fields of every dataclass the package exports: the
independent inputs, and results that a caller reads."""

DERIVED_FIELDS = {"QpcSetting": ("delta", "epsilon")}
"""Fields computed once at construction rather than passed in."""


def test_fields_are_the_independent_numbers():
    exported = {name: value for name, value in vars(coupled_mzi).items()
                if isinstance(value, type) and dataclasses.is_dataclass(value)}
    assert {name: tuple(f.name for f in dataclasses.fields(cls) if f.init)
            for name, cls in exported.items()} == INIT_FIELDS
    derived = {name: tuple(f.name for f in dataclasses.fields(cls) if not f.init)
               for name, cls in exported.items()}
    assert {name: fields for name, fields in derived.items() if fields} == DERIVED_FIELDS


def test_matrix_views_carry_the_diagonals(rng):
    for _ in range(50):
        det, sysm = random_mzi(rng), random_mzi(rng)
        gamma = rng.uniform(0, 2 * math.pi)
        m = measurement_operators(det, gamma)
        povm = povm_pair(m)
        # one table keeps Python numbers; only a stack holds arrays
        assert {type(x) for x in (*m.diag_d1, *m.diag_d2)} == {complex}
        assert {type(x) for x in (*povm.diag_d1, *povm.diag_d2)} == {float}
        for diagonal, matrix in ((m.diag_d1, m.m_d1), (m.diag_d2, m.m_d2),
                                 (povm.diag_d1, povm.e_d1), (povm.diag_d2, povm.e_d2)):
            assert np.array_equal(matrix, np.diag(diagonal))
        assert np.abs(np.subtract(povm.diag_d1, np.abs(m.diag_d1) ** 2)).max() <= 1e-15
        stats = JointStatistics(joint_probability_table(det, sysm, gamma))
        assert np.array_equal(stats.detector_marginals, stats.joint.sum(axis=1))
        assert np.array_equal(stats.system_marginals, stats.joint.sum(axis=0))


def test_views_cannot_be_reassigned():
    m = MeasurementOperators((0.6, 0.8j), (0.8, 0.6))
    with pytest.raises(AttributeError):
        m.m_d1 = np.eye(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.diag_d1 = (1.0, 1.0)


@pytest.mark.parametrize("d1, d2", [
    pytest.param((NAN, NAN), (NAN, NAN), id="nan"),
    pytest.param((0.6, NAN), (0.8, 1.0), id="one-nan"),
    pytest.param((INF, 0.0), (0.0, 1.0), id="inf"),
    pytest.param((0.6, 0.6), (0.6, 0.6), id="incomplete"),
    pytest.param((0.6, 0.0, 0.0), (0.8, 1.0, 1.0), id="three-paths"),
])
def test_measurement_operators_reject(d1, d2):
    with pytest.raises(ValueError):
        MeasurementOperators(d1, d2)


@pytest.mark.parametrize("e1, e2", [
    pytest.param((NAN, NAN), (NAN, NAN), id="nan"),
    pytest.param((0.5, NAN), (0.5, 0.5), id="one-nan"),
    pytest.param((INF, 0.5), (0.5, 0.5), id="inf"),
    pytest.param((INF, 0.5), (-INF, 0.5), id="opposite-infs"),
    pytest.param((0.3, 0.5), (0.3, 0.5), id="incomplete"),
    pytest.param((-0.1, 0.5), (1.1, 0.5), id="negative"),
])
def test_povm_pair_rejects(e1, e2):
    with pytest.raises(ValueError):
        PovmPair(e1, e2)


@pytest.mark.parametrize("joint", [
    pytest.param([[NAN, 0.0], [0.0, 1.0]], id="nan"),
    pytest.param([[0.0, 0.0], [NAN, 1.0]], id="nan-not-first"),
    pytest.param([[INF, 0.0], [0.0, 1.0]], id="inf"),
    pytest.param([[0.25, 0.25], [0.25, 0.2]], id="incomplete"),
    pytest.param([[-0.1, 0.35], [0.25, 0.5]], id="negative"),
    pytest.param([[[0.25] * 2] * 2, [[0.25] * 2] * 2, [[0.25, 0.25], [0.25, NAN]]],
                 id="stack-one-bad"),
    pytest.param(np.full((3, 3), 1 / 9), id="three-by-three"),
    pytest.param(1.0, id="zero-d"),
])
def test_joint_statistics_rejects(joint):
    with pytest.raises(ValueError):
        JointStatistics(np.array(joint))
