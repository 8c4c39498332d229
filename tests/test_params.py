import math

import numpy as np
import pytest

from coupled_mzi import (
    CouplingModel,
    FringeParams,
    InterferometerConfig,
    damping_eta,
    detector_params,
    qpc_from_angle,
    qpc_from_transmission,
)
from conftest import balanced_mzi, random_mzi


class TestQpcSetting:
    def test_balanced(self):
        q = qpc_from_transmission(0.5)
        assert q.delta == pytest.approx(0.0, abs=1e-15)
        assert q.epsilon == pytest.approx(1.0, abs=1e-15)
        assert q.theta == pytest.approx(math.pi / 4, abs=1e-15)

    def test_full_transmission(self):
        q = qpc_from_transmission(1.0)
        assert q.delta == 1.0
        assert q.epsilon == 0.0
        assert q.theta == 0.0

    def test_derived_values(self):
        q = qpc_from_transmission(0.8)
        assert q.delta == pytest.approx(0.6, abs=1e-12)
        assert q.epsilon == pytest.approx(0.8, abs=1e-12)
        assert q.delta**2 + q.epsilon**2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [-0.1, 1.2, math.nan])
    def test_out_of_range_transmission(self, bad):
        with pytest.raises(ValueError):
            qpc_from_transmission(bad)

    def test_angle_constructor(self):
        q = qpc_from_angle(0.785398)
        assert q.transmission == pytest.approx(0.5, abs=1e-6)
        with pytest.raises(ValueError):
            qpc_from_angle(2.0)

    def test_angle_round_trip(self):
        for theta in np.linspace(0.0, math.pi / 2, 97):
            q = qpc_from_transmission(math.cos(theta) ** 2)
            assert q.theta == pytest.approx(theta, abs=1e-10)

    def test_identities_random_sweep(self, rng):
        for _ in range(500):
            q = qpc_from_transmission(rng.uniform(0, 1))
            assert q.transmission + q.reflection == pytest.approx(1.0, abs=1e-12)
            assert q.delta == pytest.approx(q.transmission - q.reflection, abs=1e-12)
            assert q.delta**2 + q.epsilon**2 == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= q.theta <= math.pi / 2

    @pytest.mark.parametrize("build", [qpc_from_transmission, qpc_from_angle])
    @pytest.mark.parametrize("name", ["chi", "xi"])
    @pytest.mark.parametrize("phase", [math.inf, -math.inf, math.nan, np.array([0.5, math.nan]), 10**400],
                             ids=["inf", "-inf", "nan", "stack-nan", "huge-int"])
    def test_non_finite_phase_named(self, build, name, phase):
        with pytest.raises(ValueError, match=f"^{name} .* is not a finite number$"):
            build(0.5, **{name: phase})

    def test_inconsistent_fields_rejected(self):
        with pytest.raises(ValueError):
            from coupled_mzi import QpcSetting

            QpcSetting(transmission=0.5, reflection=0.6)


class TestDetectorParams:
    def test_symmetric_strong_point(self):
        p = detector_params(balanced_mzi(0.0), math.pi)
        assert (p.beta_plus, p.beta_minus) == (1.0, 1.0)
        assert p.visibility == pytest.approx(1.0, abs=1e-15)
        assert p.Gamma == pytest.approx(1.0, abs=1e-15)
        assert p.Delta == pytest.approx(0.0, abs=1e-15)

    def test_zero_coupling_recovers_isolated_signal(self, rng):
        for _ in range(50):
            det = random_mzi(rng)
            p = detector_params(det, 0.0)
            assert p.Gamma == 0.0
            assert p.Delta == pytest.approx(math.cos(det.tuning_phase), abs=1e-12)

    def test_quarter_point(self):
        p = detector_params(balanced_mzi(math.pi / 2), math.pi / 2)
        assert p.Gamma == pytest.approx(0.5, abs=1e-12)
        assert p.Delta == pytest.approx(-0.5, abs=1e-12)

    def test_background_and_interference_identities(self, rng):
        for _ in range(300):
            det = random_mzi(rng)
            gamma = rng.uniform(0, 2 * math.pi)
            p = detector_params(det, gamma)
            assert (p.beta_plus + p.beta_minus) / 2 == pytest.approx(1.0, abs=1e-12)
            assert p.Delta + p.Gamma == pytest.approx(math.cos(det.tuning_phase), abs=1e-12)

    def test_strong_coupling_moves_all_interference(self, rng):
        for _ in range(50):
            det = random_mzi(rng)
            p = detector_params(det, math.pi)
            assert p.Gamma == pytest.approx(math.cos(det.tuning_phase), abs=1e-12)
            assert p.Delta == pytest.approx(0.0, abs=1e-12)

    def test_bundle_validation(self):
        with pytest.raises(ValueError):
            FringeParams(beta_plus=1.5, beta_minus=0.6, visibility=1.0, Gamma=0.0, Delta=0.0)
        with pytest.raises(ValueError):
            FringeParams(beta_plus=1.0, beta_minus=1.0, visibility=1.2, Gamma=0.0, Delta=0.0)

    @pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, np.array([1.0, math.nan]), 10**400],
                             ids=["inf", "-inf", "nan", "stack-nan", "huge-int"])
    def test_non_finite_coupling_names_gamma(self, gamma):
        with pytest.raises(ValueError, match="^gamma .* is not a finite number$"):
            detector_params(balanced_mzi(0.3), gamma)


class TestCouplingModel:
    def test_defaults(self):
        model = CouplingModel(gamma=math.pi)
        assert model.sigma == 0.0
        assert model.pair_probability == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=-0.1),
            dict(gamma=2 * math.pi + 0.1),
            dict(gamma=1.0, sigma=-0.2),
            dict(gamma=1.0, sigma=math.pi + 0.1),
            dict(gamma=1.0, pair_probability=1.5),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CouplingModel(**kwargs)


def test_interferometer_config_holds_fields():
    q1 = qpc_from_transmission(0.3, chi=0.1)
    q2 = qpc_from_transmission(0.7, xi=0.2)
    mzi = InterferometerConfig(q1, q2, 1.25)
    assert mzi.qpc1 is q1 and mzi.qpc2 is q2
    assert mzi.tuning_phase == 1.25


class TestArrayFields:
    @pytest.mark.parametrize("field", ["beta_plus", "beta_minus", "visibility", "Gamma", "Delta"])
    def test_nan_fails_every_bundle_check(self, field):
        fields = dict(beta_plus=1.0, beta_minus=1.0, visibility=0.5, Gamma=0.25, Delta=0.5)
        with pytest.raises(ValueError):
            FringeParams(**{**fields, field: math.nan})

    def test_every_point_is_checked(self):
        model = CouplingModel(gamma=np.array([0.0, 1.0, 2 * math.pi]),
                              sigma=np.array([0.0, math.pi, 1.0]))
        assert model.gamma.shape == (3,)
        for bad in (dict(gamma=np.array([1.0, 7.0])), dict(gamma=1.0, sigma=np.array([0.5, math.nan]))):
            with pytest.raises(ValueError):
                CouplingModel(**bad)
        with pytest.raises(ValueError, match="transmission"):
            qpc_from_transmission(np.array([0.2, 1.5]))

    def test_scalar_inputs_give_python_floats(self):
        q = qpc_from_transmission(0.3)
        p = detector_params(InterferometerConfig(q, q, 0.4), 1.1)
        values = [q.epsilon, q.theta, damping_eta(0.5), *(getattr(p, f) for f in ("Gamma", "Delta"))]
        assert all(type(x) is float for x in values)
