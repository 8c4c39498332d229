import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from coupled_mzi import (
    InteractionGeometry,
    coupling_phase,
    dynamical_phase,
    geometry_for_phase,
    joint_amplitudes,
    position_phase,
    sequential_phase,
    wavenumber_shift,
)
from coupled_mzi.interaction import HBAR
from coupled_mzi.scattering import ELEMENTARY_CHARGE
from helpers import random_mzi, squared_moduli

GEOM = InteractionGeometry(
    copropagation_length=5e-6,
    channel_separation=50e-9,
    screening_length=100e-9,
    propagation_speed=1e5,
    coulomb_constant=8.9875e9,
)


POSITIVE_FIELDS = ["channel_separation", "screening_length", "propagation_speed", "coulomb_constant"]


@pytest.mark.parametrize("call, message", [
    *[(lambda field=field: replace(GEOM, **{field: 0.0}), f"{field} must be positive") for field in POSITIVE_FIELDS],
    (lambda: wavenumber_shift(0.0, GEOM), "separation must be positive"),
    (lambda: dynamical_phase(0.0, 1.0, 1.0), "energy and velocity must be positive"),
    (lambda: dynamical_phase(1.0, 1.0, 0.0), "energy and velocity must be positive"),
    (lambda: geometry_for_phase(0.0, 5e-6, 50e-9, 100e-9, 1e5), "target phase must be positive"),
    (lambda: geometry_for_phase(2.2, 0.0, 50e-9, 100e-9, 1e5), "target phase requires a positive interaction length"),
    (lambda: geometry_for_phase(2.2, 5e-6, 50e-9, 0.0, 1e5), "screening_length must be positive"),
], ids=[*POSITIVE_FIELDS, "separation", "fermi_energy", "fermi_velocity", "target_gamma", "length", "screening"])
def test_zero_fails_the_sign_rule_by_its_message(call, message):
    # a zero that passed its sign rule would fail a later check with another message
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestCouplingPhase:
    def test_zero_length(self):
        geom = InteractionGeometry(0.0, 50e-9, 100e-9, 1e5, 8.9875e9)
        assert coupling_phase(geom) == 0.0

    def test_linear_in_length(self):
        base = coupling_phase(GEOM)
        for factor in (2.0, 3.0, 7.5):
            scaled = InteractionGeometry(
                GEOM.copropagation_length * factor,
                GEOM.channel_separation,
                GEOM.screening_length,
                GEOM.propagation_speed,
                GEOM.coulomb_constant,
            )
            assert coupling_phase(scaled) == pytest.approx(factor * base, rel=1e-12)

    def test_screening_suppression(self):
        far = InteractionGeometry(
            GEOM.copropagation_length,
            50 * GEOM.screening_length,
            GEOM.screening_length,
            GEOM.propagation_speed,
            GEOM.coulomb_constant,
        )
        assert coupling_phase(far) < 1e-18 * coupling_phase(GEOM)

    def test_closed_form(self):
        expected = (
            GEOM.coulomb_constant
            * ELEMENTARY_CHARGE**2
            / (HBAR * GEOM.channel_separation)
            * math.exp(-GEOM.channel_separation / GEOM.screening_length)
            * 2.0
            * GEOM.copropagation_length
            / GEOM.propagation_speed
        )
        assert coupling_phase(GEOM) == pytest.approx(expected, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            InteractionGeometry(1e-6, -1e-9, 1e-7, 1e5, 1.0)
        with pytest.raises(ValueError):
            InteractionGeometry(1e-6, 1e-9, 1e-7, 0.0, 1.0)

    @pytest.mark.parametrize("separation, screening, constant", [
        (1e-300, 100e-9, 1e300),  # hbar * d underflows to zero
        (1e-30, 100e-9, 1e308),  # the rate overflows
    ])
    def test_rejects_non_finite_phase(self, separation, screening, constant):
        with pytest.raises(ValueError, match="^coupling phase is not a finite number$"):
            InteractionGeometry(5e-6, separation, screening, 1e5, constant)

    def test_length_whose_phase_overflows_keeps_the_message(self):
        # position_phase names its own overflow of 2 L; the geometry keeps its message
        with pytest.raises(ValueError, match="^coupling phase is not a finite number$"):
            InteractionGeometry(1e308, 50e-9, 100e-9, 1e5, 8.9875e9)

    @pytest.mark.parametrize("length", [math.inf, math.nan, 10**400], ids=["inf", "nan", "beyond"])
    def test_non_finite_length_is_named(self, length):
        with pytest.raises(ValueError, match=f"^copropagation_length {length} is not a finite number$"):
            InteractionGeometry(length, 50e-9, 100e-9, 1e5, 8.9875e9)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 10**400], ids=["inf", "nan", "beyond"])
    @pytest.mark.parametrize("field", POSITIVE_FIELDS)
    def test_non_finite_field_is_named(self, field, value):
        # an infinite separation, screening length or speed gives a finite phase: only this check rejects it
        with pytest.raises(ValueError, match=f"^{field} {value} is not a finite number$"):
            replace(GEOM, **{field: value})

    def test_sign_rules_come_before_finiteness(self):
        with pytest.raises(ValueError, match="^propagation_speed must be positive$"):
            replace(GEOM, copropagation_length=math.inf, channel_separation=math.inf, propagation_speed=-1.0)


class TestPositionPhase:
    def test_matches_coupling_phase_at_region_end(self):
        length = GEOM.copropagation_length
        assert position_phase(length, length, GEOM) == coupling_phase(GEOM)

    def test_zero_at_origin(self):
        assert position_phase(0.0, 0.0, GEOM) == 0.0

    def test_monotone_suppression_in_longitudinal_separation(self):
        x = GEOM.copropagation_length
        offsets = np.linspace(0.0, 20 * GEOM.screening_length, 25)
        values = [position_phase(x, x + off, GEOM) for off in offsets]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 10**400], ids=["inf", "-inf", "nan", "beyond"])
    def test_non_finite_position_is_named(self, x):
        with pytest.raises(ValueError, match=f"^x1 {x} is not a finite number$"):
            position_phase(x, 0.0, GEOM)
        with pytest.raises(ValueError, match=f"^x2 {x} is not a finite number$"):
            position_phase(0.0, x, GEOM)

    @pytest.mark.parametrize("x1, x2", [(1e308, 1e308), (-1e308, -1e308), (1e300, 1e300)])
    def test_overflowing_phase_is_named(self, x1, x2):
        with pytest.raises(ValueError, match="^the joint phase is not a finite number$"):
            position_phase(x1, x2, GEOM)

    def test_interaction_distance(self):
        # separation grows with |x2 - x1|; the phase tracks the closed form
        x1, x2 = 2e-6, 3e-6
        r = math.hypot(GEOM.channel_separation, x2 - x1)
        expected = (
            GEOM.coulomb_constant
            * ELEMENTARY_CHARGE**2
            / (HBAR * r)
            * math.exp(-r / GEOM.screening_length)
            * (x1 + x2)
            / GEOM.propagation_speed
        )
        assert position_phase(x1, x2, GEOM) == pytest.approx(expected, rel=1e-15)


class TestWavenumberShift:
    def test_quadrature_reproduces_coupling_phase(self):
        # integrate the wave-number shift over the sum coordinate 0..2L at
        # fixed channel separation
        shift = wavenumber_shift(GEOM.channel_separation, GEOM)
        total, _ = quad(lambda y: shift, 0.0, 2.0 * GEOM.copropagation_length)
        assert total == pytest.approx(coupling_phase(GEOM), rel=1e-10)

    def test_positive_separation_required(self):
        with pytest.raises(ValueError):
            wavenumber_shift(0.0, GEOM)

    def test_nan_separation_rejected(self):
        with pytest.raises(ValueError, match="^separation must be positive$"):
            wavenumber_shift(math.nan, GEOM)

    @pytest.mark.parametrize("separation", [math.inf, 10**400], ids=["inf", "beyond"])
    def test_non_finite_separation_is_named(self, separation):
        with pytest.raises(ValueError, match=f"^separation {separation} is not a finite number$"):
            wavenumber_shift(separation, GEOM)

    @pytest.mark.parametrize("separation, constant", [
        (1e-320, GEOM.coulomb_constant),  # hbar * separation underflows to zero
        (5e-324, GEOM.coulomb_constant),
        (1e-280, 1e250),  # the rate overflows
    ])
    def test_separation_too_small_for_a_finite_shift_is_named(self, separation, constant):
        geom = replace(GEOM, coulomb_constant=constant)
        with pytest.raises(ValueError, match=f"^separation {separation} is too small: "):
            wavenumber_shift(separation, geom)


class TestDynamicalPhase:
    FERMI_J = 10e-3 * ELEMENTARY_CHARGE  # 10 meV

    def test_zero_length(self):
        assert dynamical_phase(self.FERMI_J, 0.0, 1e5) == 0.0

    def test_linear_in_length(self):
        single = dynamical_phase(self.FERMI_J, 5e-6, 1e5)
        assert dynamical_phase(self.FERMI_J, 10e-6, 1e5) == pytest.approx(2 * single, rel=1e-15)

    def test_pair_accumulates_twice_single(self):
        single = dynamical_phase(self.FERMI_J, 5e-6, 1e5)
        pair = 2.0 * single
        assert pair == pytest.approx(4.0 * self.FERMI_J * 5e-6 / (HBAR * 1e5), rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            dynamical_phase(-1.0, 1e-6, 1e5)
        with pytest.raises(ValueError):
            dynamical_phase(self.FERMI_J, -1e-6, 1e5)

    @pytest.mark.parametrize("arguments, message", [
        ((math.nan, 1.0, 1.0), "energy and velocity must be positive"),
        ((1.0, 1.0, math.nan), "energy and velocity must be positive"),
        ((1.0, math.nan, 1.0), "length must be non-negative"),
    ], ids=["energy", "velocity", "length"])
    def test_nan_rejected(self, arguments, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            dynamical_phase(*arguments)

    @pytest.mark.parametrize("arguments, name", [
        ((math.inf, 1.0, 1.0), "fermi_energy"),
        ((1.0, math.inf, 1.0), "length"),
        ((1.0, 1.0, math.inf), "fermi_velocity"),
    ], ids=["energy", "length", "velocity"])
    def test_infinite_argument_named(self, arguments, name):
        with pytest.raises(ValueError, match=f"^{name} inf is not a finite number$"):
            dynamical_phase(*arguments)

    def test_int_beyond_the_double_range_named(self):
        with pytest.raises(ValueError, match=f"^length {10**400} is not a finite number$"):
            dynamical_phase(1.0, 10**400, 1.0)

    @pytest.mark.parametrize("arguments", [
        (1e308, 1e-6, 1e5),  # 2 E overflows
        (1e300, 1e-6, 1e5),  # the quotient overflows
        (1.0, 1.0, 1e-320),  # hbar * v underflows to zero
    ], ids=["product", "quotient", "underflow"])
    def test_non_finite_phase_is_named(self, arguments):
        with pytest.raises(ValueError, match="^the dynamical phase is not a finite number$"):
            dynamical_phase(*arguments)


class TestSequentialPhase:
    ENERGY = 10e-3 * ELEMENTARY_CHARGE

    def test_coincident_detection(self):
        assert sequential_phase(self.ENERGY, 1e-9, 1e-9) == 0.0

    def test_linear_in_delay(self):
        base = sequential_phase(self.ENERGY, 0.0, 1e-12)
        assert sequential_phase(self.ENERGY, 0.0, 3e-12) == pytest.approx(3 * base, rel=1e-15)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            sequential_phase(self.ENERGY, 2e-9, 1e-9)

    @pytest.mark.parametrize("t1, t2", [(math.nan, 1e-9), (1e-9, math.nan)], ids=["t1", "t2"])
    def test_nan_time_rejected(self, t1, t2):
        with pytest.raises(ValueError, match="^second detection cannot precede the first$"):
            sequential_phase(self.ENERGY, t1, t2)

    @pytest.mark.parametrize("arguments, name", [
        ((math.nan, 0.0, 1.0), "energy"),
        ((math.inf, 0.0, 1.0), "energy"),
        ((ENERGY, -math.inf, 0.0), "t1"),
        ((ENERGY, 0.0, math.inf), "t2"),
        ((ENERGY, 0.0, 10**400), "t2"),
    ], ids=["nan-energy", "inf-energy", "t1", "t2", "huge-int-t2"])
    def test_non_finite_argument_named(self, arguments, name):
        with pytest.raises(ValueError, match=f"^{name} .* is not a finite number$"):
            sequential_phase(*arguments)

    @pytest.mark.parametrize("arguments", [(1e308, 0.0, 1.0), (1.0, -1e308, 1e308)], ids=["energy", "delay"])
    def test_non_finite_phase_is_named(self, arguments):
        with pytest.raises(ValueError, match="^the relative phase is not a finite number$"):
            sequential_phase(*arguments)

    def test_global_phase_leaves_statistics_unchanged(self, rng):
        for _ in range(50):
            det, sysm = random_mzi(rng), random_mzi(rng)
            gamma = rng.uniform(0, 2 * math.pi)
            amps = joint_amplitudes(det, sysm, gamma)
            phase = sequential_phase(self.ENERGY, 1e-12, rng.uniform(2e-12, 5e-9))
            rotated = np.exp(-1j * phase) * amps
            assert np.max(np.abs(squared_moduli(amps) - squared_moduli(rotated))) < 1e-12


class TestGeometryForPhase:
    def test_round_trip(self):
        for target in (0.1, math.pi / 2, math.pi, 5.0):
            geom = geometry_for_phase(target, 5e-6, 50e-9, 100e-9, 1e5)
            assert coupling_phase(geom) == pytest.approx(target, rel=1e-12)

    def test_round_trip_of_a_large_target_is_within_the_relative_bound(self):
        # 1e6 comes back a few ulps off, so the 1e-9 bound is relative to the target, not absolute
        geom = geometry_for_phase(1e6, 5e-6, 50e-9, 100e-9, 1e5)
        assert coupling_phase(geom) != 1e6
        assert coupling_phase(geom) == pytest.approx(1e6, rel=1e-12)

    @pytest.mark.parametrize("index", range(5))
    @pytest.mark.parametrize("value", [math.inf, math.nan, 10**400], ids=["inf", "nan", "beyond"])
    def test_non_finite_argument_is_named(self, index, value):
        names = ["target_gamma", "copropagation_length", "channel_separation", "screening_length",
                 "propagation_speed"]
        arguments = [2.2, 5e-6, 50e-9, 100e-9, 1e5]
        arguments[index] = value
        with pytest.raises(ValueError, match=f"^{names[index]} {value} is not a finite number$"):
            geometry_for_phase(*arguments)

    def test_rejects_degenerate_targets(self):
        with pytest.raises(ValueError):
            geometry_for_phase(-1.0, 5e-6, 50e-9, 100e-9, 1e5)
        with pytest.raises(ValueError):
            geometry_for_phase(1.0, 0.0, 50e-9, 100e-9, 1e5)

    def test_rejects_constant_that_misses_the_target(self):
        # the solved constant is 3.7e-299, so alpha * e^2 underflows and the phase is 0
        with pytest.raises(ValueError, match="not the target"):
            geometry_for_phase(2.2, 1e300, 50e-9, 100e-9, 1e5)

    @pytest.mark.parametrize("length", [1e-300, 5e-324])
    def test_rejects_length_whose_charge_term_underflows(self, length):
        # e^2 * 2 * length is 0.0, so the constant cannot be solved
        with pytest.raises(ValueError, match="underflows to zero"):
            geometry_for_phase(2.2, length, 50e-9, 100e-9, 1e5)

    @pytest.mark.parametrize("separation, screening", [(50e-9, 0.04e-9), (1e300, 1e-300), (50e-9, 0.0),
                                                       (50e-9, 1e-320)])
    def test_rejects_unrealizable_geometry(self, separation, screening):
        # past a zero screening length, the quotient overflows exp: finite above about 709.8, or infinite
        overflow = r"exp\(channel_separation / screening_length\) overflows"
        message = "screening_length must be positive" if screening == 0.0 else overflow
        with pytest.raises(ValueError, match=f"^{message}$"):
            geometry_for_phase(2.2, 5e-6, separation, screening, 1e5)
