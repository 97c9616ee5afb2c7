"""Two-quanta vibrational dynamics on localized bond modes."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nltimebin import vibsim

from _oracles import (
    configuration_amplitudes,
    evolution_steps,
    pair_occupancies,
    pair_tensor_run,
)

WATER_PERIOD_PS = 1.0 / (2.99792458e10 * 1e-12 * (3740.05 - 3619.68))


def mirrored_spec(spec: vibsim.MoleculeSpec) -> vibsim.MoleculeSpec:
    """The molecule with its localized modes swapped: the eigenmodes stay."""
    return replace(spec, localization=tuple((row[1], row[0]) for row in spec.localization))


def swapped(point: vibsim.TracePoint) -> tuple[float, float, float]:
    """(same-left, same-right, separate) of a mirrored run, in the original labels."""
    return (point.p_same_right, point.p_same_left, point.p_separate)


def test_water_parameters_and_defect_frequencies():
    spec = vibsim.water_spec()
    assert (spec.nu10, spec.nu01) == (3740.05, 3619.68)
    assert (spec.nu20, spec.nu02, spec.nu11) == (7391.43, 7154.35, 7206.46)
    assert abs(spec.nu20 - 2.0 * spec.nu10 + 88.67) < 1e-9
    assert abs(spec.nu02 - 2.0 * spec.nu01 + 85.01) < 1e-9
    assert abs(spec.nu11 - spec.nu10 - spec.nu01 + 153.27) < 1e-9
    matrix = np.asarray(spec.matrix)
    assert np.allclose(matrix.conj().T @ matrix, np.eye(2), atol=1e-12)


def test_molecule_spec_validation_and_serialization():
    spec = vibsim.water_spec()
    with pytest.raises(ValueError):
        vibsim.MoleculeSpec(
            nu10=-1.0,
            nu01=spec.nu01,
            nu20=spec.nu20,
            nu02=spec.nu02,
            nu11=spec.nu11,
            localization=spec.localization,
        ).validate()
    with pytest.raises(ValueError):
        vibsim.MoleculeSpec(
            nu10=spec.nu10,
            nu01=spec.nu01,
            nu20=spec.nu20,
            nu02=spec.nu02,
            nu11=spec.nu11,
            localization=((1.0, 0.0), (1.0, 0.0)),
        ).validate()


def test_evolution_uses_twelve_layers():
    assert len(evolution_steps(0.2, vibsim.water_spec())) == 12


@settings(deadline=None, max_examples=50)
@given(
    t=st.floats(1e-3, 1.0),
    harmonic=st.booleans(),
    mirrored=st.booleans(),
)
def test_occupancies_conserve_probability(t, harmonic, mirrored):
    spec = mirrored_spec(vibsim.water_spec()) if mirrored else vibsim.water_spec()
    point = vibsim.evolve(t, spec, harmonic=harmonic)
    total = point.p_same_left + point.p_same_right + point.p_separate
    assert abs(total - 1.0) < 1e-12


def test_evolution_matches_dense_matrix_oracle():
    spec = vibsim.water_spec()
    for t in (0.07, 0.19, 0.333, 0.481):
        for harmonic in (False, True):
            source = spec.harmonic_variant() if harmonic else spec
            freqs = {"nu20": source.nu20, "nu02": source.nu02, "nu11": source.nu11}
            ref = pair_occupancies(t, freqs, np.asarray(source.matrix))
            point = vibsim.evolve(t, spec, harmonic=harmonic)
            mine = (point.p_same_left, point.p_same_right, point.p_separate)
            assert max(abs(a - b) for a, b in zip(mine, ref)) < 1e-12


def test_harmonic_dynamics_factorize_into_single_quanta():
    spec = vibsim.water_spec().harmonic_variant()
    scale = -2.0 * math.pi * 2.99792458e10 * 1e-12
    matrix = np.asarray(spec.matrix)
    for t in (0.09, 0.21, 0.38):
        phases = np.diag(np.exp(1j * scale * t * np.array([spec.nu10, spec.nu01])))
        single = matrix.conj().T @ phases @ matrix
        point = vibsim.evolve(t, vibsim.water_spec(), harmonic=True)
        assert abs(point.p_same_left - abs(single[0, 0]) ** 4) < 1e-12
        assert abs(point.p_same_right - abs(single[1, 0]) ** 4) < 1e-12
        assert abs(point.p_separate - 2.0 * abs(single[0, 0] * single[1, 0]) ** 2) < 1e-12


def test_harmonic_revival_period():
    spec = vibsim.water_spec()
    for t in (0.11, 0.26):
        now = vibsim.evolve(t, spec, harmonic=True)
        later = vibsim.evolve(t + WATER_PERIOD_PS, spec, harmonic=True)
        assert abs(now.p_same_left - later.p_same_left) < 1e-6
        assert abs(now.p_separate - later.p_separate) < 1e-6


def test_mode_swap_mirrors_the_occupancies():
    # Both quanta starting in the right mode: the mirrored molecule's run
    # against the layer circuit fed in mode 1.
    spec = vibsim.water_spec()
    for t in (0.13, 0.27, 0.44):
        psi = pair_tensor_run(evolution_steps(t, spec), 1, 1)
        weights = np.abs(configuration_amplitudes(psi)) ** 2
        mine = swapped(vibsim.evolve(t, mirrored_spec(spec)))
        assert np.max(np.abs(np.array(mine) - weights[:3])) < 1e-12


def test_trace_starts_pinned_and_splits_the_models():
    points = vibsim.trace(0.5, 51, vibsim.water_spec())
    assert len(points) == 51
    anharmonic, harmonic = points[0]
    assert anharmonic.p_same_left == 1.0
    assert harmonic.p_same_left == 1.0
    for pair in points:
        for point in pair:
            total = point.p_same_left + point.p_same_right + point.p_separate
            assert abs(total - 1.0) < 1e-12
    divergence = max(abs(a.p_same_left - h.p_same_left) for a, h in points)
    assert divergence > 0.05


def test_evolve_input_guards():
    spec = vibsim.water_spec()
    with pytest.raises(ValueError):
        vibsim.evolve(-0.1, spec)
    with pytest.raises(ValueError):
        vibsim.trace(0.5, 1, spec)
    with pytest.raises(ValueError):
        vibsim.trace(-1.0, 10, spec)
    # A time whose phase overflows, or exceeds 1e13 rad and so rounds by
    # more than 1e-3 rad, is rejected before numpy warns about it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exponent in ("308", "300"):
            with pytest.raises(ValueError, match=rf"^t_max = 1e\+{exponent} ps is too long"):
                vibsim.trace(float(f"1e{exponent}"), 3, spec)
            with pytest.raises(ValueError, match=rf"^t = 1e\+{exponent} ps is too long"):
                vibsim.evolve(float(f"1e{exponent}"), spec)


def unitary(theta: float, phi1: float, phi2: float, psi: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [np.exp(1j * phi1) * c, np.exp(1j * phi2) * s],
            [-np.exp(1j * (psi - phi2)) * s, np.exp(1j * (psi - phi1)) * c],
        ]
    )


def localized(spec: vibsim.MoleculeSpec, u: np.ndarray) -> vibsim.MoleculeSpec:
    return replace(spec, localization=tuple(tuple(complex(z) for z in row) for row in u))


def test_layer_products_stay_in_the_photonic_basis():
    psi = pair_tensor_run(evolution_steps(0.3, vibsim.water_spec()), 0, 0)
    assert abs(np.sum(np.abs(configuration_amplitudes(psi)) ** 2) - 1.0) < 1e-12


def test_layer_circuit_reproduces_the_lifted_propagator():
    # Water, then a diagonal and an anti-diagonal localization: the
    # splitter decomposition takes a separate branch for each.
    spec = vibsim.water_spec()
    localizations = (
        spec.matrix,
        unitary(0.0, 0.4, 0.0, -0.9),
        unitary(0.5 * math.pi, 0.0, 1.3, 0.6),
    )
    for u in localizations:
        molecule = localized(spec, u)
        for input_mode in (0, 1):
            for harmonic in (False, True):
                for t in (0.07, 0.23, 0.41):
                    steps = evolution_steps(t, molecule, harmonic)
                    assert len(steps) == 12
                    psi = pair_tensor_run(steps, input_mode, input_mode)
                    weights = np.abs(configuration_amplitudes(psi)) ** 2
                    if input_mode == 0:
                        point = vibsim.evolve(t, molecule, harmonic=harmonic)
                        mine = (point.p_same_left, point.p_same_right, point.p_separate)
                    else:
                        mine = swapped(vibsim.evolve(t, mirrored_spec(molecule), harmonic=harmonic))
                    assert np.max(np.abs(np.array(mine) - weights[:3])) < 1e-12
                    assert np.max(weights[3:]) < 1e-24


@settings(deadline=None, max_examples=100)
@given(
    angles=st.tuples(
        st.floats(0.0, 0.5 * math.pi),
        st.floats(-math.pi, math.pi),
        st.floats(-math.pi, math.pi),
        st.floats(-math.pi, math.pi),
    ),
    t=st.floats(0.0, 1.0),
    harmonic=st.booleans(),
)
def test_random_localizations_match_dense_matrix_oracle(angles, t, harmonic):
    u = unitary(*angles)
    molecule = localized(vibsim.water_spec(), u)
    source = molecule.harmonic_variant() if harmonic else molecule
    freqs = {"nu20": source.nu20, "nu02": source.nu02, "nu11": source.nu11}
    ref = pair_occupancies(t, freqs, u)
    point = vibsim.evolve(t, molecule, harmonic=harmonic)
    mine = (point.p_same_left, point.p_same_right, point.p_separate)
    assert max(abs(a - b) for a, b in zip(mine, ref)) < 1e-12


@pytest.mark.parametrize("t_max, n_steps", [(0.5, 51), (2.3, 7)])
def test_trace_rows_equal_evolve_bit_for_bit(t_max, n_steps):
    spec = vibsim.water_spec()
    for anharmonic, harmonic in vibsim.trace(t_max, n_steps, spec):
        assert anharmonic == vibsim.evolve(anharmonic.t, spec)
        assert harmonic == vibsim.evolve(harmonic.t, spec, harmonic=True)


def test_zero_time_is_the_exact_input():
    spec = vibsim.water_spec()
    for harmonic in (False, True):
        left = vibsim.evolve(0.0, spec, harmonic=harmonic)
        right = swapped(vibsim.evolve(0.0, mirrored_spec(spec), harmonic=harmonic))
        assert (left.p_same_left, left.p_same_right, left.p_separate) == (1.0, 0.0, 0.0)
        assert right == (0.0, 1.0, 0.0)
