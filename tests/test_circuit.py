"""Interferometer fields, coincidence normalization, and histogram synthesis."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nltimebin import circuit, states

from _oracles import pair_tensor_triples


def uniform_histogram(value: int = 100) -> circuit.PeakHistogram:
    return circuit.PeakHistogram(np.full((6, 3, 3), value, dtype=np.int64))


def test_quarter_waveplate_balances_the_bins():
    for phi in (0.0, 0.3, 1.1, 2.9):
        fields = circuit.excitation_fields(circuit.TBIConfig(phi=phi))
        assert abs(fields.intensity_early - fields.intensity_late) < 1e-12


def test_relative_phase_convention():
    fields = circuit.excitation_fields(circuit.TBIConfig(phi=0.0, theta=0.0))
    assert abs(fields.relative_phase + math.pi / 2.0) < 1e-15
    lo = circuit.excitation_fields(circuit.TBIConfig(phi=0.4, theta=0.2))
    hi = circuit.excitation_fields(circuit.TBIConfig(phi=0.4 + math.pi, theta=0.2))
    assert abs(hi.relative_phase - lo.relative_phase - 2.0 * math.pi) < 1e-12
    assert abs(hi.intensity_early - lo.intensity_early) < 1e-12
    assert abs(hi.intensity_late - lo.intensity_late) < 1e-12


def test_balanced_fringe_amplitude_and_zeros():
    config = circuit.TBIConfig(phi=0.0)
    sweep = np.array([0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0])
    curve, amplitude = circuit.fringe_contrast(config, sweep)
    assert amplitude == 1.0
    assert abs(curve[1]) < 1e-12
    assert abs(curve[3]) < 1e-12
    assert abs(abs(curve[0]) - amplitude) < 1e-12
    assert abs(abs(curve[2]) - amplitude) < 1e-12


def test_dead_long_arm_kills_the_fringe():
    config = circuit.TBIConfig(phi=0.0, eta_la1=0.0, eta_lb1=0.0)
    curve, amplitude = circuit.fringe_contrast(config, np.linspace(0.0, math.pi, 9))
    assert amplitude == 0.0
    assert np.max(np.abs(curve)) < 1e-12


def test_imbalanced_efficiencies_reduce_contrast():
    config = circuit.TBIConfig(phi=0.0, eta_sa1=0.5)
    expected = 2.0 * (math.sqrt(0.5) + 1.0) / 3.5
    assert abs(circuit.contrast_amplitude(config) - expected) < 1e-12
    assert circuit.contrast_amplitude(config) < 1.0


def test_phase_calibration_tracks_the_arm_phase():
    recovered = circuit.calibrate_phase_offset(circuit.TBIConfig(phi=0.0, theta=0.37))
    assert abs(recovered - (math.pi - 0.185)) < 1e-6
    config = circuit.TBIConfig(phi=recovered, theta=0.37)
    assert circuit.middle_peak_intensities(config)[0] < 1e-10
    null = circuit.calibrate_phase_offset(circuit.TBIConfig(phi=0.0, theta=0.0))
    assert min(null, math.pi - null) < 1e-6


def test_model_statistics_landmarks():
    flat = circuit.model_statistics(0.0, 0.0, 0.0).renormalized
    assert np.allclose(flat, (1.0, 0.0, 0.0), atol=1e-12)
    mid = circuit.model_statistics(math.pi / 2.0, 0.77, 0.0).renormalized
    assert np.allclose(mid, (0.25, 0.5, 0.25), atol=1e-12)
    inverted = circuit.model_statistics(0.0, math.pi, 0.0).renormalized
    assert np.allclose(inverted, (0.0, 0.0, 1.0), atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    phi=st.floats(0.0, 2.0 * math.pi),
    phi_nl=st.floats(0.0, math.pi),
    ell_nl=st.floats(0.0, 1.0),
)
def test_closed_forms_match_state_evolution(phi, phi_nl, ell_nl):
    closed = circuit.model_triple(phi, phi_nl, ell_nl)[0]
    layers = states.standard_circuit(phi, phi_nl, ell_nl)
    evolved = states.apply_circuit(states.new_input(), layers)
    brute = states.detection_probabilities(evolved).renormalized
    assert np.max(np.abs(closed - np.asarray(brute))) < 1e-9


def test_distinguishability_delegates_to_state_evolution():
    mine = circuit.model_statistics(0.8, 0.9, 0.2, theta_perp=0.5)
    layers = states.standard_circuit(0.8, 0.9, 0.2, theta_perp=0.5)
    evolved = states.apply_circuit(states.new_input(), layers)
    ref = states.detection_probabilities(evolved)
    assert np.allclose(mine.renormalized, ref.renormalized, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    phi_nl=st.floats(0.0, math.pi),
    ell_nl=st.floats(0.0, 1.0, exclude_max=True),
    theta_perp=st.one_of(st.just(0.0), st.floats(0.0, 0.5 * math.pi)),
)
def test_batched_model_matches_pair_tensor_oracle(phi_nl, ell_nl, theta_perp):
    phis = np.linspace(0.0, 2.0 * math.pi, 101)
    batched = circuit.model_triple(phis, phi_nl, ell_nl, theta_perp)
    ref = pair_tensor_triples(phis, phi_nl, ell_nl, theta_perp)
    assert np.max(np.abs(batched - ref)) < 1e-12


@pytest.mark.parametrize("theta_perp", [0.0, 0.1])
@pytest.mark.parametrize(
    "name, phi, phi_nl",
    [
        ("phi", math.nan, 1.0),
        ("phi", -math.inf, 1.0),
        ("phi_nl", 0.3, math.inf),
        ("phi_nl", 0.3, math.nan),
    ],
)
def test_non_finite_inputs_rejected_on_both_paths(theta_perp, name, phi, phi_nl):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        circuit.model_triple([0.3, phi], phi_nl, 0.2, theta_perp)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        circuit.model_statistics(phi, phi_nl, 0.2, theta_perp)


@pytest.mark.parametrize("theta_perp", [math.inf, math.nan])
def test_non_finite_overlap_angle_rejected(theta_perp):
    with pytest.raises(ValueError, match="^theta_perp must be finite"):
        circuit.model_triple([0.3], 1.0, 0.2, theta_perp)


def test_raw_totals_ignore_the_phases():
    phis = np.linspace(0.0, 2.0 * math.pi, 17)
    for ell in (0.0, 0.3, 1.0):
        expected = 0.5 * (1.0 + (1.0 - ell) ** 2)
        for phi in phis:
            for phi_nl in (0.0, 1.1, 2.9):
                raw = circuit.model_statistics(float(phi), phi_nl, ell).raw
                assert abs(sum(raw) - expected) < 1e-12


def test_fringe_visibility_falls_with_nonlinear_phase():
    grid = np.linspace(0.0, 2.0 * math.pi, 721)
    previous = None
    for phi_nl in (0.0, 0.3, 0.6, 0.9, 1.2, 1.5, math.pi / 2.0):
        p20 = circuit.model_triple(grid, phi_nl, 0.0)[:, 0]
        visibility = (p20.max() - p20.min()) / (p20.max() + p20.min())
        c = math.cos(phi_nl)
        assert abs(visibility - (1.0 + c) / (3.0 - c)) < 1e-3
        if previous is not None:
            assert visibility < previous
        previous = visibility


def test_histogram_input_is_guarded():
    with pytest.raises(ValueError):
        circuit.PeakHistogram(np.zeros((5, 3, 3)))
    with pytest.raises(ValueError):
        circuit.PeakHistogram(np.full((6, 3, 3), -1.0))
    with pytest.raises(ValueError):
        circuit.PeakHistogram(np.full((6, 3, 3), 0.5))


def test_histogram_serialization():
    hist = uniform_histogram(7)
    assert hist.total == 6 * 9 * 7
    rows = hist.to_csv_rows()
    assert len(rows) == 54
    assert rows[0][0] == "a1-a2"
    assert all(count == 7 for _, _, _, count in rows)
    payload = json.loads(hist.to_json())
    assert set(payload["pairs"]) == {pair for pair, _, _, _ in rows}
    assert circuit.DETECTOR_PAIRS == (
        ("a1", "a2"),
        ("a1", "b1"),
        ("a1", "b2"),
        ("a2", "b1"),
        ("a2", "b2"),
        ("b1", "b2"),
    )


def test_class_counts_groups_the_pairs():
    counts = uniform_histogram().class_counts()
    assert counts["20"] == (100.0, 200.0)
    assert counts["11"] == (400.0, 800.0)
    assert counts["02"] == (100.0, 200.0)


def test_uniform_counts_normalize_to_quarters():
    stats = circuit.normalize_counts(uniform_histogram())
    assert np.allclose(stats.as_tuple(), (0.25, 0.5, 0.25), atol=1e-12)
    assert all(sigma > 0.0 for sigma in stats.uncertainties)


def test_missing_split_centers_give_half_half():
    cells = np.full((6, 3, 3), 100, dtype=np.int64)
    cells[1:5, 1, 1] = 0
    stats = circuit.normalize_counts(circuit.PeakHistogram(cells))
    assert np.allclose(stats.as_tuple(), (0.5, 0.0, 0.5), atol=1e-12)


def test_count_scaling_shrinks_errors_only():
    small = circuit.normalize_counts(uniform_histogram(40))
    large = circuit.normalize_counts(uniform_histogram(400))
    assert np.allclose(small.as_tuple(), large.as_tuple(), atol=1e-12)
    for lo, hi in zip(large.uncertainties, small.uncertainties):
        assert abs(hi / lo - math.sqrt(10.0)) < 1e-9


def test_empty_references_are_rejected():
    cells = np.full((6, 3, 3), 100, dtype=np.int64)
    cells[0, 0, 2] = cells[0, 2, 0] = cells[5, 0, 2] = cells[5, 2, 0] = 0
    with pytest.raises(circuit.NormalizationError, match="side"):
        circuit.normalize_counts(circuit.PeakHistogram(cells))
    centers_only = np.full((6, 3, 3), 100, dtype=np.int64)
    centers_only[:, 1, 1] = 0
    with pytest.raises(circuit.NormalizationError, match="center"):
        circuit.normalize_counts(circuit.PeakHistogram(centers_only))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_normalized_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    cells = rng.integers(1, 1000, size=(6, 3, 3))
    stats = circuit.normalize_counts(circuit.PeakHistogram(cells))
    assert abs(sum(stats.as_tuple()) - 1.0) < 1e-12


def test_detector_efficiency_scaling_cancels():
    base = circuit.TBIConfig(phi=0.7)
    scaled = circuit.TBIConfig(
        phi=0.7,
        eta_sa1=0.7,
        eta_la1=0.7,
        eta_sb1=0.45,
        eta_lb1=0.45,
        eta_ratio_a2=0.8,
        eta_ratio_b2=0.3,
    )

    def exact_stats(config):
        cells = circuit.peak_cell_probabilities(0.7, 0.9, 0.2, 0.0, config)
        hist = circuit.PeakHistogram(np.rint(cells * 1e12).astype(np.int64))
        return circuit.normalize_counts(hist).as_tuple()

    deviation = np.abs(np.subtract(exact_stats(base), exact_stats(scaled)))
    assert np.max(deviation) < 1e-9


def test_synthesis_is_seeded_and_counts_shots():
    first = circuit.synthesize_histogram(0.9, 0.7, 0.2, shots=500, seed=42)
    second = circuit.synthesize_histogram(0.9, 0.7, 0.2, shots=500, seed=42)
    other = circuit.synthesize_histogram(0.9, 0.7, 0.2, shots=500, seed=43)
    assert np.array_equal(first.counts, second.counts)
    assert not np.array_equal(first.counts, other.counts)
    assert first.total == 500
    single = circuit.synthesize_histogram(0.9, 0.7, 0.2, shots=1, seed=0)
    assert single.total == 1
    with pytest.raises(ValueError):
        circuit.synthesize_histogram(0.9, 0.7, 0.2, shots=0, seed=0)


def test_million_shot_run_closes_on_the_ideal_point():
    hist = circuit.synthesize_histogram(0.0, 0.0, 0.0, shots=1_000_000, seed=5)
    stats = circuit.normalize_counts(hist)
    margin = 3.0 * max(stats.uncertainties[0], 1e-6)
    assert stats.as_tuple()[0] > 1.0 - margin


def test_round_trip_recovers_the_model():
    phis = np.linspace(0.3, 2.7, 5)
    phase_shifts = np.linspace(0.1, 1.4, 5)
    ell = 0.2
    scores = []
    for i, phi in enumerate(phis):
        for j, phi_nl in enumerate(phase_shifts):
            hist = circuit.synthesize_histogram(
                float(phi), float(phi_nl), ell, shots=100_000, seed=12000 + 5 * i + j
            )
            stats = circuit.normalize_counts(hist)
            model = circuit.model_triple(float(phi), float(phi_nl), ell)[0]
            for value, sigma, target in zip(stats.as_tuple(), stats.uncertainties, model):
                scores.append(abs(value - target) / max(sigma, 1e-6))
    # 75 independent comparisons; demand hard 4-sigma agreement on each
    # and nominal 3-sigma coverage overall so one tail draw cannot flip
    # the verdict.
    assert max(scores) <= 4.0
    assert sum(score <= 3.0 for score in scores) >= 72


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValueError, match="eta_sa1"):
        circuit.TBIConfig(phi=0.0, eta_sa1=1.5).validate()
    with pytest.raises(ValueError, match="delays"):
        circuit.TBIConfig(phi=0.0, tau_short=4.0, tau_long=1.0).validate()
    with pytest.raises(ValueError, match="phi"):
        circuit.TBIConfig(phi=math.nan).validate()
    with pytest.raises(ValueError):
        circuit.model_statistics(0.0, 0.0, 1.5)
