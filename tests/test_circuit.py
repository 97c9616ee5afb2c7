"""Closed-form statistics, coincidence normalization, and histogram synthesis."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nltimebin import circuit

from _oracles import (
    configuration_amplitudes,
    pair_tensor_before_recombiner,
    pair_tensor_click_pattern,
    pair_tensor_triples,
    peak_cells_slot_dict,
    splitter_step,
)


def uniform_histogram(value: int = 100) -> np.ndarray:
    return np.full((6, 3, 3), value, dtype=np.int64)


def _normalized_cells(phi, phi_nl, ell_nl, theta_perp=0.0):
    # Exact cell weights as counts of a 1e15-shot histogram.
    cells = circuit.peak_cell_probabilities(phi, phi_nl, ell_nl, theta_perp)[0]
    triple, _ = circuit.normalize_counts(np.rint(cells * 1e15).astype(np.int64))
    return triple


def _draw_histogram(phi, phi_nl, ell_nl, shots, seed, theta_perp=0.0):
    # One phase at a time: ``shots`` coincidences over the cells, from a
    # generator seeded by ``seed`` (an integer or a SeedSequence).
    weights = circuit.peak_cell_probabilities(phi, phi_nl, ell_nl, theta_perp)[0]
    flat = weights.reshape(-1)
    counts = np.random.default_rng(seed).multinomial(shots, flat / flat.sum())
    return counts.reshape(weights.shape)


def test_model_statistics_landmarks():
    # The closed form and the normalized detector cells of the pair state.
    for phi, phi_nl, expected in (
        (0.0, 0.0, (1.0, 0.0, 0.0)),
        (math.pi / 2.0, 0.77, (0.25, 0.5, 0.25)),
        (0.0, math.pi, (0.0, 0.0, 1.0)),
    ):
        assert np.max(np.abs(circuit.model_triple(phi, phi_nl, 0.0)[0] - expected)) < 1e-12
        assert np.max(np.abs(_normalized_cells(phi, phi_nl, 0.0) - expected)) < 1e-12


@settings(deadline=None, max_examples=60)
@given(
    phi=st.floats(0.0, 2.0 * math.pi),
    phi_nl=st.floats(0.0, math.pi),
    ell_nl=st.floats(0.0, 1.0),
)
def test_closed_forms_match_state_evolution(phi, phi_nl, ell_nl):
    closed = circuit.model_triple(phi, phi_nl, ell_nl)[0]
    brute = pair_tensor_triples([phi], phi_nl, ell_nl, 0.0)[0]
    assert np.max(np.abs(closed - brute)) < 1e-9


def test_distinguishability_delegates_to_state_evolution():
    # With partial distinguishability the pair state routed to the
    # detectors normalizes to the closed form.
    closed = circuit.model_triple(0.8, 0.9, 0.2, theta_perp=0.5)[0]
    assert np.max(np.abs(_normalized_cells(0.8, 0.9, 0.2, 0.5) - closed)) < 1e-12


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


@settings(deadline=None, max_examples=60)
@given(
    phis=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16),
    phi_nl=st.floats(-1e3, 1e3),
    ell_nl=st.floats(0.0, 1.0),
    theta_perp=st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)),
)
def test_stacked_rows_equal_one_phase_calls(phis, phi_nl, ell_nl, theta_perp):
    # Row k must not depend on the other rows: bit for bit, not within a tolerance.
    stacked = circuit.model_triple(np.array(phis), phi_nl, ell_nl, theta_perp)
    assert stacked.shape == (len(phis), 3)
    for row, phi in zip(stacked, phis):
        assert np.array_equal(row, circuit.model_triple(phi, phi_nl, ell_nl, theta_perp)[0])
    # The model takes one nonlinear phase for the whole sweep.
    with pytest.raises(TypeError):
        circuit.model_triple(np.array(phis), np.array([phi_nl, 0.0]), ell_nl, theta_perp)


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
    with pytest.raises(ValueError, match=rf"\b{name} must be finite"):
        circuit.sample_statistics([0.3, phi], phi_nl, 0.2, 100, 0, theta_perp)


@pytest.mark.parametrize("theta_perp", [math.inf, math.nan])
def test_non_finite_overlap_angle_rejected(theta_perp):
    with pytest.raises(ValueError, match="^theta_perp must be finite"):
        circuit.model_triple([0.3], 1.0, 0.2, theta_perp)
    with pytest.raises(ValueError, match=r"\btheta_perp must be finite"):
        circuit.sample_statistics([0.3], 1.0, 0.2, 100, 0, theta_perp)


def test_raw_totals_ignore_the_phases():
    # The recombiner is lossless, so the click patterns of the closed-form
    # pair sum to its raw norm (1 + t^2) / 2, half its squared entries.
    phis = np.linspace(0.0, 2.0 * math.pi, 17)
    for ell in (0.0, 0.3, 1.0):
        expected = 0.5 * (1.0 + (1.0 - ell) ** 2)
        for phi_nl in (0.0, 1.1, 2.9):
            for pair in circuit._recombiner_pair(phis, phi_nl, ell, 0.3):
                raw = 0.5 * pair_tensor_click_pattern(splitter_step(pair))
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
    with pytest.raises(ValueError, match="^expected counts of shape"):
        circuit.normalize_counts(np.zeros((5, 3, 3)))
    with pytest.raises(ValueError, match="^expected counts of shape"):
        circuit.normalize_counts(np.zeros(9))
    with pytest.raises(ValueError, match="^counts must be non-negative"):
        circuit.normalize_counts(np.full((6, 3, 3), -1.0))
    for value in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="^counts must be integer-valued"):
            circuit.normalize_counts(np.full((6, 3, 3), value))
    # Complex counts would lose their imaginary part to the float cast.
    for counts in (np.full((6, 3, 3), 5 + 1j), np.full((6, 3, 3), 5, dtype=object)):
        with pytest.raises(ValueError, match="^counts must be real numbers"):
            circuit.normalize_counts(counts)
    # One bad histogram in a stack rejects the stack.
    stack = np.full((4, 6, 3, 3), 100.0)
    stack[2, 3, 1, 0] = 99.5
    with pytest.raises(ValueError, match="^counts must be integer-valued"):
        circuit.normalize_counts(stack)
    # Integer-valued floats count as the integers they hold.
    exact = circuit.normalize_counts(uniform_histogram(7))
    floats = circuit.normalize_counts(uniform_histogram(7).astype(float))
    assert all(np.array_equal(a, b) for a, b in zip(exact, floats))


def test_histogram_serialization():
    cells = circuit.peak_cell_probabilities([0.3, 1.2], 0.9, 0.2)
    assert cells.shape == (2, len(circuit.DETECTOR_PAIRS), len(circuit.PEAKS), len(circuit.PEAKS))
    assert circuit.DETECTOR_PAIRS == (
        ("a1", "a2"),
        ("a1", "b1"),
        ("a1", "b2"),
        ("a2", "b1"),
        ("a2", "b2"),
        ("b1", "b2"),
    )


def test_class_counts_groups_the_pairs():
    # Pair a1-a2 is class 20, b1-b2 class 02, and the four a-b pairs class
    # 11; each class sums its pairs' center and side counts.
    cells = np.zeros((6, 3, 3), dtype=np.int64)
    cells[:, 0, 2] = cells[:, 2, 0] = (50, 20, 80, 40, 60, 100)
    cells[:, 1, 1] = (50, 10, 20, 30, 40, 100)
    triple, _ = circuit.normalize_counts(cells)
    assert np.allclose(triple, 1.0 / 3.0, atol=1e-15)


def test_uniform_counts_normalize_to_quarters():
    triple, errors = circuit.normalize_counts(uniform_histogram())
    assert np.allclose(triple, (0.25, 0.5, 0.25), atol=1e-12)
    assert np.all(errors > 0.0)
    # Class sums of counts near the 64-bit limit do not wrap around.
    for huge in (uniform_histogram(2**62), np.full((6, 3, 3), 1e19)):
        triple, _ = circuit.normalize_counts(huge)
        assert np.allclose(triple, (0.25, 0.5, 0.25), atol=1e-12)


def test_missing_split_centers_give_half_half():
    cells = np.full((6, 3, 3), 100, dtype=np.int64)
    cells[1:5, 1, 1] = 0
    triple, _ = circuit.normalize_counts(cells)
    assert np.allclose(triple, (0.5, 0.0, 0.5), atol=1e-12)


def test_count_scaling_shrinks_errors_only():
    small, small_errors = circuit.normalize_counts(uniform_histogram(40))
    large, large_errors = circuit.normalize_counts(uniform_histogram(400))
    assert np.allclose(small, large, atol=1e-12)
    for lo, hi in zip(large_errors, small_errors):
        assert abs(hi / lo - math.sqrt(10.0)) < 1e-9


def test_empty_references_are_rejected():
    cells = np.full((6, 3, 3), 100, dtype=np.int64)
    cells[0, 0, 2] = cells[0, 2, 0] = cells[5, 0, 2] = cells[5, 2, 0] = 0
    with pytest.raises(circuit.NormalizationError, match="side") as single:
        circuit.normalize_counts(cells)
    assert single.value.index == ()
    centers_only = np.full((6, 3, 3), 100, dtype=np.int64)
    centers_only[:, 1, 1] = 0
    with pytest.raises(circuit.NormalizationError, match="center"):
        circuit.normalize_counts(centers_only)
    # In a stack the error locates the first histogram that fails.
    stack = np.stack([uniform_histogram(), centers_only, cells, uniform_histogram()])
    with pytest.raises(circuit.NormalizationError, match="^no center-peak counts") as first:
        circuit.normalize_counts(stack.reshape(2, 2, 6, 3, 3))
    assert first.value.index == (0, 1)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_normalized_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    cells = rng.integers(1, 1000, size=(6, 3, 3))
    triple, _ = circuit.normalize_counts(cells)
    assert abs(triple.sum() - 1.0) < 1e-12


@settings(deadline=None, max_examples=40)
@given(
    stack=hnp.arrays(
        np.int64,
        hnp.array_shapes(min_dims=1, max_dims=2, max_side=5).map(lambda shape: shape + (6, 3, 3)),
        elements=st.integers(0, 2**40),
    )
)
def test_stacked_normalization_equals_row_by_row(stack):
    try:
        triples, errors = circuit.normalize_counts(stack)
    except circuit.NormalizationError as exc:
        # The located histogram fails alone, and every one before it passes.
        with pytest.raises(circuit.NormalizationError, match=f"^{exc}$"):
            circuit.normalize_counts(stack[exc.index])
        for row in np.ndindex(stack.shape[:-3]):
            if row == exc.index:
                break
            circuit.normalize_counts(stack[row])
        return
    assert triples.shape == errors.shape == stack.shape[:-3] + (3,)
    for row in np.ndindex(stack.shape[:-3]):
        triple, error = circuit.normalize_counts(stack[row])
        assert np.array_equal(triples[row], triple)
        assert np.array_equal(errors[row], error)


def test_detector_efficiency_scaling_cancels():
    # Detectors i and j both click with probability eta_i eta_j, which
    # scales the whole detector-pair block of the histogram.
    efficiency = dict(zip(circuit.DETECTORS, (0.7, 0.56, 0.45, 0.135)))
    scale = np.array([efficiency[i] * efficiency[j] for i, j in circuit.DETECTOR_PAIRS])
    cells = circuit.peak_cell_probabilities(0.7, 0.9, 0.2, 0.0)[0]

    def exact_stats(weights):
        return circuit.normalize_counts(np.rint(weights * 1e12).astype(np.int64))[0]

    deviation = np.abs(np.subtract(exact_stats(cells), exact_stats(cells * scale[:, None, None])))
    assert np.max(deviation) < 1e-9


def test_synthesis_is_seeded_and_counts_shots():
    phis = [0.9, 2.1]
    first = circuit.sample_statistics(phis, 0.7, 0.2, shots=500, seed=42)
    second = circuit.sample_statistics(phis, 0.7, 0.2, shots=500, seed=42)
    other = circuit.sample_statistics(phis, 0.7, 0.2, shots=500, seed=43)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    assert not np.array_equal(first[0], other[0])
    # The bounds are inclusive: one shot is drawn (and is too few to
    # normalize), and so is the largest 64-bit count.
    with pytest.raises(circuit.NormalizationError):
        circuit.sample_statistics(phis, 0.7, 0.2, shots=1, seed=0)
    largest, _ = circuit.sample_statistics(phis, 0.7, 0.2, shots=2**63 - 1, seed=0)
    assert np.allclose(largest, circuit.model_triple(phis, 0.7, 0.2), atol=1e-8)
    with pytest.raises(ValueError, match="^shots must be positive"):
        circuit.sample_statistics(phis, 0.7, 0.2, shots=0, seed=0)
    with pytest.raises(ValueError, match=r"^shots must be at most 2\*\*63 - 1"):
        circuit.sample_statistics(phis, 0.7, 0.2, shots=2**63, seed=0)


def test_million_shot_run_closes_on_the_ideal_point():
    hist = _draw_histogram(0.0, 0.0, 0.0, shots=1_000_000, seed=5)
    assert hist.sum() == 1_000_000
    triple, errors = circuit.normalize_counts(hist)
    margin = 3.0 * max(errors[0], 1e-6)
    assert triple[0] > 1.0 - margin


def test_round_trip_recovers_the_model():
    phis = np.linspace(0.3, 2.7, 5)
    phase_shifts = np.linspace(0.1, 1.4, 5)
    ell = 0.2
    scores = []
    for i, phi in enumerate(phis):
        for j, phi_nl in enumerate(phase_shifts):
            hist = _draw_histogram(phi, phi_nl, ell, shots=100_000, seed=12000 + 5 * i + j)
            triple, errors = circuit.normalize_counts(hist)
            model = circuit.model_triple(phi, phi_nl, ell)[0]
            for value, sigma, target in zip(triple, errors, model):
                scores.append(abs(value - target) / max(sigma, 1e-6))
    # 75 independent comparisons; demand hard 4-sigma agreement on each
    # and nominal 3-sigma coverage overall so one tail draw cannot flip
    # the verdict.
    assert max(scores) <= 4.0
    assert sum(score <= 3.0 for score in scores) >= 72


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValueError, match="^ell_nl must be in"):
        circuit.model_triple(0.0, 0.0, 1.5)
    with pytest.raises(ValueError, match="^ell_nl must be in"):
        circuit.sample_statistics([0.0], 0.0, 1.5, 100, 0)


@pytest.mark.parametrize("with_overlap", [False, True])
def test_slot_lift_matches_dict_oracle(with_overlap):
    rng = np.random.default_rng(2024 + with_overlap)
    for _ in range(25):
        phi, phi_nl = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, math.pi)
        ell_nl = rng.uniform()
        theta_perp = rng.uniform(0.0, 0.5 * math.pi) if with_overlap else 0.0
        # The calibration offset is the long-to-a splitter phase pi/2.
        pre = pair_tensor_before_recombiner(phi + 0.5 * math.pi, phi_nl, ell_nl, theta_perp)
        cells = circuit.peak_cell_probabilities(phi, phi_nl, ell_nl, theta_perp)[0]
        reference = peak_cells_slot_dict(configuration_amplitudes(pre))
        assert np.max(np.abs(cells - reference)) < 1e-15


def test_sampled_rows_do_not_depend_on_the_sweep_length():
    phis = np.linspace(0.0, 2.0 * math.pi, 17)
    triples, errors = circuit.sample_statistics(phis, 0.9, 0.2, shots=2000, seed=11)
    head_triples, head_errors = circuit.sample_statistics(phis[:5], 0.9, 0.2, shots=2000, seed=11)
    assert np.array_equal(head_triples, triples[:5])
    assert np.array_equal(head_errors, errors[:5])
    assert np.allclose(triples.sum(axis=1), 1.0, atol=1e-12)
    again, _ = circuit.sample_statistics(phis, 0.9, 0.2, shots=2000, seed=11)
    assert np.array_equal(again, triples)
    other, _ = circuit.sample_statistics(phis, 0.9, 0.2, shots=2000, seed=12)
    assert not np.array_equal(other, triples)


def test_sampled_statistics_follow_the_histogram_streams():
    phis = np.array([0.4, 1.3])
    triples, errors = circuit.sample_statistics(phis, 0.7, 0.1, shots=3000, seed=5, theta_perp=0.2)
    for k, stream in enumerate(np.random.SeedSequence(5).spawn(2)):
        hist = _draw_histogram(phis[k], 0.7, 0.1, 3000, stream, theta_perp=0.2)
        assert hist.sum() == 3000
        triple, error = circuit.normalize_counts(hist)
        assert triples[k].tolist() == triple.tolist()
        assert errors[k].tolist() == error.tolist()


def test_degenerate_sampled_histogram_names_its_phase():
    phis = np.linspace(0.0, math.pi, 5)
    with pytest.raises(circuit.NormalizationError, match=r"^histogram at phi=0: "):
        circuit.sample_statistics(phis, 0.9, 0.2, shots=5, seed=0)


@pytest.mark.parametrize(
    "phis, shots, seed, match",
    [
        ([0.1, math.nan], 100, 0, "phi must be finite"),
        ([0.1, math.inf], 100, 0, "phi must be finite"),
        ([0.1], 0, 0, "^shots must be positive"),
        ([0.1], 100, -1, "^seed must be non-negative"),
        ([0.1], 2**63, 0, "^shots must be at most"),
        ([0.1], 1000.5, 0, "^shots must be a whole number"),
        ([0.1], math.nan, 0, "^shots must be positive"),
        ([0.1], 100, 1.5, "^seed must be a whole number"),
        ([0.1], 100, math.inf, "^seed must be a whole number"),
        ([0.1], 100, math.nan, "^seed must be non-negative"),
    ],
)
def test_sampled_statistics_domain(phis, shots, seed, match):
    with pytest.raises(ValueError, match=match):
        circuit.sample_statistics(phis, 0.9, 0.2, shots=shots, seed=seed)


def test_a_whole_float_seed_draws_the_stream_of_its_integer():
    assert np.array_equal(circuit.sample_statistics([0.1, 0.2], 0.9, 0.2, 500, 3.0)[0],
                          circuit.sample_statistics([0.1, 0.2], 0.9, 0.2, 500, 3)[0])


@settings(deadline=None, max_examples=40)
@given(
    phis=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=12),
    phi_nl=st.floats(-math.pi, math.pi),
    ell_nl=st.floats(0.0, 1.0),
    theta_perp=st.one_of(st.just(0.0), st.floats(0.0, 0.5 * math.pi)),
    data=st.data(),
)
def test_sweep_cells_equal_one_phase_cells(phis, phi_nl, ell_nl, theta_perp, data):
    # Each phase is its own slice of the batched product, so row k does
    # not depend on the other phases: bit for bit, not within a tolerance.
    sweep = circuit.peak_cell_probabilities(phis, phi_nl, ell_nl, theta_perp)
    start = data.draw(st.integers(0, len(phis) - 1))
    stop = data.draw(st.integers(start + 1, len(phis)))
    part = circuit.peak_cell_probabilities(phis[start:stop], phi_nl, ell_nl, theta_perp)
    assert np.array_equal(part, sweep[start:stop])
    for k, phi in enumerate(phis):
        single = circuit.peak_cell_probabilities(phi, phi_nl, ell_nl, theta_perp)
        assert np.array_equal(single[0], sweep[k])
