"""Double-pass time-bin interferometer and coincidence statistics.

Covers three layers of the experiment pipeline:

* closed-form two-photon output statistics of the balanced circuit
  (``model_triple``, which stacks the standard-library closed form of
  ``_triple`` over a sweep), and the closed-form pair state that enters
  the recombiner;
* normalization of raw coincidence histograms into output-pattern
  probabilities, with first-order Poisson error propagation;
* the expected 3x3 peak cells per detector pair, routed through the one
  detection interferometer, and the seeded synthesize -> normalize
  sweep built on them.

The histogram layers take a whole phase sweep at once: arrays of shape
(phases, 6, 3, 3).

The detection optics are fixed: even splitters with the phase pi/2 on
two reflections, and lossless detectors.  Detector efficiencies scale
each detector-pair block of a histogram by a constant, which the
normalization cancels, so the model leaves them out.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._triple import _check_domain, _triples

DETECTORS = ("a1", "a2", "b1", "b2")

# Canonical detector-pair order for histograms.
DETECTOR_PAIRS = (
    ("a1", "a2"),
    ("a1", "b1"),
    ("a1", "b2"),
    ("a2", "b1"),
    ("a2", "b2"),
    ("b1", "b2"),
)

PEAKS = ("E", "M", "L")

# Histogram cells: (detector pair, window of the first detector, window of the second).
_HIST_SHAPE = (len(DETECTOR_PAIRS), len(PEAKS), len(PEAKS))

# Pair classes for the count normalization: both photons in port a,
# one per port, both in port b.
_PAIR_CLASS = (0, 1, 1, 1, 1, 2)
_CLASS_KEYS = ("20", "11", "02")


# ---------------------------------------------------------------------------
# Closed-form output statistics


def _checked_finite(values: np.ndarray, name: str = "phi") -> np.ndarray:
    """The values as a float array of at least one dimension; raise unless all are finite."""
    array = np.atleast_1d(np.asarray(values, dtype=float))
    finite = np.isfinite(array)
    if not finite.all():
        raise ValueError(f"{name} must be finite, got {float(array[~finite][0])!r}")
    return array


def model_triple(
    phi: np.ndarray,
    phi_nl: float,
    ell_nl: float,
    theta_perp: float = 0.0,
) -> np.ndarray:
    """Renormalized (p20, p11, p02) stacked over an array of phases.

    The closed form of ``_triple``, one row per phase at the one
    nonlinear phase ``phi_nl``; row k equals the call at its own phase,
    bit for bit.  The overall transmission factors out and the raw total
    is (1 + t^2) / 2 at every phase.  Valid domain: finite phases, finite
    ``phi_nl`` and ``theta_perp``, and ``ell_nl`` in [0, 1]; anything
    else raises ``ValueError`` naming the parameter.
    """
    _check_domain(ell_nl, phi_nl=phi_nl, theta_perp=theta_perp)
    phis = _checked_finite(phi).tolist()
    return np.reshape(_triples(phis, [phi_nl] * len(phis), ell_nl, theta_perp), (-1, 3))


# ---------------------------------------------------------------------------
# Coincidence normalization


class NormalizationError(ValueError):
    """Raised when a histogram lacks side-peak references or center counts.

    ``index`` locates the first such histogram in the leading axes of the
    counts passed to ``normalize_counts``; it is empty for a single one.
    """

    def __init__(self, message: str, index: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        self.index = index


# Center-peak prefactors relative to the side-peak reference: the
# bunched classes reach a specific detector pair half the time, the
# split class a quarter of the time.
_CENTER_PREFACTOR = np.array([0.5, 0.25, 0.5])

# Sums per-pair counts into the pair classes.
_CLASS_OF_PAIR = np.eye(len(_CLASS_KEYS))[list(_PAIR_CLASS)]


def normalize_counts(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Renormalized (p20, p11, p02) and their standard errors per raw histogram.

    ``counts[..., p, i, j]`` is the number of coincidences for detector
    pair ``DETECTOR_PAIRS[p]`` with the first detector clicking in window
    ``PEAKS[i]`` and the second in ``PEAKS[j]``; leading axes stack
    histograms, and both results, of shape (..., 3), keep them.

    The side peaks of each pair class measure the same efficiency
    product that scales its center peak, so the ratio center/side with
    the class prefactor removed is proportional to the underlying
    output probability; normalizing the three ratios cancels every
    efficiency.

    Valid domain: non-negative, finite, integer-valued real counts of
    shape (..., 6, 3, 3); anything else, complex and object arrays
    included, raises ``ValueError``.  A histogram without side-peak
    counts in some pair class, or without center-peak counts in every
    class, raises ``NormalizationError``.
    """
    arr = np.asarray(counts)
    if arr.shape[-3:] != _HIST_SHAPE:
        raise ValueError(f"expected counts of shape (..., 6, 3, 3), got {arr.shape}")
    if arr.dtype.kind not in "buif":
        raise ValueError(f"counts must be real numbers, got dtype {arr.dtype}")
    if np.any(arr < 0):
        raise ValueError("counts must be non-negative")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(np.isfinite(arr) & (arr == np.round(arr))):
            raise ValueError("counts must be integer-valued")
    # Float sums are exact below 2**53 counts and cannot wrap.
    arr = arr.astype(float)
    center = arr[..., 1, 1] @ _CLASS_OF_PAIR
    side = (arr[..., 0, 2] + arr[..., 2, 0]) @ _CLASS_OF_PAIR

    no_side = side <= 0.0
    failed = no_side.any(axis=-1) | ~center.any(axis=-1)
    if failed.any():
        index = tuple(int(i) for i in np.unravel_index(np.argmax(failed), failed.shape))
        if no_side[index].any():
            key = _CLASS_KEYS[int(np.argmax(no_side[index]))]
            message = f"no side-peak counts for pair class {key}; normalization impossible"
        else:
            message = "no center-peak counts in any pair class"
        raise NormalizationError(message, index)

    weights = center / side / _CENTER_PREFACTOR
    total = weights.sum(axis=-1, keepdims=True)
    # First-order propagation over the six independent Poisson sums,
    # with d p_t / d w_k = (total [t == k] - w_t) / total^2.
    # var(w) = w^2 (1/center + 1/side) vanishes with the center count,
    # so zero-count classes contribute zero rather than NaN.
    var_w = weights**2 * (1.0 / np.maximum(center, 1.0) + 1.0 / side)
    jacobian = (total[..., None] * np.eye(3) - weights[..., :, None]) / (total * total)[..., None]
    sigma = np.sqrt(jacobian**2 @ var_w[..., None])[..., 0]
    return weights / total, sigma


# ---------------------------------------------------------------------------
# Monte Carlo synthesis


# Modes of the pair tensor: early, late, and an orthogonal ancilla copy
# of each, which models partially distinguishable photons.
_N_MODES = 4

# Detection slots (window, detector, ancilla flag): the axes the slot map
# flattens, in that order.  Ancilla photons follow the same optics as
# their physical partners but never interfere with them.
_SLOT_SHAPE = (len(PEAKS), len(DETECTORS), 2)

# Port (0 = a, 1 = b) of each detector.
_DETECTOR_PORT = np.array([0, 0, 1, 1])

# DETECTOR_PAIRS as indices into DETECTORS: the pairs i < j in row-major
# order, built once: a call costs 10-20% of a 25-phase cell model.
_PAIR_FIRST, _PAIR_SECOND = np.triu_indices(len(DETECTORS), 1)


def _build_slot_map() -> np.ndarray:
    """24x4 amplitudes from each mode onto the detection slots.

    Each photon splits evenly between the short and long arm, the
    recombiner evenly onto ports a and b, and each port evenly onto its
    two lossless detectors.  The splitter phase pi/2 sits on the
    short-to-b and long-to-a reflections.  Mode ``time_bin + 2 * ancilla``
    is a photon or its ancilla copy; the short arm (0) keeps it in its
    window, the long arm (1) delays it by one: early -> E/M, late -> M/L.
    """
    phases = np.array([[0.0, math.pi / 2], [math.pi / 2, 0.0]])
    optics = (np.exp(-1j * phases) * math.sqrt(0.5))[:, _DETECTOR_PORT] * 0.5
    slots = np.zeros(_SLOT_SHAPE + (_N_MODES,), dtype=complex)
    for arm, time_bin, ancilla in itertools.product(range(2), repeat=3):
        slots[arm + time_bin, :, ancilla, time_bin + 2 * ancilla] = optics[arm]
    return slots.reshape(-1, _N_MODES)


_SLOT_MAP = _build_slot_map()

# The middle window realizes the ideal recombiner up to diagonal phases;
# shifting the linear phase by the long-to-a splitter phase absorbs them.
_CALIBRATION_OFFSET = math.pi / 2


def _recombiner_pair(phi, phi_nl: float, ell_nl: float, theta_perp: float) -> np.ndarray:
    """Symmetric 4x4 mode tensors psi of the pair entering the recombiner.

    One tensor per phase: the result has shape ``np.shape(phi) + (4, 4)``.
    Both photons start early.  The first splitter, the linear phase
    ``phi`` on the early bin and the nonlinear element (phase ``phi_nl``
    when both photons share a bin, amplitude t = 1 - ``ell_nl`` on each
    photon otherwise), followed by the overlap rotation of the early
    photon into its ancilla copy, leave

        psi = [e^{i phi_nl} (e^{2 i phi} eps eps^T + l l^T)
               + t e^{i phi} (eps l^T + l eps^T)] / sqrt(2)

    with eps = (cos theta_perp, 0, sin theta_perp, 0) and l = (0, 1, 0, 0).
    For a single-photon map ``m`` from the modes onto any set of slots,
    ``(m @ psi @ m.T)[s, t]`` with s != t is the amplitude of one photon
    in slot s and one in slot t.  The raw norm is |psi|^2 / 2 = (1 + t^2) / 2.
    """
    early = np.array([math.cos(theta_perp), 0.0, math.sin(theta_perp), 0.0])
    late = np.array([0.0, 1.0, 0.0, 0.0])
    phase = np.exp(1j * np.asarray(phi))[..., None, None]
    # phase * phase, rounded as numpy's scalar complex product rounds it:
    # its array loop rounds otherwise, and a last-bit change of a cell
    # weight can change the multinomial draws of ``sample_statistics``.
    re, im = phase.real, phase.imag
    square = re * re - im * im + 2j * (re * im)
    bunched = np.exp(1j * phi_nl) * (square * np.outer(early, early) + np.outer(late, late))
    split = (1.0 - ell_nl) * phase * np.outer(early, late)
    return (bunched + split + np.swapaxes(split, -1, -2)) / math.sqrt(2.0)


def peak_cell_probabilities(
    phi: np.ndarray,
    phi_nl: float,
    ell_nl: float,
    theta_perp: float = 0.0,
) -> np.ndarray:
    """Expected coincidence weight per (detector pair, window, window) cell.

    Evaluates an array of phases at once and returns the weights of
    shape (len(phi), 6, 3, 3); a scalar phase counts as one.  Builds the
    two-photon state entering the recombining splitter in closed form
    (``_recombiner_pair``), then routes both photons through the
    detection interferometer.  Its middle window realizes the ideal
    recombiner up to diagonal phases, which the calibration offset pi/2
    absorbs so that ``phi`` is the calibrated linear phase of the
    closed-form model.  Coincidences on a single detector are dropped
    (they produce one click).  Weights are unnormalized probabilities;
    their sum is below one because of losses and dropped same-detector
    events.

    With the slot map M and the symmetric mode tensor psi of the state,
    ``M psi M^T`` holds the amplitude of every pair of distinct slots,
    and distinct configurations interfere in it.  The phases are a
    batch axis of that product, so row k does not depend on the other
    phases of the sweep.

    Valid domain: finite phases, finite ``phi_nl`` and ``theta_perp``,
    and ``ell_nl`` in [0, 1], as for ``model_triple``; anything else
    raises ``ValueError`` naming the parameter.
    """
    phis = _checked_finite(phi)
    _check_domain(ell_nl, phi_nl=phi_nl, theta_perp=theta_perp)
    states = _recombiner_pair(phis + _CALIBRATION_OFFSET, phi_nl, ell_nl, theta_perp)
    pairs = (_SLOT_MAP @ states @ _SLOT_MAP.T).reshape((phis.size,) + _SLOT_SHAPE * 2)
    # Axes (phase, detector of s, detector of t, window of s, window of t,
    # ancilla of s, ancilla of t), then the detector pairs of the histogram.
    by_detectors = pairs.transpose(0, 2, 5, 1, 4, 3, 6)
    weights = np.abs(by_detectors[:, _PAIR_FIRST, _PAIR_SECOND]) ** 2
    # A cell's four ancilla combinations sum left to right in slot order;
    # a pairwise sum over both axes rounds them otherwise.
    return weights[..., 0, 0] + weights[..., 0, 1] + weights[..., 1, 0] + weights[..., 1, 1]


# The largest count the 64-bit multinomial draw holds.
_MAX_SHOTS = 2**63 - 1


def sample_statistics(
    phis: np.ndarray,
    phi_nl: float,
    ell_nl: float,
    shots: int,
    seed: int,
    theta_perp: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Shot-sampled, normalized (p20, p11, p02) rows and their errors over a sweep.

    Phase k draws a histogram of ``shots`` coincidences, distributed over
    the cells of ``peak_cell_probabilities`` by their conditional
    probabilities, from the k-th child of ``np.random.SeedSequence(seed)``;
    ``normalize_counts`` then normalizes the whole sweep.  Child streams
    never overlap, across phases or seeds, and row k depends only on
    ``seed``, k and its own phase, not on the length of the sweep.
    Returns the (len(phis), 3) triples and their standard errors.

    Valid domain: finite phases, whole ``1 <= shots <= 2**63 - 1`` (the
    generator draws 64-bit counts) and whole ``seed >= 0``, plus the model
    parameters' domain (finite ``phi_nl`` and ``theta_perp``, ``ell_nl``
    in [0, 1]); anything else raises ``ValueError`` naming the parameter.
    A histogram too sparse to normalize raises ``NormalizationError``
    naming its phase.
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    if not shots > 0:
        raise ValueError(f"shots must be positive, got {shots!r}")
    if shots > _MAX_SHOTS:
        raise ValueError(f"shots must be at most 2**63 - 1, got {shots!r}")
    if shots != int(shots):
        raise ValueError(f"shots must be a whole number, got {shots!r}")
    if not seed >= 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    if seed % 1 != 0:
        raise ValueError(f"seed must be a whole number, got {seed!r}")
    weights = peak_cell_probabilities(phis, phi_nl, ell_nl, theta_perp).reshape(phis.size, -1)
    total = weights.sum(axis=1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("all coincidence cells have zero probability")
    streams = np.random.SeedSequence(int(seed)).spawn(phis.size)
    counts = [
        np.random.default_rng(stream).multinomial(shots, p)
        for stream, p in zip(streams, weights / total)
    ]
    try:
        return normalize_counts(np.reshape(counts, (phis.size,) + _HIST_SHAPE))
    except NormalizationError as exc:
        phi = phis[exc.index]
        raise NormalizationError(f"histogram at phi={phi:.6g}: {exc}", exc.index) from exc
