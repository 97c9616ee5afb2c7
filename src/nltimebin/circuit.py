"""Double-pass time-bin interferometer and coincidence statistics.

Covers four layers of the experiment pipeline:

* classical field equations of the excitation and detection passes
  through the interferometer (per-pulse amplitudes, fringe contrast,
  phase calibration);
* closed-form two-photon output statistics of the balanced circuit,
  with the brute-force state evolution as fallback when partial
  distinguishability is switched on;
* normalization of raw coincidence histograms into output-pattern
  probabilities, with first-order Poisson error propagation;
* Monte Carlo synthesis of raw 3x3 peak histograms per detector pair.

Efficiencies and transmissions are probabilities; they enter field
amplitudes as square roots.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import states
from .states import DetectionProbabilities

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

# Pair classes for the count normalization: both photons in port a,
# one per port, both in port b.
_PAIR_CLASS = (0, 1, 1, 1, 1, 2)


@dataclass(frozen=True)
class TBIConfig:
    """Interferometer settings and path/detector efficiencies.

    Delays are in nanoseconds and only label the histogram timing; the
    default difference of 3 ns matches the bin separation used
    throughout.  ``eta_ratio_a2``/``eta_ratio_b2`` scale the second
    detector of each output port relative to the first, so every
    detector has an independent efficiency while keeping the four
    canonical arm-and-detector products as explicit fields.
    """

    phi: float = 0.0
    theta_qwp: float = math.pi / 4
    t_short: float = 1.0
    t_long: float = 1.0
    tau_short: float = 1.0
    tau_long: float = 4.0
    theta: float = 0.0
    theta_prime: float = 0.0
    theta1: float = math.pi / 2
    theta2: float = math.pi / 2
    eta_sa1: float = 1.0
    eta_sb1: float = 1.0
    eta_la1: float = 1.0
    eta_lb1: float = 1.0
    eta_ratio_a2: float = 1.0
    eta_ratio_b2: float = 1.0

    def validate(self) -> None:
        for name in ("t_short", "t_long", "eta_sa1", "eta_sb1", "eta_la1",
                     "eta_lb1", "eta_ratio_a2", "eta_ratio_b2"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if not (self.tau_long > self.tau_short > 0.0):
            raise ValueError("delays must satisfy tau_long > tau_short > 0")
        for name in ("phi", "theta_qwp", "theta", "theta_prime", "theta1", "theta2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def efficiency(self, arm: str, detector: str) -> float:
        """Probability that a photon on the given arm reaches the detector."""
        base = {
            ("S", "a1"): self.eta_sa1,
            ("L", "a1"): self.eta_la1,
            ("S", "b1"): self.eta_sb1,
            ("L", "b1"): self.eta_lb1,
        }
        port_first = "a1" if detector.startswith("a") else "b1"
        ratio = 1.0
        if detector == "a2":
            ratio = self.eta_ratio_a2
        elif detector == "b2":
            ratio = self.eta_ratio_b2
        return base[(arm, port_first)] * ratio


@dataclass(frozen=True)
class ExcitationFields:
    """Per-pulse complex amplitudes of the two generated time bins.

    The common temporal envelope is factored out; ``relative_phase`` is
    the unwrapped early-minus-late phase at the balanced waveplate
    setting, linear in the programmed phase so that sweeps track the
    full winding rather than folding back into (-pi, pi].
    """

    e_early: complex
    e_late: complex
    relative_phase: float

    @property
    def intensity_early(self) -> float:
        return abs(self.e_early) ** 2

    @property
    def intensity_late(self) -> float:
        return abs(self.e_late) ** 2


def excitation_fields(config: TBIConfig) -> ExcitationFields:
    """Fields of the early/late excitation pulses and their relative phase."""
    config.validate()
    phi, tq = config.phi, config.theta_qwp
    pref = (1.0 + 1.0j) / 2.0
    e_early = pref * math.sqrt(config.t_short) * (math.sin(phi) + 1j * math.sin(phi - 2 * tq))
    e_late = (
        np.exp(-1j * config.theta)
        * pref
        * math.sqrt(config.t_long)
        * (math.cos(phi) - 1j * math.cos(phi - 2 * tq))
    )
    relative_phase = config.theta + 2.0 * phi - math.pi / 2.0
    return ExcitationFields(
        e_early=complex(e_early),
        e_late=complex(e_late),
        relative_phase=relative_phase,
    )


def _detection_arm_amplitudes(config: TBIConfig) -> dict[tuple[str, str], complex]:
    """Complex amplitude from each arm to each output port of the recombiner.

    The long arm carries the detection-path phase; the splitter phases
    sit on the short-to-b and long-to-a reflections.
    """
    return {
        ("S", "a"): 1.0 / math.sqrt(2.0),
        ("S", "b"): np.exp(-1j * config.theta1) / math.sqrt(2.0),
        ("L", "a"): np.exp(-1j * (config.theta2 + config.theta_prime)) / math.sqrt(2.0),
        ("L", "b"): np.exp(-1j * config.theta_prime) / math.sqrt(2.0),
    }


def middle_peak_intensities(config: TBIConfig) -> tuple[float, float]:
    """Middle-window intensities at the first detector of each port.

    The early pulse reaches the middle window through the long arm, the
    late pulse through the short arm; their interference carries the
    fringe.
    """
    fields = excitation_fields(config)
    arm = _detection_arm_amplitudes(config)
    e_a1 = (
        fields.e_early * arm[("L", "a")] * math.sqrt(config.eta_la1)
        + fields.e_late * arm[("S", "a")] * math.sqrt(config.eta_sa1)
    )
    e_b1 = (
        fields.e_early * arm[("L", "b")] * math.sqrt(config.eta_lb1)
        + fields.e_late * arm[("S", "b")] * math.sqrt(config.eta_sb1)
    )
    return abs(e_a1) ** 2, abs(e_b1) ** 2


def contrast_amplitude(config: TBIConfig) -> float:
    """Fringe amplitude of the two-detector contrast under efficiency imbalance."""
    sa = math.sqrt(config.eta_sa1 * config.eta_la1)
    sb = math.sqrt(config.eta_sb1 * config.eta_lb1)
    denom = config.eta_sa1 + config.eta_la1 + config.eta_sb1 + config.eta_lb1
    if denom == 0.0:
        return 0.0
    return 2.0 * (sa + sb) / denom


def fringe_contrast(config: TBIConfig, phi_sweep: np.ndarray) -> tuple[np.ndarray, float]:
    """Contrast (I_a1 - I_b1)/(I_a1 + I_b1) of the middle window over a phase sweep.

    For balanced efficiencies the curve is -C*cos(2*phi + theta - theta')
    with C = contrast_amplitude(config); imbalanced detectors add a
    constant offset on top of the same fringe amplitude.
    """
    phi_sweep = np.asarray(phi_sweep, dtype=float)
    contrast = np.empty_like(phi_sweep)
    for idx, phi in enumerate(phi_sweep):
        i_a1, i_b1 = middle_peak_intensities(replace(config, phi=float(phi)))
        contrast[idx] = (i_a1 - i_b1) / (i_a1 + i_b1)
    return contrast, contrast_amplitude(config)


def calibrate_phase_offset(config: TBIConfig, scan_points: int = 720) -> float:
    """Phase that suppresses the middle-window intensity at detector a1.

    Scans one full fringe period and refines the minimum with a
    parabolic step, mirroring the experimental calibration that nulls
    the interfering window before re-zeroing the phase.
    """
    grid = np.linspace(0.0, math.pi, scan_points, endpoint=False)
    values = np.array([middle_peak_intensities(replace(config, phi=float(p)))[0] for p in grid])
    k = int(np.argmin(values))
    # Parabolic refinement through the minimum and its periodic neighbours.
    h = grid[1] - grid[0]
    y0, y1, y2 = values[(k - 1) % scan_points], values[k], values[(k + 1) % scan_points]
    denom = y0 - 2.0 * y1 + y2
    shift = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
    return float(grid[k] + shift * h)


# ---------------------------------------------------------------------------
# Closed-form output statistics


def _raw_statistics(
    phis: np.ndarray,
    phi_nl: float,
    ell_nl: float,
    theta_perp: float,
) -> np.ndarray:
    """Raw (p20, p11, p02) rows of the balanced circuit, one per phase."""
    finite = np.isfinite(phis)
    if not finite.all():
        raise ValueError(f"phi must be finite, got {float(phis[~finite][0])!r}")
    for name, value in (("phi_nl", phi_nl), ("theta_perp", theta_perp)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not 0.0 <= ell_nl <= 1.0:
        raise ValueError(f"ell_nl must be in [0, 1], got {ell_nl!r}")
    if theta_perp != 0.0:
        # Only the diagonal linear-phase layer depends on the phase: the
        # state after the first splitter and the transfer of the layers
        # after the phase are built once, and every phase is one row of
        # the same array product.
        first, _, *tail = states.standard_circuit(0.0, phi_nl, ell_nl, theta_perp=theta_perp)
        head = states.apply_layer(states.new_input(), first).amplitudes
        amps = (states.linear_phase_factors(phis) * head) @ states.circuit_transfer(tail).T
        return states.click_weights(amps)
    t = 1.0 - ell_nl
    cos_2phi = np.cos(2.0 * phis)
    cross = 8.0 * t * np.cos(phis) * math.cos(phi_nl)
    base = 2.0 * (1.0 + cos_2phi) + 4.0 * t * t
    return np.stack([(base + cross) / 16.0, (1.0 - cos_2phi) / 4.0, (base - cross) / 16.0], axis=1)


def model_statistics(
    phi: float,
    phi_nl: float,
    ell_nl: float,
    theta_perp: float = 0.0,
) -> DetectionProbabilities:
    """Two-photon output statistics of the balanced circuit at one phase.

    The overall transmission factors out of the renormalized result and
    is set to one here.  Without distinguishability the three closed
    forms are evaluated directly; with it the extended-basis state
    evolution supplies the result.  Valid domain: finite ``phi``,
    ``phi_nl`` and ``theta_perp``, and ``ell_nl`` in [0, 1]; anything
    else raises ``ValueError`` naming the parameter.
    """
    raw = _raw_statistics(np.array([phi], dtype=float), phi_nl, ell_nl, theta_perp)[0]
    return DetectionProbabilities.from_raw(raw)


def model_triple(
    phi: np.ndarray,
    phi_nl: float,
    ell_nl: float,
    theta_perp: float = 0.0,
) -> np.ndarray:
    """Renormalized (p20, p11, p02) stacked over an array of phases.

    Evaluates every phase at once, on the same domain as
    ``model_statistics``: finite phases, finite ``phi_nl`` and
    ``theta_perp``, and ``ell_nl`` in [0, 1].  Raises
    ``DegenerateStateError`` if any phase loses all two-photon weight.
    """
    phis = np.atleast_1d(np.asarray(phi, dtype=float))
    raw = _raw_statistics(phis, phi_nl, ell_nl, theta_perp)
    total = raw.sum(axis=1, keepdims=True)
    if np.any(total < states.DEGENERATE_TOTAL):
        raise states.DegenerateStateError("all outcomes suppressed; cannot renormalize")
    return raw / total


# ---------------------------------------------------------------------------
# Histograms and coincidence normalization


@dataclass(frozen=True)
class PeakHistogram:
    """Coincidence counts per detector pair and 3x3 peak-window cell.

    ``counts[p, i, j]`` is the number of coincidences for detector pair
    ``DETECTOR_PAIRS[p]`` with the first detector clicking in window
    ``PEAKS[i]`` and the second in ``PEAKS[j]``.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts)
        if arr.shape != (len(DETECTOR_PAIRS), 3, 3):
            raise ValueError(f"expected counts of shape (6, 3, 3), got {arr.shape}")
        if np.any(arr < 0):
            raise ValueError("counts must be non-negative")
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(arr == np.round(arr)):
                raise ValueError("counts must be integer-valued")
            arr = arr.astype(np.int64)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def class_counts(self) -> dict[str, tuple[float, float]]:
        """(center, side) count sums for the three pair classes."""
        e, m, l = 0, 1, 2
        sums: dict[str, list[float]] = {"20": [0, 0], "11": [0, 0], "02": [0, 0]}
        for p, cls in enumerate(_PAIR_CLASS):
            key = ("20", "11", "02")[cls]
            sums[key][0] += int(self.counts[p, m, m])
            sums[key][1] += int(self.counts[p, e, l]) + int(self.counts[p, l, e])
        return {k: (float(v[0]), float(v[1])) for k, v in sums.items()}

    def to_csv_rows(self) -> list[tuple[str, str, str, int]]:
        rows = []
        for p, (d1, d2) in enumerate(DETECTOR_PAIRS):
            for i, row_peak in enumerate(PEAKS):
                for j, col_peak in enumerate(PEAKS):
                    rows.append((f"{d1}-{d2}", row_peak, col_peak, int(self.counts[p, i, j])))
        return rows

    def to_json(self) -> str:
        payload = {
            f"{d1}-{d2}": [[int(c) for c in row] for row in self.counts[p]]
            for p, (d1, d2) in enumerate(DETECTOR_PAIRS)
        }
        return json.dumps({"peaks": list(PEAKS), "pairs": payload}, indent=2, sort_keys=True)


@dataclass(frozen=True)
class NormalizedStats:
    """Renormalized output-pattern probabilities with Poisson error bars."""

    p20: float
    p11: float
    p02: float
    uncertainties: tuple[float, float, float]

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p20, self.p11, self.p02)

    def to_json(self) -> str:
        return json.dumps(
            {
                "p20": self.p20,
                "p11": self.p11,
                "p02": self.p02,
                "sigma_p20": self.uncertainties[0],
                "sigma_p11": self.uncertainties[1],
                "sigma_p02": self.uncertainties[2],
            },
            indent=2,
            sort_keys=True,
        )


class NormalizationError(ValueError):
    """Raised when side-peak references are missing entirely."""


# Center-peak prefactors relative to the side-peak reference: the
# bunched classes reach a specific detector pair half the time, the
# split class a quarter of the time.
_CENTER_PREFACTOR = {"20": 0.5, "11": 0.25, "02": 0.5}


def normalize_counts(hist: PeakHistogram) -> NormalizedStats:
    """Turn a raw peak histogram into renormalized output probabilities.

    The side peaks of each pair class measure the same efficiency
    product that scales its center peak, so the ratio center/side with
    the class prefactor removed is proportional to the underlying
    output probability; normalizing the three ratios cancels every
    efficiency.
    """
    cls = hist.class_counts()
    for key, (_, side) in cls.items():
        if side <= 0:
            raise NormalizationError(
                f"no side-peak counts for pair class {key}; normalization impossible"
            )
    weights = {}
    for key, (center, side) in cls.items():
        weights[key] = center / side / _CENTER_PREFACTOR[key]
    total = sum(weights.values())
    if total <= 0.0:
        raise NormalizationError("no center-peak counts in any pair class")
    probs = {key: w / total for key, w in weights.items()}

    # First-order propagation over the six independent Poisson sums.
    # var(w) = w^2 (1/center + 1/side) vanishes with the center count,
    # so zero-count classes contribute zero rather than NaN.
    variance = {key: 0.0 for key in weights}
    for key, (center, side) in cls.items():
        w = weights[key]
        if w == 0.0:
            continue
        var_w = w * w * (1.0 / center + 1.0 / side)
        for target in weights:
            if target == key:
                dp = (total - w) / (total * total)
            else:
                dp = -weights[target] / (total * total)
            variance[target] += dp * dp * var_w
    sigma = {key: math.sqrt(v) for key, v in variance.items()}
    return NormalizedStats(
        p20=probs["20"],
        p11=probs["11"],
        p02=probs["02"],
        uncertainties=(sigma["20"], sigma["11"], sigma["02"]),
    )


# ---------------------------------------------------------------------------
# Monte Carlo synthesis


def _tbi_single_photon_map(config: TBIConfig) -> dict[int, dict[tuple[int, int, int], complex]]:
    """Per-mode amplitudes onto (window, detector, ancilla) detection slots.

    Early photons split between the short arm (early window) and long
    arm (middle window); late photons between short (middle) and long
    (late).  Each port then splits evenly onto its two detectors, and
    the arm-and-detector efficiency enters as a root since loss acts on
    the probability.  Slots are (window index, detector index, ancilla
    flag); ancilla photons follow the same optics but never interfere
    with their physical partners.
    """
    arm = _detection_arm_amplitudes(config)
    routes = {
        0: (("S", 0), ("L", 1)),  # early bin: short->E, long->M
        1: (("S", 1), ("L", 2)),  # late bin: short->M, long->L
    }
    split = 1.0 / math.sqrt(2.0)
    excitation = {0: 1.0 + 0.0j, 1: np.exp(-1j * config.theta)}
    table: dict[int, dict[tuple[int, int, int], complex]] = {}
    for mode in range(4):
        bin_idx = mode % 2
        ancilla = 1 if mode >= 2 else 0
        amps: dict[tuple[int, int, int], complex] = {}
        for arm_name, window in routes[bin_idx]:
            for d_idx, det in enumerate(DETECTORS):
                port = det[0]
                eff = config.efficiency(arm_name, det)
                amp = (
                    excitation[bin_idx]
                    * split  # arm split
                    * arm[(arm_name, port)]
                    * split  # detector split
                    * math.sqrt(eff)
                )
                if amp != 0.0:
                    amps[(window, d_idx, ancilla)] = amps.get((window, d_idx, ancilla), 0.0) + amp
        table[mode] = amps
    return table


_PAIR_INDEX = {pair: idx for idx, pair in enumerate(DETECTOR_PAIRS)}


def peak_cell_probabilities(
    phi: float,
    phi_nl: float,
    ell_nl: float,
    theta_perp: float = 0.0,
    config: TBIConfig | None = None,
) -> np.ndarray:
    """Expected coincidence weight per (detector pair, window, window) cell.

    Evolves the two-photon state up to (but not through) the recombining
    splitter, then routes both photons through the detection
    interferometer.  At the default splitter phases the middle window
    realizes the ideal recombiner up to diagonal phases, which the
    internal calibration offset absorbs so that ``phi`` is the
    calibrated linear phase of the closed-form model.  Coincidences on
    a single detector are dropped (they produce one click).  Weights
    are unnormalized probabilities; their sum is below one because of
    losses and dropped same-detector events.
    """
    if config is None:
        config = TBIConfig()
    config.validate()
    offset = config.theta2 + config.theta_prime - config.theta
    layers = [
        states.beam_splitter_first(),
        states.linear_phase(phi + offset),
        states.nonlinear(phi_nl, ell_nl, 1.0),
    ]
    if theta_perp != 0.0:
        layers.append(states.distinguishability(theta_perp))
    pre = states.apply_circuit(states.new_input(), layers)

    single = _tbi_single_photon_map(config)
    # Accumulate the two-boson amplitude per unordered slot pair across
    # all input configurations; distinct configurations interfere.
    pair_amps: dict[tuple[tuple[int, int, int], tuple[int, int, int]], complex] = {}
    for c_idx, (i, j) in enumerate(states._PAIRS):
        amp_c = pre.amplitudes[c_idx]
        if amp_c == 0.0:
            continue
        norm_in = math.sqrt(2.0) if i == j else 1.0
        for s1, v1 in single[i].items():
            for s2, v2 in single[j].items():
                key = (s1, s2) if s1 <= s2 else (s2, s1)
                pair_amps[key] = pair_amps.get(key, 0.0) + amp_c * v1 * v2 / norm_in
    cells = np.zeros((len(DETECTOR_PAIRS), 3, 3))
    for (s1, s2), amp in pair_amps.items():
        # Same slot or same detector: a lone click, never a coincidence.
        if s1[1] == s2[1]:
            continue
        weight = abs(amp) ** 2
        if s1[1] > s2[1]:
            s1, s2 = s2, s1
        det_pair = (DETECTORS[s1[1]], DETECTORS[s2[1]])
        cells[_PAIR_INDEX[det_pair], s1[0], s2[0]] += weight
    return cells


def synthesize_histogram(
    phi: float,
    phi_nl: float,
    ell_nl: float,
    shots: int,
    seed: int,
    theta_perp: float = 0.0,
    config: TBIConfig | None = None,
) -> PeakHistogram:
    """Draw a raw coincidence histogram of ``shots`` recorded events.

    Each shot is one recorded coincidence, distributed over the cells
    by their conditional probabilities; the stream is a single seeded
    64-bit generator, so fixed arguments give identical histograms.
    """
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots!r}")
    weights = peak_cell_probabilities(phi, phi_nl, ell_nl, theta_perp, config)
    flat = weights.reshape(-1)
    total = flat.sum()
    if total <= 0.0:
        raise ValueError("all coincidence cells have zero probability")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, flat / total).reshape(weights.shape)
    return PeakHistogram(counts.astype(np.int64))
