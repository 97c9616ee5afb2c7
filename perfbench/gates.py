"""Correctness gates on the artifacts the CLI writes.

Every check here takes a different route than the package: the pair
norm is rebuilt from the Faddeeva closed form of the bound channel, the
fringe from the phase-shift closed form, the water trace from a dense
3x3 transfer matrix, and the distinguishability statistics from a
first-quantized two-photon tensor.  Nothing imports ``nltimebin``, so a
change to the package cannot move its own yardstick.

Each ``check_*`` function returns a list of problems; an empty list
means the artifact passed.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import wofz

TWO_PI = 2.0 * math.pi
SPEED_OF_LIGHT_CM = 2.99792458e10

# OH-stretch ladder of water in 1/cm and its localized-to-eigenmode map.
WATER = {"nu10": 3740.05, "nu01": 3619.68, "nu20": 7391.43, "nu02": 7154.35, "nu11": 7206.46}
_R = 1.0 / math.sqrt(2.0)
WATER_LOCALIZATION = np.array([[_R, -_R], [_R, _R]], dtype=complex)

# Largest |I - I^T| a unit-peak JTI map may show, in machine epsilons.
JTI_SYMMETRY_EPS = 8

# Time bin of the four circuit modes (early, late, early ancilla, late ancilla).
_BIN = (0, 1, 0, 1)


# ---------------------------------------------------------------------------
# Artifact readers


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a ``# schema=1`` CSV artifact."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line]
    if not lines or lines[0] != "# schema=1":
        raise ValueError(f"{path.name}: missing schema line")
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise ValueError(f"{path.name}: ragged rows")
    return header, rows


def _columns(path: Path, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    header, rows = read_table(path)
    missing = [n for n in names if n not in header]
    if missing:
        raise ValueError(f"{path.name}: missing columns {missing}")
    return {n: rows[:, header.index(n)] for n in names}


def _guard(check):
    """Turn a reader failure into a reported problem instead of a crash."""

    @functools.wraps(check)
    def guarded(*args, **kwargs) -> list[str]:
        try:
            return check(*args, **kwargs)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{check.__name__}: unreadable artifact: {exc}"]

    return guarded


# ---------------------------------------------------------------------------
# Independent oracles


def bound_integral(s: np.ndarray, delta: float, sigma: float) -> np.ndarray:
    """Bound-channel weight at total frequency ``s`` via the Faddeeva function."""
    envelope = (TWO_PI * sigma**2) ** -0.5 * np.exp(-((s - 2.0 * delta) ** 2) / (8.0 * sigma**2))
    z = (s / 2.0 + 1j) / (math.sqrt(2.0) * sigma)
    return 2.0 * envelope * (-1j * math.pi) * wofz(z)


def pair_norm(delta: float, sigma: float, nodes: int = 768) -> float:
    """Squared norm of the pair output on a grid built independently of the package.

    Gauss-Legendre over the total frequency, a tangent map over the
    difference, and the closed-form bound channel.
    """
    u, wu = np.polynomial.legendre.leggauss(nodes)
    s = 2.0 * delta + 16.0 * sigma * u
    ws = 16.0 * sigma * wu
    v = 0.5 * math.pi * u
    d = 2.0 * np.tan(v)
    wd = math.pi * wu / np.cos(v) ** 2
    x = 0.5 * (s[:, None] + d[None, :])
    y = 0.5 * (s[:, None] - d[None, :])
    norm = (TWO_PI * sigma**2) ** -0.25

    def line(w):
        return (w / (w + 1j)) * norm * np.exp(-((w - delta) ** 2) / (4.0 * sigma**2))

    bound = (1j / TWO_PI) * bound_integral(s, delta, sigma)[:, None] / ((x + 1j) * (y + 1j))
    psi = line(x) * line(y) + bound
    return float(np.sum(0.5 * ws[:, None] * wd[None, :] * np.abs(psi) ** 2))


def phase_shift_p20(phis: np.ndarray, phi_nl: float, ell_nl: float) -> np.ndarray:
    """Renormalized P20 of the balanced circuit with indistinguishable photons."""
    t = 1.0 - ell_nl
    base = 2.0 * (1.0 + np.cos(2.0 * phis)) + 4.0 * t * t
    cross = 8.0 * t * np.cos(phis) * math.cos(phi_nl)
    p20 = (base + cross) / 16.0
    p02 = (base - cross) / 16.0
    p11 = (1.0 - np.cos(2.0 * phis)) / 4.0
    return p20 / (p20 + p11 + p02)


def _splitter() -> np.ndarray:
    b = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    single = np.zeros((4, 4), dtype=complex)
    single[np.ix_((0, 1), (0, 1))] = b
    single[np.ix_((2, 3), (2, 3))] = b
    return single


def distinguishable_triples(
    phis: np.ndarray, phi_nl: float, ell_nl: float, theta_perp: float
) -> np.ndarray:
    """Renormalized (p20, p11, p02) from a first-quantized pair tensor.

    The pair amplitude is a symmetric 4x4 tensor over (early, late,
    early ancilla, late ancilla); a single-photon map ``U`` acts as
    ``U psi U^T``, and the nonlinearity multiplies same-bin entries by
    ``exp(i phi_nl)`` and cross-bin entries by ``1 - ell_nl``.
    """
    same_bin = np.equal.outer(_BIN, _BIN)
    factors = np.where(same_bin, np.exp(1j * phi_nl), 1.0 - ell_nl)
    rotate = np.eye(4, dtype=complex)
    c, s = math.cos(theta_perp), math.sin(theta_perp)
    rotate[0, 0], rotate[2, 0], rotate[0, 2], rotate[2, 2] = c, s, -s, c
    split = _splitter()
    bins = np.add.outer(_BIN, _BIN)
    out = np.empty((len(phis), 3))
    for k, phi in enumerate(phis):
        psi = np.zeros((4, 4), dtype=complex)
        psi[0, 0] = 1.0
        phase = np.diag(np.exp(1j * phi * np.array([1.0, 0.0, 1.0, 0.0])))
        for u in (split, phase):
            psi = u @ psi @ u.T
        psi = factors * psi
        for u in (rotate, split):
            psi = u @ psi @ u.T
        weight = np.abs(psi) ** 2
        raw = np.array([weight[bins == b].sum() for b in range(3)])
        out[k] = raw / raw.sum()
    return out


def _two_boson(u: np.ndarray) -> np.ndarray:
    a, b, c, d = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
    r2 = math.sqrt(2.0)
    return np.array(
        [[a * a, b * b, r2 * a * b], [c * c, d * d, r2 * c * d], [r2 * a * c, r2 * b * d, a * d + b * c]]
    )


def water_occupancies(t_ps: float, harmonic: bool) -> tuple[float, float, float]:
    """Dense-matrix (same-left, same-right, separate) occupancies of water."""
    nu = dict(WATER)
    if harmonic:
        nu.update(nu20=2.0 * nu["nu10"], nu02=2.0 * nu["nu01"], nu11=nu["nu10"] + nu["nu01"])
    scale = -TWO_PI * SPEED_OF_LIGHT_CM * 1e-12 * t_ps
    lift = _two_boson(WATER_LOCALIZATION)
    phases = np.diag(np.exp(1j * scale * np.array([nu["nu20"], nu["nu02"], nu["nu11"]])))
    final = (lift.conj().T @ phases @ lift)[:, 0]
    return tuple(float(abs(v) ** 2) for v in final)


# ---------------------------------------------------------------------------
# Gates


@_guard
def check_characterize(path: Path, sigmas: list[float], delta_max: float, grid: int) -> list[str]:
    """Pair norm, folded phase, pair-versus-single ordering and phase trend."""
    cols = _columns(
        path,
        ("delta", "sigma", "phi_nl", "r_int", "theta_int", "pair_transmission",
         "single_transmission_squared"),
    )
    problems = []
    deltas = np.linspace(0.0, delta_max, grid)
    if not (np.array_equal(cols["delta"], np.tile(deltas, len(sigmas)))
            and np.array_equal(cols["sigma"], np.repeat(sigmas, grid))):
        return ["characterize: rows do not cover the requested (sigma, delta) sweep"]
    for k in range(len(cols["delta"])):
        delta, sigma = float(cols["delta"][k]), float(cols["sigma"][k])
        ref = pair_norm(delta, sigma)
        rel = abs(cols["pair_transmission"][k] - ref) / ref
        if not rel <= 1e-9:
            problems.append(f"characterize: eta^2 off the Faddeeva norm by {rel:.2e} at {delta}, {sigma}")
        folded = cols["r_int"][k] * math.cos(cols["theta_int"][k])
        if not abs(math.cos(cols["phi_nl"][k]) - folded) <= 1e-9:
            problems.append(f"characterize: cos(phi_nl) != r_int cos(theta_int) at {delta}, {sigma}")
        if not cols["pair_transmission"][k] >= cols["single_transmission_squared"][k]:
            problems.append(f"characterize: pair below single^2 transmission at {delta}, {sigma}")
    for j in range(len(sigmas)):
        phases = cols["phi_nl"][j * grid:(j + 1) * grid]
        if not np.all(np.diff(phases) < 0.0):
            problems.append(f"characterize: phi_nl not decreasing in delta at sigma={sigmas[j]}")
    return problems


@_guard
def check_jti(path: Path, grid: int) -> list[str]:
    """Symmetry to rounding, unit peak and time-correlated (diagonal) weight.

    The map is symmetric in exact arithmetic, but not bitwise: the
    single-photon term ``f_i f_j`` is a complex product, which numpy
    does not round identically in both orders.  Detuned maps differ from
    their transpose by up to two machine epsilons, so the gate allows
    ``JTI_SYMMETRY_EPS`` of them and nothing more.
    """
    header, rows = read_table(path)
    matrix = rows[:, 1:]
    if matrix.shape != (grid, grid) or len(header) != grid + 1:
        return [f"jti: expected a {grid}x{grid} map, got {matrix.shape}"]
    problems = []
    asymmetry = float(np.max(np.abs(matrix - matrix.T)))
    if asymmetry > JTI_SYMMETRY_EPS * np.finfo(float).eps:
        problems.append(f"jti: intensity is not symmetric: off by {asymmetry:.3e} of the peak")
    if matrix.max() != 1.0:
        problems.append(f"jti: peak is {matrix.max()!r}, not 1")
    diagonal = float(np.mean(np.diag(matrix)))
    anti = float(np.mean(np.diag(matrix[::-1])))
    if not diagonal > anti:
        problems.append(f"jti: diagonal mean {diagonal:.3g} not above anti-diagonal {anti:.3g}")
    return problems


def _row_sums(cols: dict[str, np.ndarray], name: str) -> list[str]:
    total = cols["p20"] + cols["p11"] + cols["p02"]
    worst = float(np.max(np.abs(total - 1.0)))
    return [] if worst <= 1e-12 else [f"{name}: class probabilities sum off one by {worst:.2e}"]


@_guard
def check_fringe_exact(out: Path, grid: int) -> list[str]:
    """P20 of the spectral model against the phase-shift closed form."""
    cols = _columns(out / "fringe.csv", ("phi", "p20", "p11", "p02"))
    summary = json.loads((out / "fringe_summary.json").read_text(encoding="utf-8"))
    if len(cols["phi"]) != grid:
        return [f"fringe: expected {grid} phases, got {len(cols['phi'])}"]
    folded = math.acos(min(1.0, max(-1.0, summary["r_int"] * math.cos(summary["theta_int"]))))
    closed = phase_shift_p20(cols["phi"], folded, summary["ell_nl"])
    worst = float(np.max(np.abs(cols["p20"] - closed)))
    problems = _row_sums(cols, "fringe")
    if not worst <= 1e-9:
        problems.append(f"fringe: P20 off the closed form by {worst:.2e}")
    return problems


@_guard
def check_fringe_sampled(out: Path, grid: int, shots: int) -> list[str]:
    """Shot-sampled fringe: normalized rows with finite, non-negative errors."""
    names = ("phi", "p20", "p11", "p02", "sigma_p20", "sigma_p11", "sigma_p02")
    cols = _columns(out / "fringe.csv", names)
    summary = json.loads((out / "fringe_summary.json").read_text(encoding="utf-8"))
    if len(cols["phi"]) != grid or summary["shots"] != shots:
        return [f"fringe: expected {grid} phases at {shots} shots"]
    errors = np.stack([cols[n] for n in names[4:]])
    problems = _row_sums(cols, "fringe")
    if not (np.all(np.isfinite(errors)) and np.all(errors >= 0.0)):
        problems.append("fringe: negative or non-finite standard errors")
    return problems


@_guard
def check_water(path: Path, steps: int, tmax: float) -> list[str]:
    """Trace against the dense-matrix oracle; each model's occupancies sum to one."""
    names = ("t_ps", "p_same_left", "p_same_right", "p_separate", "p_same_left_harmonic",
             "p_same_right_harmonic", "p_separate_harmonic")
    cols = _columns(path, names)
    times = cols["t_ps"]
    if not np.array_equal(times, np.linspace(0.0, tmax, steps)):
        return [f"water: expected {steps} times on [0, {tmax}]"]
    worst_oracle = worst_sum = 0.0
    for k, t in enumerate(times):
        for suffix, harmonic in (("", False), ("_harmonic", True)):
            got = [cols[f"p_{n}{suffix}"][k] for n in ("same_left", "same_right", "separate")]
            ref = water_occupancies(float(t), harmonic)
            worst_oracle = max(worst_oracle, max(abs(a - b) for a, b in zip(got, ref)))
            worst_sum = max(worst_sum, abs(sum(got) - 1.0))
    problems = []
    if not worst_oracle <= 1e-12:
        problems.append(f"water: off the dense-matrix oracle by {worst_oracle:.2e}")
    if not worst_sum <= 1e-12:
        problems.append(f"water: occupancies sum off one by {worst_sum:.2e}")
    return problems


@_guard
def check_fit(path: Path, truth: dict[str, float]) -> list[str]:
    """Converged, with every true parameter within five standard errors."""
    result = json.loads(path.read_text(encoding="utf-8"))
    if result["converged"] is not True:
        return ["fit: did not converge"]
    problems = []
    for name, value in truth.items():
        got, err = result["parameters"][name], result["std_errors"][name]
        if not (math.isfinite(err) and err > 0.0):
            problems.append(f"fit: no finite standard error for {name}")
        elif not abs(got - value) <= 5.0 * err:
            problems.append(f"fit: {name}={got:.6g} is {abs(got - value) / err:.1f} SE from {value:.6g}")
    return problems
