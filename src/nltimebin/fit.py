"""Transmission-dip lineshape and model fits for fringes and pair statistics.

The emitter's resonant-transmission dip and the experiment-facing fits
of the interference fringes and the nonlinear-phase parameters, on
numpy alone.  Fringes and pair statistics are linear in a few
coefficients and fitted by direct solves.  Uncertainties are the delta
method on the Fisher matrix at the optimum, infinite where the map to a
reported parameter is infinitely steep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import circuit
from .scatter import faddeeva


def _covariance(
    curvature: np.ndarray,
    names: tuple[str, ...],
    scale: float,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Covariance ``2 * scale * H^-1`` from the Hessian H, flat directions flagged.

    ``scale`` is one for a variance-weighted objective and the residual
    variance estimate for a plain sum of squares.
    """
    eigvals, eigvecs = np.linalg.eigh(curvature)
    floor = 1e-10 * max(1.0, float(np.max(np.abs(eigvals))))
    flat = eigvals <= floor
    unidentifiable: list[str] = []
    for k in np.nonzero(flat)[0]:
        unidentifiable.append(names[int(np.argmax(np.abs(eigvecs[:, k])))])
    inv = np.zeros_like(curvature)
    keep = ~flat
    if np.any(keep):
        inv = eigvecs[:, keep] @ np.diag(1.0 / eigvals[keep]) @ eigvecs[:, keep].T
    cov = 2.0 * scale * inv
    return cov, tuple(dict.fromkeys(unidentifiable))


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with standard errors and bookkeeping."""

    parameters: dict[str, float]
    std_errors: dict[str, float]
    residual: float
    converged: bool
    evaluations: int
    unidentifiable: tuple[str, ...] = field(default=())

    def to_json_dict(self) -> dict:
        return {
            "parameters": dict(sorted(self.parameters.items())),
            "std_errors": dict(sorted(self.std_errors.items())),
            "residual": self.residual,
            "converged": self.converged,
            "evaluations": self.evaluations,
            "unidentifiable": list(self.unidentifiable),
        }


def _finish_fit(
    names: tuple[str, ...],
    x: np.ndarray,
    residual: float,
    curvature: np.ndarray,
    n_points: int,
    weighted: bool,
    evaluations: int = 1,
) -> FitResult:
    """Converged FitResult at the optimum ``x``; errors from the Hessian ``curvature``."""
    dof = max(n_points - x.size, 1)
    scale = 1.0 if weighted else residual / dof
    cov, unidentifiable = _covariance(curvature, names, scale)
    errors = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    std: dict[str, float] = {}
    for k, name in enumerate(names):
        std[name] = math.inf if name in unidentifiable else float(errors[k])
    return FitResult(
        parameters={name: float(x[k]) for k, name in enumerate(names)},
        std_errors=std,
        residual=residual,
        converged=True,
        evaluations=evaluations,
        unidentifiable=unidentifiable,
    )


# ---------------------------------------------------------------------------
# Resonant transmission spectrum


@dataclass(frozen=True)
class QDCharacterization:
    """Emitter parameters entering the transmission dip.

    ``gamma`` and ``gamma_d`` are the radiative and pure-dephasing
    rates, ``sigma_sd`` the RMS of slow Gaussian spectral wandering,
    all in the same frequency units as the spectrum axis;
    ``saturation`` is the ratio of non-coupled to coupled excitation.
    Construction raises ``ValueError`` naming a field outside its domain.
    """

    beta: float
    gamma: float = 1.0
    gamma_d: float = 0.0
    sigma_sd: float = 0.0
    saturation: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be positive, got {self.gamma!r}")
        for name in ("gamma_d", "sigma_sd", "saturation"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be non-negative, got {value!r}")

    @property
    def depth(self) -> float:
        """On-resonance dip depth, independent of spectral wandering."""
        return (
            self.beta
            * (2.0 - self.beta)
            / ((1.0 + 2.0 * self.gamma_d / self.gamma) * (1.0 + self.saturation))
        )

    @property
    def gamma_fwhm(self) -> float:
        """Full width of the underlying Lorentzian dip."""
        return (self.gamma + self.gamma_d) * math.sqrt(1.0 + self.saturation)


def rt_spectrum(omega: np.ndarray | float, qd: QDCharacterization) -> np.ndarray | float:
    """Resonant-transmission spectrum of the emitter.

    A Lorentzian dip of fractional depth ``qd.depth`` and half width
    ``gamma_fwhm / 2`` convolved with the spectral-wandering Gaussian of
    RMS ``sigma_sd``: the Voigt profile ``Re w((omega + i half) /
    (sqrt(2) sigma_sd))`` of the Faddeeva function w, divided by its
    value at omega = 0 so the on-resonance value stays ``1 - depth``
    for any wandering width.  Without wandering the Lorentzian is
    evaluated exactly.  ``omega`` must be finite; otherwise it raises
    ``ValueError`` naming it.
    """
    omega = np.asarray(omega, dtype=float)
    points, half = circuit._checked_finite(omega, "omega"), qd.gamma_fwhm / 2.0
    if qd.sigma_sd == 0.0:
        profile = half * half / (points * points + half * half)
    else:
        w = faddeeva(np.append(points + 1j * half, 1j * half) / (math.sqrt(2.0) * qd.sigma_sd))
        profile = w.real[:-1] / w.real[-1]
    result = 1.0 - qd.depth * profile
    return float(result[0]) if omega.ndim == 0 else result


# ---------------------------------------------------------------------------
# Interference fringes


def _checked_series(x, y, errors, names: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float arrays ``x`` and ``y`` and the root weights 1 / ``errors``.

    The weights are ones when ``errors`` is None.  Raises ``ValueError``
    unless ``x`` and ``y`` (together ``names``) have one shape with at
    least 8 finite points, and ``errors``, if given, broadcast to that
    shape and are finite and positive.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"{names} must have matching shapes")
    if x.size < 8:
        raise ValueError(f"need at least 8 points, got {x.size}")
    if not np.all(np.isfinite(x) & np.isfinite(y)):
        raise ValueError(f"{names} must be finite")
    if errors is None:
        return x, y, np.ones_like(x)
    errors = np.broadcast_to(np.asarray(errors, dtype=float), x.shape)
    if not np.all(np.isfinite(errors) & (errors > 0.0)):
        raise ValueError("errors must be finite and positive")
    return x, y, 1.0 / errors


def fit_fringe(
    phi: np.ndarray,
    values: np.ndarray,
    errors: np.ndarray | None = None,
) -> FitResult:
    """Fit ``offset + amplitude * cos(2 phi - 2 phi0)`` to fringe data.

    One weighted linear least-squares solve in (offset, amplitude cos 2
    phi0, amplitude sin 2 phi0).  Reports the derived visibility
    ``amplitude / offset``.  For flat data the fringe phase carries no
    information and is flagged unidentifiable with an infinite error.

    Valid domain: at least 8 finite points whose phases span a full
    fringe period (pi), and ``errors``, if given, finite and positive;
    anything else raises ``ValueError``.
    """
    phi, values, root_weights = _checked_series(phi, values, errors, "phi and values")
    if float(phi.max() - phi.min()) < math.pi - 1e-9:
        raise ValueError("phase sweep must cover at least one full fringe period")

    design = np.column_stack([np.ones_like(phi), np.cos(2.0 * phi), np.sin(2.0 * phi)])
    scaled = design * root_weights[:, None]
    coeff, *_ = np.linalg.lstsq(scaled, values * root_weights, rcond=None)
    offset, a, b = (float(c) for c in coeff)
    amplitude = math.hypot(a, b)
    phi0 = 0.5 * math.atan2(b, a)
    residual = float(np.sum((scaled @ coeff - values * root_weights) ** 2))

    names = ("amplitude", "phi0", "offset")
    # d(offset, a, b) / d(amplitude, phi0, offset) through the Fisher matrix.
    cos2, sin2 = math.cos(2.0 * phi0), math.sin(2.0 * phi0)
    jac = np.array([[0.0, 0.0, 1.0], [cos2, -2.0 * amplitude * sin2, 0.0],
                    [sin2, 2.0 * amplitude * cos2, 0.0]])
    curvature = jac.T @ (2.0 * scaled.T @ scaled) @ jac
    weighted = errors is not None
    result = _finish_fit(names, np.array([amplitude, phi0, offset]), residual, curvature,
                         phi.size, weighted)

    params = dict(result.parameters)
    std = dict(result.std_errors)
    params["visibility"] = math.inf if offset == 0.0 else amplitude / offset
    unident = result.unidentifiable
    if offset == 0.0:
        std["visibility"] = math.inf
    else:
        scale = 1.0 if weighted else residual / max(phi.size - 3, 1)
        cov, _ = _covariance(curvature, names, scale)
        grad = np.array([1.0 / offset, 0.0, -amplitude / offset**2])
        std["visibility"] = float(math.sqrt(max(0.0, grad @ cov @ grad)))
    if amplitude <= 1e-12 * max(1.0, abs(offset)) and "phi0" not in unident:
        unident = unident + ("phi0",)
        std["phi0"] = math.inf
    return replace(result, parameters=params, std_errors=std, unidentifiable=unident)


# ---------------------------------------------------------------------------
# Nonlinear-phase statistics


def _row_covariance(phi: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """Per-phase 3x3 covariance of a renormalized triple from its marginal errors.

    The three entries of a row sum to one, so the row's covariance is
    fixed by its three standard errors: ``C_ii = s_i^2`` and ``C_ij =
    (s_k^2 - s_i^2 - s_j^2) / 2`` for the remaining class k.  With
    binomial marginals this is the multinomial covariance ``-p_i p_j /
    N``.  Such a covariance exists only when the errors obey the
    triangle inequality; a row that breaks it by more than rounding
    raises ``ValueError`` naming its phase.
    """
    total = errors.sum(axis=1)
    # The slack is far above rounding and far below a real inconsistency.
    broken = 2.0 * errors.max(axis=1) - total > 1e-9 * total
    if np.any(broken):
        k = int(np.argmax(broken))
        raise ValueError(f"errors {errors[k].tolist()} at phi={phi[k]:.6g} break the triangle "
                         "inequality of a normalized row")
    var = errors**2
    cov = var.sum(axis=1)[:, None, None] / 2.0 - var[:, :, None] - var[:, None, :]
    diagonal = np.arange(3)
    cov[:, diagonal, diagonal] = var
    return cov


def _slice_minimum(fisher, best, shift, s: float) -> tuple[float, float, float]:
    """(cos phi_nl, t, chi-square above its unconstrained minimum) at fixed s.

    The physical (q, r) fill the half-disk (q - s/2)^2 + s r^2 <= s^2/4,
    q >= s/2.  Its minimum is the unconstrained point if inside, else the
    best of the edge t = 1 and the stationary points on the arc (s, sqrt(s)
    tau) / (1 + tau^2), where t = |tau| and cos phi_nl = sign(tau).
    """
    c, half = math.sqrt(s), 0.5 * s
    q, r = best[1:] - shift * (s - best[0])
    if q >= half and (q - half) ** 2 + s * r * r < half * half:
        t = math.sqrt((s - q) / q)
        cos_nl, ts = [min(max(r * c / (t * q), -1.0), 1.0)], [t]
    else:
        m = fisher[1:, 1:]
        edge_r = r - m[0, 1] * (half - q) / m[1, 1] if m[1, 1] > 0.0 else 0.0
        cos_nl, ts = [min(max(2.0 * edge_r / c, -1.0), 1.0)], [1.0]
        hq, hr = m @ np.array([half - q, -r])
        b = 0.5 * c
        diag, off = m[1, 1] * b * b - m[0, 0] * half * half, m[0, 1] * half * b
        roots = np.roots([off - b * hr, -2.0 * (half * hq + diag), -6.0 * off,
                          2.0 * (diag - half * hq), b * hr + off])
        for tau in np.clip(roots.real, -1.0, 1.0):
            cos_nl.append(-1.0 if tau < 0.0 else 1.0)
            ts.append(abs(float(tau)))
    d = circuit._triple_coefficients(np.array(cos_nl), np.array(ts), c)[:, 1:] - best
    excess = np.einsum("ka,ab,kb->k", d, fisher, d)
    k = int(np.argmin(excess))
    return cos_nl[k], ts[k], float(excess[k])


def fit_nl(
    phi: np.ndarray,
    triples: np.ndarray,
    errors: np.ndarray | None = None,
    fit_distinguishability: bool = False,
) -> FitResult:
    """Fit the nonlinear phase and pair loss to normalized statistics.

    ``triples`` holds one renormalized (p20, p11, p02) row per phase and
    ``errors`` optional matching standard errors.  A row must sum to one
    within 1e-5, which admits rows written to six decimals (off by up to
    1.5e-6); a row off by more raises ``ValueError`` naming its phase.
    Each phase's covariance C is rebuilt from its three marginal errors,
    which fix it for a row that sums to one, and the objective is the
    chi-square ``r^T C^+ r``; directions C does not span, such as a class
    with zero error, carry no weight.  Without errors it is the plain sum
    of squares with two degrees of freedom per phase.
    ``fit_distinguishability`` frees the overlap rotation angle and
    reports the distinguishable fraction.

    The model, ``circuit.model_triple``, is affine in three weights (s, q, r)
    whose physical values form a convex set: one generalized-least-squares
    solve, then the exact minimum at s = cos^2 theta_perp = 1, or over s
    by golden section (s = 1 included).  ``evaluations`` counts those
    slice solves; ``converged`` is always true.  Errors are the delta
    method on the inverse Fisher matrix; a parameter pinned where the
    inverse map is infinitely steep (phi_nl at 0 or pi, theta_perp at 0,
    ell_nl at 1) gets an infinite one.  ``unidentifiable`` names
    parameters the data leave flat, such as phi_nl as ell_nl nears 1.
    """
    phi = np.asarray(phi, dtype=float)
    triples = np.asarray(triples, dtype=float)
    if triples.shape != (phi.size, 3):
        raise ValueError("triples must have shape (len(phi), 3)")
    if phi.size < 8:
        raise ValueError("need at least 8 phase points")
    if not np.all(np.isfinite(triples)):
        raise ValueError("triples must be finite")
    off = np.abs(triples.sum(axis=1) - 1.0) > 1e-5
    if np.any(off):
        k = int(np.argmax(off))
        raise ValueError(f"triples at phi={phi[k]:.6g} sum to {float(triples[k].sum())!r}, not 1")
    precision = np.broadcast_to(np.eye(3), (phi.size, 3, 3))
    if errors is not None:
        errors = np.asarray(errors, dtype=float)
        if errors.shape != triples.shape:
            raise ValueError("errors must match the shape of triples")
        if not np.all(np.isfinite(errors) & (errors >= 0.0)):
            raise ValueError("errors must be finite and non-negative")
        precision = np.linalg.pinv(_row_covariance(phi, errors), hermitian=True)

    basis = circuit._triple_basis(phi)
    design = basis[:, :, 1:]
    fisher = np.einsum("kia,kij,kjb->ab", design, precision, design)
    target = np.einsum("kia,kij,kj->a", design, precision, triples - basis[:, :, 0])
    best = np.linalg.lstsq(fisher, target, rcond=None)[0]
    # How the unconstrained (q, r) at fixed s move with s.
    shift = np.linalg.pinv(fisher[1:, 1:], hermitian=True) @ fisher[1:, 0]

    names = ("phi_nl", "ell_nl", "theta_perp")[: 3 if fit_distinguishability else 2]
    s, optimum, evaluations = 1.0, _slice_minimum(fisher, best, shift, 1.0), 1
    if fit_distinguishability:
        lo, hi, ratio = 0.0, 1.0, 0.5 * (math.sqrt(5.0) - 1.0)
        for _ in range(60):  # the bracket ends 0.618^60 < 1e-12 wide
            left, right = [(x, _slice_minimum(fisher, best, shift, x))
                           for x in (hi - ratio * (hi - lo), lo + ratio * (hi - lo))]
            lo, hi = (lo, right[0]) if left[1][2] <= right[1][2] else (left[0], hi)
        evaluations += 120
        # Ties go to the endpoint theta_perp = 0.
        s, optimum = min([(s, optimum), left, right], key=lambda p: p[1][2])
    (cos_nl, t, _), cos_perp = optimum, math.sqrt(s)

    resid = basis @ circuit._triple_coefficients(cos_nl, t, cos_perp) - triples
    residual = float(np.einsum("ki,kij,kj->", resid, precision, resid))
    # Errors in (cos phi_nl, t, cos theta_perp), carried to the angles by
    # acos; d(s, q, r) / d(those) by complex steps, exact to rounding.
    point = np.array([cos_nl, t, cos_perp])
    steps = [circuit._triple_coefficients(*(point + 1e-30j * e))[1:] for e in np.eye(3)]
    jac = np.array(steps).imag.T / 1e-30
    if not fit_distinguishability:
        jac, fisher = jac[1:, :2], fisher[1:, 1:]
    x = np.array([math.acos(cos_nl), 1.0 - t, math.acos(cos_perp)])[: len(names)]
    result = _finish_fit(names, x, residual, jac.T @ (2.0 * fisher) @ jac, 2 * phi.size,
                         errors is not None, evaluations)
    # |d angle / d cosine|; ell_nl = 1 - t has slope 1, taken as infinite at t = 0.
    with np.errstate(divide="ignore"):
        slopes = 1.0 / np.sqrt(1.0 - np.array([cos_nl, float(t == 0.0), cos_perp]) ** 2)
    std = {name: math.inf if math.isinf(slope) else result.std_errors[name] * float(slope)
           for name, slope in zip(names, slopes)}
    params = dict(result.parameters)
    if fit_distinguishability:
        theta, err = params["theta_perp"], std["theta_perp"]
        params["distinguishable_fraction"] = math.sin(theta) ** 2
        std["distinguishable_fraction"] = (
            abs(math.sin(2.0 * theta)) * err if err < math.inf else err)
    return replace(result, parameters=params, std_errors=std)
