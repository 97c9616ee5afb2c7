"""Model fitting for transmission spectra, fringes, and pair statistics.

A thin deterministic wrapper around simplex minimization plus the three
experiment-facing fits: the resonant-transmission dip of the emitter,
interference fringes of the double-pass interferometer, and the
nonlinear-phase parameters from normalized coincidence statistics.
Uncertainties come from a finite-difference quadratic expansion of the
objective at the optimum.  The simplex search is ``scipy.optimize``, the
only scipy module the package imports; the Voigt lineshape of the dip
uses the package's numpy Faddeeva function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize

from . import circuit
from .scatter import faddeeva


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of the deterministic multi-start simplex search."""

    x: np.ndarray
    fun: float
    evaluations: int
    converged: bool


def _search(
    objective,
    x0: np.ndarray,
    bounds: list[tuple[float, float]] | None = None,
    restarts: int = 3,
    seed: int = 0,
) -> MinimizeResult:
    """Simplex minimization with jittered restarts, best residual wins.

    The first start is ``x0`` itself; subsequent starts jitter the best
    point found so far with a seeded generator, so results are
    reproducible.  Raises ``ValueError`` when the objective is not
    finite at ``x0``.
    """
    x0 = np.asarray(x0, dtype=float)
    f0 = float(objective(x0))
    if not math.isfinite(f0):
        raise ValueError(f"objective is not finite at the initial point {x0!r}")
    rng = np.random.default_rng(seed)
    best_x, best_f = x0, f0
    evaluations = 0
    converged = False
    start = x0
    for attempt in range(max(1, restarts)):
        res = optimize.minimize(
            objective,
            start,
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": 1e-8, "fatol": 1e-10, "maxfev": 10000},
        )
        evaluations += int(res.nfev)
        if float(res.fun) < best_f:
            best_x, best_f = np.asarray(res.x, dtype=float), float(res.fun)
        converged = converged or bool(res.success)
        scale = 0.05 * (1.0 + np.abs(best_x))
        start = best_x + rng.normal(0.0, scale)
        if bounds is not None:
            lo = np.array([b[0] for b in bounds])
            hi = np.array([b[1] for b in bounds])
            start = np.clip(start, lo, hi)
    return MinimizeResult(x=best_x, fun=best_f, evaluations=evaluations, converged=converged)


def _hessian(objective, x: np.ndarray, rel_step: float = 1e-4) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = x.size
    h = rel_step * np.maximum(np.abs(x), 1e-2)
    hess = np.empty((n, n))
    f0 = float(objective(x))

    def at(shift):
        return float(objective(x + shift))

    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        hess[i, i] = (at(ei) - 2.0 * f0 + at(-ei)) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                at(ei + ej) - at(ei - ej) - at(-ei + ej) + at(-ei - ej)
            ) / (4.0 * h[i] * h[j])
    return hess


def _covariance(
    objective,
    x: np.ndarray,
    names: tuple[str, ...],
    scale: float,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Parameter covariance ``2 * scale * H^-1`` with flat directions flagged.

    ``scale`` is one for a variance-weighted objective and the residual
    variance estimate for a plain sum of squares.
    """
    hess = _hessian(objective, x)
    eigvals, eigvecs = np.linalg.eigh(hess)
    floor = 1e-10 * max(1.0, float(np.max(np.abs(eigvals))))
    flat = eigvals <= floor
    unidentifiable: list[str] = []
    for k in np.nonzero(flat)[0]:
        unidentifiable.append(names[int(np.argmax(np.abs(eigvecs[:, k])))])
    inv = np.zeros_like(hess)
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
    objective,
    outcome: MinimizeResult,
    names: tuple[str, ...],
    n_points: int,
    weighted: bool,
) -> FitResult:
    n_params = outcome.x.size
    std: dict[str, float] = {}
    unidentifiable: tuple[str, ...] = ()
    if outcome.converged:
        dof = max(n_points - n_params, 1)
        scale = 1.0 if weighted else outcome.fun / dof
        cov, unidentifiable = _covariance(objective, outcome.x, names, scale)
        errors = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        for k, name in enumerate(names):
            std[name] = math.inf if name in unidentifiable else float(errors[k])
    return FitResult(
        parameters={name: float(outcome.x[k]) for k, name in enumerate(names)},
        std_errors=std,
        residual=outcome.fun,
        converged=outcome.converged,
        evaluations=outcome.evaluations,
        unidentifiable=unidentifiable,
    )


def minimize(
    objective,
    x0: np.ndarray,
    bounds: list[tuple[float, float]] | None = None,
    restarts: int = 3,
    seed: int = 0,
    names: tuple[str, ...] | None = None,
) -> FitResult:
    """Minimize a scalar objective and report curvature-based errors.

    Parameters are named ``x0, x1, ...`` unless ``names`` overrides
    them.  Standard errors treat the objective as a chi-squared
    surface, so they are only meaningful for such objectives.
    """
    x0 = np.asarray(x0, dtype=float)
    outcome = _search(objective, x0, bounds=bounds, restarts=restarts, seed=seed)
    if names is None:
        names = tuple(f"x{k}" for k in range(x0.size))
    return _finish_fit(objective, outcome, names, x0.size, True)


# ---------------------------------------------------------------------------
# Resonant transmission spectrum


@dataclass(frozen=True)
class QDCharacterization:
    """Emitter parameters entering the transmission dip.

    ``gamma`` and ``gamma_d`` are the radiative and pure-dephasing
    rates, ``sigma_sd`` the RMS of slow Gaussian spectral wandering,
    all in the same frequency units as the spectrum axis;
    ``saturation`` is the ratio of non-coupled to coupled excitation.
    """

    beta: float
    gamma: float = 1.0
    gamma_d: float = 0.0
    sigma_sd: float = 0.0
    saturation: float = 0.0

    def validate(self) -> None:
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
    evaluated exactly.
    """
    qd.validate()
    omega = np.asarray(omega, dtype=float)
    scalar = omega.ndim == 0
    w = np.atleast_1d(omega)
    half = qd.gamma_fwhm / 2.0
    if qd.sigma_sd == 0.0:
        profile = half * half / (w * w + half * half)
    else:
        scale = math.sqrt(2.0) * qd.sigma_sd
        profile = faddeeva((w + 1j * half) / scale).real / faddeeva(1j * half / scale).real
    result = 1.0 - qd.depth * profile
    return float(result[0]) if scalar else result


def fit_rt(
    omega: np.ndarray,
    transmission: np.ndarray,
    qd_template: QDCharacterization | None = None,
    errors: np.ndarray | None = None,
    fit_linewidth: bool = False,
) -> FitResult:
    """Fit dip depth and spectral wandering of a transmission spectrum.

    ``qd_template`` fixes dephasing and saturation; ``fit_linewidth``
    additionally frees the dephasing rate.  Reports the derived
    ``gamma_fwhm`` alongside the fitted parameters.
    """
    omega = np.asarray(omega, dtype=float)
    transmission = np.asarray(transmission, dtype=float)
    if omega.shape != transmission.shape:
        raise ValueError("omega and transmission must have matching shapes")
    if omega.size < 8:
        raise ValueError("need at least 8 spectrum points spanning the dip")
    if qd_template is None:
        qd_template = QDCharacterization(beta=0.5)
    weights = None if errors is None else 1.0 / np.asarray(errors, dtype=float) ** 2

    names: tuple[str, ...] = ("beta", "sigma_sd")
    scale = qd_template.gamma
    bounds = [(0.0, 1.0), (0.0, 50.0 * scale)]
    if fit_linewidth:
        names = names + ("gamma_d",)
        bounds.append((0.0, 50.0 * scale))

    def build(x) -> QDCharacterization:
        # Finite-difference probes around a boundary optimum may step
        # outside the box; evaluate at the clipped point.
        kwargs = {
            "beta": min(max(float(x[0]), 0.0), 1.0),
            "sigma_sd": max(float(x[1]), 0.0),
        }
        if fit_linewidth:
            kwargs["gamma_d"] = max(float(x[2]), 0.0)
        return replace(qd_template, **kwargs)

    def objective(x):
        resid = rt_spectrum(omega, build(x)) - transmission
        if weights is None:
            return float(np.sum(resid**2))
        return float(np.sum(weights * resid**2))

    depth0 = min(0.999, max(1e-3, 1.0 - float(transmission.min())))
    dephasing_factor = (1.0 + 2.0 * qd_template.gamma_d / scale) * (1.0 + qd_template.saturation)
    beta0 = 1.0 - math.sqrt(max(0.0, 1.0 - min(1.0, depth0 * dephasing_factor)))
    beta0 = min(0.999, max(1e-3, beta0))
    # Half width at half depth as the wandering scale seed.
    level = 1.0 - 0.5 * depth0
    above = omega[transmission >= level]
    w_half = float(np.min(np.abs(above))) if above.size else scale
    sigma0 = max(0.05 * scale, 0.5 * w_half)
    x0 = [beta0, sigma0] + ([qd_template.gamma_d or 0.1 * scale] if fit_linewidth else [])

    outcome = _search(objective, np.asarray(x0), bounds=bounds)
    result = _finish_fit(objective, outcome, names, omega.size, weights is not None)
    fitted = build(outcome.x)
    params = dict(result.parameters)
    std = dict(result.std_errors)
    params["gamma_fwhm"] = fitted.gamma_fwhm
    if std:
        if fit_linewidth:
            std["gamma_fwhm"] = std["gamma_d"] * math.sqrt(1.0 + fitted.saturation)
        else:
            std["gamma_fwhm"] = 0.0
    return replace(result, parameters=params, std_errors=std)


# ---------------------------------------------------------------------------
# Interference fringes


def fit_fringe(
    phi: np.ndarray,
    values: np.ndarray,
    errors: np.ndarray | None = None,
) -> FitResult:
    """Fit ``offset + amplitude * cos(2 phi - 2 phi0)`` to fringe data.

    Reports the derived visibility ``amplitude / offset``.  For flat
    data the fringe phase carries no information and is flagged
    unidentifiable with an infinite standard error.
    """
    phi = np.asarray(phi, dtype=float)
    values = np.asarray(values, dtype=float)
    if phi.shape != values.shape:
        raise ValueError("phi and values must have matching shapes")
    if phi.size and float(phi.max() - phi.min()) < math.pi - 1e-9:
        raise ValueError("phase sweep must cover at least one full fringe period")
    weights = None if errors is None else 1.0 / np.asarray(errors, dtype=float) ** 2

    # Linear seed: values ~ offset + a cos(2 phi) + b sin(2 phi).
    design = np.column_stack([np.ones_like(phi), np.cos(2.0 * phi), np.sin(2.0 * phi)])
    coeff, *_ = np.linalg.lstsq(design, values, rcond=None)
    offset0, a0, b0 = (float(c) for c in coeff)
    amp0 = math.hypot(a0, b0)
    phi00 = 0.5 * math.atan2(b0, a0)

    names = ("amplitude", "phi0", "offset")

    def objective(x):
        model = x[2] + x[0] * np.cos(2.0 * phi - 2.0 * x[1])
        resid = model - values
        if weights is None:
            return float(np.sum(resid**2))
        return float(np.sum(weights * resid**2))

    outcome = _search(objective, np.array([amp0, phi00, offset0]))
    x = outcome.x.copy()
    # Normalize: non-negative amplitude, phase folded into (-pi/2, pi/2].
    if x[0] < 0.0:
        x[0] = -x[0]
        x[1] += 0.5 * math.pi
    x[1] = math.remainder(x[1], math.pi)
    outcome = MinimizeResult(x=x, fun=outcome.fun, evaluations=outcome.evaluations,
                             converged=outcome.converged)
    result = _finish_fit(objective, outcome, names, phi.size, weights is not None)

    params = dict(result.parameters)
    std = dict(result.std_errors)
    amplitude, offset = params["amplitude"], params["offset"]
    visibility = math.inf if offset == 0.0 else amplitude / offset
    params["visibility"] = visibility
    unident = result.unidentifiable
    if std:
        if offset == 0.0:
            vis_err = math.inf
        else:
            cov, _ = _covariance(
                objective, outcome.x, names,
                1.0 if weights is not None else outcome.fun / max(phi.size - 3, 1),
            )
            grad = np.array([1.0 / offset, 0.0, -amplitude / offset**2])
            vis_err = float(math.sqrt(max(0.0, grad @ cov @ grad)))
        std["visibility"] = vis_err
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


def fit_nl(
    phi: np.ndarray,
    triples: np.ndarray,
    errors: np.ndarray | None = None,
    fit_distinguishability: bool = False,
) -> FitResult:
    """Fit the nonlinear phase and pair loss to normalized statistics.

    ``triples`` holds one renormalized (p20, p11, p02) row per phase;
    ``errors`` optionally supplies matching standard errors for a
    covariance-weighted objective.  A renormalized row sums to one, so
    its three residuals are fully correlated and carry two independent
    components: each phase's covariance C is rebuilt from the three
    marginal errors and the objective is the chi-square ``r^T C^+ r``.
    Directions C does not span, such as a class with zero error, carry
    no weight.  Without errors the objective is the plain sum of
    squares with two degrees of freedom per phase.
    ``fit_distinguishability`` frees the overlap rotation angle and also
    reports the derived distinguishable population fraction.
    """
    phi = np.asarray(phi, dtype=float)
    triples = np.asarray(triples, dtype=float)
    if triples.shape != (phi.size, 3):
        raise ValueError("triples must have shape (len(phi), 3)")
    if phi.size < 8:
        raise ValueError("need at least 8 phase points")
    precision = None
    if errors is not None:
        errors = np.asarray(errors, dtype=float)
        if errors.shape != triples.shape:
            raise ValueError("errors must match the shape of triples")
        if not np.all(np.isfinite(errors) & (errors >= 0.0)):
            raise ValueError("errors must be finite and non-negative")
        precision = np.linalg.pinv(_row_covariance(phi, errors), hermitian=True)

    names: tuple[str, ...] = ("phi_nl", "ell_nl")
    bounds = [(0.0, math.pi), (0.0, 1.0)]
    if fit_distinguishability:
        names = names + ("theta_perp",)
        bounds.append((0.0, 0.5 * math.pi))

    def objective(x):
        theta = float(x[2]) if fit_distinguishability else 0.0
        # Finite-difference probes around a boundary optimum may step
        # outside the box; evaluate at the clipped point.
        ell = min(max(float(x[1]), 0.0), 1.0)
        model = circuit.model_triple(phi, float(x[0]), ell, theta)
        resid = model - triples
        if precision is None:
            return float(np.sum(resid**2))
        return float(np.einsum("ki,kij,kj->", resid, precision, resid))

    # Coarse deterministic probe to seed the simplex.
    probe_phi = np.linspace(0.0, math.pi, 13)
    probe_ell = np.linspace(0.0, 0.9, 7)
    best = (math.inf, 0.5, 0.1)
    for p in probe_phi:
        for e in probe_ell:
            val = objective([p, e] + ([0.0] if fit_distinguishability else []))
            if val < best[0]:
                best = (val, float(p), float(e))
    x0 = [best[1], best[2]] + ([0.1] if fit_distinguishability else [])

    outcome = _search(objective, np.asarray(x0), bounds=bounds)
    result = _finish_fit(objective, outcome, names, 2 * phi.size, precision is not None)
    if fit_distinguishability:
        params = dict(result.parameters)
        std = dict(result.std_errors)
        theta = params["theta_perp"]
        params["distinguishable_fraction"] = math.sin(theta) ** 2
        if std:
            err = std["theta_perp"]
            std["distinguishable_fraction"] = (
                math.inf if math.isinf(err) else abs(math.sin(2.0 * theta)) * err
            )
        result = replace(result, parameters=params, std_errors=std)
    return result
