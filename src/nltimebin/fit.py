"""Transmission-dip lineshape and model fits for fringes and pair statistics.

The emitter's resonant-transmission dip and the experiment-facing fits
of the interference fringes and the nonlinear-phase parameters.  Fringes
and pair statistics are linear in at most three coefficients and fitted
by direct solves written on the standard library, so a fit never loads
numpy; only ``rt_spectrum`` imports numpy and ``scatter``, inside its
body.  Every solve goes through one small symmetric eigen-solve.
Uncertainties are the delta method on the Fisher matrix at the optimum,
infinite where the map to a reported parameter is infinitely steep.
Both fits turn their curvature into errors and unidentifiable flags
through one routine, ``_covariance``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from ._triple import _OFFSET, _design, _jacobian, _weights

_EPS = sys.float_info.epsilon
# Standard errors whose weights 1 / e^2, and sums of them, are finite and nonzero.
_ERROR_MIN, _ERROR_MAX = 1e-100, 1e100


# ---------------------------------------------------------------------------
# Small dense linear algebra


def _eigh(matrix) -> tuple[list[float], list[list[float]]]:
    """Ascending eigenvalues and unit eigenvectors (columns) of a small symmetric matrix.

    Cyclic Jacobi rotations (Golub and Van Loan, *Matrix Computations*,
    section 8.5), each of which zeroes one off-diagonal entry, until every
    off-diagonal entry is negligible next to its two diagonal ones.  A
    2x2 matrix takes one rotation.
    """
    n = len(matrix)
    # The lower triangle only, as np.linalg.eigh reads it.
    a = [[float(matrix[max(i, j)][min(i, j)]) for j in range(n)] for i in range(n)]
    vectors = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(30):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0 or abs(apq) <= 1e-18 * (abs(a[p][p]) + abs(a[q][q])):
                    continue
                rotated = True
                tau = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0 / (abs(tau) + math.hypot(1.0, tau)), tau)
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for row in a + vectors:
                    rp, rq = row[p], row[q]
                    row[p], row[q] = c * rp - s * rq, s * rp + c * rq
                a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                              [s * x + c * y for x, y in zip(a[p], a[q])])
                a[p][q] = a[q][p] = 0.0
        if not rotated:
            break
    order = sorted(range(n), key=lambda k: a[k][k])
    return [a[k][k] for k in order], [[row[k] for k in order] for row in vectors]


def _inverse(values, vectors, keep) -> list[list[float]]:
    """``sum v v^T / w`` over the eigenpairs (w, v) that ``keep`` marks."""
    inverse = [1.0 / w if k else 0.0 for w, k in zip(values, keep)]
    return [[sum(vi * w * vj for vi, w, vj in zip(row_i, inverse, row_j)) for row_j in vectors]
            for row_i in vectors]


def _pinv(matrix, rcond: float) -> list[list[float]]:
    """Pseudo-inverse of a small symmetric matrix.

    Eigenvalues of magnitude at most ``rcond`` times the largest one
    count as zero, as in ``np.linalg.pinv(..., hermitian=True)``.
    """
    values, vectors = _eigh(matrix)
    cutoff = rcond * max(abs(w) for w in values)
    return _inverse(values, vectors, [abs(w) > cutoff for w in values])


def _apply(matrix, vector) -> list[float]:
    return [sum(m * v for m, v in zip(row, vector)) for row in matrix]


def _curvature(jac, fisher) -> list[list[float]]:
    """Half the Hessian, ``J^T F J``, of a chi-square whose linear weights move by ``J``."""
    columns = list(zip(*jac))
    fj = [_apply(fisher, col) for col in columns]
    return [[sum(a * b for a, b in zip(col, f)) for f in fj] for col in columns]


def _normal_equations(rows) -> tuple[list[list[float]], list[float]]:
    """``sum w a a^T`` and ``sum w v a`` over weighted rows (a, v, w) of a linear model."""
    n = len(rows[0][0])
    matrix = [[0.0] * n for _ in range(n)]
    moment = [0.0] * n
    for a, v, w in rows:
        for i in range(n):
            wa = w * a[i]
            moment[i] += wa * v
            row = matrix[i]
            for j in range(i, n):
                row[j] += wa * a[j]
    for i in range(n):
        for j in range(i):
            matrix[i][j] = matrix[j][i]
    return matrix, moment


def _chi_square(rows, x) -> float:
    """``sum w (a . x - v)^2`` over weighted rows (a, v, w)."""
    return sum(w * (sum(ai * xi for ai, xi in zip(a, x)) - v) ** 2 for a, v, w in rows)


def _floats(values) -> list[float]:
    """The entries of a flat sequence of numbers, or a lone number, as floats."""
    try:
        return [float(v) for v in values]
    except TypeError:
        return [float(values)]


def _covariance(curvature, grads, scale: float) -> tuple[list[float], list[bool]]:
    """Standard errors of the quantities with gradients ``grads``, flat ones flagged.

    ``curvature`` is half the chi-square's Hessian H, and ``scale`` is
    one for a variance-weighted objective and the residual variance
    estimate for a plain sum of squares.  H is flat along each
    eigenvector whose eigenvalue is at most 1e-10 times its largest,
    whatever the data's scale.  A quantity whose gradient has a
    component above 1e-8 of its length on such a direction is flagged,
    with an infinite error; every other error is the delta method
    ``sqrt(g^T scale H^+ g)``.
    """
    values, vectors = _eigh(curvature)
    floor = 1e-10 * max(abs(w) for w in values)
    keep = [w > floor for w in values]
    flat = [[row[k] for row in vectors] for k, kept in enumerate(keep) if not kept]
    inverse = _inverse(values, vectors, keep)
    errors, flagged = [], []
    for g in grads:
        # A unit eigenvector's entries round at about 1e-16, so a component
        # above 1e-8 is a true share of the quantity in the flat direction.
        size = math.sqrt(sum(x * x for x in g))
        flagged.append(any(abs(sum(x * y for x, y in zip(g, v))) > 1e-8 * size for v in flat))
        variance = scale * sum(x * y for x, y in zip(g, _apply(inverse, g)))
        errors.append(math.inf if flagged[-1] else math.sqrt(max(variance, 0.0)))
    return errors, flagged


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


def rt_spectrum(omega, qd: QDCharacterization):
    """Resonant-transmission spectrum of the emitter.

    A Lorentzian dip of fractional depth ``qd.depth`` and half width
    ``gamma_fwhm / 2`` convolved with the spectral-wandering Gaussian of
    RMS ``sigma_sd``: the Voigt profile ``Re w((omega + i half) /
    (sqrt(2) sigma_sd))`` of the Faddeeva function w, divided by its
    value at omega = 0 so the on-resonance value stays ``1 - depth``
    for any wandering width.  Without wandering the Lorentzian is
    evaluated exactly.  ``omega`` must be finite; otherwise it raises
    ``ValueError`` naming it.  Returns a float for a scalar ``omega``
    and a numpy array otherwise.
    """
    import numpy as np

    from . import circuit
    from .scatter import faddeeva

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


def _check_error_scale(errors) -> None:
    for e in errors:
        if not _ERROR_MIN <= e <= _ERROR_MAX:
            raise ValueError(f"errors must be in [{_ERROR_MIN:.0e}, {_ERROR_MAX:.0e}], got {e!r}")


def _checked_series(x, y, errors, names: str) -> tuple[list[float], list[float], list[float]]:
    """Float lists ``x`` and ``y`` and the weights 1 / ``errors``^2.

    The weights are ones when ``errors`` is None.  Raises ``ValueError``
    unless ``x`` and ``y`` (together ``names``) have one length with at
    least 8 finite points, and ``errors``, if given, is one number or
    one per point, in [1e-100, 1e100].
    """
    x, y = _floats(x), _floats(y)
    if len(x) != len(y):
        raise ValueError(f"{names} must have matching shapes")
    if len(x) < 8:
        raise ValueError(f"need at least 8 points, got {len(x)}")
    if not all(map(math.isfinite, x + y)):
        raise ValueError(f"{names} must be finite")
    if errors is None:
        return x, y, [1.0] * len(x)
    errors = _floats(errors)
    if len(errors) == 1:
        errors *= len(x)
    if len(errors) != len(x):
        raise ValueError(f"errors of length {len(errors)} do not broadcast to {len(x)} points")
    if not all(math.isfinite(e) and e > 0.0 for e in errors):
        raise ValueError("errors must be finite and positive")
    _check_error_scale(errors)
    return x, y, [1.0 / (e * e) for e in errors]


def fit_fringe(phi, values, errors=None) -> FitResult:
    """Fit ``offset + amplitude * cos(2 phi - 2 phi0)`` to fringe data.

    One weighted linear least-squares solve in (offset, amplitude cos 2
    phi0, amplitude sin 2 phi0).  Reports the derived visibility
    ``amplitude / offset``.  A reported value that moves along a direction
    of (offset, a, b) the data leave flat gets an infinite error, and a
    parameter that does is flagged unidentifiable: all three at phases 0
    and pi alone.  So is the fringe phase of data whose amplitude is at
    most 1e-12 of their offset, flat on their own scale.

    Valid domain: at least 8 finite points whose phases span a full
    fringe period (pi), and ``errors``, if given, in [1e-100, 1e100];
    anything else raises ``ValueError``.
    """
    phi, values, weights = _checked_series(phi, values, errors, "phi and values")
    if max(phi) - min(phi) < math.pi - 1e-9:
        raise ValueError("phase sweep must cover at least one full fringe period")

    rows = [((1.0, math.cos(2.0 * p), math.sin(2.0 * p)), v, w)
            for p, v, w in zip(phi, values, weights)]
    normal, moment = _normal_equations(rows)
    # The singular-value cutoff of np.linalg.lstsq(rcond=None), squared for the normal matrix.
    coeff = _apply(_pinv(normal, (_EPS * max(len(phi), 3)) ** 2), moment)
    offset, a, b = coeff
    amplitude = math.hypot(a, b)
    phi0 = 0.5 * math.atan2(b, a)
    residual = _chi_square(rows, coeff)

    names = ("amplitude", "phi0", "offset")
    scale = 1.0 if errors is not None else residual / max(len(phi) - 3, 1)
    # Gradients in (offset, a, b) of amplitude, 2 amplitude * phi0, offset and visibility.
    cos2, sin2 = math.cos(2.0 * phi0), math.sin(2.0 * phi0)
    grads = [(0.0, cos2, sin2), (0.0, -sin2, cos2), (1.0, 0.0, 0.0)]
    if offset != 0.0:
        grads.append((-amplitude / offset**2, cos2 / offset, sin2 / offset))
    std, flagged = _covariance(normal, grads, scale)
    # Data flat on their own scale leave the fringe phase free.
    flagged[1] = flagged[1] or amplitude <= 1e-12 * abs(offset)
    unidentifiable = tuple(name for name, f in zip(names, flagged) if f)
    std[1] = math.inf if flagged[1] else std[1] / (2.0 * amplitude)
    visibility, visibility_error = (amplitude / offset, std[3]) if offset != 0.0 else (math.inf,) * 2
    return FitResult(dict(zip(names, (amplitude, phi0, offset)), visibility=visibility),
                     dict(zip(names, std), visibility=visibility_error), residual,
                     converged=True, evaluations=1, unidentifiable=unidentifiable)


# ---------------------------------------------------------------------------
# Nonlinear-phase statistics

# An orthonormal basis of the plane normal to (1, 1, 1), where every
# row covariance lives.
_PLANE = ((math.sqrt(0.5), -math.sqrt(0.5), 0.0),
          (1.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), -2.0 / math.sqrt(6.0)))


def _row_covariance(phi, errors) -> list[list[list[float]]]:
    """Per-phase 3x3 covariance of a renormalized triple from its marginal errors.

    The three entries of a row sum to one, so the row's covariance is
    fixed by its three standard errors: ``C_ii = s_i^2`` and ``C_ij =
    (s_k^2 - s_i^2 - s_j^2) / 2`` for the remaining class k.  With
    binomial marginals this is the multinomial covariance ``-p_i p_j /
    N``.  Such a covariance exists only when the errors obey the
    triangle inequality; a row that breaks it by more than rounding
    raises ``ValueError`` naming its phase.
    """
    covariances = []
    for p, row in zip(_floats(phi), errors):
        row = _floats(row)
        total = row[0] + row[1] + row[2]
        # The slack is far above rounding and far below a real inconsistency.
        if 2.0 * max(row) - total > 1e-9 * total:
            raise ValueError(f"errors {row} at phi={p:.6g} break the triangle "
                             "inequality of a normalized row")
        var = [e * e for e in row]
        half = (var[0] + var[1] + var[2]) / 2.0
        covariances.append([[vi if i == j else half - vi - vj for j, vj in enumerate(var)]
                            for i, vi in enumerate(var)])
    return covariances


def _row_precision(covariance) -> list[tuple[tuple[float, float, float], float]]:
    """The pseudo-inverse of a row covariance as directions u and weights w: ``sum w u u^T``.

    A covariance C has C (1, 1, 1) = 0, so C^+ is the inverse of its 2x2
    block in ``_PLANE``.  Eigenvalues at most 1e-15 times the largest
    magnitude count as zero, as small ones do in ``np.linalg.pinv``: a
    direction without error carries no weight, and neither does a
    negative eigenvalue, which a row inside the triangle-inequality slack
    of ``_row_covariance`` can have.
    """
    block = [[sum(ei * sum(c * fj for c, fj in zip(row, f)) for ei, row in zip(e, covariance))
              for f in _PLANE] for e in _PLANE]
    values, vectors = _eigh(block)
    cutoff = 1e-15 * max(abs(w) for w in values)
    return [(tuple(vectors[0][k] * x + vectors[1][k] * y for x, y in zip(*_PLANE)), 1.0 / w)
            for k, w in enumerate(values) if w > cutoff]


def _slice(fisher, best, s: float) -> tuple[float, float, float]:
    """(cos phi_nl, t, m'(s)) at the chi-square minimum m(s) over the slice at fixed s.

    With q = s u and r = sqrt(s) rho the physical (u, rho) fill the fixed
    half-disk (u - 1/2)^2 + rho^2 <= 1/4, u >= 1/2, and the excess over
    the unconstrained minimum ``best`` is a quadratic in z = (u - 1/2, rho)
    with Hessian G = S F_qr S, S = diag(s, sqrt(s)).  Its minimum over the
    disk is z(mu) = (G + mu)^+ g: the pseudo-inverse point mu = 0 if
    inside, else the mu > 0 with |z(mu)| = 1/2 (More and Sorensen 1983),
    reached by Newton steps on 1/|z(mu)|, which is concave, so they climb
    from mu = 0 without overshooting.  A minimum with u < 1/2 moves to
    the chord u = 1/2.  The constraints do not depend on s, so m'(s) is
    the chi-square's own derivative along (1, u, rho / 2 sqrt(s)).
    """
    c = math.sqrt(s)
    g_uu, g_ur, g_rr = s * s * fisher[1][1], s * c * fisher[1][2], s * fisher[2][2]
    # -1/2 the excess's gradient at the disk's centre z = 0.
    centre = _apply(fisher, [s - best[0], 0.5 * s - best[1], -best[2]])
    g = [-s * centre[1], -c * centre[2]]
    values, vectors = _eigh([[g_uu, g_ur], [g_ur, g_rr]])
    gamma = [vectors[0][k] * g[0] + vectors[1][k] * g[1] for k in range(2)]
    mu, cutoff = 0.0, 1e-15 * values[1]
    for _ in range(100):
        z = [y / (w + mu) if w + mu > cutoff else 0.0 for y, w in zip(gamma, values)]
        norm = math.hypot(*z)
        if norm <= 0.5 and mu == 0.0:
            break
        step = (2.0 * norm - 1.0) * norm * norm / sum(
            zk * zk / (w + mu) for zk, w in zip(z, values) if zk)
        if mu + step <= mu:
            break
        mu += step
    if mu > 0.0:
        z = [0.5 * zk / norm for zk in z]
    u = min(0.5 + vectors[0][0] * z[0] + vectors[0][1] * z[1], 1.0)
    rho = vectors[1][0] * z[0] + vectors[1][1] * z[1]
    if u < 0.5:
        # The chord, where t = 1 and cos phi_nl = 2 rho.
        u, mu, rho = 0.5, 0.0, min(max(g[1] / g_rr, -0.5), 0.5) if g_rr > 0.0 else 0.0
    if mu > 0.0:
        # On the arc rho^2 = u (1 - u): |cos phi_nl| = 1 and t = |rho| / u.
        cos_nl, t = (1.0 if rho >= 0.0 else -1.0), abs(rho) / u
    else:
        t = math.sqrt((1.0 - u) / u)
        cos_nl = min(max(rho / (t * u), -1.0), 1.0) if t > 0.0 else 1.0
    x, along = (s, s * u, c * rho), (1.0, u, 0.5 * rho / c)
    grad = _apply(fisher, [xi - bi for xi, bi in zip(x, best)])
    slope = 2.0 * sum(d * a for d, a in zip(grad, along))
    # A slope within the rounding of x and best is zero, as on noiseless data at s = 1.
    noise = 8.0 * _EPS * sum(abs(a) * sum(abs(f) * (abs(xi) + abs(bi)) for f, xi, bi
                                          in zip(row, x, best)) for a, row in zip(along, fisher))
    return cos_nl, t, slope if abs(slope) > noise else 0.0


def fit_nl(phi, triples, errors=None, fit_distinguishability: bool = False) -> FitResult:
    """Fit the nonlinear phase and pair loss to normalized statistics.

    ``triples`` holds one renormalized (p20, p11, p02) row per phase and
    ``errors`` optional matching standard errors.  A row must sum to one
    within 1e-5, which admits rows written to six decimals (off by up to
    1.5e-6); a row off by more raises ``ValueError`` naming its phase.
    Each phase's covariance C is rebuilt from its three marginal errors,
    which fix it for a row that sums to one, and the objective is the
    chi-square ``r^T C^+ r``; directions C does not span, such as a class
    with zero error, carry no weight.  Each error is 0 or in [1e-100,
    1e100], and some phase must keep a weight; other errors raise
    ``ValueError``.  Without errors it is the plain sum of squares with
    two degrees of freedom per phase.
    ``fit_distinguishability`` frees the overlap rotation angle and
    reports the distinguishable fraction.

    The model, ``_triple``'s closed form, is affine in three weights (s, q, r)
    whose physical values form a convex set: one generalized-least-squares
    solve, then the exact minimum over the slice at s = cos^2 theta_perp
    (``_slice``).  The plain fit is the slice s = 1.  The slice minimum
    m(s) is convex, so the free fit keeps s = 1 if m'(1) <= 0 and else
    bisects on the sign of m' down to a bracket one ulp of 1 wide.
    ``evaluations`` counts slice solves: 1 for the plain fit, 1 plus the
    bisection steps (0 or 52) for the free fit; ``converged`` is always
    true.  When every slope is positive the fit takes the bound s = 0,
    theta_perp = pi/2, where phi_nl and ell_nl are unidentifiable.
    Errors are the delta method on the inverse Fisher matrix; a parameter
    pinned where the inverse map is infinitely steep (phi_nl at 0 or pi,
    theta_perp at 0 or pi/2, ell_nl at 1) gets an infinite one.
    ``unidentifiable`` names parameters the data leave flat, such as
    phi_nl as ell_nl nears 1.
    """
    phi = _floats(phi)
    triples = [_floats(row) for row in triples]
    if len(triples) != len(phi) or any(len(row) != 3 for row in triples):
        raise ValueError("triples must have shape (len(phi), 3)")
    if len(phi) < 8:
        raise ValueError("need at least 8 phase points")
    if not all(math.isfinite(v) for row in triples for v in row):
        raise ValueError("triples must be finite")
    for p, row in zip(phi, triples):
        total = row[0] + row[1] + row[2]
        if abs(total - 1.0) > 1e-5:
            raise ValueError(f"triples at phi={p:.6g} sum to {total!r}, not 1")
    unit = [((1.0, 0.0, 0.0), 1.0), ((0.0, 1.0, 0.0), 1.0), ((0.0, 0.0, 1.0), 1.0)]
    precisions = [unit] * len(phi)
    if errors is not None:
        errors = [_floats(row) for row in errors]
        if len(errors) != len(phi) or any(len(row) != 3 for row in errors):
            raise ValueError("errors must match the shape of triples")
        if not all(math.isfinite(e) and e >= 0.0 for row in errors for e in row):
            raise ValueError("errors must be finite and non-negative")
        _check_error_scale(e for row in errors for e in row if e > 0.0)
        precisions = [_row_precision(c) for c in _row_covariance(phi, errors)]
        if not any(precisions):
            raise ValueError("errors give no phase any weight")
    for p in phi:
        if not math.isfinite(p):
            raise ValueError(f"phi must be finite, got {p!r}")

    # The chi-square as weighted rows over (s, q, r): one per precision direction u.
    rows = []
    for p, y, precision in zip(phi, triples, precisions):
        design = _design(p)
        data = [yi - oi for yi, oi in zip(y, _OFFSET)]
        for u, w in precision:
            rows.append((tuple(sum(ui * d[k] for ui, d in zip(u, design)) for k in range(3)),
                         sum(ui * di for ui, di in zip(u, data)), w))
    fisher, target = _normal_equations(rows)
    # The cutoff of np.linalg.lstsq(rcond=None) on a 3x3 matrix.
    best = _apply(_pinv(fisher, 3.0 * _EPS), target)

    names = ("phi_nl", "ell_nl", "theta_perp")[: 3 if fit_distinguishability else 2]
    s, (cos_nl, t, slope), evaluations = 1.0, _slice(fisher, best, 1.0), 1
    if fit_distinguishability and slope > 0.0:
        # m(s) is convex: bisect on the sign of its slope, s staying the
        # bracket's upper end, until the bracket is one ulp of 1 wide.
        lo = 0.0
        while s - lo > _EPS:
            mid = 0.5 * (lo + s)
            trial, evaluations = _slice(fisher, best, mid), evaluations + 1
            # A zero slope goes to the end theta_perp = 0.
            if trial[2] <= 0.0:
                lo = mid
            else:
                s, (cos_nl, t, _) = mid, trial
        if lo == 0.0:
            # Every slope was positive: the minimum is at the bound s = 0,
            # where the rows carry no information on phi_nl or ell_nl.
            s = 0.0
    cos_perp = math.sqrt(s)

    residual = _chi_square(rows, _weights(cos_nl, t, cos_perp))
    # Errors in (cos phi_nl, t, cos theta_perp), carried to the angles by acos.
    jac = _jacobian(cos_nl, t, cos_perp)
    if not fit_distinguishability:
        jac, fisher = [row[:2] for row in jac[1:]], [row[1:] for row in fisher[1:]]
    scale = 1.0 if errors is not None else residual / max(2 * len(phi) - len(names), 1)
    axes = range(len(names))
    cosine_errors, flagged = _covariance(_curvature(jac, fisher),
                                         [[float(i == j) for j in axes] for i in axes], scale)
    unidentifiable = tuple(name for name, f in zip(names, flagged) if f)
    # |d angle / d cosine| = 1 / sine, and ell_nl = 1 - t has slope 1; each is
    # taken as infinite at its steep bound: t = 0 for ell_nl, s = 0 for theta_perp.
    cosines = (cos_nl, float(t == 0.0), cos_perp if s > 0.0 else 1.0)
    parameters, std_errors = {}, {}
    for name, value, error, cosine in zip(
            names, (math.acos(cos_nl), 1.0 - t, math.acos(cos_perp)), cosine_errors, cosines):
        sine_sq = 1.0 - cosine * cosine
        parameters[name] = value
        std_errors[name] = error * (1.0 / math.sqrt(sine_sq)) if sine_sq > 0.0 else math.inf
    if fit_distinguishability:
        theta, err = parameters["theta_perp"], std_errors["theta_perp"]
        parameters["distinguishable_fraction"] = math.sin(theta) ** 2
        std_errors["distinguishable_fraction"] = (
            abs(math.sin(2.0 * theta)) * err if err < math.inf else err)
    return FitResult(parameters, std_errors, residual, converged=True,
                     evaluations=evaluations, unidentifiable=unidentifiable)
