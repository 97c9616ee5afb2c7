"""The closed form of the output triple, on the standard library.

For every overlap angle the renormalized (p20, p11, p02) of the balanced
circuit is ``_OFFSET + _design(phi) @ _weights(cos phi_nl, t, cos theta_perp)``
with t = 1 - ell_nl: affine in three weights (s, q, r).  ``circuit``,
``fit`` and ``vibsim`` all evaluate it here.
"""

import math

# The (p20, p11, p02) at s = q = r = 0.
_OFFSET = (0.25, 0.5, 0.25)


def _check_domain(ell_nl: float, **angles: float) -> None:
    """Raise ``ValueError`` naming the first model parameter outside its domain.

    The domain is finite angles (phases and ``theta_perp``) and
    ``ell_nl`` in [0, 1].
    """
    for name, value in angles.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not 0.0 <= ell_nl <= 1.0:
        raise ValueError(f"ell_nl must be in [0, 1], got {ell_nl!r}")


def _design(phi: float) -> tuple[tuple[float, float, float], ...]:
    """Per-class rows d(p20, p11, p02) / d(s, q, r) at the linear phase ``phi``."""
    c1, c2 = math.cos(phi), 0.25 * (math.cos(2.0 * phi) - 1.0)
    return (0.25, c2, c1), (-0.5, -2.0 * c2, 0.0), (0.25, c2, -c1)


def _weights(cos_nl: float, t: float, cos_perp: float) -> tuple[float, float, float]:
    """s = cos^2 theta_perp, q = s u and r = t cos phi_nl cos theta_perp u, u = 1 / (1 + t^2)."""
    u = 1.0 / (1.0 + t * t)
    return cos_perp * cos_perp, cos_perp * cos_perp * u, t * cos_nl * cos_perp * u


def _jacobian(cos_nl: float, t: float, cos_perp: float) -> list[list[float]]:
    """d(s, q, r) / d(cos phi_nl, t, cos theta_perp) of ``_weights``; du/dt = -2 t u^2."""
    u = 1.0 / (1.0 + t * t)
    return [
        [0.0, 0.0, 2.0 * cos_perp],
        [0.0, -2.0 * t * u * u * cos_perp * cos_perp, 2.0 * cos_perp * u],
        [t * cos_perp * u, cos_nl * cos_perp * u * u * (1.0 - t * t), t * cos_nl * u],
    ]


def _triples(phis, phi_nls, ell_nl: float, theta_perp: float) -> list[list[float]]:
    """One (p20, p11, p02) row per pair of ``phis`` and ``phi_nls``; the caller checks the domain.

    Each cell sums as (offset + d_q q) + (d_s s + d_r r), the order of a
    numpy matmul of the basis with the weights, so artifacts keep their bytes.
    """
    t, cos_perp = 1.0 - ell_nl, math.cos(theta_perp)
    rows = []
    for phi, phi_nl in zip(phis, phi_nls):
        s, q, r = _weights(math.cos(phi_nl), t, cos_perp)
        rows.append([(o + d_q * q) + (d_s * s + d_r * r)
                     for o, (d_s, d_q, d_r) in zip(_OFFSET, _design(phi))])
    return rows
