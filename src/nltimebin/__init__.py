"""Simulation and analysis of two-mode nonlinear time-bin circuits.

The package splits into pair-state bookkeeping (``states``), spectral
scattering of pulses on a two-level emitter (``scatter``), the
interferometer measurement model (``circuit``), estimation routines
(``fit``), vibrational dynamics mapped onto the same circuit
(``vibsim``), and a command-line artifact generator (``cli``).
"""

from __future__ import annotations

from . import circuit, fit, scatter, states, vibsim

__all__ = ["circuit", "fit", "scatter", "states", "vibsim"]
__version__ = "0.1.0"
