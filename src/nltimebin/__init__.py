"""Simulation and analysis of two-mode nonlinear time-bin circuits.

The package splits into pair-state bookkeeping (``states``), spectral
scattering of pulses on a two-level emitter (``scatter``), the
interferometer measurement model (``circuit``), estimation routines
(``fit``), vibrational dynamics mapped onto the same circuit
(``vibsim``), and a command-line artifact generator (``cli``).
"""

from __future__ import annotations

import importlib

from . import circuit, scatter, states, vibsim

__all__ = ["circuit", "fit", "scatter", "states", "vibsim"]
__version__ = "0.1.0"


def __getattr__(name: str):
    # ``fit`` pulls in scipy.optimize, so it loads on first access only.
    if name == "fit":
        return importlib.import_module(f"{__name__}.fit")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
