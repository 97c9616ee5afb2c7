"""Simulation and analysis of two-mode nonlinear time-bin circuits.

The package splits into spectral scattering of pulses on a two-level
emitter (``scatter``), the interferometer measurement model and its
two-photon statistics (``circuit``), estimation routines
(``fit``, on the standard library), vibrational dynamics mapped onto
the same circuit (``vibsim``, on the standard library), and a
command-line artifact generator (``cli``).  ``circuit``, ``fit`` and
``vibsim`` share one closed form of the output triple, the private
``_triple``.  Submodules load on first attribute access.  The CLI
imports only the standard library up front and loads the modules a
subcommand uses once its flags are checked, so ``--help`` and flag
errors run without numpy, and so do ``fit`` and ``water``.
"""

from __future__ import annotations

__all__ = ["circuit", "fit", "scatter", "vibsim"]
__version__ = "0.1.0"

# Speed of light in cm/s: converts wavenumbers (cm^-1) to frequencies.
SPEED_OF_LIGHT_CM = 2.99792458e10


def __getattr__(name: str):
    # ``__import__``, not ``importlib.import_module``: only imports through
    # ``__import__`` show in the ``python -X importtime`` log perfbench reads.
    if name in __all__:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
