"""Close the loop from pulse parameters to fitted nonlinearity.

Characterizes a pulse, synthesizes shot-noise-limited coincidence
histograms across an interferometer phase sweep, fits the normalized
statistics, and prints recovered versus true parameters.
"""
from __future__ import annotations

import argparse

import numpy as np

from nltimebin import circuit, fit
from nltimebin.scatter import PulseSpec, nonlinear_params


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delta", type=float, default=0.0, help="pulse detuning")
    parser.add_argument("--sigma", type=float, default=1.0, help="pulse bandwidth")
    parser.add_argument("--grid", type=int, default=15, help="number of phases")
    parser.add_argument("--shots", type=int, default=100_000,
                        help="coincidence shots per phase")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    params = nonlinear_params(PulseSpec(delta=args.delta, sigma=args.sigma))
    phis = np.linspace(0.1, 3.0, args.grid)
    triples, errors = circuit.sample_statistics(
        phis, params.phi_nl, params.ell_nl, args.shots, args.seed
    )

    result = fit.fit_nl(phis, triples, errors)
    for name, truth in (("phi_nl", params.phi_nl), ("ell_nl", params.ell_nl)):
        got = result.parameters[name]
        err = result.std_errors[name]
        print(f"{name}: true {truth:.5f}, fitted {got:.5f} +/- {err:.5f} "
              f"({abs(got - truth) / err:.2f} sigma off)")
    print(f"fit converged={result.converged} after {result.evaluations} evaluations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
