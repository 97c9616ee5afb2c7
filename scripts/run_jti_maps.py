"""Compute joint time-intensity maps on and far off resonance.

Saves both maps as CSV matrices and prints the structural summary: the far
map should factorize into a product of marginals while the resonant map
concentrates weight on the simultaneous-arrival diagonal.
"""
from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from nltimebin.scatter import PulseSpec, factorization_residual, jti


def save_map(path: Path, times: np.ndarray, grid: np.ndarray) -> None:
    header = "t," + ",".join(f"{t:.6f}" for t in times)
    body = np.column_stack([times, grid])
    np.savetxt(path, body, delimiter=",", header=header, comments="")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", type=int, default=256, help="time grid size")
    parser.add_argument("--span", type=float, default=6.0,
                        help="half width of the time window, in emitter lifetimes")
    parser.add_argument("--sigma", type=float, default=1.0, help="pulse bandwidth")
    parser.add_argument("--far-delta", type=float, default=1000.0,
                        help="detuning used for the factorized reference map")
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args()

    times = np.linspace(-args.span, args.span, args.grid)
    resonant = jti(PulseSpec(delta=0.0, sigma=args.sigma), times=times)
    far = jti(PulseSpec(delta=args.far_delta, sigma=args.sigma), times=times)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    save_map(args.out_dir / "jti_resonant.csv", times, resonant)
    save_map(args.out_dir / "jti_far.csv", times, far)

    mask = np.eye(args.grid, dtype=bool)
    diag = resonant[mask].mean()
    anti = np.fliplr(resonant)[mask].mean()
    print(f"far-detuned factorization residual: {factorization_residual(far):.3e}")
    print(f"resonant diagonal/anti-diagonal mean ratio: {diag / anti:.2f}")
    print(f"maps written to {args.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
