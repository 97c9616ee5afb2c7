"""Trace two-quanta hopping between the stretch bonds of a water molecule.

Runs the anharmonic and harmonic evolutions side by side, writes the
probability trace to CSV, and prints where the two models separate along
with the harmonic revival period.
"""
from __future__ import annotations

import argparse
import csv
from pathlib import Path

import numpy as np

from nltimebin.vibsim import SPEED_OF_LIGHT_CM, trace, water_spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tmax", type=float, default=0.5, help="trace length in ps")
    parser.add_argument("--steps", type=int, default=201, help="number of time samples")
    parser.add_argument("--out", type=Path, default=Path("water_trace.csv"))
    args = parser.parse_args()

    spec = water_spec()
    times, anharmonic, harmonic = map(np.asarray, trace(args.tmax, args.steps, spec))

    # The trace's rows are (same-left, separate, same-right).
    order = [0, 2, 1]
    with args.out.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t_ps", "p_same_left", "p_same_right", "p_separate",
                         "p_same_left_harmonic", "p_same_right_harmonic",
                         "p_separate_harmonic"])
        writer.writerows(np.column_stack([times, anharmonic[:, order],
                                          harmonic[:, order]]).tolist())

    splits = np.abs(anharmonic[:, 0] - harmonic[:, 0])
    split_t, split = times[np.argmax(splits)], splits.max()
    period = 1.0 / (SPEED_OF_LIGHT_CM * 1e-12 * abs(spec.nu10 - spec.nu01))
    print(f"largest model split: {split:.3f} at t={split_t:.4f} ps")
    print(f"harmonic revival period: {period:.4f} ps")
    print(f"trace written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
