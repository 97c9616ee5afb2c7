"""Workload inputs, drawn from the benchmark seed.

A workload is a fixed sequence of CLI invocations (steps).  Each step
writes into its own directory of a pass, and carries the gate that
checks what it wrote.  Every input is drawn from the workload seed, so
the same seed gives the same argument lists and input files.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import gates


@dataclass(frozen=True)
class Step:
    """One CLI invocation: ``argv`` runs with the pass directory as cwd."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[Path], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    inputs: dict
    # Writes input files into the run directory, outside the timed region.
    prepare: Callable[[Path], None] = lambda run_dir: None


def _draw(rng: np.random.Generator, low: float, high: float) -> float:
    return round(float(rng.uniform(low, high)), 4)


def _sweep(rng: np.random.Generator) -> Workload:
    sigmas = [_draw(rng, 0.3, 0.7), _draw(rng, 0.8, 1.5), _draw(rng, 2.0, 5.0)]
    delta_max = _draw(rng, 4.0, 6.0)
    grid = 11
    argv = ("characterize", "--sigma", ",".join(map(repr, sigmas)),
            "--delta-max", repr(delta_max), "--grid", str(grid))
    check = partial(_check_file, "characterize.csv", gates.check_characterize,
                    sigmas=sigmas, delta_max=delta_max, grid=grid)
    return Workload(
        name="sweep",
        steps=(Step("characterize", argv, check),),
        inputs={"characterize": {"sigma": sigmas, "delta_max": delta_max, "grid": grid}},
    )


def _maps(rng: np.random.Generator) -> Workload:
    jti = {"delta": _draw(rng, 0.0, 1.0), "sigma": _draw(rng, 0.8, 1.2), "grid": 256}
    fringe = {"delta": _draw(rng, 0.0, 3.0), "sigma": _draw(rng, 0.5, 2.0), "grid": 101}
    water = {"steps": 51, "tmax": 0.5}
    steps = (
        Step(
            "jti",
            ("jti", "--delta", repr(jti["delta"]), "--sigma", repr(jti["sigma"])),
            partial(_check_file, "jti.csv", gates.check_jti, grid=jti["grid"]),
        ),
        Step(
            "fringe",
            ("fringe", "--delta", repr(fringe["delta"]), "--sigma", repr(fringe["sigma"]),
             "--grid", str(fringe["grid"])),
            partial(gates.check_fringe_exact, grid=fringe["grid"]),
        ),
        Step(
            "water",
            ("water", "--steps", str(water["steps"])),
            partial(_check_file, "water.csv", gates.check_water,
                    steps=water["steps"], tmax=water["tmax"]),
        ),
    )
    return Workload(
        name="maps",
        steps=steps,
        inputs={"jti": jti, "fringe": fringe, "water": water},
    )


STATS_PHASES = 25
STATS_SHOTS = 100_000


def write_statistics(path: Path, truth: dict, seed: int) -> None:
    """Shot-sampled class statistics of the distinguishability model, as a CLI CSV.

    Each phase draws ``STATS_SHOTS`` events over the three classes; the
    error bars are the binomial standard errors of the estimates.
    """
    phis = np.linspace(0.0, 2.0 * math.pi, STATS_PHASES)
    model = gates.distinguishable_triples(
        phis, truth["phi_nl"], truth["ell_nl"], truth["theta_perp"]
    )
    streams = np.random.SeedSequence(seed).spawn(STATS_PHASES)
    lines = ["# schema=1", f"# stats {json.dumps(truth, sort_keys=True)} shots={STATS_SHOTS}",
             "phi,p20,p11,p02,sigma_p20,sigma_p11,sigma_p02"]
    for phi, probs, stream in zip(phis, model, streams):
        counts = np.random.default_rng(stream).multinomial(STATS_SHOTS, probs / probs.sum())
        estimate = counts / STATS_SHOTS
        errors = np.sqrt(estimate * (1.0 - estimate) / STATS_SHOTS)
        lines.append(",".join(repr(float(v)) for v in (phi, *estimate, *errors)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fit_loop(rng: np.random.Generator) -> Workload:
    fringe = {"delta": _draw(rng, 0.0, 2.0), "sigma": _draw(rng, 0.5, 2.0), "grid": 25,
              "shots": STATS_SHOTS, "seed": int(rng.integers(0, 2**31))}
    truth = {"theta_perp": _draw(rng, 0.1, 0.3), "phi_nl": _draw(rng, 0.6, 1.4),
             "ell_nl": _draw(rng, 0.1, 0.4)}
    stats_seed = int(rng.integers(0, 2**31))
    steps = (
        Step(
            "fringe",
            ("fringe", "--delta", repr(fringe["delta"]), "--sigma", repr(fringe["sigma"]),
             "--grid", str(fringe["grid"]), "--shots", str(fringe["shots"]),
             "--seed", str(fringe["seed"])),
            partial(gates.check_fringe_sampled, grid=fringe["grid"], shots=fringe["shots"]),
        ),
        Step("fit", ("fit", "--data", "fringe/fringe.csv"), _check_fringe_fit),
        Step(
            "fit_dist",
            ("fit", "--data", "../stats.csv", "--distinguishability"),
            partial(_check_file, "fit.json", gates.check_fit, truth=truth),
        ),
    )
    return Workload(
        name="fit_loop",
        steps=steps,
        inputs={"fringe": fringe, "stats": {**truth, "phases": STATS_PHASES,
                                            "shots": STATS_SHOTS, "seed": stats_seed}},
        prepare=lambda run_dir: write_statistics(run_dir / "stats.csv", truth, stats_seed),
    )


def _check_file(name: str, check, out: Path, **expect) -> list[str]:
    return check(out / name, **expect)


def _check_fringe_fit(out: Path) -> list[str]:
    """The plain fit must recover the pulse parameters its fringe reported."""
    summary_path = out.parent / "fringe" / "fringe_summary.json"
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        truth = {"phi_nl": summary["phi_nl"], "ell_nl": summary["ell_nl"]}
    except (OSError, ValueError, KeyError) as exc:
        return [f"fit: no fringe summary to compare against: {exc}"]
    return gates.check_fit(out / "fit.json", truth=truth)


BUILDERS = {"sweep": _sweep, "maps": _maps, "fit_loop": _fit_loop}


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with every input drawn from ``seed``."""
    entropy = [seed % 2**63, zlib.crc32(name.encode())]
    return BUILDERS[name](np.random.default_rng(entropy))
