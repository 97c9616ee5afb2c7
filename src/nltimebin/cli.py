"""Command-line runs that regenerate model data as CSV/JSON artifacts.

Each subcommand performs one reproducible computation: a joint
detection-time map, a phase fringe sweep, a detuning characterization
table, a statistics fit, or the vibrational water trace.  Laboratory
units are converted to the dimensionless emitter frame exactly once,
at the flag boundary.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

# The flag parsers need ``scatter``; every other module loads inside the
# subcommand that uses it, so a process imports only what it runs.
from . import scatter

# Laboratory-to-dimensionless conversions are anchored to the emitter
# lifetime once, here; the physics modules never see lab units.
_LIFETIME_PS = 155.5

_SCHEMA_LINE = "# schema=1"


class FlagError(Exception):
    """Invalid value for a specific command-line flag."""

    def __init__(self, flag: str, message: str) -> None:
        super().__init__(f"{flag}: {message}")
        self.flag = flag


# ---------------------------------------------------------------------------
# Quantity parsing with unit suffixes

_QUANTITY_RE = re.compile(
    r"^(?P<num>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(?P<unit>.*)$"
)


def _split_quantity(value, flag: str) -> tuple[float, str]:
    if isinstance(value, bool):
        raise FlagError(flag, f"expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value), ""
    match = _QUANTITY_RE.match(str(value).strip())
    if match is None:
        raise FlagError(flag, f"cannot parse quantity {value!r}")
    return float(match["num"]), match["unit"].strip().lower()


def _from_frequency(number: float, unit: str, flag: str) -> float:
    """Dimensionless angular frequency of a bare, GHz, or cm-1 value."""
    if unit == "":
        return number
    if unit == "ghz":
        return scatter.TWO_PI * number * 1e9 * (_LIFETIME_PS * 1e-12)
    if unit in ("cm-1", "1/cm", "cm^-1"):
        return scatter.TWO_PI * scatter.SPEED_OF_LIGHT_CM * number * (_LIFETIME_PS * 1e-12)
    if unit == "/cm":
        # The number took the 1 of "0.051/cm": 0.05 1/cm and 0.051 per cm both fit.
        raise FlagError(
            flag, "ambiguous unit '/cm'; write the wavenumber as '0.05 1/cm' or '0.05cm-1'"
        )
    raise FlagError(flag, f"unknown unit suffix {unit!r}")


def parse_detuning(value, flag: str) -> float:
    """Dimensionless detuning from a bare, GHz, or cm-1 value."""
    number, unit = _split_quantity(value, flag)
    if unit == "ps":
        raise FlagError(flag, "a detuning cannot carry time units; use GHz or cm-1")
    out = _from_frequency(number, unit, flag)
    if not math.isfinite(out):
        raise FlagError(flag, f"value {value!r} is not finite")
    return out


def parse_width(value, flag: str) -> float:
    """Dimensionless spectral width; a ps value is an intensity FWHM."""
    number, unit = _split_quantity(value, flag)
    if unit == "ps":
        if number <= 0.0:
            raise FlagError(flag, f"pulse duration must be positive, got {value!r}")
        out = math.sqrt(2.0 * math.log(2.0)) * _LIFETIME_PS / number
    else:
        out = _from_frequency(number, unit, flag)
    if not (math.isfinite(out) and out > 0.0):
        raise FlagError(flag, f"spectral width must be positive, got {value!r}")
    return out


def parse_time_ps(value, flag: str) -> float:
    """Time in picoseconds; only a ps suffix (or none) is accepted."""
    number, unit = _split_quantity(value, flag)
    if unit not in ("", "ps"):
        raise FlagError(flag, f"expected a time in ps, got unit {unit!r}")
    if not (math.isfinite(number) and number > 0.0):
        raise FlagError(flag, f"time must be positive, got {value!r}")
    return number


def parse_angle(value, flag: str) -> float:
    number, unit = _split_quantity(value, flag)
    if unit != "":
        raise FlagError(flag, f"phases are radians; drop the suffix {unit!r}")
    if not math.isfinite(number):
        raise FlagError(flag, f"value {value!r} is not finite")
    return number


def parse_count(value, flag: str, minimum: int) -> int:
    if isinstance(value, bool):
        raise FlagError(flag, f"expected an integer, got {value!r}")
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise FlagError(flag, f"expected an integer, got {value!r}") from None
    if isinstance(value, float) and value != number:
        raise FlagError(flag, f"expected an integer, got {value!r}")
    if number < minimum:
        raise FlagError(flag, f"must be at least {minimum}, got {number}")
    return number


# ---------------------------------------------------------------------------
# Config-file merge and artifact writers


def _load_config(args: argparse.Namespace) -> dict:
    """The ``--config`` JSON object; each key must name a flag of the subcommand."""
    path = args.config
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise FlagError("--config", f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FlagError("--config", f"{path!r} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise FlagError("--config", f"{path!r} must hold a JSON object")
    known = set(vars(args)) - {"func", "command", "config"}
    for key in config:
        if key not in known:
            raise FlagError("--config", f"unknown key {key!r}; expected one of {sorted(known)}")
    return config


def _setting(args: argparse.Namespace, config: dict, dest: str, fallback):
    """Resolve one parameter: flag beats config file beats built-in."""
    value = getattr(args, dest)
    if value is not None:
        return value
    if dest in config:
        return config[dest]
    return fallback


def _out_dir(args: argparse.Namespace, config: dict) -> Path:
    out = _setting(args, config, "out", ".")
    if not isinstance(out, str):
        raise FlagError("--out", f"expected a directory path, got {out!r}")
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FlagError("--out", f"cannot create directory {out}: {exc}") from exc
    return out


def _write_csv(path: Path, meta: str, columns: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_SCHEMA_LINE + "\n")
        handle.write(f"# {meta}\n")
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _peak_to_trough(values: np.ndarray) -> float:
    top, bottom = float(values.max()), float(values.min())
    return (top - bottom) / (top + bottom) if top + bottom > 0.0 else 0.0


# ---------------------------------------------------------------------------
# Subcommands


def cmd_jti(args: argparse.Namespace) -> None:
    config = _load_config(args)
    delta = parse_detuning(_setting(args, config, "delta", 0.0), "--delta")
    sigma = parse_width(_setting(args, config, "sigma", 1.0), "--sigma")
    phi = parse_angle(_setting(args, config, "phi", 0.0), "--phi")
    grid = parse_count(_setting(args, config, "grid", 256), "--grid", 16)
    out = _out_dir(args, config)

    pulse = scatter.PulseSpec(delta=delta, sigma=sigma)
    times = np.linspace(-8.0, 8.0, grid)
    intensity = scatter.circuit_jti(phi, pulse, times=times)
    intensity = intensity / intensity.max()

    path = out / "jti.csv"
    meta = f"jti delta={delta!r} sigma={sigma!r} phi={phi!r} grid={grid}"
    columns = ["time"] + [repr(float(t)) for t in times]
    _write_csv(path, meta, columns, np.column_stack([times, intensity]))
    print(path)


def cmd_fringe(args: argparse.Namespace) -> None:
    from . import circuit

    config = _load_config(args)
    delta = parse_detuning(_setting(args, config, "delta", 0.0), "--delta")
    sigma = parse_width(_setting(args, config, "sigma", 1.0), "--sigma")
    grid = parse_count(_setting(args, config, "grid", 101), "--grid", 2)
    shots = parse_count(_setting(args, config, "shots", 0), "--shots", 0)
    seed = parse_count(_setting(args, config, "seed", 0), "--seed", 0)
    out = _out_dir(args, config)

    params = scatter.nonlinear_params(scatter.PulseSpec(delta=delta, sigma=sigma))
    phis = np.linspace(0.0, 2.0 * math.pi, grid)

    columns = ["phi", "p20", "p11", "p02"]
    if shots > 0:
        columns += ["sigma_p20", "sigma_p11", "sigma_p02"]
        try:
            triples, errors = circuit.sample_statistics(
                phis, params.phi_nl, params.ell_nl, shots, seed
            )
        except circuit.NormalizationError as exc:
            raise FlagError("--shots", f"{shots} shots are too few to normalize: {exc}") from exc
        except ValueError as exc:
            # The phases and parameters are valid by construction; the count is not.
            raise FlagError("--shots", str(exc)) from exc
        rows = np.column_stack([phis, triples, errors])
    else:
        triples = circuit.model_triple(phis, params.phi_nl, params.ell_nl)
        rows = np.column_stack([phis, triples])

    meta = f"fringe delta={delta!r} sigma={sigma!r} grid={grid} shots={shots} seed={seed}"
    _write_csv(out / "fringe.csv", meta, columns, rows)

    summary = {
        "delta": delta,
        "sigma": sigma,
        "grid": grid,
        "shots": shots,
        "seed": seed,
        "eta": params.eta,
        "ell_nl": params.ell_nl,
        "phi_nl": params.phi_nl,
        "r_int": params.r_int,
        "theta_int": params.theta_int,
        "visibility_p20": _peak_to_trough(triples[:, 0]),
        "visibility_p11": _peak_to_trough(triples[:, 1]),
        "visibility_p02": _peak_to_trough(triples[:, 2]),
    }
    _write_json(out / "fringe_summary.json", summary)
    print(out / "fringe.csv")
    print(out / "fringe_summary.json")


def _parse_sigma_list(value, flag: str) -> list[float]:
    if isinstance(value, (list, tuple)):
        entries = list(value)
    else:
        entries = [part for part in str(value).split(",") if part.strip()]
    if not entries:
        raise FlagError(flag, "at least one spectral width is required")
    return [parse_width(entry, flag) for entry in entries]


def cmd_characterize(args: argparse.Namespace) -> None:
    config = _load_config(args)
    sigmas = _parse_sigma_list(_setting(args, config, "sigma", 1.0), "--sigma")
    delta_max = parse_detuning(_setting(args, config, "delta_max", 5.0), "--delta-max")
    if delta_max <= 0.0:
        raise FlagError("--delta-max", f"sweep end must be positive, got {delta_max!r}")
    grid = parse_count(_setting(args, config, "grid", 21), "--grid", 2)
    out = _out_dir(args, config)

    deltas = np.linspace(0.0, delta_max, grid)
    rows = []
    for sigma in sigmas:
        for delta in deltas:
            pulse = scatter.PulseSpec(delta=float(delta), sigma=sigma)
            params = scatter.nonlinear_params(pulse)
            single_sq = (params.eta * (1.0 - params.ell_nl)) ** 2
            rows.append(
                (
                    pulse.delta,
                    pulse.sigma,
                    params.phi_nl,
                    params.ell_nl,
                    params.eta,
                    params.r_int,
                    params.theta_int,
                    params.p_single,
                    params.eta**2,
                    single_sq,
                )
            )

    columns = [
        "delta",
        "sigma",
        "phi_nl",
        "ell_nl",
        "eta",
        "r_int",
        "theta_int",
        "p_single",
        "pair_transmission",
        "single_transmission_squared",
    ]
    meta = (
        f"characterize sigma={','.join(repr(s) for s in sigmas)} "
        f"delta_max={delta_max!r} grid={grid}"
    )
    path = out / "characterize.csv"
    _write_csv(path, meta, columns, rows)
    print(path)


def _read_statistics_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            lines = [line for line in handle if not line.startswith("#")]
    except OSError as exc:
        raise FlagError("--data", f"cannot read {path!r}: {exc}") from exc
    reader = csv.DictReader(lines)
    needed = ("phi", "p20", "p11", "p02")
    error_cols = ("sigma_p20", "sigma_p11", "sigma_p02")
    if reader.fieldnames is None or any(c not in reader.fieldnames for c in needed):
        raise FlagError("--data", f"{path!r} must provide columns {', '.join(needed)}")
    has_errors = all(c in reader.fieldnames for c in error_cols)
    phis, triples, errors = [], [], []
    try:
        for record in reader:
            phis.append(float(record["phi"]))
            triples.append([float(record[c]) for c in needed[1:]])
            if has_errors:
                errors.append([float(record[c]) for c in error_cols])
    except (TypeError, ValueError) as exc:
        raise FlagError("--data", f"non-numeric entry in {path!r}: {exc}") from exc
    if not phis:
        raise FlagError("--data", f"{path!r} holds no data rows")
    return (
        np.asarray(phis),
        np.asarray(triples),
        np.asarray(errors) if has_errors else None,
    )


def cmd_fit(args: argparse.Namespace) -> None:
    from . import fit

    config = _load_config(args)
    data = _setting(args, config, "data", None)
    if data is None:
        raise FlagError("--data", "a statistics CSV path is required")
    free_overlap = _setting(args, config, "distinguishability", False)
    if not isinstance(free_overlap, bool):
        raise FlagError("--distinguishability", f"expected true or false, got {free_overlap!r}")
    out = _out_dir(args, config)

    phis, triples, errors = _read_statistics_csv(str(data))
    try:
        result = fit.fit_nl(phis, triples, errors, fit_distinguishability=free_overlap)
    except ValueError as exc:
        raise FlagError("--data", str(exc)) from exc

    path = out / "fit.json"
    _write_json(path, result.to_json_dict())
    print(path)


def cmd_water(args: argparse.Namespace) -> None:
    from . import vibsim

    config = _load_config(args)
    tmax = parse_time_ps(_setting(args, config, "tmax", 0.5), "--tmax")
    steps = parse_count(_setting(args, config, "steps", 51), "--steps", 2)
    out = _out_dir(args, config)

    points = vibsim.trace(tmax, steps, vibsim.water_spec())
    rows = [
        (
            anh.t,
            anh.p_separate,
            anh.p_same_left,
            anh.p_same_right,
            harm.p_separate,
            harm.p_same_left,
            harm.p_same_right,
        )
        for anh, harm in points
    ]
    columns = [
        "t_ps",
        "p_separate",
        "p_same_left",
        "p_same_right",
        "p_separate_harmonic",
        "p_same_left_harmonic",
        "p_same_right_harmonic",
    ]
    path = out / "water.csv"
    _write_csv(path, f"water tmax={tmax!r} steps={steps}", columns, rows)
    print(path)


# ---------------------------------------------------------------------------
# Parser assembly and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nltimebin",
        description="Regenerate time-bin circuit model data as CSV/JSON artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with per-flag defaults")
        p.add_argument("--out", help="output directory (default: current)")

    p_jti = sub.add_parser("jti", help="joint detection-time intensity matrix")
    p_jti.add_argument("--delta", help="pulse detuning (bare, GHz, or cm-1)")
    p_jti.add_argument("--sigma", help="spectral width (bare, GHz, cm-1, or FWHM ps)")
    p_jti.add_argument("--phi", help="linear interferometer phase in radians")
    p_jti.add_argument("--grid", type=int, help="time-grid points per axis")
    common(p_jti)
    p_jti.set_defaults(func=cmd_jti)

    p_fringe = sub.add_parser("fringe", help="output statistics over a phase sweep")
    p_fringe.add_argument("--delta", help="pulse detuning (bare, GHz, or cm-1)")
    p_fringe.add_argument("--sigma", help="spectral width (bare, GHz, cm-1, or FWHM ps)")
    p_fringe.add_argument("--grid", type=int, help="number of phases in [0, 2pi]")
    p_fringe.add_argument("--shots", type=int, help="sampled coincidences per phase (0 = exact)")
    p_fringe.add_argument("--seed", type=int, help="random seed for sampling")
    common(p_fringe)
    p_fringe.set_defaults(func=cmd_fringe)

    p_char = sub.add_parser("characterize", help="effective parameters over a detuning sweep")
    p_char.add_argument("--sigma", help="spectral width(s), comma separated")
    p_char.add_argument("--delta-max", dest="delta_max", help="sweep end (bare, GHz, or cm-1)")
    p_char.add_argument("--grid", type=int, help="number of detunings in [0, delta-max]")
    common(p_char)
    p_char.set_defaults(func=cmd_characterize)

    p_fit = sub.add_parser("fit", help="fit nonlinear phase and loss to a statistics CSV")
    p_fit.add_argument("--data", help="statistics CSV (phi, p20, p11, p02 [, sigma_*])")
    p_fit.add_argument(
        "--distinguishability",
        action="store_true",
        default=None,
        help="also fit the photon overlap rotation",
    )
    common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_water = sub.add_parser("water", help="two-quantum stretch dynamics of water")
    p_water.add_argument("--tmax", help="trace length in ps")
    p_water.add_argument("--steps", type=int, help="number of trace points")
    common(p_water)
    p_water.set_defaults(func=cmd_water)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except FlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except scatter.QuadratureError as exc:
        print(f"error: --delta/--sigma: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
