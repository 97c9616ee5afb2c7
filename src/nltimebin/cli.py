"""Command-line runs that regenerate model data as CSV/JSON artifacts.

Each subcommand performs one reproducible computation: a joint
detection-time map, a phase fringe sweep, a detuning characterization
table, a statistics fit, or the vibrational water trace.  One table
declares each subcommand with its help and its flags, and one unit
table each suffix a quantity flag takes, so laboratory units are
converted to the dimensionless emitter frame exactly once, at the flag
boundary.  Every input that exits with code 2 names its flag.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

from . import SPEED_OF_LIGHT_CM

# Standard library only at module level: ``_settings`` parses every flag
# first and each subcommand then imports numpy and the physics modules it
# runs, so ``--help`` and a flag error (exit 2) never load them.

# Laboratory-to-dimensionless conversions are anchored to the emitter
# lifetime once, here; the physics modules never see lab units.
_LIFETIME_PS = 155.5

_SCHEMA_LINE = "# schema=1"


class FlagError(ValueError):
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
        try:
            return float(value), ""
        except OverflowError:
            raise FlagError(flag, "integer too large for a float") from None
    match = _QUANTITY_RE.match(str(value).strip())
    if match is None:
        raise FlagError(flag, f"cannot parse quantity {value!r}")
    return float(match["num"]), match["unit"].strip().lower()


def _wavenumber(number: float) -> float:
    return math.tau * SPEED_OF_LIGHT_CM * number * (_LIFETIME_PS * 1e-12)


def _fwhm(duration: float) -> float:
    """The spectral width of a pulse whose intensity FWHM is ``duration`` ps."""
    return math.sqrt(2.0 * math.log(2.0)) * _LIFETIME_PS / duration if duration > 0.0 else math.nan


# The unit table: each suffix ("" for none) once, with the dimension it gives a number
# and the number's conversion, a frequency to the emitter frame and a time to ps.
_UNITS = {"": ("bare", float), "ps": ("time", float),
          "ghz": ("frequency", lambda number: math.tau * number * 1e9 * (_LIFETIME_PS * 1e-12)),
          **dict.fromkeys(("cm-1", "1/cm", "cm^-1"), ("frequency", _wavenumber))}
# Per kind of quantity, what it makes of a number in each dimension it takes.
_KINDS = {
    "detuning": {"bare": float, "frequency": float},
    "spectral width": {"bare": float, "frequency": float, "time": _fwhm},
    "time": {"bare": float, "time": float},
    "phase": {"bare": float},
}


def _quantity(kind: str, positive: bool = False):
    """The parser of a flag of one kind of quantity: finite, or positive if ``positive``."""
    dimensions = _KINDS[kind]
    accepted = ", ".join(suffix for suffix, (dimension, _) in _UNITS.items()
                         if suffix and dimension in dimensions) or "none"

    def parse(value, flag: str) -> float:
        number, unit = _split_quantity(value, flag)
        if unit == "/cm":
            # The number took the 1 of "0.051/cm": 0.05 1/cm and 0.051 per cm both fit.
            raise FlagError(
                flag, "ambiguous unit '/cm'; write the wavenumber as '0.05 1/cm' or '0.05cm-1'")
        dimension, convert = _UNITS.get(unit, (None, None))
        if dimension not in dimensions:
            refusal = (f"a {kind} cannot carry {dimension} units" if dimension
                       else f"unknown unit suffix {unit!r}")
            raise FlagError(flag, f"{refusal}; accepted suffixes: {accepted}")
        out = dimensions[dimension](convert(number))
        if not (math.isfinite(out) and (out > 0.0 or not positive)):
            raise FlagError(flag, f"{kind} must be positive, got {value!r}" if positive
                            else f"value {value!r} is not finite")
        return out

    return parse


_DETUNING, _WIDTH = _quantity("detuning"), _quantity("spectral width", positive=True)


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


def _count(minimum: int):
    """The parser of a whole-number flag of at least ``minimum``."""
    return lambda value, flag: parse_count(value, flag, minimum)


def _parse_sigma_list(value, flag: str) -> list[float]:
    if isinstance(value, (list, tuple)):
        entries = list(value)
    else:
        entries = [part for part in str(value).split(",") if part.strip()]
    if not entries:
        raise FlagError(flag, "at least one spectral width is required")
    return [_WIDTH(entry, flag) for entry in entries]


# The statistics columns that ``fringe`` writes and ``fit --data`` reads; sampled runs add errors.
_STATISTICS = ("phi", "p20", "p11", "p02")
_ERRORS = tuple(f"sigma_{column}" for column in _STATISTICS[1:])
# The effective parameters of a pulse that ``fringe`` summarizes and ``characterize`` tabulates.
_EFFECTIVE = ("phi_nl", "ell_nl", "eta", "r_int", "theta_int")


def _read_statistics_csv(value, flag: str) -> tuple[list, list, list | None]:
    """Phases, (p20, p11, p02) rows and, if the file has them, their errors."""
    if value is None:
        raise FlagError(flag, "a statistics CSV path is required")
    path = str(value)
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            lines = [line for line in handle if not line.startswith("#")]
    except OSError as exc:
        raise FlagError(flag, f"cannot read {path!r}: {exc}") from exc
    reader = csv.DictReader(lines)
    if reader.fieldnames is None or any(c not in reader.fieldnames for c in _STATISTICS):
        raise FlagError(flag, f"{path!r} must provide columns {', '.join(_STATISTICS)}")
    missing = [c for c in _ERRORS if c not in reader.fieldnames]
    if 0 < len(missing) < len(_ERRORS):
        raise FlagError(flag, f"{path!r} has some error columns but lacks {', '.join(missing)}")
    phis, triples, errors = [], [], []
    try:
        for record in reader:
            phi, *triple = (float(record[c]) for c in _STATISTICS)
            phis.append(phi)
            triples.append(triple)
            if not missing:
                errors.append([float(record[c]) for c in _ERRORS])
    except (TypeError, ValueError) as exc:
        raise FlagError(flag, f"non-numeric entry in {path!r}: {exc}") from exc
    if not phis:
        raise FlagError(flag, f"{path!r} holds no data rows")
    return phis, triples, None if missing else errors


def _parse_switch(value, flag: str) -> bool:
    if not isinstance(value, bool):
        raise FlagError(flag, f"expected true or false, got {value!r}")
    return value


def _parse_out(value, flag: str) -> Path:
    """The output directory, created; parsed last, so a flag error creates none."""
    if not isinstance(value, str):
        raise FlagError(flag, f"expected a directory path, got {value!r}")
    out = Path(value)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FlagError(flag, f"cannot create directory {out}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# The flag table: per subcommand, its help and then (flag, parser, built-in
# default, help) in parse order.  ``--config`` has no parser: it supplies the
# other defaults.

_DELTA = ("--delta", _DETUNING, 0.0, "pulse detuning (bare, GHz, or cm-1)")
_SIGMA = ("--sigma", _WIDTH, 1.0, "spectral width (bare, GHz, cm-1, or FWHM ps)")
_COMMON = (
    ("--config", None, None, "JSON file with per-flag defaults"),
    ("--out", _parse_out, ".", "output directory (default: current)"),
)
_FLAGS = {
    "jti": ("joint detection-time intensity matrix", _DELTA, _SIGMA,
            ("--phi", _quantity("phase"), 0.0, "linear interferometer phase in radians"),
            ("--grid", _count(16), 256, "time-grid points per axis"), *_COMMON),
    "fringe": ("output statistics over a phase sweep", _DELTA, _SIGMA,
               ("--grid", _count(2), 101, "number of phases in [0, 2pi]"),
               ("--shots", _count(0), 0, "sampled coincidences per phase (0 = exact)"),
               ("--seed", _count(0), 0, "random seed for sampling"), *_COMMON),
    "characterize": (
        "effective parameters over a detuning sweep",
        ("--sigma", _parse_sigma_list, 1.0, "spectral width(s), comma separated"),
        ("--delta-max", _quantity("detuning", positive=True), 5.0,
         "sweep end (bare, GHz, or cm-1)"),
        ("--grid", _count(2), 21, "number of detunings in [0, delta-max]"), *_COMMON),
    "fit": (
        "fit nonlinear phase and loss to a statistics CSV",
        ("--data", _read_statistics_csv, None,
         f"statistics CSV ({', '.join(_STATISTICS)} [, sigma_*])"),
        ("--distinguishability", _parse_switch, False, "also fit the photon overlap rotation"),
        *_COMMON),
    "water": ("two-quantum stretch dynamics of water",
              ("--tmax", _quantity("time", positive=True), 0.5, "trace length in ps"),
              ("--steps", _count(2), 51, "number of trace points"), *_COMMON),
}
# The flags that set the pulse of a subcommand that scatters one.
_PULSE_FLAGS = {"jti": "--delta/--sigma", "fringe": "--delta/--sigma",
                "characterize": "--delta-max/--sigma"}


def _load_config(path, known: list[str]) -> dict:
    """The ``--config`` JSON object; each key must name a flag of the subcommand."""
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
    for key in config:
        if key not in known:
            raise FlagError("--config", f"unknown key {key!r}; expected one of {sorted(known)}")
    return config


def _settings(args: argparse.Namespace) -> dict:
    """Every flag of the subcommand through its parser: flag beats config file beats built-in."""
    flags = {flag[2:].replace("-", "_"): (flag, parse, default)
             for flag, parse, default, _ in _FLAGS[args.command][1:] if parse is not None}
    config = _load_config(args.config, list(flags))
    settings = {}
    for dest, (flag, parse, default) in flags.items():
        value = getattr(args, dest)
        settings[dest] = parse(config.get(dest, default) if value is None else value, flag)
    return settings


# ---------------------------------------------------------------------------
# Artifact writers


def _echo(settings: dict) -> dict:
    """The resolved settings an artifact records: all but ``out``."""
    return {key: value for key, value in settings.items() if key != "out"}


def _write_csv(command: str, settings: dict, columns: list[str], rows) -> Path:
    """``<out>/<command>.csv`` under a meta line of the settings in table order."""
    meta = " ".join([command] + [
        f"{key}={','.join(map(repr, value)) if isinstance(value, list) else repr(value)}"
        for key, value in _echo(settings).items()])
    path = settings["out"] / f"{command}.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_SCHEMA_LINE + "\n")
        handle.write(f"# {meta}\n")
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _peak_to_trough(values) -> float:
    top, bottom = float(values.max()), float(values.min())
    return (top - bottom) / (top + bottom) if top + bottom > 0.0 else 0.0


# ---------------------------------------------------------------------------
# Subcommands: each takes the settings ``_settings`` resolved


def _pulse(command: str, delta: float, sigma: float):
    """The pulse a subcommand scatters; one beyond ``scatter``'s float range names its flags."""
    from . import scatter

    try:
        return scatter.PulseSpec(delta, sigma)
    except ValueError as exc:
        raise FlagError(_PULSE_FLAGS[command], str(exc)) from exc


def cmd_jti(settings: dict) -> None:
    import numpy as np

    from . import scatter

    pulse = _pulse("jti", settings["delta"], settings["sigma"])
    times = np.linspace(-8.0, 8.0, settings["grid"])
    try:
        intensity = scatter.circuit_jti(settings["phi"], pulse, times=times)
    except ValueError as exc:
        # Every flag is parsed already; only the grid's length can be refused.
        raise FlagError("--grid", str(exc)) from exc
    intensity = intensity / intensity.max()

    columns = ["time"] + [repr(float(t)) for t in times]
    print(_write_csv("jti", settings, columns, np.column_stack([times, intensity])))


def cmd_fringe(settings: dict) -> None:
    import numpy as np

    from . import circuit, scatter

    params = scatter.nonlinear_params(_pulse("fringe", settings["delta"], settings["sigma"]))
    phis = np.linspace(0.0, 2.0 * math.pi, settings["grid"])
    shots = settings["shots"]

    columns = list(_STATISTICS)
    if shots > 0:
        columns += _ERRORS
        try:
            triples, errors = circuit.sample_statistics(
                phis, params.phi_nl, params.ell_nl, shots, settings["seed"]
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

    path = _write_csv("fringe", settings, columns, rows)
    summary = {**_echo(settings), **{name: getattr(params, name) for name in _EFFECTIVE},
               **{f"visibility_{column}": _peak_to_trough(triples[:, k])
                  for k, column in enumerate(_STATISTICS[1:])}}
    _write_json(settings["out"] / "fringe_summary.json", summary)
    print(path)
    print(settings["out"] / "fringe_summary.json")


def cmd_characterize(settings: dict) -> None:
    import numpy as np

    from . import scatter

    deltas = np.linspace(0.0, settings["delta_max"], settings["grid"])
    # Every pulse of the sweep is checked before the first one is scattered.
    pulses = [_pulse("characterize", float(delta), sigma)
              for sigma in settings["sigma"] for delta in deltas]
    rows = []
    for pulse in pulses:
        params = scatter.nonlinear_params(pulse)
        single_sq = (params.eta * (1.0 - params.ell_nl)) ** 2
        rows.append((pulse.delta, pulse.sigma, *(getattr(params, name) for name in _EFFECTIVE),
                     params.p_single, params.eta**2, single_sq))

    columns = ["delta", "sigma", *_EFFECTIVE, "p_single", "pair_transmission",
               "single_transmission_squared"]
    print(_write_csv("characterize", settings, columns, rows))


def cmd_fit(settings: dict) -> None:
    from . import fit

    phis, triples, errors = settings["data"]
    try:
        result = fit.fit_nl(
            phis, triples, errors, fit_distinguishability=settings["distinguishability"])
    except ValueError as exc:
        raise FlagError("--data", str(exc)) from exc

    path = settings["out"] / "fit.json"
    _write_json(path, result.to_json_dict())
    print(path)


def cmd_water(settings: dict) -> None:
    from . import vibsim

    try:
        times, anharmonic, harmonic = vibsim.trace(
            settings["tmax"], settings["steps"], vibsim.water_spec())
    except ValueError as exc:
        # The step count is valid by construction; only the trace's length can be refused.
        raise FlagError("--tmax", str(exc)) from exc
    # The trace's (same-left, separate, same-right) rows, separate first.
    rows = [(t, a[1], a[0], a[2], h[1], h[0], h[2]) for t, a, h in zip(times, anharmonic, harmonic)]
    occupancies = ("p_separate", "p_same_left", "p_same_right")
    columns = ["t_ps", *occupancies, *(f"{name}_harmonic" for name in occupancies)]
    print(_write_csv("water", settings, columns, rows))


# ---------------------------------------------------------------------------
# Parser assembly and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nltimebin",
        description="Regenerate time-bin circuit model data as CSV/JSON artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, *flags) in _FLAGS.items():
        p = sub.add_parser(command, help=text)
        for flag, parse, _, help_text in flags:
            # Every value reaches its parser as it arrived: a string, or None if not given.
            action = "store_true" if parse is _parse_switch else "store"
            p.add_argument(flag, action=action, default=None, help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Looked up at run time, so a profiler that wraps the ``cmd_*`` attributes sees the call.
        globals()[f"cmd_{args.command}"](_settings(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # Only a loaded ``scatter`` raises its QuadratureError.
        from .scatter import QuadratureError

        if not isinstance(exc, QuadratureError):
            raise
        print(f"error: {_PULSE_FLAGS[args.command]}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
