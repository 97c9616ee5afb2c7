"""Per-layer metrics of one traced pass.

Reduces what ``tracer.py`` wrote for each subcommand process (function
aggregates, layer error counts, pulse repeats), the ``-X importtime``
log on its stderr, its rusage, and the pass's ``fit.json`` artifacts to
the flat metric names listed under ``per_layer`` in ``BENCHMARK.json``.
A metric of a layer the workload never calls reads 0.
"""

from __future__ import annotations

import json
import statistics

from tracer import LAYERS

# Every label a workload step can carry; each gets a ``cli.<label>.wall_s``.
STEP_LABELS = ("characterize", "jti", "fringe", "water", "fit", "fit_dist")


def _merged(traces: list[dict], name: str) -> dict:
    calls, durations, errors = 0, [], {}
    for trace in traces:
        record = trace["functions"].get(name)
        if record is None:
            continue
        calls += record["calls"]
        durations += record["durations"]
        for kind, count in record["errors"].items():
            errors[kind] = errors.get(kind, 0) + count
    return {"calls": calls, "durations": durations, "errors": errors}


def _p50(traces: list[dict], name: str) -> float:
    durations = _merged(traces, name)["durations"]
    return statistics.median(durations) if durations else 0.0


def _self_s(traces: list[dict], layer: str) -> float:
    return sum(
        record["self_s"]
        for trace in traces
        for name, record in trace["functions"].items()
        if name.split(".")[0] == layer
    )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def import_times(log: str) -> tuple[float, float]:
    """Package import and ``nltimebin.fit`` import from an ``-X importtime`` log.

    The package time sums the cumulative times of top-level
    ``nltimebin`` imports, so a module imported lazily inside a
    subcommand still counts.  Times are in seconds.
    """
    package = fit = 0.0
    for line in log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        raw_name = fields[2].rstrip()
        name = raw_name.strip()
        cumulative = int(fields[1]) * 1e-6
        if name != "nltimebin" and not name.startswith("nltimebin."):
            continue
        if len(raw_name) - len(name) <= 1:
            package += cumulative
        if name == "nltimebin.fit":
            fit += cumulative
    return package, fit


def pass_metrics(steps: list) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its ``StepRun`` records."""
    traces = [s.trace for s in steps if s.trace is not None]
    nonlinear = _merged(traces, "scatter.nonlinear_params")
    scatter_calls = sum(t["layers"]["scatter"]["outer_calls"] for t in traces)
    scatter_errors = sum(
        t["layers"]["scatter"]["outer_errors"].get("QuadratureError", 0) for t in traces
    )
    fits = []
    for step in steps:
        path = step.out / "fit.json"
        if path.is_file():
            fits.append(json.loads(path.read_text(encoding="utf-8")))
    imports = [import_times(s.stderr) for s in steps]
    main_s = sum(t["functions"]["cli.main"]["total_s"] for t in traces if "cli.main" in t["functions"])
    metrics = {
        "scatter.nonlinear_params.calls": nonlinear["calls"],
        "scatter.nonlinear_params.first_s": nonlinear["durations"][0] if nonlinear["durations"] else 0.0,
        "scatter.nonlinear_params.p50_s": _p50(traces, "scatter.nonlinear_params"),
        "scatter.circuit_jti.p50_s": _p50(traces, "scatter.circuit_jti"),
        "scatter.full_statistics.p50_s": _p50(traces, "scatter.full_statistics"),
        "scatter.failed": _ratio(scatter_errors, scatter_calls),
        "scatter.repeat_share": _ratio(
            sum(t["pulse_repeats"] for t in traces), sum(t["pulse_calls"] for t in traces)
        ),
        "states.apply_circuit.calls": _merged(traces, "states.apply_circuit")["calls"],
        "circuit.model_statistics.calls": _merged(traces, "circuit.model_statistics")["calls"],
        "circuit.model_triple.p50_s": _p50(traces, "circuit.model_triple"),
        "circuit.synthesize_histogram.p50_s": _p50(traces, "circuit.synthesize_histogram"),
        "circuit.normalize_counts.failed": sum(
            _merged(traces, "circuit.normalize_counts")["errors"].values()
        ),
        "fit.fit_nl.p50_s": _p50(traces, "fit.fit_nl"),
        "fit.evaluations": sum(f["evaluations"] for f in fits),
        "fit.converged_ratio": _ratio(sum(f["converged"] is True for f in fits), len(fits)),
        "vibsim.trace.p50_s": _p50(traces, "vibsim.trace"),
        "cli.import_s": sum(package for package, _ in imports),
        "cli.import_fit_s": sum(fit for _, fit in imports),
        "cli.artifact_bytes": sum(s.artifact_bytes for s in steps),
        "cli.cpu_s": sum(s.cpu_s for s in steps),
        "trace.unattributed_s": sum(s.wall_s for s in steps) - main_s,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _self_s(traces, layer)
    for label in STEP_LABELS:
        metrics[f"cli.{label}.wall_s"] = sum(s.wall_s for s in steps if s.label == label)
    return metrics
