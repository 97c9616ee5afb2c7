"""Run one ``nltimebin`` CLI invocation with its layers timed from outside.

Usage::

    python3 tracer.py TRACE_JSON TASK SUBCOMMAND [FLAGS...]

Before the package is imported, a meta-path hook is installed that
wraps the public functions of each layer module (``scatter``,
``states``, ``circuit``, ``fit``, ``vibsim``, ``cli``) right after the
module executes, so modules the CLI imports lazily are covered too.
The wrappers work because calls inside the package go through module
attributes or module globals.  Then ``nltimebin.cli.main`` runs with
the given arguments, and at exit the recorded spans and per-function
aggregates are written to TRACE_JSON.

Each span records name, start, end, parent span and task.  Functions
called once per model evaluation (everything in ``states`` and
``circuit.model_statistics``, about 1e5 calls per distinguishability
fit) are aggregated into counts and times instead of spans.  Self time
is a call's duration minus the time its wrapped callees took.
"""

from __future__ import annotations

import functools
import importlib.machinery
import json
import os
import sys
import time
import types

LAYERS = ("scatter", "states", "circuit", "fit", "vibsim", "cli")
_TARGETS = {f"nltimebin.{layer}": layer for layer in LAYERS}
_HOT_LAYERS = {"states"}
_HOT_FUNCTIONS = {"circuit.model_statistics"}

# Entry points that build the profile or amplitudes of one pulse.  A
# call whose pulse was already seen in this process is a repeat.
PULSE_ENTRIES = {
    "scatter.nonlinear_params",
    "scatter.full_statistics",
    "scatter.jti",
    "scatter.circuit_jti",
}


class Recorder:
    """In-memory spans and per-function aggregates of one process."""

    def __init__(self, task: str) -> None:
        self.task = task
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.functions: dict[str, dict] = {}
        self.layers = {layer: {"outer_calls": 0, "outer_errors": {}} for layer in LAYERS}
        self.pulse_calls = 0
        self.pulse_repeats = 0
        self._pulses: set[str] = set()

    def instrument(self, module: types.ModuleType, layer: str) -> None:
        for attr, value in list(vars(module).items()):
            if (
                isinstance(value, types.FunctionType)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                setattr(module, attr, self._wrap(f"{layer}.{attr}", layer, value))

    def _note_pulse(self, args: tuple, kwargs: dict) -> None:
        for value in (*args, *kwargs.values()):
            if type(value).__name__ == "PulseSpec":
                key = repr(value)
                self.pulse_calls += 1
                self.pulse_repeats += key in self._pulses
                self._pulses.add(key)
                return

    def _wrap(self, name: str, layer: str, fn):
        record = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": {}, "durations": []}
        self.functions[name] = record
        hot = layer in _HOT_LAYERS or name in _HOT_FUNCTIONS
        pulse_entry = name in PULSE_ENTRIES
        stack, spans, layers, clock = self.stack, self.spans, self.layers, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pulse_entry:
                self._note_pulse(args, kwargs)
            parent = stack[-1] if stack else None
            outer = parent is None or parent[2] != layer
            # Frame: [time covered by callees, span id (None when aggregated), layer]
            frame = [0.0, None if hot else len(spans), layer]
            if not hot:
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                record["errors"][kind] = record["errors"].get(kind, 0) + 1
                if outer:
                    errors = layers[layer]["outer_errors"]
                    errors[kind] = errors.get(kind, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                record["calls"] += 1
                record["total_s"] += duration
                record["self_s"] += duration - frame[0]
                if outer:
                    layers[layer]["outer_calls"] += 1
                if not hot:
                    record["durations"].append(duration)
                    parent_id = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    spans[frame[1]] = (frame[1], parent_id, name, start, end, self.task)

        return traced

    def dump(self, path: str) -> None:
        payload = {
            "task": self.task,
            "pid": os.getpid(),
            "span_fields": ["id", "parent", "name", "start", "end", "task"],
            "spans": [span for span in self.spans if span is not None],
            "functions": self.functions,
            "layers": self.layers,
            "pulse_calls": self.pulse_calls,
            "pulse_repeats": self.pulse_repeats,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class _InstrumentingFinder:
    """Meta-path finder that instruments layer modules as they load."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def find_spec(self, fullname, path, target=None):
        layer = _TARGETS.get(fullname)
        if layer is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        recorder = self.recorder

        def exec_and_instrument(module):
            exec_module(module)
            recorder.instrument(module, layer)

        spec.loader.exec_module = exec_and_instrument
        return spec


def main(argv: list[str]) -> int:
    if len(argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, task, cli_args = argv[1], argv[2], argv[3:]
    recorder = Recorder(task)
    sys.meta_path.insert(0, _InstrumentingFinder(recorder))
    try:
        import nltimebin.cli

        return nltimebin.cli.main(cli_args)
    finally:
        recorder.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
