"""End-to-end benchmark of the ``nltimebin`` command line.

Usage::

    python3 perfbench/run.py --workload {sweep,maps,fit_loop} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The traffic is real CLI invocations:
each subcommand of a workload runs in a fresh interpreter, one process
at a time (a closed loop with one client), against the package in
``src/``.  A pass is the workload's subcommands in sequence; passes
repeat for about ``--seconds``.  Every artifact is gated
against an independent oracle outside the timed region, and hashed so
that reruns of one seed must be byte-identical.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes run under ``tracer.py`` and reports the
per-layer metrics of the traced passes, the tracing overhead and the
time no layer span covers.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"

SETUP_REPEATS = 11
# Each run must finish well inside three minutes, whatever --seconds says.
RUN_DEADLINE_S = 165.0


@dataclass
class StepRun:
    label: str
    out: Path
    wall_s: float
    returncode: int
    max_rss_mb: float
    cpu_s: float
    digest: str = ""
    artifact_bytes: int = 0
    stderr: str = ""
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None


@dataclass
class PassRun:
    traced: bool
    wall_s: float
    steps: list[StepRun]


# One BLAS thread per process: on two cores a second thread made jti and
# characterize no faster, doubled their CPU time and widened the spread.
BLAS_THREADS = 1


def child_env() -> dict:
    """Environment of every CLI process: the package from ``src/`` and fixed BLAS threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv: list[str], cwd: Path, env: dict, timeout: float, log: Path) -> tuple[float, int, object]:
    """Run one process to completion; return wall time, exit code and its own rusage."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    # Reaped by wait4 above; record the code so Popen never waits again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def digest_dir(out: Path) -> tuple[str, int]:
    """SHA-256 over every artifact (name and bytes) a step wrote, and their total size."""
    sha, size = hashlib.sha256(), 0
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            sha.update(path.relative_to(out).as_posix().encode() + b"\0" + data)
            size += len(data)
    return sha.hexdigest(), size


class Bench:
    def __init__(self, workload: workloads.Workload, run_dir: Path, deadline: float) -> None:
        self.workload = workload
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = child_env()
        self.passes: list[PassRun] = []
        self._verdicts: dict[tuple[str, str], list[str]] = {}
        self._first_digest: dict[str, str] = {}

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter running the first subcommand with ``--help``."""
        first = self.workload.steps[0].argv[0]
        argv = [sys.executable, "-m", "nltimebin", first, "--help"]
        wall, code, _ = spawn(argv, self.run_dir, self.env, self.remaining(),
                              self.run_dir / "setup.err")
        if code != 0:
            raise RuntimeError(f"{first} --help exited {code}")
        return wall

    def run_pass(self, traced: bool) -> PassRun:
        pass_dir = self.run_dir / f"pass-{len(self.passes)}"
        pass_dir.mkdir()
        steps = []
        start = time.perf_counter()
        for step in self.workload.steps:
            if traced:
                argv = [sys.executable, "-X", "importtime", str(BENCH_DIR / "tracer.py"),
                        f"{step.label}.trace.json", step.label, *step.argv, "--out", step.label]
            else:
                argv = [sys.executable, "-m", "nltimebin", *step.argv, "--out", step.label]
            wall, code, usage = spawn(argv, pass_dir, self.env, self.remaining(),
                                      pass_dir / f"{step.label}.err")
            steps.append(StepRun(step.label, pass_dir / step.label, wall, code,
                                 usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime))
        run = PassRun(traced, time.perf_counter() - start, steps)
        print(f"pass {len(self.passes)}{' traced' if traced else ''}: {run.wall_s:.4f} s ("
              + ", ".join(f"{s.label} {s.wall_s:.4f}" for s in steps) + ")")
        # Everything below is outside the timed region.
        for step, result in zip(self.workload.steps, steps):
            result.stderr = (pass_dir / f"{step.label}.err").read_text(errors="replace")
            if result.out.is_dir():
                result.digest, result.artifact_bytes = digest_dir(result.out)
            trace_path = pass_dir / f"{step.label}.trace.json"
            if trace_path.is_file():
                result.trace = json.loads(trace_path.read_text(encoding="utf-8"))
            result.problems = self._verdict(step, result)
        self.passes.append(run)
        return run

    def _verdict(self, step: workloads.Step, result: StepRun) -> list[str]:
        if result.returncode != 0:
            tail = result.stderr.strip().splitlines()[-1:] or [""]
            return [f"{step.label}: exit code {result.returncode}: {tail[0]}"]
        key = (step.label, result.digest)
        if key not in self._verdicts:
            self._verdicts[key] = step.check(result.out)
        problems = list(self._verdicts[key])
        first = self._first_digest.setdefault(step.label, result.digest)
        if result.digest != first:
            problems.append(f"{step.label}: artifacts differ from the first pass of this seed")
        return problems

    def run_passes(self, seconds: float, traced_too: bool, between=lambda: None) -> None:
        """Passes for about ``seconds`` (at least two), alternating with traced ones.

        ``between`` runs before every pass.  A pass starts only while half
        of the previous one would still end inside ``seconds``, so a run
        overshoots by half a pass at most on average.
        """
        start = time.perf_counter()
        while len(self.passes) < 2 or (
            time.perf_counter() - start + 0.5 * self.passes[-1].wall_s < seconds
        ):
            if self.passes and self.remaining() < 2.0 * max(p.wall_s for p in self.passes):
                break
            between()
            self.run_pass(traced=traced_too and len(self.passes) % 2 == 1)

    def outcome(self) -> tuple[int, int, list[str]]:
        steps = [s for p in self.passes for s in p.steps]
        problems = [msg for s in steps for msg in s.problems]
        return len(steps), sum(1 for s in steps if s.problems), problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pass_time(passes: list[PassRun]) -> float:
    """Wall time of one pass: the sum of each subcommand's median over the passes.

    Short bursts of host contention hit single subcommands; a median per
    subcommand drops them where a median of whole passes would not.
    """
    steps = len(passes[0].steps)
    return sum(statistics.median(p.steps[k].wall_s for p in passes) for k in range(steps))


def end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    # Start-up is sampled between passes, so one burst of host load
    # cannot hit every sample; the first start warms the disk cache.
    bench.setup_time()
    setup: list[float] = []
    bench.run_passes(seconds, traced_too=False, between=lambda: setup.append(bench.setup_time()))
    while len(setup) < SETUP_REPEATS:
        setup.append(bench.setup_time())
    attempted, failed, _ = bench.outcome()
    walls = [p.wall_s for p in bench.passes]
    rss = [max(s.max_rss_mb for s in p.steps) for p in bench.passes]
    q1, med, q3 = quartiles(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": pass_time(bench.passes),
        "peak_rss_mb": statistics.median(rss),
        "ok_ratio": (attempted - failed) / attempted,
    }
    print(f"pass_s {metrics['pass_s']:.4f} s; whole passes: median {med:.4f} s, "
          f"quartiles [{q1:.4f}, {q3:.4f}], n={len(walls)}")
    print(f"setup_s median {metrics['setup_s']:.4f} s over {len(setup)} starts: "
          + ", ".join(f"{t:.4f}" for t in setup))
    print(f"peak_rss_mb median {metrics['peak_rss_mb']:.1f} over passes")
    print(f"fail_ratio {failed}/{attempted} subcommands")
    return metrics


def traced_layers(bench: Bench, seconds: float) -> dict[str, float]:
    bench.run_passes(seconds, traced_too=True)
    plain = [p for p in bench.passes if not p.traced]
    traced = [p for p in bench.passes if p.traced]
    per_pass = [layers.pass_metrics(p.steps) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = pass_time(traced) - pass_time(plain)
    print(f"traced passes {len(traced)}, untraced passes {len(plain)}; "
          f"overhead {metrics['trace.overhead_s']:.4f} s, "
          f"unattributed {metrics['trace.unattributed_s']:.4f} s per pass")
    return metrics


def git_commit() -> str:
    """Commit of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args: argparse.Namespace, bench: Bench) -> dict:
    sources = sorted(SOURCE.rglob("*.py"))
    sha = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        sha.update(path.relative_to(SOURCE).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": bench.workload.inputs,
        "git_commit": git_commit(),
        "src_sha256": sha.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SOURCE / "nltimebin" / "cli.py").is_file():
        print(f"error: no nltimebin package under {SOURCE}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_DEADLINE_S
    workload = workloads.build(args.workload, args.seed)
    run_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        workload.prepare(run_dir)
        bench = Bench(workload, run_dir, deadline)
        if args.trace:
            metrics = traced_layers(bench, args.seconds)
        else:
            metrics = end_to_end(bench, args.seconds)
        print("env " + json.dumps(environment(args, bench), sort_keys=True))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted, failed, problems = bench.outcome()
    for message in problems:
        print(f"FAIL {message}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
