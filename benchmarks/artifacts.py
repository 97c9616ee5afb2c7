"""Compare the CLI artifacts of two source trees, run by run.

Usage::

    python benchmarks/artifacts.py PARENT_SRC CHANGE_SRC

Runs every invocation in ``RUNS`` as ``python -m nltimebin`` against each
``src/`` directory, with one BLAS thread.  Each side runs in a fresh
temporary directory, in list order, and run k writes to ``out/k``; the
``fit`` runs read the ``fringe.csv`` of an earlier run.  One line per run
tells whether its artifacts, its stdout, its stderr and its exit code
match; each differing stream is printed whole from both sides, parent
lines marked ``-`` and change lines ``+``, with the side's directory
written as ``<dir>``.  Each differing JSON artifact lists every leaf that
moved: its key path, the parent and change values and, for two numbers,
their relative difference, so a one-ulp move shows as such.  The exit status is 1 if any artifact, stdout or
exit code differs, else 0: a changed error message alone is reported
but passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# Per-flag defaults that ``--config`` runs read, unit suffixes included.
CONFIG = {"delta": "1GHz", "sigma": "100ps", "phi": 0.3, "grid": 16}

RUNS = [
    # jti: every unit of --delta and --sigma, a phase, and a config file.
    ["jti", "--grid", "16"],
    ["jti", "--delta", "0.6", "--sigma", "1.1", "--phi", "0.4", "--grid", "32"],
    ["jti", "--delta", "1GHz", "--grid", "16"],
    ["jti", "--delta", "0.05cm-1", "--grid", "16"],
    ["jti", "--delta", "0.05 1/cm", "--grid", "16"],
    ["jti", "--delta", "0.05cm^-1", "--grid", "16"],
    ["jti", "--sigma", "100ps", "--grid", "16"],
    ["jti", "--sigma", "2ghz", "--grid", "16"],
    ["jti", "--sigma", "0.02cm-1", "--grid", "16"],
    ["jti", "--phi", "1.5", "--grid", "16"],
    ["jti", "--config", "config.json"],
    # Exact fringes.
    ["fringe", "--grid", "25"],
    ["fringe", "--delta", "1.0", "--grid", "11"],
    ["fringe", "--delta", "2GHz", "--sigma", "50ps", "--grid", "9"],
    ["fringe", "--delta", "20", "--grid", "101"],
    ["fringe", "--sigma", "0.03 1/cm", "--grid", "9"],
    ["fringe", "--sigma", "0.03cm^-1", "--grid", "9"],
    # Sampled fringes over several seeds and grids.
    ["fringe", "--grid", "25", "--shots", "20000", "--seed", "1"],
    ["fringe", "--grid", "25", "--shots", "20000", "--seed", "2"],
    ["fringe", "--grid", "25", "--shots", "20000", "--seed", "3"],
    ["fringe", "--grid", "11", "--shots", "5000", "--seed", "4", "--delta", "0.5"],
    ["fringe", "--grid", "101", "--shots", "1000", "--seed", "0"],
    ["fringe", "--grid", "9", "--shots", "100000", "--seed", "7", "--sigma", "0.3"],
    # Characterization sweeps: every unit of --delta-max and of a --sigma list.
    ["characterize", "--sigma", "0.5,1,2", "--delta-max", "3", "--grid", "5"],
    ["characterize", "--sigma", "0.5,100ps,2GHz", "--delta-max", "3GHz", "--grid", "4"],
    ["characterize", "--delta-max", "0.1cm-1", "--grid", "3"],
    ["characterize", "--delta-max", "0.1 1/cm", "--grid", "3"],
    ["characterize", "--delta-max", "0.1cm^-1", "--grid", "3"],
    ["characterize", "--sigma", "0.02cm-1,0.02cm^-1,0.02 1/cm", "--grid", "3"],
    # Water traces, bare and in ps.
    ["water"],
    ["water", "--tmax", "0.4ps", "--steps", "21"],
    ["water", "--tmax", "0.3", "--steps", "11"],
    ["water", "--tmax", "2", "--steps", "101"],
    # Fits of the sampled and exact fringes of runs 18, 22 and 12 (runs count from 1).
    ["fit", "--data", "out/18/fringe.csv"],
    ["fit", "--data", "out/18/fringe.csv", "--distinguishability"],
    ["fit", "--data", "out/22/fringe.csv"],
    ["fit", "--data", "out/22/fringe.csv", "--distinguishability"],
    ["fit", "--data", "out/12/fringe.csv"],
    ["fit", "--data", "out/12/fringe.csv", "--distinguishability"],
    # Help pages.
    ["--help"],
    ["jti", "--help"],
    ["fringe", "--help"],
    ["characterize", "--help"],
    ["fit", "--help"],
    ["water", "--help"],
    # Refusals: exit 2 names a flag, exit 3 is a numerical failure.
    ["jti", "--phi", "1ps"],
    ["jti", "--phi", "1GHz"],
    ["water", "--tmax", "1GHz"],
    ["characterize", "--delta-max", "1ps"],
    ["characterize", "--delta-max", "-1"],
    ["jti", "--delta", "1ps"],
    ["jti", "--sigma", "0ps"],
    ["jti", "--sigma", "1e999ps"],
    ["jti", "--sigma", "1parsec"],
    ["fringe", "--delta", "0.051/cm", "--grid", "2"],
    ["fringe", "--sigma", "1e200"],
    ["jti", "--delta=-1e151"],
    ["characterize", "--delta-max", "1e200", "--grid", "2"],
    ["water", "--tmax", "1e308", "--steps", "3"],
    ["water", "--tmax", "3parsec"],
    ["fringe", "--grid", "11", "--shots", "20"],
    ["fringe", "--shots", "100000000000000000000", "--grid", "3"],
    ["fit"],
    ["jti", "--grid", "1025"],
    ["jti", "--grid", "2.5"],
    ["water", "--steps", "1"],
    ["fringe", "--sigma", "1e4", "--grid", "3"],
    ["characterize", "--sigma", "1e-20", "--grid", "2", "--delta-max", "1"],
]


def _run_side(src: Path, work: Path) -> list[dict]:
    """Every run of ``RUNS`` against ``src`` in ``work``: exit code, streams and artifacts."""
    (work / "config.json").write_text(json.dumps(CONFIG))
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    results = []
    for k, argv in enumerate(RUNS, start=1):
        out = work / "out" / str(k)
        help_run = "--help" in argv
        proc = subprocess.run([sys.executable, "-m", "nltimebin", *argv,
                               *([] if help_run else ["--out", f"out/{k}"])],
                              cwd=work, env=env, capture_output=True, text=True)
        files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
        results.append({
            "code": proc.returncode,
            "stdout": proc.stdout.replace(str(work), "<dir>"),
            "stderr": proc.stderr.replace(str(work), "<dir>"),
            "files": {str(p.relative_to(out)): p.read_bytes() for p in files},
        })
    return results


def _show(name: str, before: str, after: str) -> None:
    print(f"      {name}:")
    for sign, text in (("-", before), ("+", after)):
        for line in text.splitlines():
            print(f"        {sign}{line}")


def _leaves(value, path: str = ""):
    """``(key path, leaf)`` pairs of a parsed JSON document, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _leaves(item, f"{path}[{k}]")
    else:
        yield path, value


def _show_json(name: str, before: bytes | None, after: bytes | None) -> None:
    """Every leaf of a JSON artifact that differs between the two sides."""
    try:
        old, new = (dict(_leaves(json.loads(b))) if b is not None else {} for b in (before, after))
    except ValueError:
        return
    print(f"      {name}:")
    for path in list(old) + [p for p in new if p not in old]:
        a, b = old.get(path, "<absent>"), new.get(path, "<absent>")
        if repr(a) == repr(b):
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        top = max(abs(a), abs(b)) if numbers else 0.0
        relative = f"  relative {abs(a - b) / top:.2g}" if 0.0 < top < math.inf else ""
        print(f"        {path}: {a!r} -> {b!r}{relative}")


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent_src, change_src = (Path(arg).resolve() for arg in argv[1:])
    sides = []
    for src in (parent_src, change_src):
        work = Path(tempfile.mkdtemp(prefix="artifacts-"))
        try:
            sides.append(_run_side(src, work))
        finally:
            shutil.rmtree(work)

    files = same_files = same_stdout = same_stderr = same_code = 0
    for k, (argv, before, after) in enumerate(zip(RUNS, *sides), start=1):
        names = sorted(set(before["files"]) | set(after["files"]))
        differing = [n for n in names if before["files"].get(n) != after["files"].get(n)]
        files += len(names)
        same_files += len(names) - len(differing)
        checks = {"stdout": before["stdout"] == after["stdout"],
                  "stderr": before["stderr"] == after["stderr"],
                  "exit": before["code"] == after["code"]}
        same_stdout += checks["stdout"]
        same_stderr += checks["stderr"]
        same_code += checks["exit"]
        verdict = ("same" if not differing and all(checks.values()) else
                   "differs: " + ", ".join(differing + [n for n, ok in checks.items() if not ok]))
        print(f"{k:3d} exit {before['code']}/{after['code']}  files {len(names)}  {verdict}  "
              f"| {' '.join(argv)}")
        for name in differing:
            if name.endswith(".json"):
                _show_json(name, before["files"].get(name), after["files"].get(name))
        for stream in ("stdout", "stderr"):
            if not checks[stream]:
                _show(stream, before[stream], after[stream])
    print(f"{len(RUNS)} runs: {same_files} of {files} artifacts identical; stdout identical in "
          f"{same_stdout}, stderr in {same_stderr}, exit code in {same_code}")
    return 0 if same_files == files and same_stdout == same_code == len(RUNS) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
