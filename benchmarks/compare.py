"""Merge a before and an after pytest-benchmark JSON into one record.

Usage::

    python benchmarks/compare.py BEFORE.json BEFORE_SRC AFTER.json AFTER_SRC OUT.json

``BEFORE_SRC``/``AFTER_SRC`` are the ``src/`` directories the two runs
imported; their Python line counts go into the record next to the
per-case statistics (seconds) and the after/before median ratio.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

STATS = ("min", "median", "iqr", "mean", "rounds")


def _cases(path: str) -> tuple[dict, dict]:
    payload = json.loads(Path(path).read_text())
    cases = {b["name"]: {k: b["stats"][k] for k in STATS} for b in payload["benchmarks"]}
    return cases, payload["machine_info"]


def _src_lines(src: str) -> int:
    return sum(len(p.read_text().splitlines()) for p in Path(src).rglob("*.py"))


def main(argv: list[str]) -> int:
    if len(argv) != 6:
        print(__doc__, file=sys.stderr)
        return 2
    before, machine = _cases(argv[1])
    after, _ = _cases(argv[3])
    record = {
        "machine": {k: machine.get(k) for k in ("processor", "machine", "python_version", "cpu")},
        "src_lines": {"before": _src_lines(argv[2]), "after": _src_lines(argv[4])},
        "cases": {
            name: {
                "before": before[name],
                "after": after[name],
                "median_ratio": after[name]["median"] / before[name]["median"],
            }
            for name in before
            if name in after
        },
    }
    Path(argv[5]).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
