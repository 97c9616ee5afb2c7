"""Merge alternating before/after pytest-benchmark JSON rounds into one record.

Usage::

    python benchmarks/compare.py BEFORE_SRC AFTER_SRC OUT.json B1.json A1.json B2.json A2.json [...]

``BEFORE_SRC``/``AFTER_SRC`` are the ``src/`` directories the two sides
imported; their Python line counts go into the record.  Each following
pair of JSON files, before then after, is one round; run the rounds with
the two sides in alternating order.  At least two rounds are needed.
Per case the record holds, for each side, the median and the
interquartile range of the per-round medians (seconds), the after/before
ratio of those medians, and in how many rounds the after side's median
was lower.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def _cases(path: str) -> tuple[dict, dict]:
    payload = json.loads(Path(path).read_text())
    cases = {b["name"]: b["stats"]["median"] for b in payload["benchmarks"]}
    return cases, payload["machine_info"]


def _src_lines(src: str) -> int:
    return sum(len(p.read_text().splitlines()) for p in Path(src).rglob("*.py"))


def _summary(medians: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(medians, n=4, method="inclusive")
    return {"median": statistics.median(medians), "iqr": q3 - q1, "rounds": len(medians)}


def main(argv: list[str]) -> int:
    runs = [_cases(path) for path in argv[4:]]
    if len(runs) < 4 or len(runs) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    rounds = [(b, a) for (b, _), (a, _) in zip(runs[::2], runs[1::2])]
    machine = runs[0][1]
    names = [n for n in rounds[0][0] if all(n in b and n in a for b, a in rounds)]
    cases = {}
    for name in names:
        before = _summary([b[name] for b, _ in rounds])
        after = _summary([a[name] for _, a in rounds])
        cases[name] = {
            "before": before,
            "after": after,
            "median_ratio": after["median"] / before["median"],
            "after_wins": sum(a[name] < b[name] for b, a in rounds),
        }
    record = {
        "machine": {k: machine.get(k) for k in ("processor", "machine", "python_version", "cpu")},
        "src_lines": {"before": _src_lines(argv[1]), "after": _src_lines(argv[2])},
        "cases": cases,
    }
    Path(argv[3]).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
