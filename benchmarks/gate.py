#!/usr/bin/env python3
"""Speed gate: compare two ``benchmarks/suite/run.py --json`` records.

Usage::

    python3 benchmarks/gate.py BASE.json CHANGE.json

``BASE.json`` is the suite run on the parent commit, ``CHANGE.json``
the run on the change, both on one machine so that its drift cancels.
The gate fails (exit 1) when a workload of the change has failed
operations or is missing, or when the median of any ``end_to_end``
metric of ``BENCHMARK.json`` is worse than the parent's by more than
that metric's ``bound`` (a fraction of the parent's value).
"""

from __future__ import annotations

import json
import os
import sys
from typing import List

CONTRACT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json",
)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def verdict(base: dict, change: dict) -> List[str]:
    """Every reason the change fails the gate; empty when it passes."""
    metrics = _load(CONTRACT)["end_to_end"]
    ours = {w["workload"]: w for w in change["workloads"]}
    errors = []
    for b in base["workloads"]:
        name = b["workload"]
        c = ours.get(name)
        if c is None:
            errors.append(f"{name}: missing from the change")
            continue
        if c["failed"]:
            errors.append(f"{name}: {c['failed']} of {c['attempted']} "
                          f"operations failed")
        for m in metrics:
            old, new = b["metrics"].get(m["name"]), c["metrics"].get(m["name"])
            if old is None:
                continue
            if new is None:
                errors.append(f"{name}: {m['name']} missing from the change")
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            if sign * (new - old) > m["bound"] * old:
                errors.append(f"{name}: {m['name']} {new:.4g} vs parent "
                              f"{old:.4g} (bound {m['bound']:.0%})")
    return errors


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    errors = verdict(_load(argv[0]), _load(argv[1]))
    for error in errors:
        print(f"FAIL {error}")
    print("bench gate: " + ("fail" if errors else "pass"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
