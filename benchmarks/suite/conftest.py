"""Fixtures of the benchmark-suite tests.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite -q`` (the
repository's default test run collects ``tests/`` only).  The runner is
driven through its smoke-size workloads, seconds each.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


def _run_suite(tmp_path, *args):
    """``run.py --smoke ARGS`` in a subprocess.

    Returns ``(returncode, stdout, final JSON line, --json record)``.
    """
    out = tmp_path / f"record{len(list(tmp_path.iterdir()))}.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--json", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(out) as fh:
        record = json.load(fh)
    return proc.returncode, proc.stdout, final, record


@pytest.fixture(scope="session")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def smoke_plain(tmp_path_factory):
    """All four workloads, untraced."""
    return _run_suite(tmp_path_factory.mktemp("plain"))


@pytest.fixture(scope="session")
def smoke_traced(tmp_path_factory):
    """All four workloads, with traced children."""
    return _run_suite(tmp_path_factory.mktemp("traced"), "--trace", "1")
