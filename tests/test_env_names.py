"""Pin the set of ``REPRO_*`` environment switches the package reads.

Every switch is a configuration axis the tests, benchmarks and docs must
cover, so adding one is a design decision: it has to update this list
in review rather than slip in with a cache or a fast path.  Each one is
a field of :class:`repro.perf.RuntimeConfig`, read in
``RuntimeConfig.from_env`` and nowhere else.
"""

import os
import re

import repro

KEPT = {
    "REPRO_NATIVE",
    "REPRO_PLAN_CACHE_DIR",
    "REPRO_STRICT",
}


def _sources(root):
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    yield os.path.relpath(path, root), fh.read()


ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def test_env_switches_are_the_kept_three():
    names = set()
    for _, text in _sources(ROOT):
        names.update(re.findall(r"REPRO_[A-Z_]+", text))
    assert names == KEPT


def test_only_from_env_reads_them():
    # A read names the variable in a string literal; docs name it in
    # double backticks.
    readers = {path for path, text in _sources(ROOT)
               if re.search(r"[\"']REPRO_", text)}
    assert readers == {os.path.join("perf", "__init__.py")}
