"""Pin the set of ``REPRO_*`` environment switches the package reads.

Every switch is a configuration axis the tests, benchmarks and docs must
cover, so adding one is a design decision: it has to update this list
in review rather than slip in with a cache or a fast path.
"""

import os
import re

import repro

KEPT = {
    "REPRO_NATIVE",
    "REPRO_PLAN_CACHE_DIR",
    "REPRO_STRICT",
    "REPRO_VERIFY_PLANS",
}


def _names_under(root):
    names = set()
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name),
                          encoding="utf-8") as fh:
                    names.update(re.findall(r"REPRO_[A-Z_]+", fh.read()))
    return names


def test_env_switches_are_the_kept_four():
    root = os.path.dirname(os.path.abspath(repro.__file__))
    assert _names_under(root) == KEPT
