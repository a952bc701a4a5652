"""Suite-wide fixtures."""

import pytest

from repro import perf

#: The configuration the environment selects; every test must leave
#: :func:`repro.perf.runtime` as it found it (use ``perf.override``).
DEFAULT_RUNTIME = perf.runtime()


@pytest.fixture(autouse=True)
def _runtime_restored():
    yield
    assert perf.runtime() == DEFAULT_RUNTIME, (
        f"test left perf.runtime() at {perf.runtime()}; change it only "
        f"inside `with perf.override(...)`"
    )
