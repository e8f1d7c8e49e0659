import sys

import pytest
from hypothesis import HealthCheck, settings

# Big-integer cases can be slow on a cold cache; wall-clock deadlines only
# add flakiness for exact-arithmetic properties.
settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture
def pools(monkeypatch):
    """Stands an in-process pool in for the process pool. Returns the list
    of pools started, each as (max_workers, [(lo, hi) per chunk])."""
    import concurrent.futures

    started = []

    class InlinePool:
        """Records its plan and runs every chunk in this process."""

        def __init__(self, max_workers):
            self.tasks = []
            started.append((max_workers, self.tasks))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, checks, starts, ends):
            self.tasks.extend(zip(starts, ends))
            return [fn(check, lo, hi) for check, (lo, hi) in zip(checks, self.tasks)]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return started


@pytest.fixture
def digit_limit():
    """Holds CPython's default int<->str digit limit, 4300, for one test,
    then restores the limit it found."""
    found = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(found)
