import sys
import threading

import pytest

from divpart import partition


@pytest.fixture
def run_in_threads():
    """Run fn() in more threads than cores, released together with a short
    switch interval so a racy cache fill shows; returns their results."""

    def run(fn, count=4):
        start = threading.Barrier(count)
        results = []

        def worker():
            start.wait(timeout=10)
            results.append(fn())

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(count)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        return results

    return run


@pytest.fixture(scope="session")
def table_r2_400():
    """Shared exact table for r = 2 up to weight 400 (the expensive build)."""
    return partition.build_table(2, 400)


@pytest.fixture(scope="session")
def table_r3_400():
    return partition.build_table(3, 400)


@pytest.fixture(scope="session")
def table_r2_60():
    return partition.build_table(2, 60)
