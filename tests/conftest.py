"""Shared pytest hooks: prints one PASS/FAIL line per acceptance criterion,
and starts every test with no cached large-scale batch or finite-M draws."""

import pytest

from multicast_mimo import engine

_acceptance_results = []


@pytest.fixture(autouse=True)
def cold_caches():
    """No test sees a batch or a draw block that an earlier test left in a cache."""
    engine._cached_batch.cache_clear()
    engine._cached_draws.cache_clear()


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_results.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, outcome in sorted(_acceptance_results):
        terminalreporter.write_line(f"  {name}: {outcome.upper()}")
