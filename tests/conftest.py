"""Pytest wiring: acceptance-criterion summary lines at the end of a run,
and a guard against worker processes that outlive their test."""

from __future__ import annotations

import sys

import pytest

_ACCEPTANCE: list[tuple[int, str]] = []


def record_criterion(number: int, description: str, passed: bool,
                     detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    _ACCEPTANCE.append((number, f"criterion {number:>2}: {status}  "
                                f"{description}{suffix}"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_ACCEPTANCE):
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_worker_left():
    """Fail a test after which a ``multiprocessing`` child still runs."""
    yield
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None:
        assert not multiprocessing.active_children(), \
            "a worker process outlived the test"
