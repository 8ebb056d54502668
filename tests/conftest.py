"""Hooks of the pinned-answer manifest (``pins.py``)."""

import pytest

from pins import SESSION


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    try:
        return (yield)
    finally:
        SESSION.fail_moved()


def pytest_terminal_summary(terminalreporter):
    for line in SESSION.rerecord():  # a re-record run writes the manifest here
        terminalreporter.write_line(line)
