"""Checks over the whole test session."""

import os
from pathlib import Path

import pytest


def pytest_sessionfinish(session):
    """Fail the run when a test left a child process of this one behind,
    running or exited and unreaped (the flow and training fork children)."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid == 0:        # still running; Linux lists a thread's children
        listed = Path(f"/proc/self/task/{os.getpid()}/children")
        pid = listed.read_text().strip() if listed.exists() else "unknown"
    session.exitstatus = session.exitstatus or pytest.ExitCode.TESTS_FAILED
    session.config.get_terminal_writer().line(
        f"\na test left a child process behind: pid {pid}", red=True)
