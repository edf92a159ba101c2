"""Session guard: a test run must not rewrite tracked files.

The content of every ``git ls-files`` path is hashed when the session starts
and again when it ends; any file that changed, appeared or vanished fails the
session and is named in the summary.  Outside a git checkout the guard is off.
"""

import hashlib
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent
_BEFORE = pytest.StashKey[dict]()
_CHANGED = pytest.StashKey[list]()


def _tracked_hashes() -> dict[str, str | None] | None:
    try:
        listing = subprocess.run(
            ["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, check=True
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    hashes = {}
    for name in filter(None, listing.decode().split("\0")):
        path = ROOT / name
        hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return hashes


def pytest_sessionstart(session):
    session.config.stash[_BEFORE] = _tracked_hashes()


def pytest_sessionfinish(session):
    before = session.config.stash[_BEFORE]
    if before is None:
        return
    after = _tracked_hashes() or {}
    changed = sorted(n for n in before.keys() | after.keys() if before.get(n) != after.get(n))
    session.config.stash[_CHANGED] = changed
    if changed:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    changed = config.stash.get(_CHANGED, [])
    if changed:
        terminalreporter.write_sep("=", "tracked files changed by this test run", red=True)
        for name in changed:
            terminalreporter.write_line(name)

