"""scripts/mutants.py leaves nothing behind when it is stopped."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _children(pid):
    """The pids whose parent is pid, read from /proc."""
    kids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:  # the process ended while we looked
                continue
            # "pid (comm) state ppid ...": comm may hold spaces and parentheses
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                kids.append(int(entry.name))
    return kids


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="finds children in /proc")
def test_sigterm_removes_the_copy_and_stops_the_tests(tmp_path):
    slow = tmp_path / "test_slow.py"
    slow.write_text("import time\n\n\ndef test_slow():\n    time.sleep(120)\n")
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "mutants.py"),
         str(ROOT / "src" / "divpart" / "__init__.py"), str(slow)],
        env={**os.environ, "TMPDIR": str(tmpdir)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    kids = []
    try:
        deadline = time.monotonic() + 60
        while not (list(tmpdir.glob("mutants-*")) and kids) and time.monotonic() < deadline:
            time.sleep(0.05)
            kids = _children(proc.pid)
        assert kids, "the sweep never started its tests"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        assert list(tmpdir.iterdir()) == []
        assert not any(_alive(pid) for pid in kids)
    finally:
        for pid in [proc.pid, *kids]:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        proc.wait()
