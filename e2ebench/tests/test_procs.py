"""The benchmark leaves no process behind, orphaned grandchildren too.

Run from the repository root: ``python3 -m pytest e2ebench/tests -q``.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]


def _run(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=60, cwd=BENCH_DIR,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_orphaned_grandchild_is_reaped():
    out = _run("""
        import os, subprocess, time
        import procs
        procs.become_subreaper()
        # The shell exits at once, orphaning its sleeping child.
        subprocess.run(["sh", "-c", "sleep 60 & exit 0"], check=True)
        time.sleep(0.2)
        orphans = procs._children()
        print(len(orphans), procs.reap_descendants(grace_s=5), procs._children())
        for pid in orphans:
            assert not os.path.exists(f"/proc/{pid}")
    """)
    assert out.split() == ["1", "1", "[]"]


def test_resource_tracker_is_stopped_and_reaped():
    out = _run("""
        from multiprocessing import resource_tracker, shared_memory
        import procs
        block = shared_memory.SharedMemory(create=True, size=64)
        block.close()
        block.unlink()
        tracker = resource_tracker._resource_tracker._pid
        procs.stop_resource_tracker()
        print(tracker is not None, procs._children())
    """)
    assert out.split() == ["True", "[]"]
