"""Process hygiene: nothing the benchmark starts outlives it.

The serve workload starts a server process, and both the server and the
benchmark attach ``multiprocessing.shared_memory`` blocks, which starts
a ``multiprocessing`` resource-tracker process in each.  A tracker ends
only after its parent has gone, so left alone it is orphaned, and where
the init process does not reap orphans it stays behind as a zombie.

``python3 e2ebench/run.py`` therefore makes itself a child subreaper
(orphaned descendants are re-parented to it rather than to init), stops
its own resource tracker and reaps every descendant before it exits;
``server_main.py`` stops its tracker before it exits.
"""

from __future__ import annotations

import os
import signal
import time

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Re-parent orphaned descendants to this process (Linux only)."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # without it reap_descendants still reaps direct children


def stop_resource_tracker() -> None:
    """End this process's ``multiprocessing`` resource tracker, if it
    started one, and wait for it."""
    try:
        from multiprocessing import resource_tracker
    except ImportError:
        return
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except ChildProcessError:
            pass  # already reaped


def _children() -> list[int]:
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stream:
                fields = stream.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone meanwhile
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap_descendants(grace_s: float = 10.0) -> int:
    """Wait for every child (and, as a subreaper, every orphaned
    descendant) to end: SIGTERM the live ones, SIGKILL what is left
    after ``grace_s``.  Returns how many were still alive when called."""
    deadline = time.monotonic() + grace_s
    signalled: set[int] = set()
    live_at_start = None
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return live_at_start or 0
        if pid:
            continue  # reaped one; look again
        live = _children()
        if live_at_start is None:
            live_at_start = len(live)
        late = time.monotonic() > deadline
        for child in live:
            if late or child not in signalled:
                try:
                    os.kill(child, signal.SIGKILL if late else signal.SIGTERM)
                except ProcessLookupError:
                    pass
                signalled.add(child)
        time.sleep(0.02)
