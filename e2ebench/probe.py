"""The frozen reference probe that end-to-end timings are normalized by.

On a shared host the same operation can run twice as slow from one
minute to the next because of work outside this machine's control.  A
fixed workload timed right beside the operation slows down with it, so
``raw × P_REF_S / P_op`` (reference-speed seconds) stays put while raw
seconds drift.

The probe is frozen: it imports nothing from the program under test,
uses no BLAS and starts no threads, so nothing a change to the program
does can make it faster or slower.  Normalized numbers from two
commits are comparable only while this file and ``P_REF_S`` are
unchanged.  Its mix follows what the program spends time on: Python
bytecode (simulation and matching loops), element-wise NumPy over
cache-sized arrays (bulk sampling and Viterbi steps) and large copies
(trace chunks and frame buffers).
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

#: Median probe time on the reference box (2-vCPU KVM guest, quiet).
#: A reference-speed second is a second of work on that box.
P_REF_S = 0.0150

#: Probe runs per gap between two operations.
PROBE_RUNS = 3

#: CPU seconds other threads or watched processes may use during one
#: gap (about 45 ms of probing) before the gap counts as disturbed.
GUARD_FOREIGN_S = 0.002


def _interpreter(rounds: int = 25000) -> int:
    table: dict[int, int] = {}
    acc = 0
    for index in range(rounds):
        acc = (acc * 31 + index) & 0xFFFFFF
        table[index & 511] = acc
    return acc + min(table.values())


_VECTOR = np.linspace(0.0, 1.0, 32768)


def _numeric(rounds: int = 7) -> float:
    values = _VECTOR
    for _ in range(rounds):
        values = np.mod(values * 1.0001 + 0.5, 7.0)
    return float(values[-1])


_SOURCE = bytearray(os.urandom(1 << 16)) * 128  # 8 MiB
_TARGET = bytearray(len(_SOURCE))


def _memory(rounds: int = 2) -> int:
    view = memoryview(_TARGET)
    for _ in range(rounds):
        view[:] = _SOURCE
    return _TARGET[-1]


def probe_once() -> float:
    """One fixed probe run; wall seconds."""
    started = time.perf_counter()
    _interpreter()
    _numeric()
    _memory()
    return time.perf_counter() - started


def _cpu_s(pid: int) -> float:
    """CPU seconds of another process, all threads.

    The scheduler's per-thread runtime has microsecond resolution; the
    tick counters in ``/proc/PID/stat`` (the fallback) move in 10 ms
    steps, so on kernels without the former any tick trips the guard.
    """
    total = 0.0
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/sched", "rb") as stream:
                for line in stream:
                    if line.startswith(b"se.sum_exec_runtime"):
                        total += float(line.split(b":")[1]) / 1e3
                        break
                else:
                    raise FileNotFoundError("no se.sum_exec_runtime")
        return total
    except FileNotFoundError:
        with open(f"/proc/{pid}/stat", "rb") as stream:
            fields = stream.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@dataclass
class Gap:
    """The probe runs between two operations."""

    times: list[float]
    foreign_s: float

    @property
    def clean(self) -> bool:
        return self.foreign_s <= GUARD_FOREIGN_S


def probe_gap(watch_pids: tuple[int, ...] = ()) -> Gap:
    """Run the probe ``PROBE_RUNS`` times and guard it.

    ``foreign_s`` is CPU time spent during the probe by anything but the
    probing thread: other threads of this process, and the processes in
    ``watch_pids`` (a server that should be idle).  A program that kept
    working in the background would slow the probe and so flatter its
    own normalized numbers; the guard marks such gaps.
    """
    watched = [_cpu_s(pid) for pid in watch_pids]
    process0, thread0 = time.process_time(), time.thread_time()
    times = [probe_once() for _ in range(PROBE_RUNS)]
    process1, thread1 = time.process_time(), time.thread_time()
    foreign = max(0.0, (process1 - process0) - (thread1 - thread0))
    foreign += sum(
        _cpu_s(pid) - before for pid, before in zip(watch_pids, watched)
    )
    return Gap(times=times, foreign_s=foreign)


def op_probe_s(before: Gap, after: Gap) -> float:
    """``P_op``: the median probe run around one operation."""
    return statistics.median(before.times + after.times)


def normalize(raw_s: float, p_op_s: float, p_ref_s: float = P_REF_S) -> float:
    """Raw seconds to reference-speed seconds: ``raw × P_ref / P_op``."""
    if p_op_s <= 0.0:
        raise ValueError(f"probe time must be positive, got {p_op_s}")
    return raw_s * p_ref_s / p_op_s
