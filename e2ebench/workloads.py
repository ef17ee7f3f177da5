"""The three workloads: set-up, one timed pass, and its output checks.

Each workload drives the program through its public entry points only
(plus ``report._report_tasks``, the per-experiment split that
``build_report`` itself runs with ``jobs=1``).  A pass is made of
operations; the runner probes between operations so every operation
gets its own reference-speed normalization.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import probe
from stats import median

REPORT_SCALE = 0.1
FLEET_SCALE = 1.0
SERVE_PACKETS = 8192
SERVE_CHUNK_RECORDS = 512
SERVE_SESSIONS = 2
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Op:
    """One timed operation of a pass."""

    name: str
    start: float
    raw_s: float
    norm_s: float
    probe_s: float
    clean: bool  # probe guard held on both sides
    ok: bool = True  # output checks held
    latencies_norm_ms: list[float] = field(default_factory=list)
    rows: list[str] = field(default_factory=list)  # report lines it produced


class Clock:
    """Times operations between probe gaps (see :mod:`probe`)."""

    def __init__(self, watch_pids: tuple[int, ...] = ()) -> None:
        self.watch_pids = watch_pids
        self.last = probe.probe_gap(watch_pids)
        #: (when, probe run times) for every gap, in order.
        self.gaps: list[tuple[float, list[float]]] = [(time.perf_counter(), self.last.times)]

    @property
    def probe_times(self) -> list[float]:
        return [t for _, times in self.gaps for t in times]

    def time(self, name: str, fn: Callable[[], object]) -> tuple[object, Op]:
        started = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - started
        after = probe.probe_gap(self.watch_pids)
        self.gaps.append((time.perf_counter(), after.times))
        p_op = probe.op_probe_s(self.last, after)
        op = Op(
            name=name,
            start=started,
            raw_s=raw,
            norm_s=probe.normalize(raw, p_op),
            probe_s=p_op,
            clean=self.last.clean and after.clean,
        )
        self.last = after
        return result, op


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
class ReportWorkload:
    """Serial ``build_report(scale=0.1)``, one operation per experiment."""

    name = "report"
    #: A pass is the acknowledged unit here and runs are a few passes
    #: long, too few for a tail: ``ack_p99_ms`` reads the median.
    tail_q = 50

    def setup(self, seed: int) -> None:
        from repro.experiments import report

        self.report = report
        self.seed = seed
        self.tasks = report._report_tasks(REPORT_SCALE, seed)
        self.specs = {spec.name: spec for spec in report.report_specs()}
        self.first: Optional[dict[str, list[str]]] = None
        self.rows_in_band = 0

    def run_pass(self, clock: Clock) -> list[Op]:
        from repro import obs

        result = self.report.ReproductionReport()
        ops = []
        # build_report runs its experiments inside a metrics session.
        with obs.ensure_metrics():
            for task in self.tasks:
                value, op = clock.time(task.name, lambda: task.fn(**task.kwargs))
                before = len(result.lines)
                self.specs[task.name].report_lines(result, value, REPORT_SCALE)
                op.rows = [line.markdown() for line in result.lines[before:]]
                ops.append(op)
        rows = {op.name: op.rows for op in ops}
        if self.first is None:
            self.first = rows
            self.rows_in_band = result.in_band_count
        for op in ops:
            # The comparison table holds no wall-clock columns, so each
            # experiment's rows must match the first pass byte for byte.
            op.ok = bool(op.rows) and op.rows == self.first.get(op.name)
        return ops

    def pass_s(self, passes: list[list[Op]]) -> float:
        """Sum over experiments of each experiment's median time (the
        median of whole-pass sums would let one slow experiment in one
        pass move the result)."""
        by_name: dict[str, list[float]] = {}
        for ops in passes:
            for op in ops:
                by_name.setdefault(op.name, []).append(op.norm_s)
        return sum(median(times) for times in by_name.values())

    def ack_groups_ms(self, passes: list[list[Op]]) -> list[list[float]]:
        return [[sum(op.norm_s for op in ops) * 1e3] for ops in passes]


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
class FleetWorkload:
    """Serial ``run_fleet(grid_fleet(), scale=1)``: one operation per pass."""

    name = "fleet"
    tail_q = 50  # whole passes again; see ReportWorkload.tail_q

    def setup(self, seed: int) -> None:
        from repro.scenario import fleet as fleet_module
        from repro.scenario.generate import grid_fleet

        self.fleet_module = fleet_module
        self.seed = seed
        self.fleet = grid_fleet()
        self.first: Optional[list] = None
        self.rows_in_band = 0

    def run_pass(self, clock: Clock) -> list[Op]:
        result, op = clock.time("fleet", lambda: self.fleet_module.run_fleet(
            self.fleet, scale=FLEET_SCALE, seed=self.seed
        ))
        rows = list(result.rows)
        if self.first is None:
            self.first = rows
        good = [
            row for row, first in zip(rows, self.first)
            if row == first and row.packets_received <= row.packets_sent
        ]
        op.ok = len(rows) == len(self.first) == len(good) and bool(rows)
        self.rows_in_band = len(good)
        return [op]

    def pass_s(self, passes: list[list[Op]]) -> float:
        return median([op.norm_s for ops in passes for op in ops])

    def ack_groups_ms(self, passes: list[list[Op]]) -> list[list[float]]:
        return [[op.norm_s * 1e3 for op in ops] for ops in passes]


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class ServeWorkload:
    """A ``jobs=1`` ring-transport server in its own process and a
    closed-loop client: each pass is ``SERVE_SESSIONS`` concurrent
    sessions replaying one ``paper/office`` trace: a clean majority and
    one seeded truncated record per chunk."""

    name = "serve"
    tail_q = 99  # every run sends at least 1000 chunks

    def setup(self, seed: int) -> None:
        from repro.analysis import classify
        from repro.scenario.registry import compiled
        from repro.serve.loadgen import chunk_payloads
        from repro.trace.columnar import ColumnarTrace
        from repro.trace.records import PacketRecord
        from repro.trace.trial import run_fast_trial

        self.seed = seed
        config = compiled("paper/office").trial_config(
            packets=SERVE_PACKETS, seed=seed, name="e2ebench-serve"
        )
        trace = run_fast_trial(config).trace
        # One short record makes its whole chunk take the gather path in
        # ``ColumnarTrace.frame_matrix`` instead of the zero-copy
        # reshape: about 10x the chunk's classify time on this box.  The
        # office link cuts about one record in 70k short, so left alone
        # the seed would decide how many chunks pay that (0-2 of 16, a
        # 15-20% swing in pass time).  One seeded truncation in every
        # chunk makes every run pay it on every chunk, and a natural one
        # then lands in a chunk that already pays.
        rng = random.Random(seed)
        records = trace.records
        for start in range(0, len(records), SERVE_CHUNK_RECORDS):
            index = start + rng.randrange(min(SERVE_CHUNK_RECORDS, len(records) - start))
            record = records[index]
            records[index] = PacketRecord.from_bytes(
                record.data[: rng.randrange(40, 600)], record.status, record.time
            )
        trace = ColumnarTrace.from_trace(trace)
        self.trace = trace
        self.payloads = chunk_payloads(trace, SERVE_CHUNK_RECORDS)
        reference = classify.classify_trace(trace)
        self.expected_counts = {
            cls.value: count for cls, count in reference.class_counts().items()
        }
        self.expected_digest = hashlib.blake2b(
            classify.verdict_row_bytes(
                classify._columns_from_packets(reference.packets)
            ),
            digest_size=8,
        ).hexdigest()
        self.shm_before = _shm_segments()
        self.server = ServerProcess()
        self.passes_run = 0
        self.rows_in_band = 0
        self.overflows = 0

    def run_pass(self, clock: Clock) -> list[Op]:
        self.passes_run += 1
        tag = f"{self.seed}-{self.passes_run}"
        sessions, op = clock.time("serve", lambda: asyncio.run(self._round(tag)))
        good = 0
        for session in sessions:
            summary = session["summary"]
            self.overflows += int(summary.get("ring_overflows", 0))
            if (
                session["error"] is None
                and summary.get("verdict_digest") == self.expected_digest
                and summary.get("counts") == self.expected_counts
                and summary.get("records") == self.trace.packets_received
                and len(session["latencies"]) == len(self.payloads)
            ):
                good += 1
        op.ok = good == len(sessions)
        self.rows_in_band = good
        scale = op.norm_s / op.raw_s if op.raw_s > 0 else 1.0
        op.latencies_norm_ms = [
            t * scale * 1e3 for session in sessions for t in session["latencies"]
        ]
        return [op]

    async def _round(self, tag: str) -> list[dict]:
        return list(await asyncio.gather(*(
            self._session(f"bench-{tag}-{index}")
            for index in range(SERVE_SESSIONS)
        )))

    async def _session(self, session_id: str) -> dict:
        """One closed-loop session; times each chunk from its send to
        its ACK."""
        from repro.parallel.handoff import RingClient
        from repro.serve import protocol
        from repro.serve.protocol import FrameType

        out = {"summary": {}, "latencies": [], "error": None}
        reader, writer = await asyncio.open_connection(*self.server.address)
        frames = protocol.FrameReader(reader)
        ring = None
        try:
            protocol.write_frame(writer, FrameType.HELLO, protocol.hello_payload(
                session_id, "e2ebench", self.trace.spec, self.trace.packets_sent,
                total_records=self.trace.packets_received, shm_ring=True,
                chunk_bytes=max(len(p) for p in self.payloads),
            ))
            await writer.drain()
            frame_type, payload = await frames.read_frame()
            if frame_type is not FrameType.HELLO_OK:
                raise RuntimeError(f"handshake failed: {bytes(payload)!r}")
            hello_ok = protocol.decode_json(bytes(payload))
            grant = hello_ok.get("ring")
            if grant:
                ring = RingClient(grant["name"], int(grant["slots"]), int(grant["slot_bytes"]))
            credits = asyncio.Semaphore(max(1, int(hello_ok.get("window_chunks", 1))))
            sent_at: list[float] = []

            async def read_acks() -> None:
                while True:
                    item = await frames.read_frame()
                    if item is None:
                        raise RuntimeError("server closed before SUMMARY")
                    frame_type, payload = item
                    doc = protocol.decode_json(bytes(payload))
                    if frame_type is FrameType.ACK:
                        now = time.perf_counter()
                        out["latencies"].append(now - sent_at[int(doc["chunks"]) - 1])
                        if ring is not None and doc.get("released"):
                            ring.reclaim(doc["released"])
                        credits.release()
                    elif frame_type is FrameType.SUMMARY:
                        out["summary"] = doc
                        return
                    else:
                        raise RuntimeError(f"{frame_type.name}: {doc}")

            acks = asyncio.create_task(read_acks())
            try:
                for payload in self.payloads:
                    await credits.acquire()
                    if acks.done():
                        break
                    placed = ring.write(payload) if ring is not None else None
                    sent_at.append(time.perf_counter())
                    if placed is not None:
                        protocol.write_frame(writer, FrameType.CHUNK_REF, protocol.chunk_ref_payload(*placed))
                    else:
                        protocol.write_frame(writer, FrameType.CHUNK, payload)
                    await writer.drain()
                protocol.write_frame(writer, FrameType.END)
                await writer.drain()
                await acks
            finally:
                if not acks.done():
                    acks.cancel()
                    await asyncio.gather(acks, return_exceptions=True)
            # The server closes its end once the session is torn down;
            # waiting for that keeps its teardown out of the next probe.
            await reader.read()
        except Exception as exc:  # one failed session must not end the run
            out["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            if ring is not None:
                ring.close()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        return out

    def pass_s(self, passes: list[list[Op]]) -> float:
        return median([op.norm_s for ops in passes for op in ops])

    def ack_groups_ms(self, passes: list[list[Op]]) -> list[list[float]]:
        return [op.latencies_norm_ms for ops in passes for op in ops]

    def finish(self) -> bool:
        """Stop the server; True when it exited 0 on SIGTERM and left no
        new shared-memory segment behind."""
        code = self.server.stop()
        leaked = _shm_segments() - self.shm_before
        if leaked:
            print(f"server left shared memory behind: {sorted(leaked)}", file=sys.stderr)
        return code == 0 and not leaked


class ServerProcess:
    """``run_server`` in a child process (see :mod:`server_main`)."""

    def __init__(self, trace_path: Optional[str] = None) -> None:
        command = [sys.executable, str(BENCH_DIR / "server_main.py")]
        if trace_path is not None:
            command += ["--trace-out", trace_path]
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=_child_env()
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.split()[2].rsplit(":", 1)
        self.address = (host, int(port))
        self.pid = self.proc.pid

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM and wait; returns the exit code.  Idempotent."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = -9
        self.proc.stdout.close()
        return code


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(BENCH_DIR.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"  # the server's address line must not sit in a buffer
    return env


WORKLOADS = {
    "report": ReportWorkload,
    "fleet": FleetWorkload,
    "serve": ServeWorkload,
}
