"""End-to-end benchmark of the reproduction package.

Usage, from the repository root::

    python3 e2ebench/run.py --workload report|fleet|serve --seed N \\
        --seconds S --trace 0|1

``--trace 0`` times whole passes with nothing wrapped and prints the
end-to-end metrics; ``--trace 1`` runs a third of the time untraced,
then wraps the layers' entry points from outside and prints per-layer
metrics plus the tracing overhead.  Every timing is in reference-speed
units (see ``probe.py``).  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when any output check fails.  See ``NOTES.md``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Passes every run makes at least (the checks compare passes).
MIN_PASSES = 2
#: Serve passes discarded while the server's matcher cache fills.
SERVE_WARMUP_PASSES = 1

END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "ack_p50_ms": "ms",
    "ack_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "rows_in_band": "count",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("report", "fleet", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_only(args) -> int:
    """Child mode: set the workload up from a fresh interpreter, report
    how long that took, tear it down."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    try:
        workload.setup(args.seed)
        elapsed = time.perf_counter() - STARTED
    finally:
        server = getattr(workload, "server", None)
        if server is not None:
            server.stop()
    print(json.dumps({"setup_s": elapsed}))
    return 0


def _setup_sample(args) -> float:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    from workloads import _child_env

    done = subprocess.run(command, capture_output=True, text=True, timeout=120, env=_child_env())
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _measure(workload, clock, seconds: float, min_samples: int = 0) -> list:
    """Passes until ``seconds`` have gone (and at least ``MIN_PASSES``
    and ``min_samples`` latency samples); every pass completes."""
    passes = []
    started = time.perf_counter()
    while (
        len(passes) < MIN_PASSES
        or time.perf_counter() - started < seconds
        or sum(map(len, workload.ack_groups_ms(passes))) < min_samples
    ):
        passes.append(workload.run_pass(clock))
    return passes


def _peak_rss_mb(workload) -> float:
    if workload.name == "serve":
        return workload.server.peak_rss_mb()
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ack_tail(groups: list[list[float]], q: int) -> float:
    from stats import median, windowed_percentile

    if q == 50:
        return median([ms for group in groups for ms in group])
    value = windowed_percentile(groups, q)
    if value is None:
        raise RuntimeError(f"{sum(map(len, groups))} latency samples do not support p{q}")
    return value


def _run(args, workload) -> tuple[dict, bool]:
    import probe
    import stats
    from workloads import Clock

    OUT_DIR.mkdir(exist_ok=True)
    setup_s: list[float] = []
    if not args.trace:
        clock = Clock()
        for _ in range(SETUP_SAMPLES):
            raw, op = clock.time("setup", lambda: _setup_sample(args))
            setup_s.append(probe.normalize(raw, op.probe_s))
    workload.setup(args.seed)
    serve = workload.name == "serve"
    watch = (workload.server.pid,) if serve else ()
    clock = Clock(watch)
    if serve:
        for _ in range(SERVE_WARMUP_PASSES):
            workload.run_pass(clock)
    untraced_s = args.seconds / 3 if args.trace else args.seconds
    passes = _measure(workload, clock, untraced_s, min_samples=1000 if workload.tail_q == 99 else 0)
    ack_groups = workload.ack_groups_ms(passes)
    latencies = [ms for group in ack_groups for ms in group]
    ops = [op for ops in passes for op in ops]
    attempted = len(ops)
    ok = sum(1 for op in ops if op.ok and op.clean)
    correct = all(op.ok for op in ops)
    ack_p50 = stats.median(latencies)
    ack_tail = _ack_tail(ack_groups, workload.tail_q)
    diagnostics = {
        "workload": workload.name,
        "passes": len(passes),
        "pass_raw_s": stats.median([sum(op.raw_s for op in ops) for ops in passes]),
        "probe_ms": stats.median(clock.probe_times) * 1e3,
        "guard_failures": sum(1 for op in ops if not op.clean),
        "ack_samples": len(latencies),
        "ack_tail_percentile": workload.tail_q,
        "op_median_norm_s": {
            name: stats.median([op.norm_s for op in ops if op.name == name])
            for name in dict.fromkeys(op.name for op in ops)
        },
    }
    if not args.trace:
        metrics = {
            "pass_s": workload.pass_s(passes),
            "setup_s": stats.median(setup_s),
            "ack_p50_ms": ack_p50,
            "ack_p99_ms": ack_tail,
            "peak_rss_mb": _peak_rss_mb(workload),
            "rows_in_band": float(workload.rows_in_band),
        }
        if serve:
            attempted += 1
            clean_exit = workload.finish()
            ok += clean_exit
            correct = correct and clean_exit
        metrics["ok_ratio"] = ok / attempted
        units = END_TO_END
    else:
        metrics, traced_ok = _traced(args, workload, passes)
        correct = correct and traced_ok
        metrics["bench.pass_raw_s"] = diagnostics["pass_raw_s"]
        metrics["bench.samples"] = float(len(latencies))
        import layers

        units = layers.PER_LAYER
    print(json.dumps({"diagnostics": diagnostics}))
    (OUT_DIR / f"{workload.name}-ops.json").write_text(json.dumps({
        "ops": [[op.name, op.start, op.raw_s, op.probe_s] for op in ops],
        "gaps": clock.gaps,
    }))
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, correct


def _traced(args, workload, untraced):
    """Traced passes for the remaining two thirds of the run."""
    import layers
    import probe
    import stats
    from tracer import Tracer
    from workloads import SERVE_SESSIONS, Clock, ServerProcess

    serve = workload.name == "serve"
    ok = True
    tracer = None
    if serve:
        ok = workload.finish()
        trace_path = OUT_DIR / "serve-server-trace.json"
        trace_path.unlink(missing_ok=True)
        workload.server = ServerProcess(str(trace_path))
        clock = Clock((workload.server.pid,))
        workload.run_pass(clock)  # the traced server fills its cache
        warm = 1
    else:
        tracer = Tracer()
        tracer.install(layers.program_hooks())
        clock = Clock()
        warm = 0
    overflows_before = getattr(workload, "overflows", 0)
    try:
        traced = _measure(workload, clock, args.seconds * 2 / 3)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if serve:
        ok = workload.finish() and ok
        dump = json.loads(trace_path.read_text())
    else:
        dump = layers.dump(tracer)
    (OUT_DIR / f"{workload.name}-trace.json").write_text(json.dumps(dump))
    ok = ok and all(op.ok for ops in traced for op in ops)
    speed = probe.P_REF_S / stats.median(clock.probe_times)
    chunks = len(workload.payloads) * SERVE_SESSIONS * (len(traced) + warm) if serve else 0
    ack_p50_ms = stats.median([ms for group in workload.ack_groups_ms(traced) for ms in group])
    metrics = layers.per_layer(dump, len(traced) + warm, speed, ack_p50_ms, chunks)
    metrics["serve.ring_overflows"] = float(
        (getattr(workload, "overflows", 0) - overflows_before) / len(traced)
    )
    metrics["bench.probe_ms"] = stats.median(clock.probe_times) * 1e3
    metrics["bench.trace_overhead"] = workload.pass_s(traced) / workload.pass_s(untraced)
    return metrics, ok


def _pin_to_one_cpu() -> None:
    """Run the benchmark, the server and every child on one CPU.

    On a shared 2-vCPU guest each vCPU's speed changes on its own from
    one second to the next.  With everything on one CPU the probe
    measures the CPU the work ran on, and a serve pass no longer
    depends on the state of a second CPU the probe never saw.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import procs

    procs.become_subreaper()
    # A SIGTERM still runs the clean-up below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.setup_only:
            return _setup_only(args)
        _pin_to_one_cpu()
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload]()
        try:
            result, correct = _run(args, workload)
        finally:
            server = getattr(workload, "server", None)
            if server is not None:  # whatever happened, it must not outlive the run
                server.stop()
    finally:
        procs.stop_resource_tracker()
        stray = procs.reap_descendants()
        if stray:
            print(f"e2ebench: stopped {stray} stray child process(es)", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
