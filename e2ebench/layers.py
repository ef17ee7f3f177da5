"""Which program entry points the traced run wraps, and the per-layer
metrics computed from what the wraps record.

Layers are the program's top-level modules.  Spans sit only at coarse
boundaries; per-packet calls (``mean_level``, ``carrier_busy``,
``TestPacketFactory.build``, ``match_bytes``, MAC attempts) are counters.
"""

from __future__ import annotations

import importlib
import inspect

from stats import percentile, self_times


def _outer(key: str, amount_of):
    """``on_exit`` hook adding ``amount_of(args, result)`` to ``key`` for
    the outermost call of a layer only (nested calls are one unit)."""

    def on_exit(tracer, args, result, elapsed, outermost):
        if outermost:
            tracer.totals[key] += amount_of(args, result)

    return on_exit


def _records(trace) -> int:
    count = getattr(trace, "packets_received", None)
    return int(count) if count is not None else len(trace)


def _fec(tracer, args, result, elapsed, outermost):
    if outermost:
        received = args[1]
        tracer.totals["fec.decode_calls"] += 1
        tracer.totals["fec.frames"] += received.shape[0] if getattr(received, "ndim", 1) == 2 else 1


def _experiment(tracer, args, result, elapsed, outermost):
    if outermost:
        spec = args[1]
        tracer.totals[f"experiments.{getattr(spec, 'name', spec)}_s"] += elapsed


def _classify(tracer, args, result, elapsed, outermost):
    tracer.samples["serve.classify_s"].append(elapsed)


_ANALYSIS_ARG = _outer("analysis.records", lambda args, result: _records(args[-1]))
_EVENTS = _outer("simkit.events", lambda args, result: int(result or 0))


def _interference_hooks() -> list[tuple]:
    hooks = []
    for module_name in (
        "repro.interference.frontend",
        "repro.interference.narrowband",
        "repro.interference.spreadspectrum",
        "repro.interference.wavelan",
    ):
        module = importlib.import_module(module_name)
        for name, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == module_name and "sample_bulk" in vars(cls):
                hooks.append((module_name, f"{name}.sample_bulk", "span", "interference.sample_bulk", "interference", None))
    return hooks


def program_hooks() -> list[tuple]:
    """Hooks for the in-process workloads (report, fleet) and the
    classification path the server shares with them."""
    return [
        ("repro.experiments.engine", "ExperimentEngine.run", "span", "experiments.run", "experiments", _experiment),
        ("repro.parallel.runner", "run_tasks", "span", "parallel.run_tasks", "parallel", None),
        ("repro.scenario.compiler", "compile_scenario", "span", "scenario.compile", "scenario", None),
        ("repro.trace.trial", "run_fast_trial", "span", "trace.run_fast_trial", "trace", None),
        ("repro.simkit.simulator", "Simulator.run", "span", "simkit.run", "simkit", _EVENTS),
        ("repro.simkit.simulator", "Simulator.run_until", "span", "simkit.run_until", "simkit", _EVENTS),
        ("repro.phy.errormodel", "WaveLanErrorModel.sample_bulk", "span", "phy.sample_bulk", "phy", None),
        ("repro.phy.errormodel", "WaveLanErrorModel.sample_bulk_clean", "span", "phy.sample_bulk_clean", "phy", None),
        *_interference_hooks(),
        ("repro.fec.rcpc", "RcpcCodec.decode", "span", "fec.decode", "fec", _fec),
        ("repro.fec.rcpc", "RcpcCodec.decode_batch", "span", "fec.decode_batch", "fec", _fec),
        ("repro.analysis.classify", "classify_trace", "span", "analysis.classify_trace", "analysis", _ANALYSIS_ARG),
        ("repro.analysis.classify", "IncrementalClassifier.feed", "span", "analysis.feed", "analysis", _ANALYSIS_ARG),
        ("repro.analysis.classify", "IncrementalClassifier.feed_records", "span", "analysis.feed_records", "analysis", _ANALYSIS_ARG),
        ("repro.analysis.classify", "IncrementalClassifier.feed_columnar", "span", "analysis.feed_columnar", "analysis", _ANALYSIS_ARG),
        ("repro.framing.testpacket", "TestPacketFactory.build_bulk", "span", "framing.build_bulk", "framing", None),
        # Per-packet calls: counters only.
        ("repro.environment.propagation", "PropagationModel.mean_level", "counter", "environment.mean_level", "environment", None),
        ("repro.link.channel", "RadioChannel.carrier_busy", "counter", "link.carrier_busy", "link", None),
        ("repro.framing.testpacket", "TestPacketFactory.build", "counter", "framing.build", "framing", None),
        ("repro.analysis.matching", "TraceMatcher.match_bytes", "counter", "analysis.match_bytes", "analysis", None),
        ("repro.mac.csma", "CsmaCaMac._attempt_head", "counter", "mac.attempt", "mac", None),
        ("repro.mac.csma", "CsmaCdMac._attempt_head", "counter", "mac.attempt", "mac", None),
    ]


def server_hooks() -> list[tuple]:
    """Hooks installed inside the server process."""
    return program_hooks() + [
        ("repro.serve.server", "_batch_feed", "span", "serve.classify", "serve", _classify),
        ("repro.serve.protocol", "FrameReader.read_frame", "busy", "serve.frame_io_s", "serve", None),
        ("repro.serve.protocol", "write_frame", "timed", "serve.frame_io_s", "serve", None),
    ]


def dump(tracer) -> dict:
    """Everything a process traced, spans included, in plain JSON types."""
    layers = self_times(tracer.spans)
    for layer, seconds in tracer.leaf_s.items():
        layers[layer] = layers.get(layer, 0.0) + seconds
    return {
        "self_s": layers,
        "calls": dict(tracer.calls),
        "totals": dict(tracer.totals),
        "samples": {key: list(values) for key, values in tracer.samples.items()},
        "missing": tracer.missing,
        "spans": tracer.spans,
    }


#: Per-layer metric name -> unit, in BENCHMARK.json order.
PER_LAYER = {
    "fec.self_s": "s",
    "fec.decode_calls": "count",
    "fec.frames_per_call": "frames/call",
    "simkit.self_s": "s",
    "simkit.events": "count",
    "mac.self_s": "s",
    "link.carrier_busy_calls": "count",
    "environment.self_s": "s",
    "environment.mean_level_calls": "count",
    "phy.self_s": "s",
    "interference.self_s": "s",
    "trace.self_s": "s",
    "analysis.self_s": "s",
    "analysis.records": "count",
    "analysis.scalar_share": "ratio",
    "framing.self_s": "s",
    "framing.build_calls": "count",
    "scenario.self_s": "s",
    "experiments.self_s": "s",
    "experiments.throughput_s": "s",
    "experiments.fec_s": "s",
    "experiments.mac_s": "s",
    "parallel.self_s": "s",
    "serve.frame_io_s": "s",
    "serve.classify_ms_p50": "ms",
    "serve.wait_ms_p50": "ms",
    "serve.ring_overflows": "count",
    "bench.probe_ms": "ms",
    "bench.pass_raw_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.samples": "count",
}


def per_layer(traced: dict, passes: int, speed: float, ack_p50_ms: float, chunks: int) -> dict[str, float]:
    """Per-pass layer metrics; times in reference-speed units.

    ``speed`` is ``P_REF / P_run`` for the traced passes.  Wait is the
    median ACK latency minus the median classify batch and the frame
    I/O per chunk: a difference of medians, not a per-chunk join.
    """
    self_s = traced["self_s"]
    calls = traced["calls"]
    totals = traced["totals"]
    per = 1.0 / max(1, passes)

    def seconds(value: float) -> float:
        return value * speed * per

    decode_calls = totals.get("fec.decode_calls", 0)
    records = totals.get("analysis.records", 0)
    classify = traced["samples"].get("serve.classify_s", [])
    classify_p50 = percentile(classify, 50)
    classify_ms = classify_p50 * speed * 1e3 if classify_p50 is not None else 0.0
    frame_io_ms_per_chunk = (
        totals.get("serve.frame_io_s", 0.0) * speed * 1e3 / chunks if chunks else 0.0
    )
    wait_ms = max(0.0, ack_p50_ms - classify_ms - frame_io_ms_per_chunk) if classify else 0.0
    return {
        "fec.self_s": seconds(self_s.get("fec", 0.0)),
        "fec.decode_calls": decode_calls * per,
        "fec.frames_per_call": totals.get("fec.frames", 0) / decode_calls if decode_calls else 0.0,
        "simkit.self_s": seconds(self_s.get("simkit", 0.0)),
        "simkit.events": totals.get("simkit.events", 0) * per,
        "mac.self_s": seconds(self_s.get("mac", 0.0)),
        "link.carrier_busy_calls": calls.get("link.carrier_busy", 0) * per,
        "environment.self_s": seconds(self_s.get("environment", 0.0)),
        "environment.mean_level_calls": calls.get("environment.mean_level", 0) * per,
        "phy.self_s": seconds(self_s.get("phy", 0.0)),
        "interference.self_s": seconds(self_s.get("interference", 0.0)),
        "trace.self_s": seconds(self_s.get("trace", 0.0)),
        "analysis.self_s": seconds(self_s.get("analysis", 0.0)),
        "analysis.records": records * per,
        "analysis.scalar_share": calls.get("analysis.match_bytes", 0) / records if records else 0.0,
        "framing.self_s": seconds(self_s.get("framing", 0.0)),
        "framing.build_calls": calls.get("framing.build", 0) * per,
        "scenario.self_s": seconds(self_s.get("scenario", 0.0)),
        "experiments.self_s": seconds(self_s.get("experiments", 0.0)),
        "experiments.throughput_s": seconds(totals.get("experiments.throughput_s", 0.0)),
        "experiments.fec_s": seconds(totals.get("experiments.fec_s", 0.0)),
        "experiments.mac_s": seconds(totals.get("experiments.mac_s", 0.0)),
        "parallel.self_s": seconds(self_s.get("parallel", 0.0)),
        "serve.frame_io_s": seconds(totals.get("serve.frame_io_s", 0.0)),
        "serve.classify_ms_p50": classify_ms,
        "serve.wait_ms_p50": wait_ms,
    }
