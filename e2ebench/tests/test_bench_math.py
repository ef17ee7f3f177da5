"""Unit tests for the benchmark's arithmetic, on synthetic inputs only.

Run from the repository root: ``python3 -m pytest e2ebench/tests -q``.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import probe  # noqa: E402
import stats  # noqa: E402
from tracer import Tracer  # noqa: E402


def span(id, parent, layer, start, end, leaf_s=0.0):
    return {"id": id, "parent": parent, "layer": layer, "start": start, "end": end, "leaf_s": leaf_s}


class TestSelfTimes:
    def test_nested_children_are_subtracted(self):
        spans = [
            span(1, None, "experiments", 0.0, 10.0),
            span(2, 1, "trace", 1.0, 4.0),
            span(3, 2, "phy", 2.0, 3.0),
            span(4, 1, "analysis", 5.0, 6.0),
        ]
        assert stats.self_times(spans) == pytest.approx(
            {"experiments": 6.0, "trace": 2.0, "phy": 1.0, "analysis": 1.0}
        )

    def test_overlapping_children_count_once(self):
        # Two concurrent children of one parent cover [1, 5] together.
        spans = [
            span(1, None, "serve", 0.0, 10.0),
            span(2, 1, "analysis", 1.0, 4.0),
            span(3, 1, "analysis", 2.0, 5.0),
        ]
        times = stats.self_times(spans)
        assert times["serve"] == pytest.approx(6.0)
        assert times["analysis"] == pytest.approx(6.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(1, None, "a", 0.0, 2.0), span(2, 1, "b", 1.0, 3.0)]
        assert stats.self_times(spans)["a"] == pytest.approx(1.0)

    def test_counter_time_is_subtracted_and_never_negative(self):
        spans = [span(1, None, "link", 0.0, 1.0, leaf_s=0.25), span(2, None, "mac", 0.0, 1.0, leaf_s=2.0)]
        times = stats.self_times(spans)
        assert times["link"] == pytest.approx(0.75)
        assert times["mac"] == 0.0


class TestTracerStack:
    def test_counter_inside_span_is_charged_to_its_own_layer(self):
        tracer = Tracer()

        def leaf():
            time.sleep(0.02)

        counted = tracer.counter(leaf, "link.carrier_busy", "link")

        def outer():
            time.sleep(0.02)
            counted()

        tracer.span(outer, "simkit.run", "simkit")()
        simkit = stats.self_times(tracer.spans)["simkit"]
        assert tracer.calls["link.carrier_busy"] == 1
        assert tracer.leaf_s["link"] == pytest.approx(0.02, abs=0.01)
        assert simkit == pytest.approx(0.02, abs=0.01)

    def test_nested_same_layer_call_is_counted_once(self):
        tracer = Tracer()
        seen = []

        def on_exit(tracer, args, result, elapsed, outermost):
            seen.append(outermost)

        inner = tracer.span(lambda: None, "fec.decode_batch", "fec", on_exit)
        outer = tracer.span(lambda: inner(), "fec.decode", "fec", on_exit)
        outer()
        assert seen == [False, True]


class TestPercentiles:
    def test_p99_needs_a_thousand_samples(self):
        assert stats.percentile(list(range(999)), 99) is None
        assert stats.percentile(list(range(1000)), 99) == pytest.approx(989.01)

    def test_p50_needs_twenty_samples(self):
        assert stats.percentile([1.0] * 19, 50) is None
        assert stats.percentile(list(range(21)), 50) == 10

    def test_twenty_five_samples_give_no_p99(self):
        # A "p99" over 25 rows is the maximum, not a percentile.
        assert stats.percentile(list(range(25)), 99) is None

    def test_windowed_p99_is_the_median_window_tail(self):
        quiet = [[1.0] * 500] * 2
        stalled = [[1.0] * 480 + [50.0] * 20] * 2
        groups = quiet + stalled + quiet
        # Three windows of 1000; only the middle one saw the stall.
        assert stats.windowed_percentile(groups, 99) == pytest.approx(1.0)

    def test_windowed_p99_folds_the_remainder_and_needs_one_window(self):
        assert stats.windowed_percentile([[1.0] * 999], 99) is None
        assert stats.windowed_percentile([[1.0] * 1000, [9.0] * 20], 99) == pytest.approx(9.0)


class TestNormalization:
    def test_formula(self):
        assert probe.normalize(2.0, 0.030, p_ref_s=0.015) == pytest.approx(1.0)
        assert probe.normalize(2.0, 0.015, p_ref_s=0.015) == pytest.approx(2.0)

    def test_slowdown_cancels(self):
        # An operation and its probe both twice as slow: same number.
        assert probe.normalize(4.0, 2 * probe.P_REF_S) == pytest.approx(
            probe.normalize(2.0, probe.P_REF_S)
        )

    def test_rejects_nonpositive_probe(self):
        with pytest.raises(ValueError):
            probe.normalize(1.0, 0.0)

    def test_op_probe_is_median_of_both_sides(self):
        before = probe.Gap(times=[1.0, 2.0, 9.0], foreign_s=0.0)
        after = probe.Gap(times=[3.0, 4.0, 5.0], foreign_s=0.0)
        assert probe.op_probe_s(before, after) == pytest.approx(3.5)

    def test_guard_flags_foreign_cpu(self):
        assert probe.Gap(times=[1.0], foreign_s=0.0).clean
        assert not probe.Gap(times=[1.0], foreign_s=0.05).clean
