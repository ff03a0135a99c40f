"""Unit tests of the benchmark's own arithmetic.

Run with ``python -m pytest bench/tests -q``.  Nothing here reads the
wall clock: durations are synthetic, fed through an injected timer.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import clock  # noqa: E402
import schedule  # noqa: E402


class FakeTime:
    """A timer that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_clock(kernel_seconds):
    """A clock whose kernel takes the next of ``kernel_seconds`` per pass
    (the last value repeats)."""
    time = FakeTime()
    durations = list(kernel_seconds)

    def kernel():
        time.advance(durations.pop(0) if len(durations) > 1 else durations[0])

    return clock.CalibratedClock(timer=time, kernel=kernel,
                                 nominal_s=0.010), time


class TestSliceArithmetic:
    def test_factor_formula(self):
        # kernel ran at 20 ms and 30 ms around the slice, nominal 10 ms:
        # the host was 2.5x slow, so 5 s raw is 2 s calibrated
        assert 5.0 * clock.cal_factor(0.020, 0.030, 0.010) == \
            pytest.approx(2.0)
        assert clock.cal_factor(0.010, 0.010, 0.010) == pytest.approx(1.0)

    def test_measure_uses_both_adjacent_calibrations(self):
        # opening passes take 10 ms, closing passes 30 ms
        passes = [0.010] * 5 + [0.030]
        measured, time = make_clock(passes)
        measured.calibrate(0.05)  # 5 opening passes
        result, raw_s, factor = measured.measure(lambda: time.advance(1.0))
        assert result is None
        assert raw_s == pytest.approx(1.0)
        assert factor == pytest.approx(0.010 / 0.020)
        assert measured.factors == [factor]

    def test_closing_calibration_lasts_a_fifth_of_the_slice(self):
        measured, time = make_clock([0.010])
        measured.calibrate()
        before = measured.kernel_seconds
        measured.measure(lambda: time.advance(2.0))
        assert measured.kernel_seconds - before >= clock.CAL_SHARE * 2.0
        assert measured.slice_seconds == pytest.approx(2.0)

    def test_back_to_back_slices_share_a_calibration(self):
        measured, time = make_clock([0.010, 0.010, 0.020, 0.020, 0.040])
        measured.calibrate()                              # 10 ms passes
        _, _, first = measured.measure(lambda: time.advance(0.05))   # 20 ms
        _, _, second = measured.measure(lambda: time.advance(0.05))  # 40 ms
        assert first == pytest.approx(0.010 / 0.015)
        assert second == pytest.approx(0.010 / 0.030)

    def test_detach_forces_a_fresh_opening_calibration(self):
        measured, time = make_clock([0.010])
        measured.calibrate()
        measured.detach()
        before = measured.kernel_seconds
        measured.measure(lambda: time.advance(0.0))
        assert measured.kernel_seconds - before >= clock.OPENING_CAL_S

    def test_sliced_cuts_slices_and_keeps_one_factor_per_item(self):
        measured, time = make_clock([0.010])
        items = list(range(10))
        results, raw, factors, raw_s, cal_s = measured.sliced(
            items, lambda item: time.advance(0.15) or item * 2, slice_s=0.4)
        assert results == [item * 2 for item in items]
        assert raw == pytest.approx([0.15] * 10)
        assert len(factors) == 10
        assert len(measured.factors) == 4        # 3 + 3 + 3 + 1 items
        assert raw_s == pytest.approx(1.5)
        assert cal_s == pytest.approx(1.5)       # kernel ran at nominal

    def test_tracer_spans_get_the_slice_factor(self):
        measured, time = make_clock([0.020])
        tracer = clock.Tracer(timer=time)
        measured.tracer = tracer
        measured.calibrate()

        def work():
            with tracer.span("layer"):
                time.advance(1.0)

        _, _, factor = measured.measure(work)
        assert factor == pytest.approx(0.5)
        assert tracer.spans[0]["factor"] == pytest.approx(0.5)
        assert clock.total_by_name(tracer.spans, calibrated=True) == \
            {"layer": pytest.approx(0.5)}


class TestPercentile:
    def test_interpolates_between_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert clock.percentile(values, 0) == 1.0
        assert clock.percentile(values, 100) == 4.0
        assert clock.percentile(values, 50) == pytest.approx(2.5)
        assert clock.percentile(values, 25) == pytest.approx(1.75)
        assert clock.median([5.0]) == 5.0

    def test_p95_of_200_samples_leaves_ten_beyond(self):
        values = list(range(200))
        p95 = clock.percentile(values, 95)
        assert sum(value > p95 for value in values) == 10

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            clock.percentile([], 50)
        with pytest.raises(ValueError):
            clock.percentile([1.0], 101)

    def test_relative_iqr(self):
        assert clock.relative_iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == \
            pytest.approx(2.0 / 3.0)
        assert clock.relative_iqr([0.0, 0.0]) == 0.0


class TestSpans:
    def test_self_time_is_duration_minus_direct_children(self):
        time = FakeTime()
        tracer = clock.Tracer(timer=time)
        with tracer.span("pass"):
            time.advance(1.0)
            with tracer.span("fit"):
                time.advance(2.0)
                with tracer.span("graphs"):
                    time.advance(4.0)
            with tracer.span("fit"):
                time.advance(3.0)
        assert [span["parent"] for span in tracer.spans] == [None, 0, 1, 0]
        assert clock.self_time_by_name(tracer.spans) == {
            "pass": pytest.approx(1.0), "fit": pytest.approx(5.0),
            "graphs": pytest.approx(4.0)}
        assert clock.total_by_name(tracer.spans) == {
            "pass": pytest.approx(10.0), "fit": pytest.approx(9.0),
            "graphs": pytest.approx(4.0)}

    def test_disabled_tracer_records_nothing(self):
        tracer = clock.Tracer(enabled=False)
        with tracer.span("anything") as record:
            assert record is None
        assert tracer.spans == []

    def test_attrs_and_jsonl(self, tmp_path):
        time = FakeTime()
        tracer = clock.Tracer(timer=time)
        tracer.attrs = {"workload": "w", "rep": 1}
        with tracer.span("layer", block="b"):
            time.advance(0.5)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        line = path.read_text().strip()
        assert '"workload": "w"' in line and '"block": "b"' in line
        assert '"end": 0.5' in line


class TestSchedule:
    def test_zipf_counts_are_exact_capped_and_skewed(self):
        available = [27] * 16 + [40] * 16
        counts = schedule.zipf_counts(available, 640, 1.1)
        assert sum(counts) == 640
        assert all(count <= cap for count, cap in zip(counts, available))
        assert counts[0] == 27                  # the head is capped
        assert counts[16:] == sorted(counts[16:], reverse=True)
        assert counts[-1] < counts[16]

    def test_zipf_counts_without_caps_follow_the_exponent(self):
        counts = schedule.zipf_counts([1000, 1000, 1000], 600, 1.0)
        assert counts == [327, 164, 109]

    def test_zipf_total_is_limited_by_what_is_available(self):
        assert schedule.zipf_counts([2, 3], 100, 1.1) == [2, 3]

    def schedule_for(self, seed):
        queues = [[f"{name}{index}" for index in range(30)]
                  for name in "abcd"]
        base = schedule.multiset_order([30, 20, 10, 5], random.Random(13))
        order = schedule.windowed_shuffle(base, 8, random.Random(seed))
        return base, order, schedule.interleave(queues, order)

    def test_same_seed_same_order_other_seed_other_order(self):
        assert (repr(self.schedule_for(13)[2]).encode()
                == repr(self.schedule_for(13)[2]).encode())
        assert self.schedule_for(13)[2] != self.schedule_for(14)[2]

    def test_seed_only_jitters_inside_windows(self):
        base, order, _ = self.schedule_for(14)
        assert len(order) == len(base) == 65
        for start in range(0, len(base), 8):
            assert (sorted(order[start:start + 8])
                    == sorted(base[start:start + 8]))

    def test_interleave_keeps_each_queue_in_order(self):
        _, order, result = self.schedule_for(14)
        assert [item[0] for item in result] == ["abcd"[i] for i in order]
        assert [item for item in result if item[0] == "a"] == \
            [f"a{index}" for index in range(30)]


class TestReferenceKernel:
    def test_kernel_is_deterministic(self):
        assert clock.reference_kernel() == clock.reference_kernel()
