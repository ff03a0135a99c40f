"""The benchmark's clock: a calibrated timer, order statistics and spans.

The 2-core shared host this benchmark was written on runs the same
serial loop 8-36 % faster or slower from one minute to the next, which
is more than any bound a regression gate could use.  Host speed drifts
slowly compared with a slice of work, so the harness brackets every
slice (~0.1 s of streamed work, or one ``fit`` / ``evaluate`` call) with
runs of a fixed *reference kernel* and rescales the slice's raw wall
time by how slow the kernel ran next to it::

    calibrated = raw * CAL_NOMINAL_S / mean(kernel time before, after)

Every end-to-end timing the benchmark reports is on this clock; the raw
twin is kept as a per-layer metric so the correction stays visible.

This module imports nothing from ``repro``: a later change to the
program cannot change how the benchmark measures it.  Percentiles and
medians are implemented here for the same reason.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np

#: Seconds one pass of :func:`reference_kernel` takes on a quiet host
#: (median of 400 passes on the 2-core builder host, python 3.11, numpy
#: 2.4).  A constant by design: re-deriving it at run time would fold the
#: host's current speed back into the numbers the clock exists to remove.
CAL_NOMINAL_S = 0.0035

#: A closing calibration runs the kernel for at least this share of the
#: slice it follows, and never fewer than ``MIN_KERNEL_PASSES`` passes.
CAL_SHARE = 0.2
MIN_KERNEL_PASSES = 2
#: A calibration that opens a slice with no adjacent predecessor runs
#: this long; a slice of streamed work is cut after ``SLICE_S`` seconds
#: (on the builder host the kernel tracks bursts of ~0.1 s: cutting at
#: 0.1 s instead of 0.4 s halved the spread of ``serve_stream``'s
#: ``pages_per_s`` in alternating same-seed runs).
OPENING_CAL_S = 0.05
SLICE_S = 0.1

_KERNEL_WORDS = tuple(f"w{(i * 7919) % 1009:04d}" for i in range(24000))
_KERNEL_FLOATS = tuple(1.0 + (i * 31 % 97) / 97.0 for i in range(8000))
_KERNEL_SETS = tuple(frozenset(range(i, i + 40 + i % 17, 1 + i % 3))
                     for i in range(120))
_KERNEL_VECTOR = np.linspace(0.0, 1.0, 320)


def reference_kernel() -> float:
    """One pass of fixed work shaped like the resolver's own mix.

    Token counting into a dict, a sort, a float fold, frozenset
    intersections and a small single-threaded numpy broadcast + sort —
    no BLAS, no allocation that depends on earlier passes.  Returns a
    checksum so no part of the work is dead code.
    """
    counts: dict[str, int] = {}
    for word in _KERNEL_WORDS:
        counts[word] = counts.get(word, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    fold = 0.0
    for index, (_, count) in enumerate(ranked):
        fold += count / (index + 1.0)
    for value in _KERNEL_FLOATS:
        fold += value * value
    overlap = 0
    for left in _KERNEL_SETS[:60]:
        for right in _KERNEL_SETS[60:]:
            overlap += len(left & right)
    grid = np.abs(_KERNEL_VECTOR[:, None] - _KERNEL_VECTOR[None, :])
    grid.sort(axis=1)
    return fold + overlap + float(grid[:, 1].sum())


def cal_factor(kernel_before_s: float, kernel_after_s: float,
               nominal_s: float = CAL_NOMINAL_S) -> float:
    """calibrated / raw seconds of a slice between two calibrations."""
    return nominal_s / ((kernel_before_s + kernel_after_s) / 2.0)


class CalibratedClock:
    """Times slices of work and brackets each with kernel calibrations.

    ``timer`` and ``kernel`` are injectable so the slice arithmetic is
    testable with synthetic durations.  When ``tracer`` is set, every
    span recorded during a slice is stamped with the slice's ``factor``
    so per-layer times can be put on the calibrated clock too.

    Attributes:
        factors: the calibration factor of every slice measured so far.
        slice_seconds: raw seconds spent inside slices.
        kernel_seconds: raw seconds spent running the kernel.
    """

    def __init__(self, timer=time.perf_counter, kernel=reference_kernel,
                 nominal_s: float = CAL_NOMINAL_S, tracer=None):
        self.timer = timer
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.tracer = tracer
        self.factors: list[float] = []
        self.slice_seconds = 0.0
        self.kernel_seconds = 0.0
        self._last_kernel_s: float | None = None

    def calibrate(self, min_seconds: float = 0.0) -> float:
        """Run the kernel for ``min_seconds``; return mean seconds per pass."""
        passes = 0
        started = self.timer()
        elapsed = 0.0
        while passes < MIN_KERNEL_PASSES or elapsed < min_seconds:
            self.kernel()
            passes += 1
            elapsed = self.timer() - started
        self.kernel_seconds += elapsed
        self._last_kernel_s = elapsed / passes
        return self._last_kernel_s

    def detach(self) -> None:
        """Forget the last calibration: untimed work of unknown length
        follows, so the next slice must open with a fresh one."""
        self._last_kernel_s = None

    def measure(self, work):
        """Run ``work()`` as one slice.

        Returns ``(result, raw_seconds, factor)``; multiply any raw
        duration observed inside the slice by ``factor`` to put it on
        the calibrated clock.  The opening calibration is the previous
        slice's closing one unless :meth:`detach` intervened, so
        back-to-back slices share kernels.
        """
        before = self._last_kernel_s
        if before is None:
            before = self.calibrate(OPENING_CAL_S)
        first_span = len(self.tracer.spans) if self.tracer else 0
        started = self.timer()
        result = work()
        raw_s = self.timer() - started
        after = self.calibrate(CAL_SHARE * raw_s)
        factor = cal_factor(before, after, self.nominal_s)
        self.factors.append(factor)
        self.slice_seconds += raw_s
        if self.tracer:
            for span in self.tracer.spans[first_span:]:
                span["factor"] = factor
        return result, raw_s, factor

    def sliced(self, items, call, slice_s: float = SLICE_S):
        """Run ``call(item)`` over ``items`` in slices of ~``slice_s``.

        Returns ``(results, item_raw_s, item_factor, raw_s, cal_s)``:
        per item its result, raw wall seconds and the factor of the
        slice it ran in, plus the summed raw and calibrated seconds of
        all slices.
        """
        timer = self.timer
        results: list = []
        item_raw_s: list[float] = []
        item_factor: list[float] = []
        raw_total = cal_total = 0.0

        def work():
            started = timer()
            while len(results) < len(items):
                before = timer()
                results.append(call(items[len(results)]))
                after = timer()
                item_raw_s.append(after - before)
                if after - started >= slice_s:
                    break

        while len(results) < len(items):
            done = len(results)
            _, raw_s, factor = self.measure(work)
            item_factor.extend([factor] * (len(results) - done))
            raw_total += raw_s
            cal_total += raw_s * factor
        return results, item_raw_s, item_factor, raw_total, cal_total


# -- order statistics --------------------------------------------------------

def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation between ranks.

    Raises:
        ValueError: for an empty sample or ``q`` outside [0, 100].
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return float(ordered[lower])
    weight = position - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)


def median(values) -> float:
    return percentile(values, 50.0)


def relative_iqr(values) -> float:
    """(p75 - p25) / p50 — the spread figure the harness reports."""
    middle = median(values)
    if middle == 0.0:
        return 0.0
    return (percentile(values, 75.0) - percentile(values, 25.0)) / middle


# -- spans -------------------------------------------------------------------

class Tracer:
    """In-memory span recorder; written out once, at exit.

    A span is ``{"id", "parent", "name", "start", "end", ...attrs}``
    with times in raw seconds of ``timer``.  A disabled tracer records
    nothing, so the untraced run pays one attribute test per call site.
    """

    def __init__(self, enabled: bool = True, timer=time.perf_counter):
        self.enabled = enabled
        self.timer = timer
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.attrs: dict = {}

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        record = {"id": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, **self.attrs, **attrs,
                  "start": self.timer(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = self.timer()
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _scale(span, calibrated: bool) -> float:
    return span.get("factor", 1.0) if calibrated else 1.0


def self_times(spans, calibrated: bool = False) -> dict[int, float]:
    """Self time per span id: its duration minus its direct children's.

    ``calibrated`` multiplies by each span's slice ``factor`` (a parent
    and its children always share a slice)."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= span["end"] - span["start"]
    return {span["id"]: own[span["id"]] * _scale(span, calibrated)
            for span in spans}


def self_time_by_name(spans, calibrated: bool = False) -> dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans, calibrated)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals


def total_by_name(spans, calibrated: bool = False) -> dict[str, float]:
    """Summed duration per span name."""
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = (totals.get(span["name"], 0.0)
                                + (span["end"] - span["start"])
                                * _scale(span, calibrated))
    return totals
