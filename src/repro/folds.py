"""The package's one float sum: a sequential left fold.

Every float reduction in the package — sparse dot products and norms,
per-page moments, weight totals, means — adds its terms one after
another in iteration order.  That is the order the numpy kernels replay
(:mod:`repro.similarity.batch`) and the order the golden fixtures froze.
Builtin ``sum`` is not that fold on every interpreter: from Python 3.12
it compensates float rounding, so its results can differ in the last
bits.  :func:`left_sum` is ``reduce(add, values, 0)`` on every version;
like ``sum`` it starts from the integer ``0``, so an empty fold is
``0``.  Integer sums are exact in any order and stay on the builtin.
The sums that must not depend on order at all — B-cubed scores, star
clustering's weighted degrees, :func:`~repro.metrics.report.mean_report`
— use ``math.fsum``, which is exact.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import reduce
from operator import add

__all__ = ["left_sum"]


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, without compensation."""
    return reduce(add, values, 0)
