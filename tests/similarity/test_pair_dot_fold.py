"""Exactness of the numpy backend's pairwise dot fold.

``_pair_dot_fold`` is the one float fold F1 and F8–F10 share on the
``numpy`` backend.  Its contract is bit equality with the scalar
``dot``: per pair, start at ``0.0`` and add the products of the shared
live columns in ascending column order.  The reference below is that
loop in pure Python; cells are compared by their IEEE-754 bits, so a
``-0.0`` for ``+0.0`` or a one-ulp reassociation both fail.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.similarity.batch import _pair_dot_fold


def bits(matrix) -> list[bytes]:
    return [struct.pack("<d", value) for value in np.ravel(matrix).tolist()]


def reference(left, right, live) -> list[list[float]]:
    """Per pair, ``0.0`` plus each shared live column's product, in
    ascending column order — the scalar ``dot``'s fold."""
    live = live.tolist()
    rows = []
    for left_row in left.tolist():
        row = []
        for right_row in right.tolist():
            acc = 0.0
            for column, (a, b) in enumerate(zip(left_row, right_row)):
                if live[column] and a != 0.0 and b != 0.0:
                    acc += a * b
            row.append(acc)
        rows.append(row)
    return rows


def assert_exact(left, right, live):
    folded = _pair_dot_fold(left, right, live)
    assert folded.shape == (len(left), len(right))
    assert bits(folded) == bits(reference(left, right, live))


#: Zero about half the time; otherwise a magnitude in [1e-8, 1e8] with
#: either sign (a negative entry times a zero makes ``-0.0``).
entries = st.one_of(
    st.just(0.0),
    st.builds(lambda mantissa, exponent, negative:
              (-1.0 if negative else 1.0) * mantissa * 10.0 ** exponent,
              st.floats(1.0, 9.999), st.integers(-8, 7), st.booleans()))


def matrices(rows, width):
    return arrays(np.float64, (rows, width), elements=entries)


@st.composite
def fold_inputs(draw):
    """``(layout, left, right, live)`` for one of the three layouts."""
    width = draw(st.integers(1, 24))
    layout = draw(st.sampled_from(["square", "rectangle", "burst"]))
    if layout == "square":
        left = right = draw(matrices(draw(st.integers(1, 10)), width))
    elif layout == "rectangle":
        left = draw(matrices(draw(st.integers(1, 8)), width))
        right = draw(matrices(draw(st.integers(1, 8)), width))
    else:
        # A burst: k new rows on top of n residents, read as the
        # overlapping views values[:k] and values[1:].
        values = draw(matrices(draw(st.integers(2, 12)), width))
        k = draw(st.integers(1, len(values) - 1))
        left, right = values[:k], values[1:]
    live = draw(st.one_of(
        arrays(bool, width, elements=st.booleans()),
        st.just(np.ones(width, dtype=bool)),
        st.just(np.zeros(width, dtype=bool))))
    return layout, left, right, live


class TestPairDotFold:
    @settings(max_examples=300, deadline=None)
    @given(fold_inputs())
    # Every product of this pair is zero, the first one -0.0: the fold
    # must still return the scalar loop's +0.0.
    @example(("rectangle", np.array([[-1.0, 0.0]]), np.array([[0.0, 3.0]]),
              np.ones(2, dtype=bool)))
    def test_matches_scalar_fold_bit_for_bit(self, inputs):
        _, left, right, live = inputs
        assert_exact(left, right, live)

    @pytest.mark.parametrize("layout", ["square", "rectangle", "burst",
                                        "one_row", "one_column"])
    @pytest.mark.parametrize("negative", [False, True])
    def test_deep_rows(self, layout, negative):
        """Rows with dozens of shared terms, as on a 52-page block:
        any reassociation of a long sum shows in the last bits."""
        rng = np.random.default_rng(11)
        shape = (40, 120)
        values = (1.0 + 9.0 * rng.random(shape)) \
            * 10.0 ** rng.integers(-8, 8, shape)
        values[rng.random(values.shape) < 0.6] = 0.0
        if negative:
            values[rng.random(values.shape) < 0.3] *= -1.0
        live = (values != 0.0).sum(axis=0) >= 2
        left, right = {
            "square": (values, values),
            "rectangle": (values[:15], values[15:]),
            "burst": (values[:8], values[1:]),
            "one_row": (values[:1], values[1:]),
            "one_column": (values, values[-1:]),
        }[layout]
        if layout == "square":
            assert left is right
        assert_exact(left, right, live)

    def test_all_zero_rows_and_dead_columns_give_positive_zero(self):
        values = np.array([[0.0, 0.0, 0.0],
                           [-3.0, 0.0, -5.0],
                           [0.0, 0.0, 0.0]])
        for live in (np.zeros(3, dtype=bool), np.ones(3, dtype=bool)):
            assert_exact(values, values, live)
            assert_exact(values[:1], values[1:], live)

    def test_empty_sides(self):
        values = np.ones((3, 2))
        assert _pair_dot_fold(values[:0], values, np.ones(2, dtype=bool)) \
            .shape == (0, 3)
        assert _pair_dot_fold(values, values[:0], np.ones(2, dtype=bool)) \
            .shape == (3, 0)
