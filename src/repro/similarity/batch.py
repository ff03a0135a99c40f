"""Vectorized batch-scoring kernels for the ``numpy`` backend.

Each kernel fills one similarity function's score rectangle — the
whole square, a candidate mask's ``left × right`` rectangle, or a
burst's (see :class:`BlockState`) — from dense per-family matrices,
instead of calling a scalar scorer per pair.  The point is speed on
the quadratic hot path; the constraint is the backend bit-identity
contract (:mod:`repro.similarity.backends`): every kernel must
reproduce the scalar scorers' floats exactly, not approximately.

How exactness is achieved
-------------------------

Floating-point addition is not associative, so a kernel may not simply
hand reductions to BLAS (``np.dot`` and friends reassociate partial
sums).  Instead:

* **Canonical order.**  The scalar path folds every sparse reduction in
  ascending-key order: extraction emits key-sorted feature dicts, and
  the Pearson scorers merge their unions sorted.  Block vocabularies
  here are sorted the same way, so "ascending key" equals "ascending
  column".
* **Sequential row folds.**  The pairwise dot product — the one float
  fold F1 and F8–F10 share — is folded per left row: that row's own
  nonzero columns, ascending, times every right row's values there,
  summed with one sequential ``np.add.accumulate`` down the column
  axis.  Per pair that is the exact float-operation sequence
  of the scalar loop over the sorted intersection; the columns it skips
  would contribute exact no-ops (``x + ±0.0 == x``), so the result
  equals folding the full vocabulary.
* **Scalar per-page inputs.**  Per-page moments the scalar scorers
  derive themselves (norms, value sums) are the *same scalar folds*,
  over the page's whole entry in dict order, broadcast — so their bits
  match by construction.
* **Integer arithmetic.**  Set overlaps and entity-count folds are
  exact in int64 regardless of order and only meet floats in the final
  division, with identical operands.

The string measures have block kernels too.  F2's expensive parts are
integer edit distances (page paths, and the domain pairs that reach the
domain score's edit-distance fallback), exact under any implementation,
run as the lanes of one Myers bit-parallel sweep per block (see the
URL-similarity section below).  The Jaro-based name measures (F3, F7)
do not vectorize, but a block's names repeat: their kernel scores each
distinct (earlier name, later name) pair once with the scalar
:func:`~repro.similarity.strings.name_similarity` and gathers.

One record, three layouts
-------------------------

Every kernel input comes from one place: a :class:`_FamilyRecord` per
family (the vectors of F1, F8–F10, F12, F14; the sets of F4–F6, F11;
F13's entity counter), rows of flat (column, value) entries plus each
row's moments.  A record gets its rows from pages (keys interned in an
append-only vocabulary: a vector family walks each page's dict, a set
or counter family walks its pending pages together), by appending as a
served page joins, or — a batch block's TF-IDF family — from the rows
extraction's block pass already built (:meth:`_FamilyRecord.hand`: no
dict walked, no key interned).  A :class:`BlockState` picks which
record to read and its layout picks the rows and columns to stack —
the dense square, a candidate mask, or a burst of ``k`` new pages on a
served block's ``n`` residents (:meth:`BlockState.burst`: the
``k × (n + k - 1)`` rectangle with the new pages in reverse add order
on the left, so every score is ``scorer(new, other)`` exactly as a
chain of single adds calls it).  Columns are always stacked in
ascending key order — the fold order above — so the interned order
never reaches a score.  A served block keeps its record
(:class:`ResidentRecord`): each page's dicts are walked once, and a
burst walks only its own pages.

Kernels are dispatched per :class:`~repro.similarity.base.
SimilarityFunction` by :func:`kernel_for`, which also checks the
function still carries its built-in scorer: a registry override under a
built-in name (``register_similarity(..., replace=True)``) falls back
to its own scalar code rather than the stale kernel.

This module imports numpy at module level and is itself imported
lazily, only by :class:`~repro.similarity.backends.NumpyBackend` — the
``python`` backend, the oracle on hosts without numpy, never touches
it.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
from operator import attrgetter, mul

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.extraction.features import BlockFeatures, PageFeatures
from repro.extraction.tfidf import TfidfRows
from repro.folds import left_sum
from repro.graph.entity_graph import PairKey, PairLayout, pair_position
from repro.similarity import extended as _extended
from repro.similarity import functions as _base
from repro.similarity.strings import levenshtein, name_similarity
from repro.similarity.urls import parse_url

__all__ = ["BlockState", "Kernel", "ResidentRecord", "kernel_for",
           "recorded_family"]

#: Vocabulary columns per step of :func:`_weighted_jaccard_matrix`'s
#: integer minimum sum: bounds its broadcast tensor at
#: O(rectangle · _CHUNK) and keeps it cache-resident.
_CHUNK = 32

logger = logging.getLogger(__name__)


# -- one family's dense inputs ---------------------------------------------


def _moments(kind: str, count: int, values: list | None) -> tuple:
    """One row's ``(nnz, sum, norm, norm_squared)``.

    The scalar helpers' folds (``sum``, ``norm_squared``, and ``norm``
    as the square root of that fold), replayed over the row's values in
    the stored order — the dicts' iteration order — so the broadcast
    moments keep the scalar scorers' bits.  A counter's sum is its
    total; a set has only its size.
    """
    if kind == "set":
        return count, 0.0, 0.0, 0.0
    square = left_sum(map(mul, values, values))
    return count, left_sum(values), math.sqrt(square), square


class _Family:
    """One family's dense kernel inputs over a layout's rows and columns.

    ``presence`` records membership (``key in vector`` semantics, not
    value truthiness) and is what the set kernels read; ``values`` holds
    the entries — float64 for a vector, int64 for a counter, ``None``
    for a set.  ``nnz``, ``sums``, ``norms`` and ``squared_norms`` are
    the rows' moments, always of the *whole* entry: a layout that reads
    fewer columns never changes a page's norm or total.

    The one function that fills a family's dense arrays: every record
    reaches it as flat (row, column, value) coordinates, filled with one
    fancy assignment — one numpy dispatch for the whole family instead
    of two per page.  Values are assigned, never accumulated, so the
    bits match a per-row fill exactly.
    """

    def __init__(self, rows: np.ndarray, columns: np.ndarray,
                 values: np.ndarray | None, moments: np.ndarray, width: int):
        shape = (len(moments), width)
        self.presence = np.zeros(shape, dtype=bool)
        self.presence[rows, columns] = True
        self.values = None
        if values is not None:
            self.values = np.zeros(shape, dtype=values.dtype)
            self.values[rows, columns] = values
        self.nnz = moments[:, 0].astype(np.int64)
        self.sums, self.norms, self.squared_norms = moments[:, 1:].T


# -- the record: every family's one source ---------------------------------


class _FamilyRecord:
    """One family's kernel inputs, row by row.

    Rows are kept flat — per entry its column id, its value and the row
    that owns it — plus one :func:`_moments` row per row.  A record gets
    its rows from pages (``pages``: one :meth:`entry` walk each for a
    vector family, one :meth:`_walk` of them all for a set or counter
    family), by :meth:`append`, as a served page joins, or by
    :meth:`hand` from a TF-IDF block pass's rows.  Keys are interned
    into an append-only vocabulary, so an id names a key and is never a
    fold position.

    :meth:`family` stacks the rows over the columns a layout reads, in
    ascending key order — the scalar fold order.
    """

    def __init__(self, kind: str, extract: Callable,
                 pages: Sequence[PageFeatures] = ()):
        self.kind = kind  # "vector", "set" or "counter"
        self.extract = extract
        self._column_of: dict | None = {}
        #: ``(page, entry or None)`` of the rows joined since the last
        #: read; a page that joined with no entry is walked then.
        self._joined: list[tuple] = [(page, None) for page in pages]
        self.keys: list = []
        self.columns = np.zeros(0, dtype=np.intp)
        self.values = None if kind == "set" else np.zeros(
            0, dtype=np.int64 if kind == "counter" else np.float64)
        self.owners = np.zeros(0, dtype=np.intp)
        self.moments = np.zeros((0, 4))

    @property
    def column_of(self) -> dict:
        """Key -> column id; for handed keys (:meth:`hand`), built on
        first read."""
        if self._column_of is None:
            self._column_of = dict(zip(self.keys, count()))
        return self._column_of

    def hand(self, handed: TfidfRows, picked: list[int]) -> None:
        """Take rows ``picked`` of a TF-IDF block pass's ``handed`` rows
        as this empty vector record's rows, in that order — the rows a
        walk of those pages' vectors would give, with no dict walked.

        The handed terms the picked rows hold become the keys (already
        in ascending order) and their columns the ids.  The moments are
        :func:`_moments`' folds for all rows at once: each row's values
        in the handed order (its dict's), after a ``0.0`` —
        ``left_sum``'s start — and zero-padded to a common width, added
        by one sequential ``np.add.accumulate`` along the row.  A sum
        that starts at ``+0.0`` is never ``-0.0``, so the padding adds
        exact no-op steps, and ``np.sqrt`` rounds like ``math.sqrt``.
        """
        picked = np.asarray(picked, dtype=np.intp)
        starts = (np.cumsum(handed.sizes) - handed.sizes)[picked]
        sizes = handed.sizes[picked]
        firsts = np.cumsum(sizes) - sizes
        # Entry positions of the picked rows, row after row.
        taken = np.arange(int(sizes.sum())) + np.repeat(starts - firsts,
                                                        sizes)
        keys, columns = handed.terms, handed.columns[taken]
        held = np.zeros(len(keys), dtype=bool)
        held[columns] = True
        if not held.all():
            # The picked rows' keys only, as a walk of their pages holds.
            kept = np.flatnonzero(held)
            keys = [keys[index] for index in kept.tolist()]
            columns = np.searchsorted(kept, columns)
        self.keys = keys
        self._column_of = None
        self.owners = np.repeat(np.arange(len(picked)), sizes)
        self.columns = columns
        self.values = handed.values[taken]
        padded = np.zeros((len(picked), int(sizes.max(initial=0)) + 1))
        padded[self.owners, np.arange(len(taken)) - firsts[self.owners]
               + 1] = self.values
        sums = np.add.accumulate(padded, axis=1)[:, -1]
        padded *= padded
        squares = np.add.accumulate(padded, axis=1)[:, -1]
        self.moments = np.column_stack([sizes, sums, np.sqrt(squares),
                                        squares])

    def entry(self, page: PageFeatures) -> tuple:
        """``page``'s interned columns, values (``None`` for a set) and
        moments — the one walk of its dict, set or counter."""
        data = self.extract(page)
        column_of = self.column_of
        fresh = [key for key in data if key not in column_of]
        if fresh:
            start = len(self.keys)
            column_of.update(zip(fresh, range(start, start + len(fresh))))
            self.keys.extend(fresh)
        values = None if self.kind == "set" else list(data.values())
        return (list(map(column_of.__getitem__, data)), values,
                _moments(self.kind, len(data), values))

    def append(self, page: PageFeatures, entry: tuple | None) -> None:
        """``page`` joined: it is the next row (its ``entry``, made when
        it was scored, or made from it on the next read)."""
        self._joined.append((page, entry))

    def _flat(self, entries: list[tuple]):
        """``entries``' row offsets, columns, values and moments as
        arrays (one conversion each)."""
        rows = np.repeat(np.arange(len(entries)),
                         [len(entry[0]) for entry in entries])
        columns = np.fromiter(chain.from_iterable(
            entry[0] for entry in entries), np.intp)
        values = None if self.values is None else np.fromiter(
            chain.from_iterable(entry[1] for entry in entries),
            self.values.dtype)
        moments = np.asarray([entry[2] for entry in entries], dtype=float)
        return rows, columns, values, moments

    def _walk(self, pages: list[PageFeatures]):
        """:meth:`_flat` of ``pages``' entries, walked together: one set
        difference interns the new keys, one ``map`` reads the columns
        and one ``fromiter`` the values; moments stay :func:`_moments`
        per row.  For set and counter families, where it costs no more
        than :meth:`entry` at one page."""
        data = list(map(self.extract, pages))
        column_of = self.column_of
        fresh = set().union(*data).difference(column_of)
        if fresh:
            start = len(self.keys)
            column_of.update(zip(fresh, count(start)))
            self.keys.extend(fresh)
        sizes = list(map(len, data))
        total = sum(sizes)
        rows = np.repeat(np.arange(len(data)), sizes)
        columns = np.fromiter(map(column_of.__getitem__,
                                  chain.from_iterable(data)), np.intp, total)
        values = None
        if self.kind == "set":
            moments = [_moments("set", size, None) for size in sizes]
        else:
            counts = list(map(list, map(dict.values, data)))
            values = np.fromiter(chain.from_iterable(counts), np.int64, total)
            moments = list(map(_moments, repeat(self.kind), sizes, counts))
        return rows, columns, values, np.asarray(moments, dtype=float)

    def _fold(self) -> None:
        """Fold in the rows joined since the last read: set and counter
        pages walked together when none came with its entry, else one
        :meth:`entry` per page."""
        if not self._joined:
            return
        if self.kind != "vector" and all(
                entry is None for _, entry in self._joined):
            rows, columns, values, moments = self._walk(
                [page for page, _ in self._joined])
        else:
            rows, columns, values, moments = self._flat([
                self.entry(page) if entry is None else entry
                for page, entry in self._joined])
        self.owners = np.concatenate([self.owners, rows + len(self.moments)])
        self.columns = np.concatenate([self.columns, columns])
        if values is not None:
            self.values = np.concatenate([self.values, values])
        self.moments = np.concatenate([self.moments, moments])
        self._joined = []

    def held(self, rows: np.ndarray) -> np.ndarray:
        """Per column id, whether one of ``rows`` holds the key."""
        self._fold()
        member = np.zeros(len(self.moments), dtype=bool)
        member[rows] = True
        held = np.zeros(len(self.keys), dtype=bool)
        held[self.columns[member[self.owners]]] = True
        return held

    def family(self, ids, new: list[tuple] = ()) -> _Family:
        """The dense family of ``new`` entries (rows ``0..k-1``, not yet
        joined) stacked on every row of the record, in row order, over
        column ids ``ids`` (``None``: every key) in ascending key
        order."""
        self._fold()
        ids = sorted(range(len(self.keys)) if ids is None else ids,
                     key=self.keys.__getitem__)
        position = np.full(len(self.keys), -1, dtype=np.intp)
        position[ids] = np.arange(len(ids))
        k = len(new)
        columns = position[self.columns]
        kept = columns >= 0
        owners, moments = self.owners[kept] + k, self.moments
        columns = columns[kept]
        values = None if self.values is None else self.values[kept]
        if new:
            new_rows, new_columns, new_values, new_moments = self._flat(new)
            owners = np.concatenate([new_rows, owners])
            columns = np.concatenate([position[new_columns], columns])
            if values is not None:
                values = np.concatenate([new_values, values])
            moments = np.concatenate([new_moments, moments])
        return _Family(owners, columns, values, moments, len(ids))


def recorded_family(function) -> tuple[str, str, Callable] | None:
    """``(family, kind, extract)`` of the record ``function``'s kernel
    reads, or ``None``: it has no kernel, or its kernel reads the pages
    themselves (F2, F3, F7)."""
    kernel = kernel_for(function)
    return None if kernel is None else kernel.recorded


class ResidentRecord:
    """A served block's resident pages, as the records of the families
    the kernels of ``functions`` read.

    Made when a block is adopted, over the pages resident then.  A
    page's :meth:`entry` — the one walk of its dicts — is made when a
    burst rectangle scores it, or, for a page that joined without one
    (resident at adoption, or scored by the scalar scorers), the first
    time a rectangle reads it as a resident.  A page is
    :meth:`append`-ed when it joins; one that never joins leaves no row,
    so record rows are the block's rows.  A block is scored by one
    thread at a time, so the record takes no lock.
    """

    def __init__(self, functions: Sequence, residents: Sequence = ()):
        self.families: dict[str, _FamilyRecord] = {}
        for function in functions:
            recorded = recorded_family(function)
            if recorded is not None and recorded[0] not in self.families:
                name, kind, extract = recorded
                self.families[name] = _FamilyRecord(kind, extract, residents)

    def entry(self, page: PageFeatures) -> dict[str, tuple]:
        """``page``'s inputs in every record family."""
        return {name: family.entry(page)
                for name, family in self.families.items()}

    def append(self, page: PageFeatures,
               entry: dict[str, tuple] | None = None) -> None:
        """``page`` joined the block, with the :meth:`entry` made when
        it was scored (``None``: made when first needed)."""
        for name, family in self.families.items():
            family.append(page, None if entry is None else entry[name])


class BlockState:
    """One layout of a block's pages, and the families every kernel of
    one ``block_graphs`` call (or one burst) shares.

    The TF-IDF family (and its pairwise dot fold) is built once and
    reused by F8, F9 and F10; the concept family by F1 and F14; and so
    on.  Every kernel fills a ``left × right`` rectangle of (earlier
    page, later page) scores, and the layout says which:

    * **the square** — dense scoring: ``left`` and ``right`` are both
      all rows, and :meth:`sides` hands each kernel the very same array
      twice, no copy;
    * **a candidate mask** — rows are the pages that occur in a
      candidate pair (in block order), ``left`` the rows that occur as a
      pair's *earlier* member and ``right`` the later members; pair
      positions are enumerated from the mask itself, O(candidates), in
      the dense sweep's row-major order;
    * **a burst** of ``k`` new pages against ``n`` resident ones — the
      ``k × (n + k - 1)`` rectangle :meth:`burst` lays out by
      construction, its pairs listed but no mask and no pair layout.

    :meth:`family` reads one record per family — the resident record of
    a burst that has one, else a record of the pages — and stacks the
    layout's rows over its columns: every key for the square, the keys
    held on both sides for a mask (or a record-less burst), the burst's
    own keys for a burst on a record.  A key
    absent from a whole side is zero for one member of every pair read:
    dropping it, like dropping pages, only removes fold steps that are
    exact no-ops for every surviving pair, so each entry's
    float-operation sequence — and hence its bits — is unchanged.
    """

    def __init__(self, ids: Sequence[str],
                 features: "dict[str, PageFeatures]",
                 mask: "frozenset[PairKey] | None" = None):
        ids = list(ids)
        #: Dense scoring: both sides are all rows, no gather needed.
        self.square = mask is None
        if self.square:
            # Row-major upper triangle == the scalar sweep's pair order.
            earlier, later = np.triu_indices(len(ids), k=1)
            self.left = self.right = np.arange(len(ids), dtype=np.intp)
            self.cells = (earlier, later)
            self.layout = PairLayout(ids)
        else:
            # O(candidates): place each masked pair at its (earlier,
            # later) block positions and sort — the dense sweep's order
            # restricted to the mask.
            position = {doc_id: index for index, doc_id in enumerate(ids)}
            placed = np.asarray(
                [(position[first], position[second])
                 for first, second in mask
                 if first in position and second in position],
                dtype=np.intp).reshape(-1, 2)
            placed.sort(axis=1)
            placed = placed[np.lexsort((placed[:, 1], placed[:, 0]))]
            self.layout = PairLayout(ids, pair_position(
                placed[:, 0], placed[:, 1], len(ids)).tolist())
            # Rows are the pages in a masked pair, in block order.
            kept, rows = np.unique(placed, return_inverse=True)
            ids = [ids[index] for index in kept.tolist()]
            earlier, later = rows.reshape(-1, 2).T
            self.left, left_cell = np.unique(earlier, return_inverse=True)
            self.right, right_cell = np.unique(later, return_inverse=True)
            self.cells = (left_cell, right_cell)
        #: Row positions (earlier, later) of the scored pairs, in the
        #: ``layout``'s order; ``cells`` are the same pairs as rectangle
        #: coordinates.
        self.pairs = (earlier, later)
        self._bind([features[doc_id] for doc_id in ids])
        if isinstance(features, BlockFeatures):
            self._tfidf_rows = features.tfidf_rows

    @classmethod
    def burst(cls, record: ResidentRecord | None, entries: list[dict] | None,
              pages: list[PageFeatures],
              residents: list[PageFeatures]) -> "BlockState":
        """The rectangle a chain of single adds scores, as one state.

        Rows are the ``k`` new ``pages`` (given in add order, with their
        record ``entries``) in **reverse** add order, then the ``n``
        ``residents`` — ``record``'s rows: every new page sits before all
        the pages it is scored against — the residents and the pages
        added before it — so each read cell is (earlier row, later row)
        with the new page on the left, its single add's argument order.
        ``left`` is rows ``0..k-1`` and ``right`` rows ``1..k+n-1``, both
        views; the read pairs are the upper triangle of that ``k × (k +
        n - 1)`` rectangle (right row past left row), so the record
        kernels fill it whole and the page kernels (F2, F3, F7) score
        its cells.  :meth:`burst_rows` reads it back in add order.
        """
        k = len(pages)
        state = cls.__new__(cls)
        state.square = False
        state.left = np.arange(k, dtype=np.intp)
        state.right = np.arange(1, k + len(residents), dtype=np.intp)
        state.layout = None
        state._bind(pages[::-1] + residents)
        state._burst = True
        state._record = record
        state._entries = None if entries is None else entries[::-1]
        return state

    def _bind(self, pages: list[PageFeatures]) -> None:
        """The state every layout shares: rows, inputs, family caches."""
        self.pages = pages
        self._burst = False
        self._record: ResidentRecord | None = None
        self._entries: list[dict] | None = None
        self._families: dict[str, _Family] = {}
        self._dots: dict[str, np.ndarray] = {}
        #: The TF-IDF block pass's rows of the features the state was
        #: made from (``None``: none were handed).
        self._tfidf_rows: TfidfRows | None = None

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """A burst's read cells, built on first read (only the page
        kernels read them): the upper triangle of its rectangle.  The
        block layouts set theirs, and :attr:`pairs`, up front."""
        return np.triu_indices(len(self.left), 0, len(self.right))

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """A burst's read pairs as (earlier row, later row)."""
        left, right = self.cells
        return left, right + 1

    @property
    def ids(self) -> list[str]:
        """Row doc ids."""
        return [page.doc_id for page in self.pages]

    @property
    def shape(self) -> tuple[int, int]:
        """The rectangle every kernel fills."""
        return len(self.left), len(self.right)

    def sides(self, per_page: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A per-page array's rows on the rectangle's two sides.

        The dense square gets the array itself back, twice — no copy,
        and ``left is right`` tells a fold it is symmetric; a burst gets
        two views.
        """
        if self.square:
            return per_page, per_page
        if self._burst:
            return per_page[:len(self.left)], per_page[1:]
        return per_page[self.left], per_page[self.right]

    def outer(self, per_page: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A per-page vector as the rectangle's column and row operands,
        broadcasting to one value per (left, right) pair."""
        left, right = self.sides(per_page)
        return left[:, None], right[None, :]

    def both(self, per_page: np.ndarray) -> np.ndarray:
        """Rectangle of pairs where a per-page flag holds on both sides."""
        left, right = self.outer(per_page)
        return left & right

    def pair_values(self, kernel: "Kernel") -> np.ndarray:
        """One kernel's scores as a float64 vector in ``layout`` order."""
        if not len(self.layout):
            return np.zeros(0)
        return kernel.matrix(self)[self.cells]

    def burst_rows(self, kernel: "Kernel") -> list[list[float]]:
        """One kernel's scores on a :meth:`burst` state, one list per
        new page in add order: against the residents in row order, then
        against the pages added before it, in add order."""
        k = len(self.left)
        rows = kernel.matrix(self).tolist()
        return [rows[row][k - 1:] + rows[row][row:k - 1][::-1]
                for row in range(k - 1, -1, -1)]

    def urls(self) -> list[str]:
        """Page URLs in row order."""
        return [page.url for page in self.pages]

    def family(self, name: str, kind: str, extract: Callable) -> _Family:
        """Family ``name`` over this layout (built once, shared across
        kernels)."""
        family = self._families.get(name)
        if family is not None:
            return family
        ids = None
        new: list[tuple] = []
        if self._record is not None:
            record = self._record.families[name]
            new = [entry[name] for entry in self._entries]
            ids = set().union(*(entry[0] for entry in new))
            route = "resident record"
        else:
            picked = None
            if name == "tfidf" and self._tfidf_rows is not None:
                picked = self._tfidf_rows.rows_of(
                    page.tfidf for page in self.pages)
            if picked is None:
                record = _FamilyRecord(kind, extract, self.pages)
                route = "dict walk"
            else:
                record = _FamilyRecord(kind, extract)
                record.hand(self._tfidf_rows, picked)
                route = "handed rows"
            if not self.square:
                ids = np.flatnonzero(record.held(self.left)
                                     & record.held(self.right)).tolist()
        family = record.family(ids, new)
        self._families[name] = family
        if name == "tfidf" and logger.isEnabledFor(logging.DEBUG):
            logger.debug("tfidf family of %(rows)d rows from %(route)s",
                         dict(rows=len(family.nnz), route=route))
        return family

    def pair_dot(self, spec: tuple) -> np.ndarray:
        """Left × right dot rectangle of one vector family (cached), by
        the exact sequential fold."""
        dots = self._dots.get(spec[0])
        if dots is None:
            values = self.family(*spec).values
            left, right = self.sides(values)
            dots = _pair_dot_fold(left, right,
                                  self._live(values, left, right))
            self._dots[spec[0]] = dots
        return dots

    def _live(self, values: np.ndarray, left: np.ndarray,
              right: np.ndarray) -> np.ndarray:
        """The columns a dot fold visits: every other column's products
        are zero for every pair this state reads — exact no-op steps.

        That is a column zero on a whole side; and where the read pairs
        are (earlier row, later row) over all rows — the square, a
        burst — also one nonzero on a single row, which never meets
        another nonzero (roughly half a real block's TF-IDF vocabulary
        is hapax terms).
        """
        if self.square or self._burst:
            nonzero = values != 0.0
            live = nonzero.sum(axis=0) >= 2
            if self.square:
                return live
            return live & nonzero[:len(left)].any(axis=0)
        return (left != 0.0).any(axis=0) & (right != 0.0).any(axis=0)


# -- exact folds -----------------------------------------------------------


def _pair_dot_fold(left: np.ndarray, right: np.ndarray,
                   live: np.ndarray) -> np.ndarray:
    """Left × right dot products, one sequential fold per left row over
    the ``live`` columns that row holds.

    Per left row: gather its nonzero live columns in ascending position
    (ascending key, the fold order), multiply them by every right row's
    values there, and fold down the column axis with one
    ``np.add.accumulate`` — sequential by definition — keeping its last
    row.  Per pair that is ``acc += left[i, d] * right[j, d]`` for ``d``
    ascending: exactly the scalar ``dot``'s fold over the sorted
    intersection.  The columns left out (the row's zeros, and those
    :meth:`BlockState._live` rules out) only drop exact no-op steps.
    ``np.add.reduce`` is not used: it sums pairwise for some shapes.

    The fold starts at the first product rather than at ``0.0``, so a
    pair whose products are all zero could end at ``-0.0``; the final
    ``+= 0.0`` gives the scalar fold's ``+0.0`` and changes no other
    value.  On the square (``left is right``) each row folds only
    the columns ``j >= i`` and the rest is mirrored: multiplication is
    commutative, so the mirror is exact.
    """
    acc = np.zeros((len(left), len(right)))
    symmetric = left is right
    left = left[:, live]
    terms = np.ascontiguousarray((left if symmetric else right[:, live]).T)
    # Row-major, so each row's columns come out ascending.
    owners, columns = np.nonzero(left)
    weights = left[owners, columns][:, None]
    ends = np.searchsorted(owners, np.arange(1, len(left) + 1)).tolist()
    start = 0
    for row, end in enumerate(ends):
        if end > start:
            first = row if symmetric else 0
            products = terms[columns[start:end], first:]
            products *= weights[start:end]
            acc[row, first:] = np.add.accumulate(products, out=products)[-1]
        start = end
    if symmetric:
        lower = np.tril_indices(len(acc), -1)
        acc[lower] = acc.T[lower]
    acc += 0.0
    return acc


def _clamp_unit(matrix: np.ndarray) -> np.ndarray:
    """``min(1.0, max(0.0, x))`` elementwise (NaN passes through to be
    masked by the caller)."""
    return np.minimum(1.0, np.maximum(0.0, matrix))


def _cosine_matrix(state: BlockState, spec: tuple) -> np.ndarray:
    family = state.family(*spec)
    dots = state.pair_dot(spec)
    norm_left, norm_right = state.outer(family.norms)
    denominator = norm_left * norm_right
    valid = state.both(family.nnz > 0) & (denominator != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = dots / denominator
    return np.where(valid, _clamp_unit(value), 0.0)


def _extended_jaccard_matrix(state: BlockState, spec: tuple) -> np.ndarray:
    family = state.family(*spec)
    product = state.pair_dot(spec)
    squared_left, squared_right = state.outer(family.squared_norms)
    denominator = (squared_left + squared_right) - product
    valid = state.both(family.nnz > 0) & (denominator > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = product / denominator
    return np.where(valid, _clamp_unit(value), 0.0)


def _pearson_matrix(state: BlockState, spec: tuple) -> np.ndarray:
    """Elementwise mirror of
    :func:`~repro.similarity.measures.pearson_from_moments` over all
    pairs.

    The only fold is the shared pairwise dot; every other moment is a
    per-page scalar broadcast, so each pair evaluates exactly the
    operation sequence of the scalar expression.  The arithmetic below
    must stay operation-for-operation in sync with
    ``pearson_from_moments`` — edit both together (the parity and
    golden suites catch any divergence).
    """
    family = state.family(*spec)
    product = state.pair_dot(spec)
    # Float BLAS matmul of the 0/1 indicator is exact: every partial sum
    # is an integer far below 2**53, so no rounding can occur regardless
    # of accumulation order.
    present_left, present_right = state.sides(family.presence.astype(float))
    intersection = present_left @ present_right.T
    nnz_left, nnz_right = state.outer(family.nnz.astype(float))
    dimension = (nnz_left + nnz_right) - intersection
    valid = state.both(family.nnz > 0) & (dimension >= 2)
    # Masked-out pairs flow through with a harmless dimension of 1; their
    # garbage values are discarded by the final mask.
    dimension = np.where(dimension > 0, dimension, 1.0)
    sum_left, sum_right = state.outer(family.sums)
    squared_left, squared_right = state.outer(family.squared_norms)
    mean_left = sum_left / dimension
    mean_right = sum_right / dimension
    covariance = ((product - mean_right * sum_left)
                  - mean_left * sum_right) \
        + dimension * (mean_left * mean_right)
    variance_left = ((squared_left - (2.0 * mean_left) * sum_left)
                     + dimension * (mean_left * mean_left))
    variance_right = ((squared_right - (2.0 * mean_right) * sum_right)
                      + dimension * (mean_right * mean_right))
    valid = valid & (variance_left > 0.0) & (variance_right > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        correlation = covariance / (np.sqrt(variance_left)
                                    * np.sqrt(variance_right))
    correlation = np.minimum(1.0, np.maximum(-1.0, correlation))
    return np.where(valid, (correlation + 1.0) / 2.0, 0.0)


def _overlap_matrix(state: BlockState, spec: tuple) -> np.ndarray:
    family = state.family(*spec)
    members_left, members_right = state.sides(
        family.presence.astype(np.int64))
    intersection = members_left @ members_right.T
    smaller = np.minimum(*state.outer(family.nnz))
    valid = state.both(family.nnz > 0)
    value = intersection / np.where(smaller > 0, smaller, 1)
    return np.where(valid, value, 0.0)


def _weighted_jaccard_matrix(state: BlockState, spec: tuple) -> np.ndarray:
    family = state.family(*spec)
    counts_left, counts_right = state.sides(family.values)
    # Chunked over the vocabulary axis to bound the broadcast tensor at
    # O(rectangle · _CHUNK); integer sums are exact under any grouping,
    # so this is bit-identical to the single-tensor form.
    minima = np.zeros(state.shape, dtype=np.int64)
    for start in range(0, counts_left.shape[1], _CHUNK):
        minima += np.minimum(counts_left[:, None, start:start + _CHUNK],
                             counts_right[None, :, start:start + _CHUNK]
                             ).sum(axis=2)
    total_left, total_right = state.outer(family.sums)
    maxima = (total_left + total_right) - minima
    valid = state.both(family.nnz > 0) & (maxima > 0)
    value = minima / np.where(maxima > 0, maxima, 1)
    return np.where(valid, value, 0.0)


# -- URL similarity (integer edit distances vectorize exactly) -------------
#
# F2 is a string measure, but its expensive parts — the path edit
# distance of every read pair, and the edit-distance fallback of
# :func:`~repro.similarity.urls.domain_similarity` for the distinct
# domain pairs that reach it — are *integers*, so any correct
# Levenshtein implementation is bit-exact; only the final float
# combinations touch floats, with the scalar path's operands.  Both sets
# of distances run as lanes of one bit-parallel Myers sweep per block
# (:func:`_edit_distances`), whose character codes and pattern bitmaps
# numpy builds from the joined strings — no Python loop per character.

#: One DP column per uint64 lane: a pattern (the shorter string) of up
#: to 64 characters is swept; a longer one (never seen for generated
#: URLs) takes the scalar :func:`~repro.similarity.strings.levenshtein`.
_WORD = 64

#: Match words per sweep.  A sweep gathers one uint64 per lane and step
#: of its longest text, so lanes are taken, longest text first, while
#: their count times that text's length stays within this budget: the
#: 11 175 page pairs of a 150-page block of 70-character paths are one
#: sweep, and one long path gets a sweep of few lanes to itself.
_WORDS = 1 << 20


def _edit_distances(strings: list[str], first: np.ndarray,
                    second: np.ndarray) -> np.ndarray:
    """Levenshtein distance of ``(strings[first[k]], strings[second[k]])``
    per lane ``k``, as int64.

    ``strings`` is meant to be interned: equal ids are distance 0
    without a lane (a table with repeats is still exact — its equal
    pairs just take a lane).  A lane with an empty side is the other
    side's length.  Every other lane runs Myers' bit-parallel algorithm
    (:func:`_sweep`), with the shorter string as the pattern; lanes
    are ordered by text length, longest first.
    """
    lengths = np.fromiter(map(len, strings), np.int64, len(strings))
    swap = lengths[first] > lengths[second]
    pattern = np.where(swap, second, first)
    text = np.where(swap, first, second)
    pattern_len, text_len = lengths[pattern], lengths[text]
    distances = np.where(pattern_len == 0, text_len, 0)
    swept = (pattern != text) & (pattern_len > 0)
    overlong = swept & (pattern_len > _WORD)
    for lane in np.flatnonzero(overlong).tolist():
        distances[lane] = levenshtein(strings[pattern[lane]],
                                      strings[text[lane]])
    lanes = np.flatnonzero(swept & ~overlong)
    if not lanes.size:
        return distances
    lanes = lanes[np.argsort(-text_len[lanes], kind="stable")]

    # Every string's character codes back to back (a string starts at
    # ``starts[row]``; the longest text's length of padding ends them)
    # and, per string, the pattern bitmap of each code.  Codes number
    # the distinct code points in ascending order from 1 (0 pads); the
    # distances are integers, so any numbering is exact.
    joined = "".join(strings)
    alphabet, codes = np.unique(
        np.fromiter(map(ord, joined), np.int64, len(joined)),
        return_inverse=True)
    codes += 1
    starts = np.cumsum(lengths) - lengths
    row = np.repeat(np.arange(len(strings)), lengths)
    offset = np.arange(len(joined)) - starts[row]
    in_word = offset < _WORD
    table = np.zeros((len(strings), len(alphabet) + 1), dtype=np.uint64)
    np.bitwise_or.at(table, (row[in_word], codes[in_word]),
                     np.uint64(1) << offset[in_word].astype(np.uint64))
    codes = np.concatenate(
        [codes, np.zeros(int(text_len[lanes[0]]), dtype=codes.dtype)])

    start = 0
    while start < len(lanes):
        stop = start + max(1, _WORDS // int(text_len[lanes[start]]))
        chunk = lanes[start:stop]
        distances[chunk] = _sweep(table, codes, starts[text[chunk]],
                                  pattern[chunk], pattern_len[chunk],
                                  text_len[chunk])
        start = stop
    return distances


def _sweep(table: np.ndarray, codes: np.ndarray, text_start: np.ndarray,
           pattern: np.ndarray, pattern_len: np.ndarray,
           text_len: np.ndarray) -> np.ndarray:
    """Myers' bit-parallel Levenshtein (Hyyrö's formulation) over lanes
    ordered by text length, longest first: one DP column per lane in a
    uint64, every lane advanced one text character per step.

    * The lanes still running at step ``s`` are a prefix, so a
      finished lane simply drops off it — no per-step freeze.
    * Every step's match words (``table`` rows are the strings' pattern
      bitmaps; a lane's text is ``codes`` from ``text_start``) are
      gathered once, before the loop: ``steps × lanes`` words, which
      the caller keeps within ``_WORDS``.
    * Nothing is masked to the pattern length: additions carry and
      left shifts move bits only upward, and every other operation is
      bitwise, so the bits above a pattern never reach bit ``m - 1`` —
      the one bit read, per step, for the score.  That is also why a
      64-character pattern fits its lane.
    """
    steps = int(text_len[0])
    # Row ``s``: every lane's match word for its text's character ``s``
    # (past a text's end the codes are the next string's, never read).
    words = sliding_window_view(codes, steps)[text_start].T
    words += pattern * table.shape[1]
    matches = table.ravel()[words]
    del words
    # Lanes still running at step ``s``: those whose text is longer.
    running = len(pattern) - np.cumsum(
        np.bincount(text_len, minlength=steps))[:steps]
    one = np.uint64(1)
    high = one << (pattern_len - 1).astype(np.uint64)
    positive = np.full(len(pattern), ~np.uint64(0))
    negative = np.zeros(len(pattern), dtype=np.uint64)
    score = pattern_len.copy()
    for step, active in enumerate(running.tolist()):
        positive, negative = positive[:active], negative[:active]
        match = matches[step, :active]
        diagonal_zero = (((match & positive) + positive) ^ positive) \
            | match | negative
        horizontal_positive = negative | ~(diagonal_zero | positive)
        horizontal_negative = positive & diagonal_zero
        top = high[:active]
        score[:active] += (horizontal_positive & top) != 0
        score[:active] -= (horizontal_negative & top) != 0
        horizontal_positive = (horizontal_positive << one) | one
        positive = (horizontal_negative << one) \
            | ~(diagonal_zero | horizontal_positive)
        negative = horizontal_positive & diagonal_zero
    return score


def _url_matrix(state: BlockState) -> np.ndarray:
    """F2 over exactly the pairs the state reads.

    Domain scores and path distances are per-pair quantities with no
    shared fold, so nothing but the read pairs is computed: one Myers
    lane per pair's paths, and one per distinct (earlier domain, later
    domain) combination among them that reaches ``domain_similarity``'s
    edit-distance fallback — both in one :func:`_edit_distances` sweep
    over the block's interned paths and domains — then the values are
    scattered into the rectangle.  The domain cases mirror
    ``domain_similarity`` (symmetric, so the order of a combination's
    members does not matter).
    """
    parsed = [parse_url(url) if url else None for url in state.urls()]
    earlier, later = state.pairs
    interned: dict[str, int] = {}
    path_ids = np.asarray(
        [interned.setdefault(entry.path if entry else "", len(interned))
         for entry in parsed], dtype=np.intp)
    # Distinct domains in first-seen order, and per page its index.
    domain_of: dict[str, int] = {}
    domain_index = np.asarray(
        [domain_of.setdefault(entry.domain if entry else "", len(domain_of))
         for entry in parsed], dtype=np.intp)
    domains = list(domain_of)
    combos, combo_of_pair = np.unique(
        np.minimum(domain_index[earlier], domain_index[later]) * len(domains)
        + np.maximum(domain_index[earlier], domain_index[later]),
        return_inverse=True)
    left, right = np.divmod(combos, len(domains))
    # ``domain_similarity``'s cases: an empty side, equal domains, a
    # shared registrable suffix (the last two labels), else the fallback.
    suffix_of: dict[tuple, int] = {}
    suffixes = np.asarray(
        [suffix_of.setdefault(tuple(labels[-2:]), len(suffix_of))
         if len(labels) >= 2 else -1
         for labels in (domain.split(".") for domain in domains)],
        dtype=np.intp)
    empty = np.asarray([not domain for domain in domains], dtype=bool)
    empty_side = empty[left] | empty[right]
    shared = (suffixes[left] == suffixes[right]) & (suffixes[left] >= 0)
    fallback = ~empty_side & (left != right) & ~shared
    domain_ids = np.asarray([interned.setdefault(domain, len(interned))
                             for domain in domains], dtype=np.intp)

    strings = list(interned)
    path_count = len(earlier)
    distances = _edit_distances(
        strings,
        np.concatenate([path_ids[earlier], domain_ids[left[fallback]]]),
        np.concatenate([path_ids[later], domain_ids[right[fallback]]]))
    lengths = np.fromiter(map(len, strings), np.int64, len(strings))

    domain_scores = np.where(empty_side, 0.0,
                             np.where(left == right, 1.0, 0.8))
    longest = np.maximum(lengths[domain_ids[left[fallback]]],
                         lengths[domain_ids[right[fallback]]])
    domain_scores[fallback] = 0.5 * (1.0 - distances[path_count:] / longest)
    domain_scores = domain_scores[combo_of_pair]

    longest = np.maximum(lengths[path_ids[earlier]], lengths[path_ids[later]])
    with np.errstate(divide="ignore", invalid="ignore"):
        path_scores = 1.0 - distances[:path_count] / np.where(
            longest > 0, longest, 1)
    path_scores = np.where(longest > 0, path_scores, 1.0)

    value = 0.8 * domain_scores + (1.0 - 0.8) * path_scores
    has_url = np.asarray([entry is not None for entry in parsed], dtype=bool)
    matrix = np.zeros(state.shape)
    matrix[state.cells] = np.where(has_url[earlier] & has_url[later],
                                   value, 0.0)
    return matrix


# -- name similarity (scored once per distinct name pair) -----------------


def _name_matrix(state: BlockState, name_of: Callable) -> np.ndarray:
    """F3 / F7 over exactly the pairs the state reads.

    Jaro–Winkler with name-form rules does not vectorize, but a block
    holds few distinct names: each page's name is interned, each
    distinct (earlier name, later name) pair among the read pairs is
    scored once with the scalar ``name_similarity``, with the sweep's
    argument order, and the values are gathered into the rectangle,
    clamped like the function's ``__call__``.
    """
    interned: dict[str, int] = {}
    name_ids = np.asarray([interned.setdefault(name_of(page), len(interned))
                           for page in state.pages], dtype=np.intp)
    earlier, later = state.pairs
    combos, combo_of_pair = np.unique(
        name_ids[earlier] * len(interned) + name_ids[later],
        return_inverse=True)
    names = list(interned)
    left, right = np.divmod(combos, len(interned))
    scores = np.asarray([name_similarity(names[first], names[second])
                         for first, second in zip(left.tolist(),
                                                  right.tolist())],
                        dtype=np.float64)
    matrix = np.zeros(state.shape)
    matrix[state.cells] = _clamp_unit(scores)[combo_of_pair]
    return matrix


# -- kernel dispatch -------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """One similarity function's vectorized implementation.

    Attributes:
        name: the built-in function name this kernel implements.
        expected_scorer: identity of the built-in scalar scorer; a
            function carrying any other scorer (registry override) gets
            no kernel.
        matrix: block kernel ``(BlockState) -> (left, right) ndarray``.
        recorded: ``(family, kind, extract)`` of the record this
            kernel reads — ``kind`` is ``"vector"``, ``"set"`` or
            ``"counter"`` — or ``None``: it reads the pages themselves
            (F2's URLs, F3's and F7's names).
    """

    name: str
    expected_scorer: Callable
    matrix: Callable[[BlockState], np.ndarray]
    recorded: tuple[str, str, Callable] | None = None


def _tfidf(page: PageFeatures) -> dict[str, float]:
    return page.tfidf


def _concepts(page: PageFeatures) -> dict[str, float]:
    return page.concept_vector


def _top_tfidf(page: PageFeatures) -> dict[str, float]:
    return _extended._top_terms(page.tfidf)


_KERNELS: dict[str, Kernel] = {}


def _family_kernel(name: str, expected_scorer: Callable, builder,
                   family: str, kind: str,
                   extract: Callable | None = None) -> None:
    """A kernel over one record family; a set family's keys are the
    ``PageFeatures`` field it is named after."""
    spec = (family, kind, extract or attrgetter(family))
    _KERNELS[name] = Kernel(name, expected_scorer,
                            lambda state: builder(state, spec), spec)


_family_kernel("F1", _base._f1, _cosine_matrix, "concept", "vector",
               _concepts)
_KERNELS["F2"] = Kernel("F2", _base._f2, _url_matrix)
_KERNELS["F3"] = Kernel("F3", _base._f3, lambda state: _name_matrix(
    state, attrgetter("most_frequent_name")))
_KERNELS["F7"] = Kernel("F7", _base._f7, lambda state: _name_matrix(
    state, attrgetter("closest_name_to_query")))
_family_kernel("F4", _base._f4, _overlap_matrix, "concept_set", "set")
_family_kernel("F5", _base._f5, _overlap_matrix, "organizations", "set")
_family_kernel("F6", _base._f6, _overlap_matrix, "other_persons", "set")
_family_kernel("F8", _base._f8, _cosine_matrix, "tfidf", "vector", _tfidf)
_family_kernel("F9", _base._f9, _pearson_matrix, "tfidf", "vector", _tfidf)
_family_kernel("F10", _base._f10, _extended_jaccard_matrix, "tfidf",
               "vector", _tfidf)
_family_kernel("F11", _extended._f11, _overlap_matrix, "locations", "set")
_family_kernel("F12", _extended._f12, _cosine_matrix, "top_tfidf",
               "vector", _top_tfidf)
_family_kernel("F13", _extended._f13, _weighted_jaccard_matrix,
               "entity_context", "counter", _extended._entity_context)
_family_kernel("F14", _extended._f14, _extended_jaccard_matrix, "concept",
               "vector", _concepts)


def kernel_for(function) -> Kernel | None:
    """The vectorized kernel for ``function``, or ``None``.

    ``None`` means "use the scalar path": custom functions, and
    built-in names whose scorer was replaced in the registry.
    """
    kernel = _KERNELS.get(function.name)
    if kernel is not None and function.scorer is kernel.expected_scorer:
        return kernel
    return None
