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
* **Sequential column folds.**  Pairwise dot products and Pearson
  accumulators are folded column by column (``acc += column term``),
  which performs, per pair, the exact float-operation sequence of the
  scalar loop.  Implicit-zero columns contribute exact no-ops
  (``x + ±0.0 == x``), so folding the full vocabulary equals folding
  each pair's sparse intersection/union.
* **Scalar per-page inputs.**  Per-page moments the scalar scorers
  derive themselves (norms, value sums) are the *same scalar folds*,
  over the page's whole entry in dict order, broadcast — so their bits
  match by construction.
* **Integer arithmetic.**  Set overlaps and entity-count folds are
  exact in int64 regardless of order and only meet floats in the final
  division, with identical operands.

The Jaro-based string measures (F3, F7) have no kernel and fall back to
the scalar sweep, memoization intact.  F2 *does* have a block kernel —
its expensive part is an integer edit distance, exact under any
implementation, batched here as a pair-vectorized Myers bit-parallel DP
(see the URL-similarity section below).

One record, three layouts
-------------------------

Every kernel input comes from one place: a :class:`_FamilyRecord` per
family (the vectors of F1, F8–F10, F12, F14; the sets of F4–F6, F11;
F13's entity counter), rows of flat (column, value) entries plus each
row's moments.  A record gets its rows from pages (one walk per page,
keys interned in an append-only vocabulary), or by appending as a
served page joins.  A :class:`BlockState` picks which record to read
and its layout picks the rows and columns to stack — the dense square, a
candidate mask, or a burst of ``k`` new pages on a served block's
``n`` residents (:meth:`BlockState.burst`: the ``k × (n + k - 1)``
rectangle with the new pages in reverse add order on the left, so
every score is ``scorer(new, other)`` exactly as a chain of single
adds calls it).  Columns are always stacked in ascending key order —
the fold order above — so the interned order never reaches a score.
A served block keeps its record (:class:`ResidentRecord`): each page's
dicts are walked once, and a burst walks only its own pages.

Kernels are dispatched per :class:`~repro.similarity.base.
SimilarityFunction` by :func:`kernel_for`, which also checks the
function still carries its built-in scorer: a registry override under a
built-in name (``register_similarity(..., replace=True)``) falls back
to its own scalar code rather than the stale kernel.

This module imports numpy at module level and is itself imported
lazily, only by :class:`~repro.similarity.backends.NumpyBackend` — the
default ``python`` backend never touches numpy.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from repro.extraction.features import PageFeatures
from repro.graph.entity_graph import PairKey, pair_key
from repro.similarity import extended as _extended
from repro.similarity import functions as _base
from repro.similarity.strings import levenshtein
from repro.similarity.urls import domain_similarity, parse_url

__all__ = ["BlockState", "Kernel", "ResidentRecord", "kernel_for",
           "recorded_family"]

#: Columns folded per vectorized step.  Folding stays sequential per
#: column (exactness); chunking only amortizes Python-loop overhead and
#: keeps the per-step tensors cache-resident.
_CHUNK = 32


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
    square = sum(value * value for value in values)
    return count, sum(values), math.sqrt(square), square


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
    its rows from pages (``pages``), one :meth:`entry` walk each, or by
    :meth:`append`, as a served page joins.  Keys are interned in
    first-seen order into an append-only vocabulary, so an id names a
    key and is never a fold position.

    :meth:`family` stacks the rows over the columns a layout reads, in
    ascending key order — the scalar fold order.
    """

    def __init__(self, kind: str, extract: Callable,
                 pages: Sequence[PageFeatures] = ()):
        self.kind = kind  # "vector", "set" or "counter"
        self.extract = extract
        self.column_of: dict = {}
        #: ``(page, entry or None)`` of the rows joined since the last
        #: read; a page that joined with no entry is walked then.
        self._joined: list[tuple] = [(page, None) for page in pages]
        self.keys: list = []
        self.columns = np.zeros(0, dtype=np.intp)
        self.values = None if kind == "set" else np.zeros(
            0, dtype=np.int64 if kind == "counter" else np.float64)
        self.owners = np.zeros(0, dtype=np.intp)
        self.moments = np.zeros((0, 4))

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

    def _fold(self) -> None:
        """Fold in the rows joined since the last read."""
        if not self._joined:
            return
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
    reads, or ``None``: it has no kernel, or its kernel reads the pages'
    URLs (F2)."""
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
    one ``block_scores`` call (or one burst) shares.

    The TF-IDF family (and its pairwise dot fold) is built once and
    reused by F8, F9 and F10; the concept family by F1 and F14; and so
    on.  Every kernel fills a ``left × right`` rectangle of (earlier
    page, later page) scores, and the layout says which:

    * **the square** — dense scoring: ``left`` and ``right`` are both
      all rows, and :meth:`sides` hands each kernel the very same array
      twice, no copy;
    * **a candidate mask** — rows are the pages that occur in a
      candidate pair (in block order), ``left`` the rows that occur as a
      pair's *earlier* member and ``right`` the later members; pair keys
      are enumerated from the mask itself, O(candidates), in the dense
      sweep's row-major order;
    * **a burst** of ``k`` new pages against ``n`` resident ones — the
      ``k × (n + k - 1)`` rectangle :meth:`burst` lays out by
      construction, no mask and no pair keys.

    :meth:`family` reads one record per family — the resident record on
    a burst, else a record of the pages — and stacks the layout's
    rows over its columns: every key for the square, the keys held on
    both sides for a mask, the burst's own keys for a burst.  A key
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
            pair_keys = [pair_key(ids[i], ids[j])
                         for i, j in zip(earlier.tolist(), later.tolist())]
        else:
            # O(candidates): place each masked pair at its (earlier,
            # later) block positions and sort — the dense sweep's order
            # restricted to the mask.
            position = {doc_id: index for index, doc_id in enumerate(ids)}
            pair_keys = [key for key in mask
                         if key[0] in position and key[1] in position]
            placed = np.asarray(
                [(position[first], position[second])
                 for first, second in pair_keys], dtype=np.intp).reshape(-1, 2)
            placed.sort(axis=1)
            order = np.lexsort((placed[:, 1], placed[:, 0]))
            pair_keys = [pair_keys[index] for index in order.tolist()]
            # Rows are the pages in a masked pair, in block order.
            kept, rows = np.unique(placed[order], return_inverse=True)
            ids = [ids[index] for index in kept.tolist()]
            earlier, later = rows.reshape(-1, 2).T
            self.left, left_cell = np.unique(earlier, return_inverse=True)
            self.right, right_cell = np.unique(later, return_inverse=True)
            self.cells = (left_cell, right_cell)
        #: Row positions (earlier, later) of the scored pairs and their
        #: keys, in canonical pair order; ``cells`` are the same pairs
        #: as rectangle coordinates.
        self.pairs = (earlier, later)
        self._pair_keys: list[PairKey] = pair_keys
        self._bind(ids, features)

    @classmethod
    def burst(cls, record: ResidentRecord, entries: list[dict],
              residents: int) -> "BlockState":
        """The rectangle a chain of single adds scores, as one state.

        Rows are the ``k`` new pages (``entries``, given in add order)
        in **reverse** add order, then ``record``'s ``residents`` rows:
        every new page sits before all the pages it is scored against —
        the residents and the pages added before it — so each read cell
        is (earlier row, later row) with the new page on the left, its
        single add's argument order.  ``left`` is rows ``0..k-1`` and
        ``right`` rows ``1..k+n-1``, both views; :meth:`burst_rows`
        reads the ``k × (k + n - 1)`` matrices back in add order.  The
        state serves the kernels of the record's families, which fill
        the whole rectangle; it lists no pairs, so F2's kernel does not
        run on it.
        """
        k = len(entries)
        state = cls.__new__(cls)
        state.square = False
        state.left = np.arange(k, dtype=np.intp)
        state.right = np.arange(1, k + residents, dtype=np.intp)
        state.pairs = state.cells = None
        state._pair_keys = []
        state._bind([], None)
        state._burst = True
        state._record = record
        state._entries = entries[::-1]
        return state

    def _bind(self, ids: list[str], features) -> None:
        """The state every layout shares: rows, inputs, family caches."""
        self.ids = ids
        self._burst = False
        self._record: ResidentRecord | None = None
        self._entries: list[dict] | None = None
        self._features = features
        self._pages: list[PageFeatures] | None = None
        self._families: dict[str, _Family] = {}
        self._dots: dict[str, np.ndarray] = {}

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

    def pair_weights(self, kernel: "Kernel") -> dict[PairKey, float]:
        """One kernel's scores as a canonical pair-ordered weights dict."""
        if not self._pair_keys:
            return {}
        matrix = kernel.matrix(self)
        return dict(zip(self._pair_keys, matrix[self.cells].tolist()))

    def burst_rows(self, kernel: "Kernel") -> list[list[float]]:
        """One kernel's scores on a :meth:`burst` state, one list per
        new page in add order: against the residents in row order, then
        against the pages added before it, in add order."""
        k = len(self.left)
        rows = kernel.matrix(self).tolist()
        return [rows[row][k - 1:] + rows[row][row:k - 1][::-1]
                for row in range(k - 1, -1, -1)]

    @property
    def pages(self) -> list[PageFeatures]:
        """Materialized pages, built lazily (page records and the F2
        kernel)."""
        if self._pages is None:
            self._pages = [self._features[doc_id] for doc_id in self.ids]
        return self._pages

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
        else:
            record = _FamilyRecord(kind, extract, self.pages)
            if not self.square:
                ids = np.flatnonzero(record.held(self.left)
                                     & record.held(self.right)).tolist()
        family = record.family(ids, new)
        self._families[name] = family
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
    """Left × right dot products via a sequential ascending-column fold
    over the ``live`` columns.

    Per pair this performs ``acc += left[i, d] * right[j, d]`` for ``d``
    ascending — exactly the scalar ``dot``'s fold over the sorted
    intersection, with implicit zeros as exact no-ops.  Dropping the
    columns :meth:`BlockState._live` rules out, like folding them,
    leaves every read pair's operation sequence unchanged.
    """
    acc = np.zeros((len(left), len(right)))
    if not acc.size or not live.any():
        return acc
    symmetric = left is right
    left = np.ascontiguousarray(left[:, live].T)
    right = left if symmetric else np.ascontiguousarray(right[:, live].T)
    for start in range(0, len(left), _CHUNK):
        terms = (left[start:start + _CHUNK, :, None]
                 * right[start:start + _CHUNK, None, :])
        for term in terms:
            acc += term
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
# F2 is a string measure, but its expensive part — the path edit
# distance — is an *integer*, so any correct Levenshtein implementation
# is automatically bit-exact; only the final ``0.8·domain + 0.2·path``
# combination touches floats, with identical operands.  Domain scores
# repeat across the block's few distinct domains and are computed once
# with the scalar :func:`~repro.similarity.urls.domain_similarity`
# (exactly the prepared scorer's memo).  The other string measures (F3,
# F7: Jaro–Winkler plus name-form logic) do not vectorize and stay on
# the scalar path.

#: Myers' algorithm below packs one DP column per uint64; longer
#: patterns (never seen for generated URL paths) fall back to the scalar
#: implementation pair by pair.
_MAX_BITPARALLEL_LENGTH = 63


def _path_distances(paths: list[str], rows: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """Levenshtein distance of ``(paths[i], paths[j])`` per index pair.

    Batched Myers/Hyyrö bit-parallel: one DP column per pair packed in a
    uint64, all pairs advanced together one text character per step.
    """
    lengths = np.asarray([len(path) for path in paths], dtype=np.int64)
    # Pattern = the shorter side (fewer bits), text = the longer.
    swap = lengths[rows] > lengths[cols]
    pattern_idx = np.where(swap, cols, rows)
    text_idx = np.where(swap, rows, cols)
    equal = np.asarray([paths[i] == paths[j]
                        for i, j in zip(rows.tolist(), cols.tolist())],
                       dtype=bool)
    pattern_len = lengths[pattern_idx]
    text_len = lengths[text_idx]
    scores = np.where(pattern_len == 0, text_len, 0).astype(np.int64)

    live = (~equal) & (pattern_len > 0) \
        & (pattern_len <= _MAX_BITPARALLEL_LENGTH)
    overlong = (~equal) & (pattern_len > _MAX_BITPARALLEL_LENGTH)
    for pair in np.flatnonzero(overlong).tolist():
        scores[pair] = levenshtein(paths[pattern_idx[pair]],
                                   paths[text_idx[pair]])

    if live.any():
        alphabet = {"": 0}
        for path in paths:
            for char in path:
                alphabet.setdefault(char, len(alphabet))
        max_len = int(lengths.max())
        codes = np.zeros((len(paths), max_len), dtype=np.int64)
        for row, path in enumerate(paths):
            codes[row, :len(path)] = [alphabet[char] for char in path]
        bitmaps = np.zeros((len(paths), len(alphabet)), dtype=np.uint64)
        for row, path in enumerate(paths):
            # Python-int bit sets, one array store per path; only
            # patterns (at most 63 characters) ever read their bitmaps.
            bits: dict[int, int] = {}
            for offset, char in enumerate(path[:_MAX_BITPARALLEL_LENGTH]):
                code = alphabet[char]
                bits[code] = bits.get(code, 0) | (1 << offset)
            bitmaps[row, list(bits)] = list(bits.values())

        p_idx = pattern_idx[live]
        t_idx = text_idx[live]
        p_len = pattern_len[live]
        t_len = text_len[live]
        one = np.uint64(1)
        mask = (one << p_len.astype(np.uint64)) - one
        high = one << (p_len.astype(np.uint64) - one)
        vp = mask.copy()
        vn = np.zeros(len(p_idx), dtype=np.uint64)
        score = p_len.copy()
        page_bitmaps = bitmaps[p_idx]
        for step in range(int(t_len.max())):
            active = step < t_len
            matches = page_bitmaps[np.arange(len(p_idx)),
                                   codes[t_idx, step]]
            diagonal_zero = ((((matches & vp) + vp) & mask) ^ vp) \
                | matches | vn
            horizontal_positive = (vn | ~(diagonal_zero | vp)) & mask
            horizontal_negative = vp & diagonal_zero
            gained = (horizontal_positive & high) != 0
            lost = ((horizontal_negative & high) != 0) & ~gained
            score = score + np.where(active & gained, 1, 0) \
                - np.where(active & lost, 1, 0)
            shifted_positive = ((horizontal_positive << one) | one) & mask
            shifted_negative = (horizontal_negative << one) & mask
            new_vp = (shifted_negative
                      | ~(diagonal_zero | shifted_positive)) & mask
            new_vn = shifted_positive & diagonal_zero
            vp = np.where(active, new_vp, vp)
            vn = np.where(active, new_vn, vn)
        scores[live] = score
    return scores


def _pairwise_path_distances(paths: list[str]) -> np.ndarray:
    """Levenshtein distance for every unordered path pair (the square,
    symmetric int64 matrix over :func:`_path_distances`)."""
    distances = np.zeros((len(paths), len(paths)), dtype=np.int64)
    rows, cols = np.triu_indices(len(paths), k=1)
    if rows.size:
        scores = _path_distances(paths, rows, cols)
        distances[rows, cols] = scores
        distances[cols, rows] = scores
    return distances


def _url_matrix(state: BlockState) -> np.ndarray:
    """F2 over exactly the pairs the state reads.

    Domain scores and path distances are per-pair quantities with no
    shared fold, so nothing but the read pairs is computed — the
    distinct (earlier domain, later domain) combinations among them, and
    one Myers lane per pair — and the values are scattered into the
    rectangle.
    """
    parsed = [parse_url(url) if url else None for url in state.urls()]
    domains = [entry.domain if entry is not None else "" for entry in parsed]
    paths = [entry.path if entry is not None else "" for entry in parsed]
    earlier, later = state.pairs

    # Scalar domain_similarity once per distinct domain pair, called —
    # like the dense table always was — with the domain first seen in
    # the block on the left.
    distinct = list(dict.fromkeys(domains))
    column = {domain: index for index, domain in enumerate(distinct)}
    domain_ids = np.asarray([column[domain] for domain in domains],
                            dtype=np.int64)
    domain_earlier, domain_later = domain_ids[earlier], domain_ids[later]
    first = np.minimum(domain_earlier, domain_later)
    second = np.maximum(domain_earlier, domain_later)
    combos, combo_of_pair = np.unique(first * len(distinct) + second,
                                      return_inverse=True)
    domain_scores = np.asarray(
        [domain_similarity(distinct[left], distinct[right])
         for left, right in (divmod(combo, len(distinct))
                             for combo in combos.tolist())],
        dtype=float)[combo_of_pair]

    path_lengths = np.asarray([len(path) for path in paths], dtype=np.int64)
    longest = np.maximum(path_lengths[earlier], path_lengths[later])
    distances = _path_distances(paths, earlier, later)
    with np.errstate(divide="ignore", invalid="ignore"):
        path_scores = 1.0 - distances / np.where(longest > 0, longest, 1)
    path_scores = np.where(longest > 0, path_scores, 1.0)

    value = 0.8 * domain_scores + (1.0 - 0.8) * path_scores
    has_url = np.asarray([entry is not None for entry in parsed], dtype=bool)
    matrix = np.zeros(state.shape)
    matrix[state.cells] = np.where(has_url[earlier] & has_url[later],
                                   value, 0.0)
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
            ``"counter"`` — or ``None``: it reads the pages' URLs (F2).
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

    ``None`` means "use the scalar path": string measures, custom
    functions, and built-in names whose scorer was replaced in the
    registry.
    """
    kernel = _KERNELS.get(function.name)
    if kernel is not None and function.scorer is kernel.expected_scorer:
        return kernel
    return None
