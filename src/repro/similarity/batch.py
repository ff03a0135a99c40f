"""Vectorized batch-scoring kernels for the ``numpy`` backend.

Each kernel fills one similarity function's block score matrix — the
whole square, or the ``left × right`` rectangle a candidate mask reads
(see :class:`BlockState`) — from dense per-block feature matrices,
instead of calling a scalar scorer per pair.  The point is speed on the quadratic hot path; the
constraint is the backend bit-identity contract
(:mod:`repro.similarity.backends`): every kernel must reproduce the
scalar scorers' floats exactly, not approximately.

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
* **Scalar per-page inputs.**  Per-page quantities the scalar scorers
  derive themselves (norms, value sums) are computed with the *same
  scalar functions* and broadcast, so their bits match by construction.
* **Integer arithmetic.**  Set overlaps and entity-count folds are
  exact in int64 regardless of order and only meet floats in the final
  division, with identical operands.

The Jaro-based string measures (F3, F7) have no kernel and fall back to
the scalar sweep, memoization intact.  F2 *does* have a block kernel —
its expensive part is an integer edit distance, exact under any
implementation, batched here as a pair-vectorized Myers bit-parallel DP
(see the URL-similarity section below).

The incremental request path
----------------------------

A served block grows page by page, and every add — one page or a burst
of ``k`` — scores the new pages against the ``n`` resident ones and
each other: :meth:`BlockState.burst` lays that ``k × (n + k - 1)``
rectangle out with the new pages in reverse add order on the left, so
every score is ``scorer(new, other)`` exactly as a chain of single adds
calls it.  A :class:`ResidentRecord` keeps the resident side's inputs
for the record families (the vector families of F1, F8–F10, F12, F14
and the set families of F4–F6, F11): per page, the keys interned in a
block-wide, append-only vocabulary, the values and the moments, made by
one walk of the page's dicts and appended when it joins.  A burst walks
only its own pages and gathers the residents with numpy, over the
burst's keys sorted — the fold order above — so the interned order
never reaches a score.

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

import numpy as np

from repro.extraction.features import PageFeatures
from repro.graph.entity_graph import PairKey, pair_key
from repro.similarity import extended as _extended
from repro.similarity import functions as _base
from repro.similarity.strings import levenshtein
from repro.similarity.urls import domain_similarity, parse_url
from repro.similarity.vectors import norm, norm_squared

__all__ = ["BlockState", "Kernel", "PlaneArena", "ResidentRecord",
           "kernel_for", "recorded_family"]

#: Columns folded per vectorized step.  Folding stays sequential per
#: column (exactness); chunking only amortizes Python-loop overhead and
#: keeps the per-step tensors cache-resident.
_CHUNK = 32


# -- materialized per-block families ---------------------------------------


class _VectorFamily:
    """Dense matrices for one sparse-vector page attribute.

    Columns are the block vocabulary in ascending key order — the same
    order the scalar folds iterate.  ``presence`` records dict
    membership (not value truthiness), matching ``key in vector``
    semantics; per-page norms and sums come from the scalar helpers so
    their bits match the scalar scorers'.

    Two construction paths produce identical matrices: the dict path
    below, and :meth:`from_plane`, which fills the same (row, column,
    entry) triples straight from a shard's CSR views — the stored entry
    order is the dicts' iteration order and the stored vocabulary is
    already ascending, so the fancy assignment and the per-page scalar
    folds replay the exact same float operations.

    ``sides`` — a masked block's ``(left, right)`` row positions —
    narrows the dict path's vocabulary to the keys present on *both*
    sides of the rectangle.  A column absent from a whole side is zero
    for one member of every pair the rectangle holds: an exact no-op
    step of every fold and no contribution to any key intersection.
    The per-page moments still come from the whole vectors.

    ``approx`` switches the family to the opt-in float32 mode of the
    ``numpy32`` backend: values are downcast to a float32 matrix (from
    an optional :class:`PlaneArena` scratch) and the per-page moments
    are recomputed as float64 numpy reductions over it — deterministic,
    but *not* bit-identical to the scalar path.
    """

    def __init__(self, vectors: list[dict[str, float]],
                 sides: "tuple[np.ndarray, np.ndarray] | None" = None,
                 approx: bool = False, arena: "PlaneArena | None" = None):
        self.vectors = vectors
        n = len(vectors)
        if sides is None:
            vocab: set[str] = set().union(*vectors)
        else:
            left, right = sides
            vocab = set().union(*[vectors[row] for row in left.tolist()])
            vocab &= set().union(*[vectors[row] for row in right.tolist()])
        self.index = {key: column for column, key in enumerate(sorted(vocab))}
        # Explicit C-contiguous float64 buffers, filled with one fancy
        # assignment over the flattened (row, column) coordinates: one
        # numpy dispatch for the whole family instead of two per page.
        # Values are assigned, never accumulated, so the bits match the
        # per-row fill exactly.
        self.values = np.zeros((n, len(self.index)), dtype=np.float64,
                               order="C")
        self.presence = np.zeros((n, len(self.index)), dtype=bool, order="C")
        counts: list[int] = []
        columns: list[int] = []
        entries: list[float] = []
        column_of = self.index.__getitem__
        for vector in vectors:
            if sides is None:
                keys = vector
                entries.extend(vector.values())
            else:
                # Only the page's entries on a kept column — a set
                # intersection, not a walk of every entry.
                keys = self.index.keys() & vector.keys()
                entries.extend(map(vector.__getitem__, keys))
            columns.extend(map(column_of, keys))
            counts.append(len(keys))
        if columns:
            rows = np.repeat(np.arange(n, dtype=np.intp), counts)
            self.values[rows, columns] = entries
            self.presence[rows, columns] = True
        self.nnz = np.asarray([len(vector) for vector in vectors],
                              dtype=np.int64)
        self.sums = np.asarray([sum(vector.values()) for vector in vectors],
                               dtype=float)
        self.norms = np.asarray([norm(vector) for vector in vectors],
                                dtype=float)
        self.squared_norms = np.asarray(
            [norm_squared(vector) for vector in vectors], dtype=float)
        if approx:
            self._to_approx(arena)

    @classmethod
    def from_plane(cls, counts: np.ndarray, cols: np.ndarray,
                   entries: np.ndarray, n_columns: int,
                   approx: bool = False,
                   arena: "PlaneArena | None" = None) -> "_VectorFamily":
        """Build the family from a shard's CSR views, no dicts touched.

        ``n_columns`` is the plane's full-block vocabulary width.  Under
        a mask this is wider than the dict path's vocabulary (the keys
        present on both sides of the rectangle), but only by columns
        that are zero on a whole side — exact no-op fold steps for every
        kernel (:func:`_pair_dot_fold` drops them before folding), so
        scores stay bit-identical.
        """
        family = cls.__new__(cls)
        family.vectors = None
        family.index = None
        n = len(counts)
        family.values = np.zeros((n, n_columns), dtype=np.float64, order="C")
        family.presence = np.zeros((n, n_columns), dtype=bool, order="C")
        if cols.size:
            rows = np.repeat(np.arange(n, dtype=np.intp), counts)
            family.values[rows, cols] = entries
            family.presence[rows, cols] = True
        family.nnz = counts.astype(np.int64)
        if approx:
            family._to_approx(arena)
            return family
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        scalars = entries.tolist()
        sums: list[float] = []
        norms: list[float] = []
        squares: list[float] = []
        for row in range(n):
            chunk = scalars[bounds[row]:bounds[row + 1]]
            # The scalar helpers' folds (sum / norm / norm_squared),
            # replayed over the stored order — the dicts' iteration
            # order — so the broadcast moments keep their exact bits.
            sums.append(sum(chunk))
            square = sum(value * value for value in chunk)
            squares.append(square)
            norms.append(math.sqrt(square))
        family.sums = np.asarray(sums, dtype=float)
        family.norms = np.asarray(norms, dtype=float)
        family.squared_norms = np.asarray(squares, dtype=float)
        return family

    @classmethod
    def from_record(cls, record: "_FamilyRecord",
                    entries: list[tuple]) -> "_VectorFamily":
        """A burst's rows (its ``entries``) stacked on the record's
        residents, over the burst's keys in ascending order.

        A key no new page holds is zero on the whole left side — an
        exact no-op step of every fold — so the columns a burst reads
        are its own keys, and the values and moments are the ones the
        dict path assigns and computes.
        """
        rows, columns, values, width, moments = record.stack(entries)
        family = cls.__new__(cls)
        family.vectors = None
        family.index = None
        family.values = np.zeros((len(moments), width), dtype=np.float64,
                                 order="C")
        family.presence = np.zeros((len(moments), width), dtype=bool,
                                   order="C")
        family.values[rows, columns] = values
        family.presence[rows, columns] = True
        family.nnz = moments[:, 0].astype(np.int64)
        family.sums = moments[:, 1]
        family.norms = moments[:, 2]
        family.squared_norms = moments[:, 3]
        return family

    def _to_approx(self, arena: "PlaneArena | None") -> None:
        shape = self.values.shape
        if arena is not None:
            values32 = arena.take(shape, np.float32)
        else:
            values32 = np.zeros(shape, dtype=np.float32)
        np.copyto(values32, self.values, casting="unsafe")
        self.values = values32
        # Moments in float64 over the rounded float32 values: cheap
        # O(n·d) reductions whose error stays ~1e-7 relative, keeping
        # the expensive approximation confined to the O(n²·d) dots.
        self.sums = self.values.sum(axis=1, dtype=np.float64)
        self.squared_norms = (self.values * self.values).sum(
            axis=1, dtype=np.float64)
        self.norms = np.sqrt(self.squared_norms)


class _SetFamily:
    """Indicator matrix for one set-valued page attribute."""

    def __init__(self, sets: list[set]):
        n = len(sets)
        vocab: set = set()
        for members in sets:
            vocab.update(members)
        index = {key: column for column, key in enumerate(sorted(vocab))}
        self.indicator = np.zeros((n, len(index)), dtype=np.int64)
        for row, members in enumerate(sets):
            if members:
                self.indicator[row, [index[key] for key in members]] = 1
        self.sizes = np.asarray([len(members) for members in sets],
                                dtype=np.int64)

    @classmethod
    def from_plane(cls, counts: np.ndarray, cols: np.ndarray,
                   n_columns: int) -> "_SetFamily":
        """Build the indicator from CSR views (set or counter planes —
        a counter's columns are exactly its key set)."""
        family = cls.__new__(cls)
        n = len(counts)
        family.indicator = np.zeros((n, n_columns), dtype=np.int64)
        if cols.size:
            rows = np.repeat(np.arange(n, dtype=np.intp), counts)
            family.indicator[rows, cols] = 1
        family.sizes = counts.astype(np.int64)
        return family

    @classmethod
    def from_record(cls, record: "_FamilyRecord",
                    entries: list[tuple]) -> "_SetFamily":
        """A burst's rows stacked on the record's residents, over the
        burst's members (integer overlaps: any column order is exact)."""
        rows, columns, _, width, moments = record.stack(entries)
        family = cls.__new__(cls)
        family.indicator = np.zeros((len(moments), width), dtype=np.int64)
        family.indicator[rows, columns] = 1
        family.sizes = moments[:, 0].astype(np.int64)
        return family


class _CounterFamily:
    """Count matrix for one multiset (Counter) page attribute."""

    def __init__(self, counters: list):
        n = len(counters)
        vocab: set = set()
        for counter in counters:
            vocab.update(counter)
        index = {key: column for column, key in enumerate(sorted(vocab))}
        self.counts = np.zeros((n, len(index)), dtype=np.int64)
        for row, counter in enumerate(counters):
            for key, count in counter.items():
                self.counts[row, index[key]] = count
        self.sizes = np.asarray([len(counter) for counter in counters],
                                dtype=np.int64)
        self.totals = self.counts.sum(axis=1)

    @classmethod
    def from_plane(cls, counts_per_row: np.ndarray, cols: np.ndarray,
                   entries: np.ndarray, n_columns: int) -> "_CounterFamily":
        """Build the count matrix from CSR views (all-integer, exact)."""
        family = cls.__new__(cls)
        n = len(counts_per_row)
        family.counts = np.zeros((n, n_columns), dtype=np.int64)
        if cols.size:
            rows = np.repeat(np.arange(n, dtype=np.intp), counts_per_row)
            family.counts[rows, cols] = entries
        family.sizes = counts_per_row.astype(np.int64)
        family.totals = family.counts.sum(axis=1)
        return family


class PlaneArena:
    """Grow-only scratch buffers for the ``numpy32`` backend's planes.

    The float32 backend trades exactness for speed; re-zeroing a
    preallocated buffer is much cheaper than faulting fresh pages per
    block, so each backend thread keeps one arena and bump-allocates
    every block's dense family planes from it.  ``reset`` (called per
    :class:`BlockState`) recycles the space; growth allocates a bigger
    buffer and strands the old one with whatever views still hold it.
    Not thread-safe by design — the backend keeps one arena per thread.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._used: dict[str, int] = {}

    def reset(self) -> None:
        """Recycle all space (outstanding views keep their buffers)."""
        for key in self._used:
            self._used[key] = 0

    def take(self, shape: tuple, dtype) -> np.ndarray:
        """A zeroed C-contiguous view of ``shape`` from the scratch."""
        dtype = np.dtype(dtype)
        key = dtype.str
        need = int(math.prod(shape))
        used = self._used.get(key, 0)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size < used + need:
            size = max(used + need, 2 * (buffer.size if buffer is not None
                                         else 0))
            buffer = np.empty(size, dtype=dtype)
            self._buffers[key] = buffer
        view = buffer[used:used + need].reshape(shape)
        self._used[key] = used + need
        view[...] = 0
        return view


# -- the resident record (the incremental request path) --------------------


class _FamilyRecord:
    """One family's inputs for a block's resident pages, row by row.

    Row ``r`` is the ``r``-th page to join.  Keys are interned in
    first-seen order into an append-only vocabulary: an id names a key
    and is never a fold position (:meth:`stack` orders a burst's vector
    columns by key).  The rows are kept flat — (column, value) per
    entry with the row it came from — plus one moments row per page:
    ``nnz``, ``sum``, ``norm``, ``norm_squared`` of a vector, from the
    scalar helpers the dict path calls; the size of a set.
    """

    def __init__(self, kind: str, extract: Callable):
        self.kind = kind  # "vector" or "set"
        self.extract = extract
        self.column_of: dict = {}
        self.keys: list = []
        self.columns = np.zeros(0, dtype=np.intp)
        self.values = np.zeros(0)
        self.owners = np.zeros(0, dtype=np.intp)
        self.moments = np.zeros((0, 4 if kind == "vector" else 1))
        #: ``(page, entry or None)`` of the rows joined since the last
        #: :meth:`stack`; a page that joined with no entry is walked there.
        self._joined: list[tuple] = []

    def entry(self, page: PageFeatures) -> tuple:
        """``page``'s interned columns, values (``None`` for a set) and
        moments — the one walk of its dict or set."""
        data = self.extract(page)
        column_of = self.column_of
        fresh = [key for key in data if key not in column_of]
        if fresh:
            start = len(self.keys)
            column_of.update(zip(fresh, range(start, start + len(fresh))))
            self.keys.extend(fresh)
        columns = list(map(column_of.__getitem__, data))
        if self.kind == "set":
            return columns, None, (len(data),)
        # ``norm`` is the square root of ``norm_squared``'s fold.
        square = norm_squared(data)
        return (columns, list(data.values()),
                (len(data), sum(data.values()), math.sqrt(square), square))

    def append(self, page: PageFeatures, entry: tuple | None) -> None:
        """``page`` joined: it is the next row (its ``entry``, made when
        it was scored, or made from it on the next :meth:`stack`)."""
        self._joined.append((page, entry))

    def _flat(self, entries: list[tuple]):
        """``entries``' columns, row offsets, values and moments as
        arrays (one conversion each)."""
        columns = np.fromiter(chain.from_iterable(
            entry[0] for entry in entries), np.intp)
        rows = np.repeat(np.arange(len(entries)),
                         [len(entry[0]) for entry in entries])
        values = None if self.kind == "set" else np.fromiter(
            chain.from_iterable(entry[1] for entry in entries), float)
        moments = np.asarray([entry[2] for entry in entries], dtype=float)
        return columns, rows, values, moments

    def stack(self, entries: list[tuple]):
        """A burst's rows (``0..k-1``, one per entry) stacked on the
        residents' (``k..k+n-1``), over the keys the burst holds.

        Returns ``(rows, columns, values, width, moments)``: fill
        coordinates and values (``None`` for a set), the column count,
        and one moments row per stacked row.  Vector columns are the
        burst's keys in ascending order — the scalar fold order.
        """
        if self._joined:  # fold in the rows joined since the last call
            columns, rows, values, moments = self._flat([
                self.entry(page) if entry is None else entry
                for page, entry in self._joined])
            self.owners = np.concatenate([self.owners, rows + len(
                self.moments)])
            self.columns = np.concatenate([self.columns, columns])
            if values is not None:
                self.values = np.concatenate([self.values, values])
            self.moments = np.concatenate([self.moments, moments])
            self._joined = []
        ids = (entries[0][0] if len(entries) == 1
               else list(set().union(*(entry[0] for entry in entries))))
        if self.kind == "vector":
            ids = sorted(ids, key=self.keys.__getitem__)
        position = np.full(len(self.keys), -1, dtype=np.intp)
        position[ids] = np.arange(len(ids))
        resident = position[self.columns]
        kept = resident >= 0
        columns, rows, values, moments = self._flat(entries)
        rows = np.concatenate([rows, self.owners[kept] + len(entries)])
        columns = np.concatenate([position[columns], resident[kept]])
        if values is not None:
            values = np.concatenate([values, self.values[kept]])
        return (rows, columns, values, len(ids),
                np.concatenate([moments, self.moments]))


def recorded_family(function) -> tuple[str, str, Callable] | None:
    """``(kind, family, extract)`` of the input a :class:`ResidentRecord`
    keeps for ``function``'s kernel, or ``None``: it has no kernel, or
    its kernel reads the pages (F2, F13)."""
    kernel = kernel_for(function)
    return None if kernel is None else kernel.recorded


class ResidentRecord:
    """A served block's resident pages, as the inputs of the record
    families the kernels of ``functions`` read.

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
            if recorded is not None and recorded[1] not in self.families:
                kind, name, extract = recorded
                self.families[name] = _FamilyRecord(kind, extract)
        for page in residents:
            self.append(page)

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
    """Lazily materialized matrices shared by every kernel of one block.

    One instance per ``block_scores`` call: the TF-IDF family (and its
    pairwise dot fold) is built once and reused by F8, F9 and F10; the
    concept family by F1 and F14; and so on.

    **Shape.**  Every kernel fills a ``left × right`` rectangle of
    (earlier page, later page) scores.  Dense scoring is the square
    special case — ``left`` and ``right`` are both all rows, and
    :meth:`sides` hands each kernel the very same array twice, no copy.
    A candidate-pair ``mask`` keeps only the pages that occur in a
    candidate pair (rows preserve block order), and derives ``left`` —
    the rows that occur as the *earlier* member of a masked pair — and
    ``right``, the later members; pair keys are enumerated from the
    mask itself, O(candidates), in the dense sweep's row-major order.
    A burst of ``k`` new pages against ``n`` resident ones is thus a
    ``k × (n + k - 1)`` rectangle, not an ``(n + k)²`` square; the
    incremental request path knows that layout by construction and
    builds it with :meth:`burst`, no mask and no pair keys.

    Dropping pages, and (in a masked dict-backed vector family) the
    vocabulary columns absent from a whole side, only removes fold
    steps that are exact no-ops for every surviving pair, so each
    masked entry's float-operation sequence — and hence its bits — is
    unchanged.

    When ``features`` is a :class:`~repro.runtime.planes.
    PlaneFeatureMap` (detected via its ``planes`` attribute), families
    are built straight from the shard's CSR views — no ``PageFeatures``
    is ever materialized on the kernel path, and ``pages`` stays
    untouched unless a scalar fallback asks for it.  Plane-backed and
    dict-backed construction are bit-identical (see
    :meth:`_VectorFamily.from_plane`).

    ``approx32=True`` selects the ``numpy32`` backend's float32 mode:
    vector families downcast to float32 (allocated from ``arena`` when
    given) and pairwise dots go through BLAS instead of the exact fold.
    Integer kernels (F4–F6, F11, F13) and string kernels (F2) remain
    exact; only the float-vector measures are approximate.
    """

    def __init__(self, ids: Sequence[str],
                 features: "dict[str, PageFeatures]",
                 mask: "frozenset[PairKey] | None" = None,
                 approx32: bool = False,
                 arena: PlaneArena | None = None):
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
        self._bind(ids, features, approx32, arena)

    @classmethod
    def burst(cls, pages: list[PageFeatures], residents: list[PageFeatures],
              record: ResidentRecord | None = None,
              entries: list[dict] | None = None) -> "BlockState":
        """The rectangle a chain of single adds scores, as one state.

        Rows are the ``k`` new ``pages`` in **reverse** add order, then
        the ``n`` ``residents``: every new page sits before all the
        pages it is scored against — the residents and the pages added
        before it — so each read cell is (earlier row, later row) with
        the new page on the left, its single add's argument order.
        ``left`` is rows ``0..k-1`` and ``right`` rows ``1..k+n-1``,
        both views; :meth:`burst_rows` reads the ``k × (k + n - 1)``
        matrices back in add order.  Families ``record`` keeps come
        from it and the new pages' ``entries`` (in add order, like
        ``pages``), every other family from the pages.  The state
        serves the vector, set and count kernels, which fill the whole
        rectangle; it lists no pairs, so F2's kernel does not run on it.
        """
        k, n = len(pages), len(residents)
        state = cls.__new__(cls)
        state.square = False
        state.left = np.arange(k, dtype=np.intp)
        state.right = np.arange(1, k + n, dtype=np.intp)
        state.pairs = state.cells = None
        state._pair_keys = []
        rows = list(reversed(pages)) + list(residents)
        state._bind([page.doc_id for page in rows], None, False, None)
        state._pages = rows
        state._burst = True
        state._record = record
        state._entries = None if entries is None else entries[::-1]
        return state

    def _bind(self, ids: list[str], features, approx32: bool,
              arena: PlaneArena | None) -> None:
        """The state every layout shares: rows, inputs, family caches."""
        self.ids = ids
        self._burst = False
        self._record: ResidentRecord | None = None
        self._entries: list[dict] | None = None
        self._features = features
        self._pages: list[PageFeatures] | None = None
        self._approx = approx32
        self._arena = arena if approx32 else None
        if self._arena is not None:
            self._arena.reset()
        planes = getattr(features, "planes", None)
        self._rows: list[int] | None = None
        if planes is not None:
            row_of = planes.row_index()
            try:
                self._rows = [row_of[doc_id] for doc_id in self.ids]
            except KeyError:  # pragma: no cover - planes missing a page
                planes = None
        self._planes = planes
        self._vector_families: dict[str, _VectorFamily] = {}
        self._set_families: dict[str, _SetFamily] = {}
        self._counter_families: dict[str, _CounterFamily] = {}
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
        """Materialized pages, built lazily (scalar fallbacks only —
        the plane path never touches this)."""
        if self._pages is None:
            self._pages = [self._features[doc_id] for doc_id in self.ids]
        return self._pages

    def urls(self) -> list[str]:
        """Page URLs in row order, straight from planes when available."""
        if self._planes is not None:
            decoded = self._planes.urls()
            return [decoded[row] for row in self._rows]
        return [page.url for page in self.pages]

    # -- family accessors (built once, shared across kernels) ------------
    #
    # Kernel family names coincide with the plane family names
    # encode_features stores ("concept", "tfidf", "top_tfidf",
    # "concept_set", "organizations", "other_persons", "locations",
    # "entity_context"), so a plane-backed block resolves every built-in
    # family from CSR views and only unknown (custom) families fall back
    # to extracting from materialized pages.  A burst state resolves the
    # families its resident record keeps from the record.

    def _plane_family(self, name: str, kinds: tuple):
        if self._planes is None:
            return None
        family = self._planes.family(name)
        if family is None or family.kind not in kinds:
            return None
        return family

    def _recorded(self, name: str):
        """The record family ``name`` and the new pages' entries in it,
        or ``None`` when no record keeps it."""
        if self._record is None or name not in self._record.families:
            return None
        return (self._record.families[name],
                [entry[name] for entry in self._entries])

    def vector_family(self, name: str, extract: Callable) -> _VectorFamily:
        family = self._vector_families.get(name)
        if family is None:
            plane = self._plane_family(name, ("vector",))
            recorded = self._recorded(name)
            if recorded is not None:
                family = _VectorFamily.from_record(*recorded)
            elif plane is not None:
                counts, cols, entries = plane.select(self._rows)
                family = _VectorFamily.from_plane(
                    counts, cols, entries, plane.n_columns,
                    approx=self._approx, arena=self._arena)
            else:
                # The float32 mode derives its moments from the dense
                # rows, so it keeps the whole vocabulary.
                narrow = not self.square and not self._approx
                family = _VectorFamily(
                    [extract(page) for page in self.pages],
                    sides=(self.left, self.right) if narrow else None,
                    approx=self._approx, arena=self._arena)
            self._vector_families[name] = family
        return family

    def set_family(self, name: str, extract: Callable) -> _SetFamily:
        family = self._set_families.get(name)
        if family is None:
            plane = self._plane_family(name, ("set", "counter"))
            recorded = self._recorded(name)
            if recorded is not None:
                family = _SetFamily.from_record(*recorded)
            elif plane is not None:
                counts, cols, _ = plane.select(self._rows)
                family = _SetFamily.from_plane(counts, cols, plane.n_columns)
            else:
                family = _SetFamily([extract(page) for page in self.pages])
            self._set_families[name] = family
        return family

    def counter_family(self, name: str, extract: Callable) -> _CounterFamily:
        family = self._counter_families.get(name)
        if family is None:
            plane = self._plane_family(name, ("counter",))
            if plane is not None:
                counts, cols, entries = plane.select(self._rows)
                family = _CounterFamily.from_plane(counts, cols, entries,
                                                   plane.n_columns)
            else:
                family = _CounterFamily(
                    [extract(page) for page in self.pages])
            self._counter_families[name] = family
        return family

    def pair_dot(self, name: str, extract: Callable) -> np.ndarray:
        """Left × right dot rectangle of one vector family (cached).

        Exact sequential fold by default; the ``numpy32`` mode hands the
        float32 plane to BLAS and widens the result to float64 — the one
        deliberate approximation that backend makes.
        """
        dots = self._dots.get(name)
        if dots is None:
            values = self.vector_family(name, extract).values
            left, right = self.sides(values)
            if self._approx:
                dots = (left @ right.T).astype(np.float64)
            else:
                dots = _pair_dot_fold(left, right,
                                      self._live(values, left, right))
            self._dots[name] = dots
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


def _cosine_matrix(state: BlockState, name: str,
                   extract: Callable) -> np.ndarray:
    family = state.vector_family(name, extract)
    dots = state.pair_dot(name, extract)
    norm_left, norm_right = state.outer(family.norms)
    denominator = norm_left * norm_right
    valid = state.both(family.nnz > 0) & (denominator != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = dots / denominator
    return np.where(valid, _clamp_unit(value), 0.0)


def _extended_jaccard_matrix(state: BlockState, name: str,
                             extract: Callable) -> np.ndarray:
    family = state.vector_family(name, extract)
    product = state.pair_dot(name, extract)
    squared_left, squared_right = state.outer(family.squared_norms)
    denominator = (squared_left + squared_right) - product
    valid = state.both(family.nnz > 0) & (denominator > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = product / denominator
    return np.where(valid, _clamp_unit(value), 0.0)


def _pearson_matrix(state: BlockState, name: str,
                    extract: Callable) -> np.ndarray:
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
    family = state.vector_family(name, extract)
    product = state.pair_dot(name, extract)
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


def _overlap_matrix(state: BlockState, name: str,
                    extract: Callable) -> np.ndarray:
    family = state.set_family(name, extract)
    members_left, members_right = state.sides(family.indicator)
    intersection = members_left @ members_right.T
    smaller = np.minimum(*state.outer(family.sizes))
    valid = state.both(family.sizes > 0)
    value = intersection / np.where(smaller > 0, smaller, 1)
    return np.where(valid, value, 0.0)


def _weighted_jaccard_matrix(state: BlockState, name: str,
                             extract: Callable) -> np.ndarray:
    family = state.counter_family(name, extract)
    counts_left, counts_right = state.sides(family.counts)
    # Chunked over the vocabulary axis to bound the broadcast tensor at
    # O(rectangle · _CHUNK); integer sums are exact under any grouping,
    # so this is bit-identical to the single-tensor form.
    minima = np.zeros(state.shape, dtype=np.int64)
    for start in range(0, counts_left.shape[1], _CHUNK):
        minima += np.minimum(counts_left[:, None, start:start + _CHUNK],
                             counts_right[None, :, start:start + _CHUNK]
                             ).sum(axis=2)
    total_left, total_right = state.outer(family.totals)
    maxima = (total_left + total_right) - minima
    valid = state.both(family.sizes > 0) & (maxima > 0)
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
        recorded: ``(kind, family, extract)`` of the input a
            :class:`ResidentRecord` keeps for this kernel — ``kind`` is
            ``"vector"`` or ``"set"`` — or ``None``: it reads the pages.
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


def _vector_kernel(name: str, expected_scorer: Callable, builder,
                   family: str, extract: Callable) -> None:
    _KERNELS[name] = Kernel(name, expected_scorer,
                            lambda state: builder(state, family, extract),
                            ("vector", family, extract))


def _set_kernel(name: str, expected_scorer: Callable, family: str) -> None:
    """An overlap kernel over the set of the ``PageFeatures`` field the
    family is named after."""
    def extract(page: PageFeatures) -> set:
        return set(getattr(page, family))
    _KERNELS[name] = Kernel(name, expected_scorer,
                            lambda state: _overlap_matrix(state, family,
                                                          extract),
                            ("set", family, extract))


_vector_kernel("F1", _base._f1, _cosine_matrix, "concept", _concepts)
_KERNELS["F2"] = Kernel("F2", _base._f2, _url_matrix)
_set_kernel("F4", _base._f4, "concept_set")
_set_kernel("F5", _base._f5, "organizations")
_set_kernel("F6", _base._f6, "other_persons")
_vector_kernel("F8", _base._f8, _cosine_matrix, "tfidf", _tfidf)
_vector_kernel("F9", _base._f9, _pearson_matrix, "tfidf", _tfidf)
_vector_kernel("F10", _base._f10, _extended_jaccard_matrix, "tfidf", _tfidf)
_set_kernel("F11", _extended._f11, "locations")
_vector_kernel("F12", _extended._f12, _cosine_matrix, "top_tfidf",
               _top_tfidf)
_KERNELS["F13"] = Kernel(
    "F13", _extended._f13,
    lambda state: _weighted_jaccard_matrix(state, "entity_context",
                                           _extended._entity_context))
_vector_kernel("F14", _extended._f14, _extended_jaccard_matrix, "concept",
               _concepts)


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
