"""Columnar feature planes: the zero-copy payload format for shards.

The shard layer (:mod:`repro.runtime.shards`) used to pickle a fan-out's
whole payload list into the segment.  Pickle is convenient but it is a
*copying* format: every worker pays ``pickle.loads`` over the full
numeric bulk — feature dicts and quadratic graph weights — and owns a
private copy of data that is already sitting, immutable, in shared
memory.  This module defines a layout-stable columnar encoding for
exactly that bulk:

* :func:`encode_features` packs one block's ``dict[str, PageFeatures]``
  into flat C-contiguous arrays — a deduplicated UTF-8 string table,
  per-page scalar columns, and one CSR triple (``indptr``/``cols``/
  ``values``) per sparse feature family, columns indexed into the
  family's ascending-key vocabulary.  The derived families the
  vectorized kernels need (``top_tfidf``, ``entity_context``) are
  computed here, at encode time, so workers never rebuild them from
  dicts.
* :func:`encode_graphs` packs a ``dict[str, WeightedPairGraph]`` the
  same way: a node table plus ``(left, right, weight)`` edge columns
  per function, in the weights dict's canonical pair order.
* A :class:`PlaneWriter` accumulates the arrays and copies them into
  the shard segment **once**, 64-byte aligned; only a tiny header of
  :class:`ArraySpec` descriptors travels through pickle.

On the worker side :class:`PlaneBuffer` turns the attached segment back
into read-only ``np.frombuffer`` views — zero copy, zero unpickle — and
two lazy mappings make the views a drop-in replacement for the original
objects: :class:`PlaneFeatureMap` (``Mapping[str, PageFeatures]``, pages
materialized only if a scalar fallback asks) and :class:`GraphPlaneMap`
(``Mapping[str, WeightedPairGraph]``).  The numpy backend never touches
the mapping: :class:`~repro.similarity.batch.BlockState` detects the
``planes`` attribute and reads each family record straight from the
block's whole CSR views.

Bit-identity: values are stored as the exact float64/int64 bits of the
source dicts, entries in dict iteration order (extraction emits
key-sorted dicts, so iteration order *is* the canonical fold order), and
vocabularies in ascending key order — the same order
``similarity/batch.py`` sorts them.  Decoding rebuilds dicts with the
identical iteration order, so every downstream float fold replays the
same operation sequence.  The parity suites in
``tests/properties/test_plane_parity.py`` enforce this at tolerance
zero.

This module imports numpy at module level; the shard layer only imports
it lazily, from inside the plane-path branches, so planeless runs on
numpy-free hosts keep working.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.extraction.features import PageFeatures
from repro.graph.entity_graph import WeightedPairGraph

__all__ = [
    "ArraySpec",
    "FeaturePlanes",
    "GraphPlaneMap",
    "PlaneBuffer",
    "PlaneEncodeError",
    "PlaneFeatureMap",
    "PlaneWriter",
    "encode_features",
    "encode_graphs",
    "features_eligible",
    "graphs_eligible",
]

#: Array alignment inside the plane region.  64 bytes keeps every view
#: cache-line aligned (and safely over-aligned for every dtype used).
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


class PlaneEncodeError(ValueError):
    """Payload data does not fit the plane layout (caller falls back)."""


@dataclass(frozen=True)
class ArraySpec:
    """Locator of one flat array inside a shard's plane region.

    Attributes:
        offset: byte offset relative to the plane region's base.
        count: element count.
        dtype: numpy dtype string (``"<i8"``, ``"<f8"``, ``"|u1"``).
    """

    offset: int
    count: int
    dtype: str


@dataclass(frozen=True)
class FamilySpec:
    """One sparse feature family as a CSR triple over a sorted vocabulary.

    ``kind`` is ``"vector"`` (float64 values), ``"counter"`` (int64
    values) or ``"set"`` (no values).  ``vocab`` holds one string-table
    id per column, in ascending key order — the same order
    ``BlockState`` sorts block vocabularies, so plane columns can be
    used as kernel columns directly.  ``cols``/``values`` entries are in
    each page's dict iteration order, which rebuilds dicts with their
    original (canonical) iteration order.
    """

    kind: str
    n_columns: int
    vocab: ArraySpec
    indptr: ArraySpec
    cols: ArraySpec
    values: ArraySpec | None


@dataclass(frozen=True)
class FeaturePlanesHeader:
    """Pickled residual describing one block's feature planes."""

    n: int
    blob: ArraySpec
    offsets: ArraySpec
    doc_ids: ArraySpec
    urls: ArraySpec
    frequent_names: ArraySpec
    closest_names: ArraySpec
    n_tokens: ArraySpec
    families: tuple[tuple[str, FamilySpec], ...]


@dataclass(frozen=True)
class GraphSpec:
    """One function's weighted pair graph as flat edge columns."""

    nodes: ArraySpec
    left: ArraySpec
    right: ArraySpec
    weights: ArraySpec


@dataclass(frozen=True)
class GraphPlanesHeader:
    """Pickled residual describing one block's similarity graphs."""

    blob: ArraySpec
    offsets: ArraySpec
    functions: tuple[tuple[str, GraphSpec], ...]


# -- writing ---------------------------------------------------------------


class PlaneWriter:
    """Accumulates plane arrays and writes them into a segment once.

    ``add`` records a C-contiguous copy-on-demand of the array and
    returns its :class:`ArraySpec`; ``write_into`` copies every array
    into the target buffer in one pass.  One writer serves a whole
    fan-out — every payload's planes land in the same region.
    """

    def __init__(self) -> None:
        self._arrays: list[tuple[int, np.ndarray]] = []
        self._cursor = 0

    def add(self, array: np.ndarray) -> ArraySpec:
        array = np.ascontiguousarray(array)
        offset = _aligned(self._cursor)
        self._arrays.append((offset, array))
        self._cursor = offset + array.nbytes
        return ArraySpec(offset=offset, count=int(array.size),
                         dtype=array.dtype.str)

    @property
    def nbytes(self) -> int:
        """Bytes the plane region needs (0 when nothing was added)."""
        return self._cursor

    def write_into(self, buffer, base: int) -> None:
        """Copy every recorded array into ``buffer`` at ``base``."""
        for offset, array in self._arrays:
            if array.size == 0:
                continue
            view = np.frombuffer(buffer, dtype=array.dtype,
                                 count=array.size, offset=base + offset)
            view[:] = array


class PlaneBuffer:
    """Read-only ``np.frombuffer`` views over an attached plane region.

    Holds the segment's memoryview; every array it hands out keeps that
    view (and through it the segment) alive, which is what lets the
    shard cache detect — via ``BufferError`` on release — that a segment
    still has live views and must not be closed yet.
    """

    def __init__(self, buffer, base: int):
        self._buffer = buffer
        self._base = base

    def array(self, spec: ArraySpec) -> np.ndarray:
        view = np.frombuffer(self._buffer, dtype=np.dtype(spec.dtype),
                             count=spec.count,
                             offset=self._base + spec.offset)
        if view.flags.writeable:  # pragma: no cover - shards pass readonly
            view.flags.writeable = False
        return view


class _StringTable:
    """Encode-side interning table: UTF-8 blob + offsets."""

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._parts: list[bytes] = []

    def add(self, value: str) -> int:
        if type(value) is not str:
            raise PlaneEncodeError(f"expected str, got {type(value).__name__}")
        index = self._ids.get(value)
        if index is None:
            index = len(self._parts)
            self._ids[value] = index
            self._parts.append(value.encode("utf-8"))
        return index

    def specs(self, writer: PlaneWriter) -> tuple[ArraySpec, ArraySpec]:
        offsets = np.zeros(len(self._parts) + 1, dtype=np.int64)
        if self._parts:
            np.cumsum([len(part) for part in self._parts], out=offsets[1:])
        blob = np.frombuffer(b"".join(self._parts), dtype=np.uint8)
        return writer.add(blob), writer.add(offsets)


class _Strings:
    """Decode-side lazy string table (each string decoded at most once)."""

    def __init__(self, blob: np.ndarray, offsets: np.ndarray):
        self._blob = blob
        self._offsets = offsets
        self._cache: dict[int, str] = {}

    def get(self, index: int) -> str:
        value = self._cache.get(index)
        if value is None:
            start = int(self._offsets[index])
            end = int(self._offsets[index + 1])
            value = bytes(self._blob[start:end]).decode("utf-8")
            self._cache[index] = value
        return value


# -- feature planes --------------------------------------------------------


def _encode_mapping_family(kind: str, maps: list, writer: PlaneWriter,
                           strings: _StringTable,
                           value_dtype) -> FamilySpec:
    vocabulary: set = set()
    for mapping in maps:
        vocabulary.update(mapping)
    try:
        ordered = sorted(vocabulary)
    except TypeError as error:
        raise PlaneEncodeError(f"unsortable {kind} vocabulary") from error
    column_of = {key: column for column, key in enumerate(ordered)}
    vocab_ids = np.asarray([strings.add(key) for key in ordered],
                           dtype=np.int64)
    indptr = np.zeros(len(maps) + 1, dtype=np.int64)
    np.cumsum([len(mapping) for mapping in maps], out=indptr[1:])
    columns: list[int] = []
    entries: list = []
    if kind == "set":
        for mapping in maps:
            columns.extend(column_of[key] for key in sorted(mapping))
    else:
        for mapping in maps:
            for key, value in mapping.items():
                columns.append(column_of[key])
                entries.append(value)
    values = None
    if kind != "set":
        entry_array = np.asarray(entries, dtype=value_dtype)
        if len(entry_array) != len(columns):  # pragma: no cover - paranoia
            raise PlaneEncodeError("ragged family entries")
        values = writer.add(entry_array)
    return FamilySpec(kind=kind, n_columns=len(ordered),
                      vocab=writer.add(vocab_ids),
                      indptr=writer.add(indptr),
                      cols=writer.add(np.asarray(columns, dtype=np.int64)),
                      values=values)


def features_eligible(features) -> bool:
    """Whether a payload's ``features`` can take the plane path.

    Only plain ``dict[str, PageFeatures]`` with stock, whole pages
    qualifies — a subclass could carry behavior the columnar layout
    cannot represent, the layout has no column for a narrowed page's
    read set (which must survive the trip: it is what stops a scorer
    reading fields that were never extracted), and an
    already-plane-backed mapping needs no re-encoding.
    """
    if type(features) is not dict or not features:
        return False
    return all(type(key) is str and type(page) is PageFeatures
               and page.reads is None
               for key, page in features.items())


def encode_features(features: dict[str, PageFeatures],
                    writer: PlaneWriter) -> FeaturePlanesHeader:
    """Pack one block's features into plane arrays; returns the header.

    Raises :class:`PlaneEncodeError` for values that do not fit the
    layout (non-string keys, unsortable vocabularies); callers fall back
    to pickling the payload as-is.
    """
    from repro.similarity import extended as _extended

    ids = list(features)
    pages = [features[doc_id] for doc_id in ids]
    strings = _StringTable()
    doc_ids = np.asarray([strings.add(doc_id) for doc_id in ids],
                         dtype=np.int64)
    urls = np.asarray([strings.add(page.url) for page in pages],
                      dtype=np.int64)
    frequent = np.asarray(
        [strings.add(page.most_frequent_name) for page in pages],
        dtype=np.int64)
    closest = np.asarray(
        [strings.add(page.closest_name_to_query) for page in pages],
        dtype=np.int64)
    n_tokens = np.asarray([int(page.n_tokens) for page in pages],
                          dtype=np.int64)

    families: list[tuple[str, FamilySpec]] = []
    # Raw families rebuild PageFeatures; the two derived families
    # (top_tfidf via _top_terms, entity_context via the Counter merge)
    # are precomputed so plane-backed kernels never touch page dicts.
    specs = [
        ("concept", "vector", [page.concept_vector for page in pages],
         np.float64),
        ("tfidf", "vector", [page.tfidf for page in pages], np.float64),
        ("top_tfidf", "vector",
         [_extended._top_terms(page.tfidf) for page in pages], np.float64),
        ("concept_set", "set", [page.concept_set for page in pages], None),
        ("organizations", "counter",
         [page.organizations for page in pages], np.int64),
        ("other_persons", "counter",
         [page.other_persons for page in pages], np.int64),
        ("locations", "counter", [page.locations for page in pages],
         np.int64),
        ("entity_context", "counter",
         [_extended._entity_context(page) for page in pages], np.int64),
    ]
    try:
        for name, kind, maps, dtype in specs:
            families.append((name, _encode_mapping_family(
                kind, maps, writer, strings, dtype)))
    except (TypeError, ValueError, OverflowError) as error:
        raise PlaneEncodeError(str(error)) from error
    blob, offsets = strings.specs(writer)
    return FeaturePlanesHeader(
        n=len(ids), blob=blob, offsets=offsets, doc_ids=writer.add(doc_ids),
        urls=writer.add(urls), frequent_names=writer.add(frequent),
        closest_names=writer.add(closest), n_tokens=writer.add(n_tokens),
        families=tuple(families))


class PlaneFamily:
    """Worker-side view of one family's CSR triple."""

    __slots__ = ("n_columns", "indptr", "cols", "values", "_vocab_ids",
                 "_strings", "_vocab")

    def __init__(self, spec: FamilySpec, buffer: PlaneBuffer,
                 strings: _Strings):
        self.n_columns = spec.n_columns
        self.indptr = buffer.array(spec.indptr)
        self.cols = buffer.array(spec.cols)
        self.values = (buffer.array(spec.values)
                       if spec.values is not None else None)
        self._vocab_ids = buffer.array(spec.vocab)
        self._strings = strings
        self._vocab: list[str] | None = None

    def vocab(self) -> list[str]:
        """Column key strings, decoded once per family."""
        if self._vocab is None:
            get = self._strings.get
            self._vocab = [get(index) for index in self._vocab_ids.tolist()]
        return self._vocab


class FeaturePlanes:
    """One block's decoded plane views plus lazy PageFeatures rebuild."""

    def __init__(self, header: FeaturePlanesHeader, buffer: PlaneBuffer):
        self._header = header
        self._buffer = buffer
        self._strings = _Strings(buffer.array(header.blob),
                                 buffer.array(header.offsets))
        self._doc_ids = buffer.array(header.doc_ids)
        self._families: dict[str, PlaneFamily] = {}
        self._ids: list[str] | None = None
        self._row_index: dict[str, int] | None = None
        self._urls: list[str] | None = None
        self._pages: dict[int, PageFeatures] = {}

    @property
    def n(self) -> int:
        return self._header.n

    def doc_ids(self) -> list[str]:
        if self._ids is None:
            get = self._strings.get
            self._ids = [get(index) for index in self._doc_ids.tolist()]
        return self._ids

    def row_index(self) -> dict[str, int]:
        if self._row_index is None:
            self._row_index = {doc_id: row for row, doc_id
                               in enumerate(self.doc_ids())}
        return self._row_index

    def urls(self) -> list[str]:
        if self._urls is None:
            get = self._strings.get
            self._urls = [get(index) for index in
                          self._buffer.array(self._header.urls).tolist()]
        return self._urls

    def family(self, name: str) -> PlaneFamily | None:
        family = self._families.get(name)
        if family is None:
            for spec_name, spec in self._header.families:
                if spec_name == name:
                    family = PlaneFamily(spec, self._buffer, self._strings)
                    self._families[name] = family
                    break
        return family

    def _row_mapping(self, name: str, row: int, cast):
        family = self.family(name)
        vocab = family.vocab()
        start = int(family.indptr[row])
        end = int(family.indptr[row + 1])
        keys = [vocab[column] for column in family.cols[start:end].tolist()]
        # .tolist() yields the stored float64/int64 bits as native Python
        # scalars, and zip preserves the stored (canonical) dict order.
        return cast(zip(keys, family.values[start:end].tolist()))

    def _row_keys(self, name: str, row: int) -> list[str]:
        family = self.family(name)
        vocab = family.vocab()
        start = int(family.indptr[row])
        end = int(family.indptr[row + 1])
        return [vocab[column] for column in family.cols[start:end].tolist()]

    def page(self, row: int) -> PageFeatures:
        """Rebuild one page (scalar-fallback path); cached per row."""
        page = self._pages.get(row)
        if page is None:
            get = self._strings.get
            buffer = self._buffer
            header = self._header

            def counter(name: str) -> Counter:
                return self._row_mapping(name, row,
                                         lambda items: Counter(dict(items)))

            page = PageFeatures(
                doc_id=self.doc_ids()[row],
                url=self.urls()[row],
                most_frequent_name=get(
                    int(buffer.array(header.frequent_names)[row])),
                closest_name_to_query=get(
                    int(buffer.array(header.closest_names)[row])),
                concept_vector=self._row_mapping("concept", row, dict),
                concept_set=frozenset(self._row_keys("concept_set", row)),
                organizations=counter("organizations"),
                other_persons=counter("other_persons"),
                locations=counter("locations"),
                tfidf=self._row_mapping("tfidf", row, dict),
                n_tokens=int(buffer.array(header.n_tokens)[row]),
            )
            self._pages[row] = page
        return page


class PlaneFeatureMap(Mapping):
    """``Mapping[str, PageFeatures]`` over plane views.

    Drop-in for the features dict every existing signature expects.  The
    numpy backend never iterates it — ``BlockState`` picks up the
    ``planes`` attribute and scores the views directly; only scalar
    fallbacks (F3/F7, custom functions, the python backend) materialize
    pages, each at most once.
    """

    __slots__ = ("planes",)

    def __init__(self, planes: FeaturePlanes):
        self.planes = planes

    def __getitem__(self, doc_id: str) -> PageFeatures:
        return self.planes.page(self.planes.row_index()[doc_id])

    def __iter__(self) -> Iterator[str]:
        return iter(self.planes.doc_ids())

    def __len__(self) -> int:
        return self.planes.n

    def __reduce__(self):
        # Pickling would silently copy the shared arrays back into a
        # private buffer — the exact cost the planes exist to remove.
        raise TypeError("PlaneFeatureMap is a view over a shard segment "
                        "and must not be pickled; rebuild it from the "
                        "shard handle instead")


# -- graph planes ----------------------------------------------------------


def graphs_eligible(graphs) -> bool:
    """Whether a payload's ``graphs`` dict can take the plane path."""
    if type(graphs) is not dict or not graphs:
        return False
    return all(type(name) is str and type(graph) is WeightedPairGraph
               for name, graph in graphs.items())


def encode_graphs(graphs: dict[str, WeightedPairGraph],
                  writer: PlaneWriter) -> GraphPlanesHeader:
    """Pack similarity graphs into plane arrays; returns the header."""
    strings = _StringTable()
    functions: list[tuple[str, GraphSpec]] = []
    for name, graph in graphs.items():
        if type(name) is not str:
            raise PlaneEncodeError("graph names must be str")
        node_ids = np.asarray([strings.add(node) for node in graph.nodes],
                              dtype=np.int64)
        count = len(graph.weights)
        left = np.empty(count, dtype=np.int64)
        right = np.empty(count, dtype=np.int64)
        weights = np.empty(count, dtype=np.float64)
        try:
            for index, (key, value) in enumerate(graph.weights.items()):
                first, second = key
                left[index] = strings.add(first)
                right[index] = strings.add(second)
                weights[index] = value
        except (TypeError, ValueError) as error:
            raise PlaneEncodeError(str(error)) from error
        functions.append((name, GraphSpec(
            nodes=writer.add(node_ids), left=writer.add(left),
            right=writer.add(right), weights=writer.add(weights))))
    blob, offsets = strings.specs(writer)
    return GraphPlanesHeader(blob=blob, offsets=offsets,
                             functions=tuple(functions))


class GraphPlaneMap(Mapping):
    """``Mapping[str, WeightedPairGraph]`` decoded lazily per function.

    Weights dicts rebuild in stored order — the canonical pair order the
    parent's dict iterated — so downstream sweeps see identical
    iteration and identical float bits.
    """

    __slots__ = ("_header", "_buffer", "_strings", "_graphs")

    def __init__(self, header: GraphPlanesHeader, buffer: PlaneBuffer):
        self._header = header
        self._buffer = buffer
        self._strings = _Strings(buffer.array(header.blob),
                                 buffer.array(header.offsets))
        self._graphs: dict[str, WeightedPairGraph] = {}

    def _spec(self, name: str) -> GraphSpec | None:
        for spec_name, spec in self._header.functions:
            if spec_name == name:
                return spec
        return None

    def __getitem__(self, name: str) -> WeightedPairGraph:
        graph = self._graphs.get(name)
        if graph is None:
            spec = self._spec(name)
            if spec is None:
                raise KeyError(name)
            get = self._strings.get
            nodes = [get(index) for index in
                     self._buffer.array(spec.nodes).tolist()]
            weights: dict = {}
            for first, second, weight in zip(
                    self._buffer.array(spec.left).tolist(),
                    self._buffer.array(spec.right).tolist(),
                    self._buffer.array(spec.weights).tolist()):
                weights[(get(first), get(second))] = weight
            graph = WeightedPairGraph(nodes=nodes, weights=weights)
            self._graphs[name] = graph
        return graph

    def __iter__(self) -> Iterator[str]:
        return iter(name for name, _ in self._header.functions)

    def __len__(self) -> int:
        return len(self._header.functions)

    def __reduce__(self):
        raise TypeError("GraphPlaneMap is a view over a shard segment "
                        "and must not be pickled; rebuild it from the "
                        "shard handle instead")
