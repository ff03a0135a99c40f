"""Pluggable pairwise-scoring backends — the similarity hot path.

Scoring every in-block page pair under the similarity battery is the
pipeline's dominant cost (``similarity.graphs_s`` in a traced
``bench/run.py`` run; see ``docs/performance.md``).  A
:class:`ScoringBackend` owns exactly that step: given one block's
extracted features and a function battery, produce every function's
pair scores — all pairs, or the pairs of a candidate mask — and, on the
incremental request path, the :class:`Rectangle` of ``k`` new pages
against a served block's ``n`` resident ones.  Two built-ins are
registered in :data:`BACKENDS`:

* ``"numpy"`` — materializes per-block feature matrices and computes
  whole score matrices in batched vectorized kernels
  (:mod:`repro.similarity.batch`).  The default wherever numpy is
  installed.  Functions without a kernel — a custom registration, or a
  built-in name whose scorer was replaced — fall back per-function to
  the scalar sweep.
* ``"python"`` — the oracle: each function's plain scorer
  (:meth:`~repro.similarity.base.SimilarityFunction.__call__`), called
  once per pair of one sweep over the pair grid.  Always available;
  the default only on a host without numpy, where it is the slow path
  (``docs/performance.md`` gives its cost).

**Bit-identity contract.**  Every backend must produce *bit-identical*
scores to the ``python`` backend: the vectorized kernels replay the
scalar fold's exact floating-point operation sequence (canonical
ascending-key order — see :mod:`repro.similarity.batch` for the
argument), so serial, parallel and session serving give the same bytes
regardless of the configured backend.  ``tests/properties/test_backend_parity.py`` and the golden
fixtures under ``tests/data/golden/`` enforce this at tolerance zero.

Select a backend with ``ResolverConfig(backend="python")``, the CLI's
``--backend`` flag, or the ``REPRO_BACKEND`` environment variable (the
config default).  Custom backends register with :func:`register_backend`
and become valid config values immediately::

    @register_backend("mine")
    class MyBackend(ScoringBackend):
        name = "mine"
        ...
"""

from __future__ import annotations

import importlib.util
import os
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.registry import Registry
from repro.extraction.features import PageFeatures
from repro.graph.entity_graph import (
    PairKey,
    PairLayout,
    WeightedPairGraph,
    as_list,
    pair_key,
    pair_position,
)
from repro.similarity.base import SimilarityFunction

__all__ = [
    "BACKENDS",
    "NumpyBackend",
    "PythonBackend",
    "Rectangle",
    "ScoringBackend",
    "default_backend",
    "register_backend",
    "resolve_backend",
]

#: Whether numpy is installed, decided once at import: the ambient
#: default is ``numpy`` where it is, ``python`` where it is not.
_HAS_NUMPY = importlib.util.find_spec("numpy") is not None

#: A request-path rectangle of at most this many pairs is scored by the
#: scalar scorers on the ``numpy`` backend (:meth:`NumpyBackend.
#: rectangle`): below it numpy's per-call cost exceeds the scalar work.
_FEW_CELLS = 8


def default_backend() -> str:
    """The ambient backend name: ``REPRO_BACKEND`` if set, else
    ``"numpy"`` when numpy is installed and ``"python"`` when it is not.

    The variable is read at every call (not import) so test harnesses
    and the CI matrix can flip the whole process with one environment
    variable; ``ResolverConfig``'s ``backend`` field defaults through
    this.
    """
    return os.environ.get("REPRO_BACKEND",
                          "numpy" if _HAS_NUMPY else "python")


@dataclass
class Rectangle:
    """``k`` new pages scored against ``n`` resident pages and each other
    — the scores a chain of ``k`` single adds reads, in one call.

    Attributes:
        rows: ``function name -> k lists``; list ``i`` holds
            ``function(pages[i], other)`` for every resident, in record
            row order, then for ``pages[0..i-1]``.
        entries: page ``i``'s record entry, appended to the resident
            record when the page joins (``None``: none was made — the
            backend keeps no record, or the record makes it later).
    """

    rows: dict[str, list[list[float]]]
    entries: list | None = None


class ScoringBackend(ABC):
    """One strategy for scoring page pairs under a similarity battery.

    Implementations must be stateless across calls (one instance serves
    every block of every pass, including from concurrent pipelines) and
    must honor the bit-identity contract described in the module
    docstring.
    """

    #: registry/config name.
    name: str = "?"

    @abstractmethod
    def block_graphs(
        self,
        ids: Sequence[str],
        features: dict[str, PageFeatures],
        functions: Sequence[SimilarityFunction],
        mask: "frozenset[PairKey] | None" = None,
    ) -> dict[str, WeightedPairGraph]:
        """Every function's similarity graph over one block's unordered
        pairs — the one scoring contract a backend implements.

        Args:
            ids: page ids in block order; pairs are formed ``(i, j)``
                with ``i < j`` in this order.
            features: extracted features covering ``ids``.
            functions: the battery to score; one graph per entry.
            mask: optional candidate-pair mask (a blocker's output);
                only pairs in the mask are scored — and only they appear
                in the returned graphs.  ``None`` (the dense default)
                scores every pair.  Masked scores must be bit-identical
                to the dense scores of the same pairs.

        Returns:
            ``function name -> graph``, in ``functions`` order.  The
            built-ins emit *vector* graphs over one shared
            :class:`~repro.graph.entity_graph.PairLayout` (``list``
            values from ``python``, float64 arrays from ``numpy``),
            which the decision layers sweep without building a dict
            (:mod:`repro.core.sweeps`).  A custom backend may return any
            :class:`~repro.graph.entity_graph.WeightedPairGraph`, e.g.
            one built with ``WeightedPairGraph.from_scores``.
        """

    def block_scores(
        self,
        ids: Sequence[str],
        features: dict[str, PageFeatures],
        functions: Sequence[SimilarityFunction],
        mask: "frozenset[PairKey] | None" = None,
    ) -> dict[str, dict[PairKey, float]]:
        """:meth:`block_graphs` read as ``function name -> {pair_key:
        score}``, each dict in the graph's pair order — a view for
        callers that think in pair keys, not an extension point."""
        return {name: dict(graph.pairs()) for name, graph in
                self.block_graphs(ids, features, functions,
                                  mask=mask).items()}

    @abstractmethod
    def pair_scores(
        self,
        function: SimilarityFunction,
        new: PageFeatures,
        others: Sequence[PageFeatures],
    ) -> list[float]:
        """One page against many — the incremental request path.

        Scores ``(new, other)`` for every entry of ``others`` under
        ``function``, clamped to [0, 1] exactly like
        ``function(new, other)``.
        """

    def resident_record(self, functions: Sequence[SimilarityFunction],
                        residents: Sequence[PageFeatures]):
        """A record of the ``residents``' inputs to ``functions`` that
        :meth:`rectangle` reads instead of the pages, or ``None`` — this
        default: the backend reads the pages themselves."""
        return None

    def rectangle(self, functions: Sequence[SimilarityFunction],
                  residents: list[PageFeatures], pages: list[PageFeatures],
                  record=None) -> Rectangle:
        """``pages`` against ``residents`` and each other, in add order
        — the incremental request path, one page or a burst.

        Every score must be bit-identical to ``function(new, other)``
        with the new page on the left, as a chain of single adds scores
        it.  This default, which every backend without a record uses,
        asks :meth:`pair_scores` for one page and one masked
        :meth:`block_graphs` call for a burst, laid out in **reverse add
        order**: each new page takes an earlier block position than
        every page it is scored against, so the sweep's earlier-page-
        on-the-left argument order is the sequential one even for an
        argument-order-asymmetric function (F9's fold can differ in the
        last ulp).
        """
        if len(pages) == 1:
            return Rectangle({function.name: [self.pair_scores(
                function, pages[0], residents)] for function in functions})
        keys = [pair_key(page.doc_id, other.doc_id)
                for index, page in enumerate(pages)
                for other in residents + pages[:index]]
        graphs = self.block_graphs(
            [page.doc_id for page in reversed(pages)]
            + [page.doc_id for page in residents],
            {page.doc_id: page for page in residents + pages}, functions,
            mask=frozenset(keys))
        rows = {}
        for name, graph in graphs.items():
            layout, values = graph.vector()
            scores = map(as_list(values).__getitem__, layout.locate(keys))
            rows[name] = [[next(scores) for _ in range(len(residents) + index)]
                          for index in range(len(pages))]
        return Rectangle(rows)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class PythonBackend(ScoringBackend):
    """The scalar reference backend: each function's plain scorer, once
    per pair of one sweep — the behavior every other backend is defined
    against."""

    name = "python"

    def block_graphs(self, ids, features, functions, mask=None):
        ids = list(ids)
        columns = [[] for _ in functions]
        scorers = [(column.append, function)
                   for column, function in zip(columns, functions)]
        if mask is not None:
            # Iterate the candidates directly — O(candidates), not
            # O(n²) — in the dense sweep's pair order (ascending block
            # positions), with the sweep's argument order (earlier
            # position on the left) so even an asymmetric scorer gets
            # identical calls.
            position = {doc_id: index for index, doc_id in enumerate(ids)}
            ordered = sorted(
                (sorted((position[left], position[right]))
                 for left, right in mask
                 if left in position and right in position))
            layout = PairLayout(ids, [pair_position(i, j, len(ids))
                                      for i, j in ordered])
            for i, j in ordered:
                left, right = features[ids[i]], features[ids[j]]
                for append, scorer in scorers:
                    append(scorer(left, right))
        else:
            layout = PairLayout(ids)
            for i, left_id in enumerate(ids):
                left = features[left_id]
                for right_id in ids[i + 1:]:
                    right = features[right_id]
                    for append, scorer in scorers:
                        append(scorer(left, right))
        return {function.name: WeightedPairGraph(ids, layout=layout,
                                                 values=column)
                for function, column in zip(functions, columns)}

    def pair_scores(self, function, new, others):
        return [function(new, other) for other in others]


class NumpyBackend(ScoringBackend):
    """Vectorized backend: per-block feature matrices, batched kernels.

    Every kernel reads its inputs from one record per family (TF-IDF
    and concept vectors, set memberships, entity counts — see
    :mod:`repro.similarity.batch`) and fills a ``left × right``
    rectangle of (earlier page, later page) scores with the exact-fold
    kernels; dense scoring is the square where both sides are all pages.
    Every built-in has a kernel; functions without one — a custom
    registration, or a scorer replaced in the registry — fall back
    per-function to the scalar sweep, so arbitrary batteries keep
    working.

    Under a candidate-pair ``mask`` the block state keeps the pages that
    appear in a candidate pair, takes ``left`` as the rows that occur as
    a pair's earlier member and ``right`` as the later members, and
    stacks only the keys held on both sides — so isolated pages cost
    nothing.  A mask whose pairs run all over the block has nearly every
    page on both sides and pays one row gather over the dense cost.
    Dropping pages, and keys absent from a whole side, only removes
    exact no-op fold steps, so masked scores stay bit-identical to the
    dense scores of the same pairs.

    The incremental request path (:meth:`rectangle`) keeps a
    :class:`~repro.similarity.batch.ResidentRecord` per served block, so
    an add — one page or a burst — reads each resident page's inputs
    from the record, never from its dicts again, and needs no mask:
    :meth:`~repro.similarity.batch.BlockState.burst` lays the
    ``k × (n + k - 1)`` rectangle out directly, over the burst's own
    keys.  :meth:`pair_scores` is the one-page case over a record of
    ``others``.  A rectangle of at most ``_FEW_CELLS`` pairs (a single
    add on a shallow block) costs less through the scalar scorers than
    numpy's per-call overhead; functions with no record family (F2, F3,
    F7, custom) keep the default path.  See ``docs/performance.md`` for
    when each backend wins.

    The backend registers unconditionally so config validation (and
    loading a model fitted elsewhere with ``backend="numpy"``) works on
    hosts without numpy; on such hosts scoring degrades to the scalar
    path with a one-time :class:`RuntimeWarning` — legal because
    backends are bit-identical, so only speed is lost.
    """

    name = "numpy"

    _warned_missing = False

    def _kernels(self):
        try:
            from repro.similarity import batch
        except ImportError:
            if not NumpyBackend._warned_missing:
                NumpyBackend._warned_missing = True
                import warnings
                warnings.warn(
                    "the 'numpy' scoring backend needs numpy, which is "
                    "not installed; falling back to the bit-identical "
                    "'python' backend (install numpy to restore the "
                    "vectorized hot path)", RuntimeWarning, stacklevel=3)
            return None
        return batch

    def block_graphs(self, ids, features, functions, mask=None):
        batch = self._kernels()
        if batch is None:
            return _PYTHON.block_graphs(ids, features, functions, mask=mask)
        ids = list(ids)
        state = batch.BlockState(ids, features, mask=mask)
        graphs: dict[str, WeightedPairGraph] = {}
        fallback: list[SimilarityFunction] = []
        for function in functions:
            kernel = batch.kernel_for(function)
            if kernel is None:
                fallback.append(function)
                continue
            graphs[function.name] = WeightedPairGraph(
                ids, layout=state.layout, values=state.pair_values(kernel))
        if fallback:
            # Scalar-swept graphs join the block's layout as arrays, so
            # every graph of the block takes the same decision route.
            for name, graph in _PYTHON.block_graphs(ids, features, fallback,
                                                    mask=mask).items():
                graphs[name] = WeightedPairGraph(
                    ids, layout=state.layout,
                    values=batch.np.asarray(graph.vector()[1],
                                            dtype=batch.np.float64))
        return {function.name: graphs[function.name]
                for function in functions}

    def pair_scores(self, function, new, others):
        others = list(others)
        record = self.resident_record([function], others)
        if record is None:
            return _PYTHON.pair_scores(function, new, others)
        return self.rectangle([function], others, [new],
                              record).rows[function.name][0]

    def resident_record(self, functions, residents):
        batch = self._kernels()
        if batch is None or not any(map(batch.recorded_family, functions)):
            return None
        return batch.ResidentRecord(functions, residents)

    def rectangle(self, functions, residents, pages, record=None):
        """Functions whose kernel reads a record family (every kernel
        but F2's) score on one :meth:`~repro.similarity.batch.
        BlockState.burst` state over ``record``; the rest (F2, F3, F7,
        custom) take the default path — their scalar scorer for one
        page, the masked block sweep for a burst."""
        if record is None:
            return super().rectangle(functions, residents, pages)
        if len(pages) * (len(residents) + len(pages) - 1) <= _FEW_CELLS:
            # Too few pairs to pay numpy's fixed cost: the scalar
            # scorers, and the record walks these pages once they are
            # read as residents.
            return _PYTHON.rectangle(functions, residents, pages)
        batch = self._kernels()
        recorded = [function for function in functions
                    if batch.recorded_family(function) is not None]
        rest = [function for function in functions
                if batch.recorded_family(function) is None]
        rows = super().rectangle(rest, residents, pages).rows if rest else {}
        entries = [record.entry(page) for page in pages]
        state = batch.BlockState.burst(record, entries, len(residents))
        for function in recorded:
            rows[function.name] = state.burst_rows(batch.kernel_for(function))
        return Rectangle(rows, entries)


#: name -> :class:`ScoringBackend` instance.  Built-ins are seeded
#: directly (not via :meth:`Registry.add`) so importing this module never
#: triggers the shared registry's built-in loading mid-import.
BACKENDS = Registry("scoring backend")
_PYTHON = PythonBackend()
BACKENDS._entries.setdefault("python", _PYTHON)
BACKENDS._entries.setdefault("numpy", NumpyBackend())


def register_backend(name: str | None = None, replace: bool = False):
    """Decorator registering a :class:`ScoringBackend` class or instance.

    Classes are instantiated once at registration (backends are
    stateless singletons).
    """
    def decorate(entry):
        instance = entry() if isinstance(entry, type) else entry
        key = name or getattr(instance, "name", None)
        if not key or key == ScoringBackend.name:
            raise ValueError(
                f"cannot infer a scoring backend name for {entry!r}; set a "
                f"class-level `name` or pass register_backend(name=...)")
        BACKENDS.add(key, instance, replace=replace)
        return entry
    return decorate


def resolve_backend(backend: "str | ScoringBackend | None") -> ScoringBackend:
    """The backend instance for a config value.

    Accepts a registered name, an instance (passed through), or ``None``
    (the ambient :func:`default_backend`).

    Raises:
        ValueError: for unknown backend names.
    """
    if backend is None:
        backend = default_backend()
    if isinstance(backend, ScoringBackend):
        return backend
    return BACKENDS.get(backend)
