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
config default).  The two built-ins are the only backends; a test
substitutes a :class:`ScoringBackend` of its own through
``BACKENDS._entries``.
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

        This default is the definition: ``function(page, other)`` for
        each new page, against the residents and then the earlier new
        pages — exactly the calls a chain of single adds makes.  A
        backend that overrides it must return the same bits.
        """
        return Rectangle({function.name: [
            [function(page, other) for other in residents + pages[:index]]
            for index, page in enumerate(pages)] for function in functions})

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
    keys, and lists its pairs so the page kernels (F2, F3, F7) run on
    it too.  A rectangle of at most ``_FEW_CELLS`` pairs (a single add
    on a shallow block) costs less through the scalar scorers than
    numpy's per-call overhead, and so does one page under a page
    kernel; functions without a kernel (custom) are always scalar.  See
    ``docs/performance.md`` for when each backend wins.

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

    def resident_record(self, functions, residents):
        batch = self._kernels()
        if batch is None or not any(map(batch.recorded_family, functions)):
            return None
        return batch.ResidentRecord(functions, residents)

    def rectangle(self, functions, residents, pages, record=None):
        """Two routes.  The scalar definition (the base method) scores a
        rectangle of at most ``_FEW_CELLS`` pairs, a single page under
        a kernel that reads the pages (F2, F3, F7) and every function
        without a kernel; one :meth:`~repro.similarity.batch.BlockState.
        burst` state scores the rest, reading the residents' inputs from
        ``record`` where the caller keeps one."""
        batch = self._kernels()
        if (batch is None or len(pages) * (len(residents) + len(pages) - 1)
                <= _FEW_CELLS):
            # Too few pairs to pay numpy's fixed cost: the scalar
            # scorers, and the record walks these pages once they are
            # read as residents.
            return super().rectangle(functions, residents, pages)
        scalar, burst = [], []
        for function in functions:
            kernel = batch.kernel_for(function)
            if kernel is None or (len(pages) == 1 and not kernel.recorded):
                scalar.append(function)
            else:
                burst.append((function.name, kernel))
        rows = super().rectangle(scalar, residents, pages).rows
        entries = None if record is None else list(map(record.entry, pages))
        if burst:
            state = batch.BlockState.burst(record, entries, pages, residents)
            for name, kernel in burst:
                rows[name] = state.burst_rows(kernel)
        return Rectangle(rows, entries)


#: name -> :class:`ScoringBackend` instance.  Built-ins are seeded
#: directly (not via :meth:`Registry.add`) so importing this module never
#: triggers the shared registry's built-in loading mid-import.
BACKENDS = Registry("scoring backend")
_PYTHON = PythonBackend()
BACKENDS._entries.setdefault("python", _PYTHON)
BACKENDS._entries.setdefault("numpy", NumpyBackend())


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
