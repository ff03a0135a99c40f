"""Pluggable pairwise-scoring backends — the similarity hot path.

Scoring every in-block page pair under the similarity battery is the
pipeline's dominant cost (``similarity.graphs_s`` in a traced
``bench/run.py`` run; see ``docs/performance.md``).  A
:class:`ScoringBackend` owns exactly that step: given one block's
extracted features and a function battery, produce every function's
pair scores — all pairs, or the pairs of a candidate mask — and, on the
incremental request path, the :class:`Rectangle` of ``k`` new pages
against a served block's ``n`` resident ones.  Three built-ins are
registered in :data:`BACKENDS`:

* ``"python"`` — today's prepared scalar scorers
  (:meth:`~repro.similarity.base.SimilarityFunction.prepared`), swept
  once over the pair grid.  Always available; the default.
* ``"numpy"`` — materializes per-block feature matrices and computes
  whole score matrices in batched vectorized kernels
  (:mod:`repro.similarity.batch`).  Functions without a kernel — the
  Jaro-based string measures F3/F7, plus any custom registration — fall
  back per-function to the scalar sweep (F2's integer edit distances
  batch exactly, so it has a kernel).
* ``"numpy32"`` — opt-in float32 variant of ``numpy`` for throughput:
  float32 value planes and float32 BLAS pair dots, float64 everywhere
  else.  Deliberately *approximate* (≈1e-4 absolute tolerance on the
  float-vector measures; integer kernels stay exact) — see
  :class:`Numpy32Backend` for the accuracy contract.

**Bit-identity contract.**  Every backend except ``numpy32`` must
produce *bit-identical* scores to the ``python`` backend: the
vectorized kernels replay the scalar fold's exact floating-point
operation sequence (canonical ascending-key order — see
:mod:`repro.similarity.batch` for the argument), so serial, parallel
and session serving give the same bytes regardless of the configured
backend.  ``tests/properties/test_backend_parity.py`` and the golden
fixtures under ``tests/data/golden/`` enforce this at tolerance zero;
``numpy32`` is the explicit exception, is never a default, and is
never written into a serialized model.

Select a backend with ``ResolverConfig(backend="numpy")``, the CLI's
``--backend`` flag, or the ``REPRO_BACKEND`` environment variable (the
config default).  Custom backends register with :func:`register_backend`
and become valid config values immediately::

    @register_backend("mine")
    class MyBackend(ScoringBackend):
        name = "mine"
        ...
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.registry import Registry
from repro.extraction.features import PageFeatures
from repro.graph.entity_graph import PairKey, pair_key
from repro.similarity.base import SimilarityFunction

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "Numpy32Backend",
    "NumpyBackend",
    "PythonBackend",
    "Rectangle",
    "ScoringBackend",
    "default_backend",
    "register_backend",
    "resolve_backend",
]

#: The backend used when neither config nor environment select one.
DEFAULT_BACKEND = "python"

#: A request-path rectangle of at most this many pairs is scored by the
#: scalar scorers on the ``numpy`` backend (:meth:`NumpyBackend.
#: rectangle`): below it numpy's per-call cost exceeds the scalar work.
_FEW_CELLS = 8


def default_backend() -> str:
    """The ambient backend name: ``REPRO_BACKEND`` or ``"python"``.

    Read at every call (not import) so test harnesses and the CI matrix
    can flip the whole process with one environment variable;
    ``ResolverConfig``'s ``backend`` field defaults through this.
    """
    return os.environ.get("REPRO_BACKEND", DEFAULT_BACKEND)


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
    def block_scores(
        self,
        ids: Sequence[str],
        features: dict[str, PageFeatures],
        functions: Sequence[SimilarityFunction],
        mask: "frozenset[PairKey] | None" = None,
    ) -> dict[str, dict[PairKey, float]]:
        """Every function's scores over one block's unordered pairs.

        Args:
            ids: page ids in block order; pairs are formed ``(i, j)``
                with ``i < j`` in this order.
            features: extracted features covering ``ids``.
            functions: the battery to score; one weights dict per entry.
            mask: optional candidate-pair mask (a blocker's output);
                only pairs in the mask are scored — and only they appear
                in the returned weights dicts.  ``None`` (the dense
                default) scores every pair.  Masked scores must be
                bit-identical to the dense scores of the same pairs.

        Returns:
            ``function name -> {pair_key: score}`` with each weights
            dict inserted in canonical pair order (the nested-loop order
            the seed implementation produced, restricted to the mask).
        """

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
        :meth:`block_scores` call for a burst, laid out in **reverse add
        order**: each new page takes an earlier block position than
        every page it is scored against, so the sweep's earlier-page-
        on-the-left argument order is the sequential one even for an
        argument-order-asymmetric function (F9's fold can differ in the
        last ulp).
        """
        if len(pages) == 1:
            return Rectangle({function.name: [self.pair_scores(
                function, pages[0], residents)] for function in functions})
        keys = [[pair_key(page.doc_id, other.doc_id)
                 for other in residents + pages[:index]]
                for index, page in enumerate(pages)]
        scores = self.block_scores(
            [page.doc_id for page in reversed(pages)]
            + [page.doc_id for page in residents],
            {page.doc_id: page for page in residents + pages}, functions,
            mask=frozenset(key for row in keys for key in row))
        return Rectangle({name: [[weights[key] for key in row]
                                 for row in keys]
                          for name, weights in scores.items()})

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class PythonBackend(ScoringBackend):
    """The scalar reference backend: prepared scorers, one pair sweep.

    This is the seed algorithm with per-page input reuse — the behavior
    every other backend is defined against.
    """

    name = "python"

    def block_scores(self, ids, features, functions, mask=None):
        scores: dict[str, dict[PairKey, float]] = {
            function.name: {} for function in functions}
        scorers = [(scores[function.name], function.prepared(features))
                   for function in functions]
        ids = list(ids)
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
            for i, j in ordered:
                left, right = features[ids[i]], features[ids[j]]
                key = pair_key(ids[i], ids[j])
                for weights, scorer in scorers:
                    weights[key] = scorer(left, right)
            return scores
        for i, left_id in enumerate(ids):
            left = features[left_id]
            for right_id in ids[i + 1:]:
                right = features[right_id]
                key = pair_key(left_id, right_id)
                for weights, scorer in scorers:
                    weights[key] = scorer(left, right)
        return scores

    def pair_scores(self, function, new, others):
        return [function(new, other) for other in others]


class NumpyBackend(ScoringBackend):
    """Vectorized backend: per-block feature matrices, batched kernels.

    Block scoring materializes dense per-block matrices (TF-IDF and
    concept vectors over the block vocabulary, set-indicator matrices,
    entity-count matrices) once and fills each function's whole score
    matrix with the exact-fold kernels of :mod:`repro.similarity.batch`.
    Functions without a kernel — or whose scorer was replaced in the
    registry — fall back per-function to the scalar sweep, so arbitrary
    batteries keep working.

    Every kernel fills a ``left × right`` rectangle of (earlier page,
    later page) scores; dense scoring is the square where both sides
    are all pages.  Under a candidate-pair ``mask`` the block state
    keeps the pages that appear in a candidate pair, takes ``left`` as
    the rows that occur as a pair's earlier member and ``right`` as the
    later members, and fills only that rectangle — so isolated pages
    cost nothing, and a burst of ``k`` new pages against ``n`` resident
    ones costs ``k × n`` cells over the vocabulary the new pages share
    with the resident ones, not an ``(n + k)²`` sweep over the block's.
    A mask whose pairs run all over the block has nearly every page on
    both sides and pays one row gather over the dense cost.  Dropping
    pages, and columns absent from a whole side, only removes exact
    no-op fold steps, so masked scores stay bit-identical to the dense
    scores of the same pairs.

    The incremental request path (:meth:`rectangle`) keeps a
    :class:`~repro.similarity.batch.ResidentRecord` per served block, so
    an add — one page or a burst — reads each resident page's vectors
    and sets from the record, never from its dicts again, and needs no
    mask: :meth:`~repro.similarity.batch.BlockState.burst` lays the
    ``k × (n + k - 1)`` rectangle out directly.  :meth:`pair_scores` is
    the one-page case over a record of ``others``.  A rectangle of at
    most ``_FEW_CELLS`` pairs (a single add on a shallow block) costs
    less through the scalar scorers than numpy's per-call overhead, and
    the functions whose kernels read pages keep the default path; see
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

    def _block_state(self, batch, ids, features, mask):
        """The per-block kernel state; ``numpy32`` overrides this."""
        return batch.BlockState(ids, features, mask=mask)

    def block_scores(self, ids, features, functions, mask=None):
        batch = self._kernels()
        if batch is None:
            return _PYTHON.block_scores(ids, features, functions, mask=mask)
        ids = list(ids)
        state = self._block_state(batch, ids, features, mask)
        scores: dict[str, dict[PairKey, float]] = {}
        fallback: list[SimilarityFunction] = []
        for function in functions:
            kernel = batch.kernel_for(function)
            if kernel is None:
                fallback.append(function)
                continue
            scores[function.name] = state.pair_weights(kernel)
        if fallback:
            scores.update(_PYTHON.block_scores(ids, features, fallback,
                                               mask=mask))
        return scores

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
        """Functions whose kernel reads a record family score on one
        :meth:`~repro.similarity.batch.BlockState.burst` state over
        ``record``; the rest (F2, F3, F7, F13, custom) take the default
        path — their scalar scorer for one page, the masked block sweep
        for a burst."""
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
        state = batch.BlockState.burst(pages, residents, record, entries)
        for function in recorded:
            rows[function.name] = state.burst_rows(batch.kernel_for(function))
        return Rectangle(rows, entries)


class Numpy32Backend(NumpyBackend):
    """Opt-in float32 variant of the numpy backend — fast, *approximate*.

    The only backend that deliberately breaks the bit-identity contract:
    dense vector families are stored as float32 planes bump-allocated
    from a per-thread :class:`~repro.similarity.batch.PlaneArena`, and
    the pairwise dot matrices — the O(n²·d) cost the exact sequential
    fold pays for bit-identity — go through float32 BLAS instead.  All
    moment arithmetic (means, variances, the Pearson expression) stays
    in float64 over those slightly rounded inputs.

    Accuracy: integer and string kernels (F2, F4, F5, F6, F11, F13) are
    bit-identical to ``numpy`` — their arithmetic never leaves int64.
    The float-vector measures (F1, F8, F9, F10, F12, F14) carry float32
    rounding: absolute error is typically ≲1e-6 on [0, 1] scores and
    bounded near 1e-4 in the parity suite; near-degenerate inputs
    (variance ≈ 0 under F9's Pearson) can flip a validity threshold and
    should not rely on this backend.  Use it where throughput beats the
    last digits — bulk candidate generation, interactive exploration —
    and keep ``numpy`` for anything that feeds golden comparisons.

    Opt-in only: never a default, and a model's config never serializes
    a backend name (``ResolverConfig.to_dict`` skips host-local fields),
    so fitted models saved under ``numpy32`` load everywhere and score
    exactly under the default backend.  It keeps no resident record: a
    burst takes the masked float32 block sweep, and a single request
    the exact scalar scorers — single requests are never approximated.
    """

    name = "numpy32"

    def __init__(self) -> None:
        import threading
        self._scratch = threading.local()

    def resident_record(self, functions, residents):
        return None

    def _block_state(self, batch, ids, features, mask):
        arena = getattr(self._scratch, "arena", None)
        if arena is None:
            arena = batch.PlaneArena()
            self._scratch.arena = arena
        return batch.BlockState(ids, features, mask=mask, approx32=True,
                                arena=arena)


#: name -> :class:`ScoringBackend` instance.  Built-ins are seeded
#: directly (not via :meth:`Registry.add`) so importing this module never
#: triggers the shared registry's built-in loading mid-import.
BACKENDS = Registry("scoring backend")
_PYTHON = PythonBackend()
BACKENDS._entries.setdefault("python", _PYTHON)
BACKENDS._entries.setdefault("numpy", NumpyBackend())
BACKENDS._entries.setdefault("numpy32", Numpy32Backend())


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
