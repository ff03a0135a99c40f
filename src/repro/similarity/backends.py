"""Pluggable pairwise-scoring backends — the similarity hot path.

Scoring every in-block page pair under the similarity battery is the
pipeline's dominant cost (``similarity.graphs_s`` in a traced
``bench/run.py`` run; see ``docs/performance.md``).  A
:class:`ScoringBackend` owns exactly that step: given one block's
extracted features and a function battery, produce every function's
pair scores — all pairs, or the pairs of a candidate mask.  Three
built-ins are registered in :data:`BACKENDS`:

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
    "ScoringBackend",
    "default_backend",
    "register_backend",
    "resolve_backend",
]

#: The backend used when neither config nor environment select one.
DEFAULT_BACKEND = "python"


def default_backend() -> str:
    """The ambient backend name: ``REPRO_BACKEND`` or ``"python"``.

    Read at every call (not import) so test harnesses and the CI matrix
    can flip the whole process with one environment variable;
    ``ResolverConfig``'s ``backend`` field defaults through this.
    """
    return os.environ.get("REPRO_BACKEND", DEFAULT_BACKEND)


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
    ones (:meth:`~repro.core.incremental.IncrementalResolver.
    coalesced_pair_scores`) costs ``k × n`` cells over the vocabulary
    the new pages share with the resident ones, not an ``(n + k)²``
    sweep over the block's.  A mask whose pairs run all over the block
    has nearly every page on both sides and pays one row gather over
    the dense cost.  Dropping pages, and columns absent from a whole
    side, only removes exact no-op fold steps, so masked scores stay
    bit-identical to the dense scores of the same pairs.

    The request path (:meth:`pair_scores`) vectorizes the sparse
    one-vs-many folds where that is exact and cheap (the vector, set and
    count measures, Pearson included) and delegates the rest — F2, F3,
    F7 and custom functions — to the scalar scorer; see
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
        batch = self._kernels()
        others = list(others)
        if batch is None:
            return _PYTHON.pair_scores(function, new, others)
        kernel = batch.kernel_for(function)
        if kernel is None or kernel.one_vs_many is None or not others:
            return _PYTHON.pair_scores(function, new, others)
        return kernel.one_vs_many(new, others)


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
    exactly under the default backend.  The one-vs-many request path
    inherits the exact ``numpy`` implementation — single requests are
    never approximated.
    """

    name = "numpy32"

    def __init__(self) -> None:
        import threading
        self._scratch = threading.local()

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
