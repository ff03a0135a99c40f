"""Plugin registries for the resolver's pluggable backends.

The framework has six registry axes: five extension points — combiners
(§IV-B), decision criteria (§IV-A), clusterers (§IV-C), similarity
functions (Table I) and blockers (candidate-pair generation, the §IV-C
footnote's general setting) — plus the training-sampling mode of the
evaluation protocol.  How blocks are scheduled is not an axis: it is a
per-process runtime choice (:mod:`repro.runtime.executor`).  Each axis
is a :class:`Registry`: a named map
from config strings to factories, so new backends register themselves
instead of editing if-chains in ``repro.core``.

After registration, ``ResolverConfig`` validates the backend's name and
``EntityResolver``/``ResolverModel`` build it through the registry;
nothing in ``repro.core`` needs to change.  ``ResolverModel.load``
resolves backends the same way, so a process that loads a saved model
only needs the backend's module imported first.

Writing your own backend — a combiner and a similarity function
---------------------------------------------------------------

A combiner subclasses :class:`~repro.core.combination.Combiner` and must
be constructible with no arguments; a similarity function is a
:class:`~repro.similarity.base.SimilarityFunction` instance.  This is a
complete, runnable plugin module::

    from repro.core.combination import (
        Combiner, DecisionGraph, CombinationResult, WeightedPairGraph)
    from repro.core.registry import register_combiner, register_similarity
    from repro.similarity.base import SimilarityFunction
    from repro.similarity.measures import jaccard

    @register_combiner("union")
    class UnionCombiner(Combiner):
        '''Edge iff any layer asserts it (maximal recall).'''
        name = "union"

        def combine(self, layers, training):
            return self.apply(layers, {})

        def apply(self, layers, params):
            # Label-free: predict-time serving re-runs this from params.
            nodes = layers[0].graph.nodes
            edges = set().union(*(layer.graph.edges for layer in layers))
            return CombinationResult(
                graph=DecisionGraph.from_pairs(nodes, edges),
                probabilities=WeightedPairGraph.from_scores(
                    nodes, dict.fromkeys(edges, 1.0)))

    register_similarity("F_url_tokens")(SimilarityFunction(
        "F_url_tokens", "URL tokens", "jaccard",
        lambda left, right: jaccard(set(left.url.split("/")),
                                    set(right.url.split("/"))),
        reads=frozenset({"url"})))

Then ``ResolverConfig(combiner="union")`` or
``ResolverConfig(function_names=(..., "F_url_tokens"))`` validates, fitting
uses the plugin, and models fitted with it load back in any process that
imports the plugin module before :meth:`ResolverModel.load`.  Combiners
must implement ``apply`` (label-free re-combination from stored
``fit_params``) for models to serve predictions; see
:class:`~repro.core.combination.Combiner` for the contract.  Similarity
functions should declare the ``PageFeatures`` fields they read
(``reads``; see :func:`register_similarity`).

The built-in backends live in ordinary modules (``repro.core.combination``,
``repro.core.decisions``, ``repro.core.clusterers``,
``repro.blocking``, ``repro.similarity.functions``/``extended``,
``repro.ml.sampling``) and are loaded lazily on first registry read, which
keeps this module import-cycle free: it depends on nothing inside
``repro``.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Iterator
from typing import TypeVar

T = TypeVar("T")

#: Modules whose import registers every built-in backend.  Loaded lazily on
#: first registry *read*; registration itself never triggers loading, so the
#: built-in modules can import this one freely.
_BUILTIN_MODULES = (
    "repro.core.decisions",
    "repro.core.combination",
    "repro.core.clusterers",
    # Blockers live outside repro.core and only import data-model
    # packages (corpus, graph, extraction) plus this module.
    "repro.blocking.name_blocking",
    "repro.blocking.token_blocking",
    "repro.blocking.sorted_neighborhood",
)

_builtins_loaded = False


def _load_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    # Flip the flag first: the built-in modules import this module, and a
    # re-entrant read during their import must not recurse.
    _builtins_loaded = True
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    # Modules outside repro.core cannot import this one at module level
    # (repro.core.__init__ imports resolver, which imports them back), so
    # their built-ins are bridged here instead of self-registering.
    from repro.ml.sampling import BUILTIN_SAMPLING_MODES
    from repro.similarity.extended import EXTENDED_REGISTRY
    from repro.similarity.functions import _REGISTRY as _base_functions

    for name, function in {**_base_functions, **EXTENDED_REGISTRY}.items():
        SIMILARITIES._entries.setdefault(name, function)
    for name, sampler in BUILTIN_SAMPLING_MODES.items():
        SAMPLING_MODES._entries.setdefault(name, sampler)


class Registry:
    """A named map from config strings to backend factories.

    Args:
        kind: human-readable axis name used in error messages, e.g.
            ``"combiner"``.
        plural: plural form for error messages (default: ``kind + "s"``).
    """

    def __init__(self, kind: str, plural: str | None = None):
        self.kind = kind
        self.plural = plural or f"{kind}s"
        self._entries: dict[str, object] = {}

    def add(self, name: str, entry: T, replace: bool = False) -> T:
        """Register ``entry`` under ``name``.

        Args:
            name: the config string for this backend.
            entry: the factory/object to register.
            replace: allow overwriting an existing registration.

        Raises:
            ValueError: when ``name`` is taken and ``replace`` is false.
        """
        # Load built-ins first so a collision with one is caught (or an
        # intentional replace=True override sticks) regardless of whether
        # anything has read the registry yet.  Re-entrant calls from the
        # built-in modules themselves are cut off by the loaded flag.
        _load_builtins()
        if not replace and name in self._entries:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; "
                f"pass replace=True to override")
        self._entries[name] = entry
        return entry

    def register(self, name: str | None = None,
                 replace: bool = False) -> Callable[[T], T]:
        """Decorator form of :meth:`add`.

        Args:
            name: registration name; defaults to the decorated object's
                ``name`` attribute (combiners and similarity functions
                carry one) or its ``__name__``.
            replace: allow overwriting an existing registration.
        """
        def decorate(entry: T) -> T:
            key = name
            if key is None:
                key = getattr(entry, "name", None)
            if key is None or not isinstance(key, str):
                key = getattr(entry, "__name__", None)
            if not key:
                raise ValueError(f"cannot infer a {self.kind} name for {entry!r}")
            return self.add(key, entry, replace=replace)
        return decorate

    def get(self, name: str) -> object:
        """The entry registered under ``name``.

        Raises:
            ValueError: for unknown names, listing the known values.
        """
        _load_builtins()
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(self.unknown_message(name)) from None

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        _load_builtins()
        return tuple(sorted(self._entries))

    def validate(self, name: str) -> None:
        """Raise unless ``name`` is registered.

        Raises:
            ValueError: for unknown names, listing the known values.
        """
        if name not in self:
            raise ValueError(self.unknown_message(name))

    def unknown_message(self, name: str) -> str:
        return (f"unknown {self.kind}: {name!r}; "
                f"known {self.plural} are: {', '.join(self.names())}")

    def __contains__(self, name: object) -> bool:
        _load_builtins()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        _load_builtins()
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind}: {', '.join(sorted(self._entries))})"


#: name -> :class:`~repro.core.combination.Combiner` subclass (no-arg
#: constructible).
COMBINERS = Registry("combiner")

#: name -> factory ``(k: int) -> DecisionCriterion``.
CRITERIA = Registry("decision criterion", plural="decision criteria")

#: name -> callable ``(combination: CombinationResult, seed: int) ->
#: Iterable[set[str]]`` producing the final partition.
CLUSTERERS = Registry("clusterer")

#: name -> :class:`~repro.similarity.base.SimilarityFunction`.
SIMILARITIES = Registry("similarity function")

#: name -> callable ``(block, fraction, rng) -> list[LabeledPair]``.
SAMPLING_MODES = Registry("sampling mode")

#: name -> no-arg-constructible :class:`~repro.blocking.base.Blocker`
#: subclass generating candidate pairs; ``ResolverConfig.blocker``
#: selects one and :func:`~repro.blocking.base.block_collection` builds
#: it at the start of every collection pass.
BLOCKERS = Registry("blocker")


def register_combiner(name: str | None = None, replace: bool = False):
    """Class decorator registering a no-arg-constructible combiner."""
    return COMBINERS.register(name, replace=replace)


def register_criterion(name: str | None = None, replace: bool = False):
    """Decorator registering a criterion factory ``(k) -> DecisionCriterion``."""
    return CRITERIA.register(name, replace=replace)


def register_clusterer(name: str | None = None, replace: bool = False):
    """Decorator registering a clusterer ``(combination, seed) -> clusters``."""
    return CLUSTERERS.register(name, replace=replace)


def register_similarity(name: str | None = None, replace: bool = False):
    """Decorator registering a :class:`SimilarityFunction` by name.

    Label-free passes extract only the ``PageFeatures`` fields the
    functions they score declare, so give a custom function its
    ``reads`` (the fields its scorer touches) to let a pass
    that consults it alone skip the other extractors (the module
    docstring's ``F_url_tokens`` declares ``reads=frozenset({"url"})``).
    Left undeclared (``reads=None``) the function is assumed to read
    everything and pages are extracted whole whenever it is scored —
    slower, never wrong.  Under-declaring is the one way to be wrong: an
    undeclared field reads as its empty default.
    """
    return SIMILARITIES.register(name, replace=replace)


def register_sampling_mode(name: str | None = None, replace: bool = False):
    """Decorator registering a training-sampling mode."""
    return SAMPLING_MODES.register(name, replace=replace)


def register_blocker(name: str | None = None, replace: bool = False):
    """Class decorator registering a no-arg-constructible blocker.

    Registered blockers become valid ``ResolverConfig(blocker=...)``
    values; :func:`~repro.blocking.base.block_collection` resolves the
    configured name through :data:`BLOCKERS` and drives the whole
    collection pass off the blocker's candidate pairs (see :mod:`repro.blocking.base` and
    ``docs/blocking.md``).
    """
    return BLOCKERS.register(name, replace=replace)
