"""Resolver configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.registry import (
    BLOCKERS,
    CLUSTERERS,
    COMBINERS,
    CRITERIA,
    EXECUTORS,
    SAMPLING_MODES,
    SIMILARITIES,
)
from repro.similarity.backends import BACKENDS, default_backend
from repro.similarity.functions import ALL_FUNCTION_NAMES


@dataclass(frozen=True)
class ResolverConfig:
    """All knobs of the paper's Algorithm 1.

    Attributes:
        function_names: which similarity functions to run (Table II's I4 /
            I7 / I10 subsets, default all ten).
        criteria: decision-criteria families to fit per function; any of
            ``"threshold"``, ``"equal_width"``, ``"kmeans"``.
        region_k: bin/cluster count for the region criteria.
        combiner: ``"best_graph"`` (paper's C columns), ``"weighted_average"``
            (W column) or ``"majority"``.
        clusterer: ``"transitive"`` (paper default), ``"correlation"``
            or ``"star"`` (extension; see :mod:`repro.graph.star`).
        training_fraction: labeled fraction used for fitting (paper: 0.1).
        sampling_mode: ``"pairs"`` or ``"documents"``
            (see :mod:`repro.ml.sampling`).
        correlation_seed: RNG seed of the correlation clusterer.
        blocker: candidate-pair generation scheme for collection passes —
            ``"query_name"`` (the paper's per-name blocking, the
            default), ``"token"`` or ``"sorted_neighborhood"``, or any
            :func:`~repro.core.registry.register_blocker` registration.
            ``"query_name"`` keeps the dense per-name fast path
            (bit-identical to the pre-registry pipeline); any other
            blocker re-blocks the corpus into candidate components and
            similarity is computed for candidate pairs only (see
            ``docs/blocking.md``).  Unlike ``backend``, the blocker
            changes which pairs exist downstream, so it *is* serialized
            with fitted models.
        executor: block-executor backend scheduling per-block work —
            ``"serial"`` (default) or ``"process"``
            (see :mod:`repro.runtime.executor`).  Serial and parallel
            backends produce bit-identical results at fixed seeds.
        workers: worker count for parallel executors (ignored by
            ``"serial"``); the CLI's ``--workers N`` maps onto these two
            fields.
        oversubscribe: let parallel executors schedule more workers than
            the host has cores (default off: block work is CPU-bound, so
            oversubscription normally just adds overhead — the knob
            exists for core-miscounting environments and tests; the
            CLI's ``--oversubscribe`` maps onto it).
        backend: pairwise-scoring backend for the similarity hot path —
            ``"numpy"`` (vectorized block kernels) or ``"python"`` (the
            plain scalar scorers, the oracle); see
            :mod:`repro.similarity.backends`.  All backends produce
            bit-identical scores, so this is purely a speed knob.
            Defaults to the ``REPRO_BACKEND`` environment variable when
            set, else ``"numpy"`` where numpy is installed and
            ``"python"`` where it is not; the CLI's ``--backend`` maps
            onto it.  A per-process
            runtime choice: never serialized into saved models (see
            :meth:`to_dict`).
    """

    function_names: tuple[str, ...] = ALL_FUNCTION_NAMES
    criteria: tuple[str, ...] = ("threshold", "equal_width", "kmeans")
    region_k: int = 10
    combiner: str = "best_graph"
    clusterer: str = "transitive"
    training_fraction: float = 0.1
    sampling_mode: str = "pairs"
    correlation_seed: int = 0
    blocker: str = "query_name"
    executor: str = "serial"
    workers: int = 1
    oversubscribe: bool = False
    backend: str = field(default_factory=default_backend)

    def __post_init__(self) -> None:
        if not self.function_names:
            raise ValueError("at least one similarity function is required")
        if not self.criteria:
            raise ValueError("at least one decision criterion is required")
        # Every pluggable backend is validated against its registry, so a
        # typo fails at construction with the known values listed instead
        # of blowing up mid-resolve.
        for function_name in self.function_names:
            SIMILARITIES.validate(function_name)
        COMBINERS.validate(self.combiner)
        for criterion in self.criteria:
            CRITERIA.validate(criterion)
        CLUSTERERS.validate(self.clusterer)
        SAMPLING_MODES.validate(self.sampling_mode)
        BLOCKERS.validate(self.blocker)
        EXECUTORS.validate(self.executor)
        BACKENDS.validate(self.backend)
        if not 0.0 < self.training_fraction <= 1.0:
            raise ValueError(
                f"training_fraction must be in (0, 1], got {self.training_fraction}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable snapshot (tuples become lists).

        ``backend`` is deliberately *not* serialized: like the CLI's
        ``--workers``, it is a runtime choice of the current process —
        backends are bit-identical, so baking the fitting host's choice
        into the artifact would only make saved models
        environment-dependent.  Loaders resolve it from their own
        ambient default (``REPRO_BACKEND`` / ``--backend``); a payload
        that does carry an explicit ``"backend"`` key is still honored
        by :meth:`from_dict`.
        """
        return {
            "function_names": list(self.function_names),
            "criteria": list(self.criteria),
            "region_k": self.region_k,
            "combiner": self.combiner,
            "clusterer": self.clusterer,
            "training_fraction": self.training_fraction,
            "sampling_mode": self.sampling_mode,
            "correlation_seed": self.correlation_seed,
            "blocker": self.blocker,
            "executor": self.executor,
            "workers": self.workers,
            "oversubscribe": self.oversubscribe,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "ResolverConfig":
        """Rebuild (and re-validate) a config saved by :meth:`to_dict`.

        Runtime fields default when absent, so models saved before the
        execution engine existed still load.
        """
        return cls(
            function_names=tuple(payload["function_names"]),
            criteria=tuple(payload["criteria"]),
            region_k=int(payload["region_k"]),
            combiner=str(payload["combiner"]),
            clusterer=str(payload["clusterer"]),
            training_fraction=float(payload["training_fraction"]),
            sampling_mode=str(payload["sampling_mode"]),
            correlation_seed=int(payload["correlation_seed"]),
            blocker=str(payload.get("blocker", "query_name")),
            executor=str(payload.get("executor", "serial")),
            workers=int(payload.get("workers", 1)),
            oversubscribe=bool(payload.get("oversubscribe", False)),
            backend=str(payload.get("backend") or default_backend()),
        )


#: Table II column presets: function subsets with threshold-only decisions
#: (I columns) or the full criteria battery under best-graph selection
#: (C columns), plus the weighted-average combination (W column).
I4 = ("F4", "F5", "F7", "F9")
I7 = ("F3", "F4", "F5", "F7", "F8", "F9", "F10")
I10 = ALL_FUNCTION_NAMES


def table2_config(column: str, region_k: int = 10) -> ResolverConfig:
    """The resolver configuration behind one Table II column.

    Args:
        column: one of ``"I4" "I7" "I10" "C4" "C7" "C10" "W"``.

    Raises:
        ValueError: for unknown column names.
    """
    subsets = {"4": I4, "7": I7, "10": I10}
    if column in ("I4", "I7", "I10"):
        return ResolverConfig(
            function_names=subsets[column[1:]],
            criteria=("threshold",),
            combiner="best_graph",
            region_k=region_k,
        )
    if column in ("C4", "C7", "C10"):
        return ResolverConfig(
            function_names=subsets[column[1:]],
            criteria=("threshold", "equal_width", "kmeans"),
            combiner="best_graph",
            region_k=region_k,
        )
    if column == "W":
        return ResolverConfig(
            function_names=I10,
            criteria=("threshold", "equal_width", "kmeans"),
            combiner="weighted_average",
            region_k=region_k,
        )
    raise ValueError(f"unknown Table II column: {column!r}")
