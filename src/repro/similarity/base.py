"""The similarity-function abstraction.

A similarity function (paper §III) maps a pair of pages — via their
extracted :class:`~repro.extraction.features.PageFeatures` — to a value in
[0, 1].  Functions are *not* transitive, which is exactly why the paper
layers accuracy estimation and graph clustering on top.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.extraction.features import PageFeatures

PairScorer = Callable[[PageFeatures, PageFeatures], float]

#: A preparer turns one block's extracted features into a specialized pair
#: scorer.  It may precompute per-page inputs (vector norms, parsed URLs,
#: name forms) once instead of once per pair, and memoize value-level
#: repeats — but it MUST return bit-identical scores to the plain scorer;
#: the runtime engine's serial/parallel determinism guarantee rests on it.
Preparer = Callable[[dict[str, PageFeatures]], PairScorer]


@dataclass(frozen=True)
class SimilarityFunction:
    """A named pairwise similarity function.

    Attributes:
        name: short identifier, e.g. ``"F3"``.
        feature: the page feature compared (paper Table I wording).
        measure: the similarity measure applied (paper Table I wording).
        scorer: the actual pair function.
        preparer: optional block-level fast path (see :data:`Preparer`);
            batched graph construction uses it when present, per-pair
            callers are unaffected.
        reads: names of the :class:`PageFeatures` fields the scorer,
            the preparer and any backend kernel touch (``doc_id`` goes
            without saying).  A label-free pass extracts only what the
            functions it scores read, so a declared set is a promise:
            reading an undeclared field scores empty defaults.  ``None``
            (the default) reads everything — always safe, and what a
            custom function gets unless it declares otherwise::

                SimilarityFunction("F42", "page URL", "same host", score,
                                   reads=frozenset({"url"}))
    """

    name: str
    feature: str
    measure: str
    scorer: PairScorer
    preparer: Preparer | None = None
    reads: frozenset[str] | None = None

    def __call__(self, left: PageFeatures, right: PageFeatures) -> float:
        """Score a pair; result is clamped to [0, 1]."""
        value = self.scorer(left, right)
        if value < 0.0:
            return 0.0
        if value > 1.0:
            return 1.0
        return value

    def prepared(self, features: dict[str, PageFeatures]) -> PairScorer:
        """A scorer specialized to one block's features, clamped to [0, 1].

        Falls back to the plain per-pair scorer when the function has no
        preparer, so arbitrary registered functions keep working in the
        batched engine path.  Pages scored through the returned callable
        must come from ``features`` (preparers index per-page state by
        ``doc_id``).
        """
        scorer = self.preparer(features) if self.preparer else self.scorer

        def clamped(left: PageFeatures, right: PageFeatures) -> float:
            value = scorer(left, right)
            if value < 0.0:
                return 0.0
            if value > 1.0:
                return 1.0
            return value

        return clamped

    def __repr__(self) -> str:  # concise in experiment logs
        return f"SimilarityFunction({self.name}: {self.feature} / {self.measure})"


def read_fields(
        functions: Iterable[SimilarityFunction]) -> frozenset[str] | None:
    """The fields ``functions`` read between them; ``None`` (everything)
    as soon as one of them declares nothing."""
    fields: set[str] = set()
    for function in functions:
        if function.reads is None:
            return None
        fields |= function.reads
    return frozenset(fields)


def require_covered(pages: Iterable[PageFeatures],
                    functions: Iterable[SimilarityFunction]) -> None:
    """Refuse to score ``functions`` over features narrowed past them.

    Raises:
        ValueError: when a page was extracted for a read set that leaves
            out a field one of ``functions`` reads — its score would be
            that of empty defaults, silently.
    """
    narrowed = [page for page in pages if page.reads is not None]
    if not narrowed:  # whole features cover anything
        return
    functions = list(functions)
    fields = read_fields(functions)
    for page in narrowed:
        if not page.covers(fields):
            names = ", ".join(function.name for function in functions)
            wanted = "every field" if fields is None else sorted(fields)
            raise ValueError(
                f"page {page.doc_id!r} was extracted for "
                f"{sorted(page.reads)} only; scoring {names} reads "
                f"{wanted}")
