"""Seeded vocabularies for the synthetic web corpus.

All strings that appear on generated pages (content words, Wikipedia-style
concept phrases, organization names, person names, locations and web
domains) are drawn from a :class:`Vocabulary` built deterministically from an
integer seed.  The same vocabularies double as the gazetteers used by the
dictionary-based NER in :mod:`repro.extraction.ner`, mirroring the paper's
use of dictionary-based named entity recognition.

Each of the eight categories draws from its own sub-seed of one master
RNG, so :func:`draw_categories` can draw any subset of them word for
word.  An extraction pipeline rebuilt from corpus metadata draws only
the four gazetteers it reads — concepts, organizations, first names and
locations (780 words at the default sizes, of 3 650) — never the
content, general, surname or domain lists.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import repeat

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_ONSETS = [c + v for c in _CONSONANTS for v in _VOWELS]
_CODAS = ["n", "r", "s", "l", "m", "t", "k", ""]


def _make_unique_words(rng: random.Random, count: int, min_syllables: int = 2,
                       max_syllables: int = 4) -> list[str]:
    """Generate ``count`` distinct pronounceable lowercase pseudo-words.

    Each word draws its syllable count, then one onset per syllable, then
    a coda; a repeat is drawn and dropped.
    """
    randint, choice = rng.randint, rng.choice
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        word = "".join(map(choice, repeat(
            _ONSETS, randint(min_syllables, max_syllables)))) + choice(_CODAS)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


_ORG_SUFFIXES = [
    "University", "Institute", "Labs", "Corporation", "Systems",
    "Foundation", "College", "Group", "Technologies", "Society",
]
_DOMAIN_TLDS = [".com", ".org", ".edu", ".net", ".io"]
_CONCEPT_HEADS = [
    "theory", "analysis", "networks", "systems", "learning",
    "models", "methods", "design", "algebra", "dynamics",
]


@dataclass
class Vocabulary:
    """All lexical material available to the corpus generator.

    Attributes:
        content_words: topical lowercase words pages draw their body from.
        general_words: high-frequency filler words shared by every page.
        concepts: multi-word concept phrases (Wikipedia-article style).
        organizations: organization names (capitalized, often multi-word).
        first_names: capitalized given names.
        last_names: capitalized family names (excluding query surnames).
        locations: capitalized place names.
        domains: bare web domains such as ``"fooware.org"``.
        seed: seed this vocabulary was built from.
    """

    content_words: list[str] = field(default_factory=list)
    general_words: list[str] = field(default_factory=list)
    concepts: list[str] = field(default_factory=list)
    organizations: list[str] = field(default_factory=list)
    first_names: list[str] = field(default_factory=list)
    last_names: list[str] = field(default_factory=list)
    locations: list[str] = field(default_factory=list)
    domains: list[str] = field(default_factory=list)
    seed: int = 0

    def full_name(self, rng: random.Random, last_name: str | None = None) -> str:
        """Draw a ``"First Last"`` full name, optionally with a fixed surname."""
        first = rng.choice(self.first_names)
        last = last_name if last_name is not None else rng.choice(self.last_names)
        return f"{first} {last}"

    def as_gazetteers(self) -> dict[str, list[str]]:
        """Expose the entity vocabularies as NER gazetteers."""
        return {
            "organization": list(self.organizations),
            "location": list(self.locations),
        }


#: Default category sizes of :func:`build_vocabulary`, keyed by its
#: keyword arguments.  Collections built at other sizes record the
#: non-default entries in their metadata (``"vocabulary_sizes"``) so the
#: identical lexicon — and therefore the identical extraction pipeline —
#: can be rebuilt from a saved corpus.
DEFAULT_VOCABULARY_SIZES = {
    "n_content_words": 2400,
    "n_general_words": 220,
    "n_concepts": 360,
    "n_organizations": 240,
    "n_first_names": 70,
    "n_last_names": 90,
    "n_locations": 110,
    "n_domains": 160,
}


def _plain_words(min_syllables: int, max_syllables: int):
    """A draw routine of distinct lowercase pseudo-words."""
    def draw(rng: random.Random, count: int) -> list[str]:
        return _make_unique_words(rng, count, min_syllables=min_syllables,
                                  max_syllables=max_syllables)
    return draw


def _capitalized_words(min_syllables: int, max_syllables: int):
    """A draw routine of distinct capitalized pseudo-words (names)."""
    def draw(rng: random.Random, count: int) -> list[str]:
        return [word.capitalize() for word in _make_unique_words(
            rng, count, min_syllables=min_syllables,
            max_syllables=max_syllables)]
    return draw


def _draw_concepts(rng: random.Random, count: int) -> list[str]:
    return [f"{mod} {rng.choice(_CONCEPT_HEADS)}"
            for mod in _make_unique_words(rng, count)]


def _draw_organizations(rng: random.Random, count: int) -> list[str]:
    return [f"{stem.capitalize()} {rng.choice(_ORG_SUFFIXES)}"
            for stem in _make_unique_words(rng, count)]


def _draw_domains(rng: random.Random, count: int) -> list[str]:
    return [stem + rng.choice(_DOMAIN_TLDS)
            for stem in _make_unique_words(rng, count)]


#: Every category in the order the master RNG hands out sub-seeds:
#: Vocabulary field -> (size keyword, draw routine).
_CATEGORIES = {
    "content_words": ("n_content_words", _plain_words(2, 4)),
    "general_words": ("n_general_words", _plain_words(1, 2)),
    "concepts": ("n_concepts", _draw_concepts),
    "organizations": ("n_organizations", _draw_organizations),
    "first_names": ("n_first_names", _capitalized_words(2, 2)),
    "last_names": ("n_last_names", _capitalized_words(2, 3)),
    "locations": ("n_locations", _capitalized_words(2, 3)),
    "domains": ("n_domains", _draw_domains),
}


def draw_categories(seed: int, fields: Iterable[str],
                    sizes: Mapping[str, int] | None = None,
                    ) -> dict[str, list[str]]:
    """Draw only ``fields`` of ``build_vocabulary(seed, **sizes)``.

    The master RNG hands out all eight sub-seeds as it always does, and
    each requested category then runs its own draw, so every list is
    word for word the one :func:`build_vocabulary` returns.  Sizes of
    categories not drawn are accepted and ignored.

    Raises:
        TypeError: for a size keyword :func:`build_vocabulary` lacks.
    """
    sizes = dict(sizes or {})
    unknown = sizes.keys() - DEFAULT_VOCABULARY_SIZES.keys()
    if unknown:
        raise TypeError(f"unknown vocabulary sizes: {sorted(unknown)}")
    master = random.Random(seed)
    sub_seeds = {name: master.randrange(2**31) for name in _CATEGORIES}
    drawn = {}
    for name in fields:
        keyword, draw = _CATEGORIES[name]
        drawn[name] = draw(random.Random(sub_seeds[name]),
                            sizes.get(keyword, DEFAULT_VOCABULARY_SIZES[keyword]))
    return drawn


def vocabulary_sizes(vocabulary: Vocabulary) -> dict[str, int]:
    """The non-default category sizes of ``vocabulary``.

    Returns a (possibly empty) mapping of :func:`build_vocabulary`
    keyword arguments; ``build_vocabulary(v.seed, **vocabulary_sizes(v))``
    rebuilds ``v`` exactly.  Empty for default-sized vocabularies, so
    legacy corpus metadata stays unchanged.
    """
    return {
        keyword: len(getattr(vocabulary, name))
        for name, (keyword, _) in _CATEGORIES.items()
        if len(getattr(vocabulary, name)) != DEFAULT_VOCABULARY_SIZES[keyword]
    }


def build_vocabulary(
    seed: int = 0,
    n_content_words: int = 2400,
    n_general_words: int = 220,
    n_concepts: int = 360,
    n_organizations: int = 240,
    n_first_names: int = 70,
    n_last_names: int = 90,
    n_locations: int = 110,
    n_domains: int = 160,
) -> Vocabulary:
    """Build a deterministic :class:`Vocabulary` from ``seed``.

    Every category is sampled from an independent sub-seeded RNG so that
    enlarging one category does not perturb the others.
    """
    sizes = dict(
        n_content_words=n_content_words, n_general_words=n_general_words,
        n_concepts=n_concepts, n_organizations=n_organizations,
        n_first_names=n_first_names, n_last_names=n_last_names,
        n_locations=n_locations, n_domains=n_domains)
    return Vocabulary(**draw_categories(seed, _CATEGORIES, sizes), seed=seed)
