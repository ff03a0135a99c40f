"""Latent person profiles behind ambiguous names.

Each generated dataset first draws a set of :class:`PersonProfile` objects —
the real-world persons of the paper's problem statement (the unknown set
``P``).  Pages are then synthesized *from* profiles with noise, so ground
truth exists by construction while the observable page features are only a
partial, noisy projection of the profile.

Profiles for one ambiguous name draw from shared per-name *pools*
(:class:`NamePools`): namesakes overlap in vocabulary, concepts,
organizations, associates and hosting domains, exactly the correlation
that makes web people search hard.  Names with many namesakes exhaust
their pools and overlap more, so high-cluster names are intrinsically
harder — the ordering the paper's Table III exhibits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.corpus.vocabulary import Vocabulary
from repro.folds import left_sum


@dataclass
class PersonProfile:
    """One latent real-world person sharing an ambiguous name.

    Attributes:
        person_id: globally unique identifier, e.g. ``"cohen#03"``.
        query_name: the ambiguous full query name.
        full_name: the person's name — identical to ``query_name`` for all
            namesakes (full-name queries are what makes the problem hard).
        concepts: concept phrase -> salience weight (sums to 1).
        organizations: affiliated organization names.
        associates: full names of frequently co-mentioned persons.
        locations: places tied to this person.
        home_domains: web domains hosting most of this person's pages.
        topic_words: content words characteristic of the person's topic.
        shared_words: content words shared by *all* persons of this name
            (models same-name topical overlap that confuses TF-IDF).
    """

    person_id: str
    query_name: str
    full_name: str
    concepts: dict[str, float] = field(default_factory=dict)
    organizations: list[str] = field(default_factory=list)
    associates: list[str] = field(default_factory=list)
    locations: list[str] = field(default_factory=list)
    home_domains: list[str] = field(default_factory=list)
    topic_words: list[str] = field(default_factory=list)
    shared_words: list[str] = field(default_factory=list)

    @property
    def first_name(self) -> str:
        return self.full_name.split(" ", 1)[0]

    @property
    def last_name(self) -> str:
        return self.full_name.split(" ", 1)[-1]

    def name_variants(self) -> list[str]:
        """Surface forms of the person's name seen on web pages.

        All namesakes produce the same variants — the name feature cannot
        separate them directly, only indirectly (e.g. when a page is
        dominated by some other person's name).
        """
        first, last = self.first_name, self.last_name
        return [
            f"{first} {last}",
            f"{first[0]}. {last}",
            last,
        ]


@dataclass
class NamePools:
    """Per-name resource pools all namesake profiles draw from.

    Pool sizes govern how much two namesakes overlap: a pool barely larger
    than what one person consumes forces heavy overlap.
    """

    words: list[str]
    shared_words: list[str]
    concepts: list[str]
    organizations: list[str]
    associates: list[str]
    locations: list[str]
    domains: list[str]

    @classmethod
    def sample(cls, rng: random.Random, vocabulary: Vocabulary,
               n_clusters: int, n_topic_words: int = 60,
               n_concepts: int = 8, word_pool_factor: float = 4.5,
               concept_pool_factor: float = 3.5) -> "NamePools":
        """Draw the name's resource pools.

        Pool sizes are independent of the namesake count: how similar two
        random namesakes look should not depend on how many *other*
        namesakes exist.  (High-cluster names are still harder — they have
        more cluster boundaries to get right and smaller clusters that
        transitive closure merges on a single false edge.)  The pool
        factors control the baseline overlap between two namesakes
        (smaller factor → more overlap → harder corpus).
        """
        word_pool = max(int(word_pool_factor * n_topic_words),
                        n_topic_words + 10)
        concept_pool = max(int(concept_pool_factor * n_concepts),
                           n_concepts + 3)
        org_pool = 9
        associate_pool = 16
        domain_pool = 10
        location_pool = 6
        return cls(
            words=rng.sample(vocabulary.content_words,
                             min(word_pool, len(vocabulary.content_words))),
            shared_words=rng.sample(vocabulary.content_words, 30),
            concepts=rng.sample(vocabulary.concepts,
                                min(concept_pool, len(vocabulary.concepts))),
            organizations=rng.sample(vocabulary.organizations,
                                     min(org_pool, len(vocabulary.organizations))),
            associates=[vocabulary.full_name(rng) for _ in range(associate_pool)],
            locations=rng.sample(vocabulary.locations,
                                 min(location_pool, len(vocabulary.locations))),
            domains=rng.sample(vocabulary.domains,
                               min(domain_pool, len(vocabulary.domains))),
        )


def sample_profile(
    rng: random.Random,
    pools: NamePools,
    person_id: str,
    query_name: str,
    n_concepts: int = 8,
    n_topic_words: int = 60,
) -> PersonProfile:
    """Draw one person profile for ``query_name`` from the name's pools.

    All persons behind one ambiguous query share the *same* full name —
    that is exactly what makes the web-people-search problem hard (the
    WWW'05 queries are full names such as "William Cohen"); only page
    content can separate the namesakes.

    Args:
        rng: the generator's RNG (never the global one).
        pools: the name-level resource pools (shared by all namesakes).
        person_id: identifier to assign.
        query_name: the ambiguous full query name.
        n_concepts: concepts per person.
        n_topic_words: topical content words per person.
    """
    n_concepts = min(n_concepts, len(pools.concepts))
    concept_choices = rng.sample(pools.concepts, n_concepts)
    raw_weights = [rng.uniform(0.5, 2.0) for _ in concept_choices]
    total = left_sum(raw_weights)
    concepts = {c: w / total for c, w in zip(concept_choices, raw_weights)}

    organizations = rng.sample(pools.organizations,
                               min(rng.randint(1, 3), len(pools.organizations)))
    associates = rng.sample(pools.associates,
                            min(rng.randint(3, 6), len(pools.associates)))
    locations = rng.sample(pools.locations,
                           min(rng.randint(1, 2), len(pools.locations)))
    home_domains = rng.sample(pools.domains,
                              min(rng.randint(1, 3), len(pools.domains)))
    topic_words = rng.sample(pools.words, min(n_topic_words, len(pools.words)))

    return PersonProfile(
        person_id=person_id,
        query_name=query_name,
        full_name=query_name,
        concepts=concepts,
        organizations=organizations,
        associates=associates,
        locations=locations,
        home_domains=home_domains,
        topic_words=topic_words,
        shared_words=pools.shared_words,
    )
