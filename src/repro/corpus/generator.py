"""Synthetic web-corpus generator.

Replaces the paper's crawled WWW'05/WePS collections (see DESIGN.md §2).
The generator draws latent :class:`~repro.corpus.profiles.PersonProfile`
objects per ambiguous name, then synthesizes web pages from them with
controlled noise:

* **partial information** — pages omit organizations / concepts / associates
  with per-name probabilities, the paper's "missing or incomplete
  information" failure mode;
* **extraction noise** — mentioned entities are sometimes replaced by random
  ones, modeling noisy information-extraction input;
* **heterogeneity** — every name draws its own :class:`NameTraits`, so the
  informative features differ per name and no single similarity function
  wins everywhere (the paper's Table III observation).

All randomness flows from explicit seeds through local ``random.Random``
instances; the same (config, names, seed) triple always yields the identical
corpus.

Scale: the generator is million-page-capable.  Blocks can be produced
lazily (:meth:`CorpusGenerator.iter_blocks`) in O(one block) memory, and
under ``seeding="independent"`` every name's seed is a pure hash of
``(corpus seed, query name)`` — any block is regenerable in O(1) without
touching the rest of the corpus (:meth:`CorpusGenerator.generate_block`),
so generation itself parallelizes trivially.  Skew knobs
(``cluster_count_skew``, ``page_length_skew``, ``vocabulary_zipf``) and
:func:`synthesize_query_names`'s collision rate control how hostile the
corpus is at scale; all default to the legacy behavior, byte for byte.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
import zlib
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

from repro.corpus.documents import DocumentCollection, NameCollection, WebPage
from repro.corpus.profiles import NamePools, PersonProfile, sample_profile
from repro.corpus.vocabulary import (
    Vocabulary,
    build_vocabulary,
    vocabulary_sizes,
)
from repro.folds import left_sum

#: Valid :attr:`GeneratorConfig.seeding` schemes.
SEEDING_SCHEMES = ("sequential", "independent")

#: Valid :attr:`GeneratorConfig.doc_id_scheme` values.
DOC_ID_SCHEMES = ("surname", "full")


def independent_block_seed(seed: int, query_name: str) -> int:
    """The per-name seed of the ``"independent"`` seeding scheme.

    A pure, process-stable hash of ``(corpus seed, query name)`` — no
    sequential master RNG, so any block's seed is computable in O(1)
    without deriving the seeds of the names before it.  blake2b rather
    than ``hash()``: Python's string hashing is per-process randomized.
    """
    digest = hashlib.blake2b(f"{seed}\x1f{query_name}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") % (2 ** 31)


class ZipfSampler:
    """Zipfian (rank-weighted) sampling over a fixed word list.

    Item at rank ``r`` (1-based list position) is drawn with probability
    proportional to ``1 / r**alpha``.  Cumulative weights are precomputed
    once, so each draw costs one ``rng.random()`` plus a binary search —
    O(log V) against the uniform path's O(1), but independent of corpus
    size.  Deterministic: the cumulative sums are a fixed left-to-right
    fold over the list order.
    """

    def __init__(self, items: Sequence[str], alpha: float):
        if alpha <= 0.0:
            raise ValueError(f"Zipf exponent must be positive, got {alpha}")
        self.items = list(items)
        self.alpha = alpha
        total = 0.0
        cumulative = []
        for rank in range(1, len(self.items) + 1):
            total += 1.0 / (rank ** alpha)
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total

    def choice(self, rng: random.Random) -> str:
        """Draw one item (consumes exactly one ``rng.random()``)."""
        position = bisect.bisect_left(self._cumulative,
                                      rng.random() * self._total)
        return self.items[min(position, len(self.items) - 1)]


def synthesize_query_names(vocabulary: Vocabulary, n_names: int, seed: int,
                           collision_rate: float = 0.0) -> list[str]:
    """Draw ``n_names`` distinct ambiguous query names from a vocabulary.

    ``collision_rate`` is the probability each new name *reuses a surname
    an earlier query name already uses* — colliding names share blocking
    tokens (and, in web text, confuse token/neighborhood blockers and
    name-based similarity functions) while remaining distinct query
    blocks.  0.0 draws surnames independently; 1.0 packs every name onto
    as few surnames as possible.  Deterministic in ``(vocabulary, seed)``.

    Raises:
        ValueError: when the vocabulary's name pools cannot yield
            ``n_names`` distinct full names (enlarge them via
            :func:`~repro.corpus.vocabulary.build_vocabulary`'s
            ``n_first_names`` / ``n_last_names``).
    """
    if not 0.0 <= collision_rate <= 1.0:
        raise ValueError(f"collision_rate must be in [0, 1], got {collision_rate}")
    capacity = len(vocabulary.first_names) * len(vocabulary.last_names)
    if n_names > capacity:
        raise ValueError(
            f"cannot synthesize {n_names} distinct names from a "
            f"{len(vocabulary.first_names)}x{len(vocabulary.last_names)} name "
            f"vocabulary; enlarge n_first_names/n_last_names")
    rng = random.Random(seed)
    names: list[str] = []
    used: set[str] = set()
    used_surnames: list[str] = []
    surname_seen: set[str] = set()
    attempts = 0
    max_attempts = 50 * n_names + 1000
    while len(names) < n_names:
        attempts += 1
        if attempts > max_attempts:
            raise ValueError(
                f"exhausted name synthesis after {attempts} attempts "
                f"({len(names)}/{n_names} names); enlarge the vocabulary's "
                f"name pools or lower collision_rate")
        if used_surnames and rng.random() < collision_rate:
            surname = rng.choice(used_surnames)
        else:
            surname = rng.choice(vocabulary.last_names)
        full = f"{rng.choice(vocabulary.first_names)} {surname}"
        if full in used:
            continue
        used.add(full)
        names.append(full)
        if surname not in surname_seen:
            surname_seen.add(surname)
            used_surnames.append(surname)
    return names


@dataclass(frozen=True)
class NameTraits:
    """Per-name feature-informativeness profile.

    Each ambiguous name draws one of these; the fields control how reliable
    each page feature is for that name.  The spread across names is what
    makes different similarity functions win for different names.
    """

    p_home_domain: float = 0.6
    p_missing_orgs: float = 0.3
    p_missing_concepts: float = 0.2
    concept_noise: float = 0.15
    org_noise: float = 0.1
    associate_noise: float = 0.15
    name_confusion: float = 0.1
    shared_word_rate: float = 0.25
    noise_word_rate: float = 0.2
    boilerplate_rate: float = 0.15
    offtopic_rate: float = 0.05
    min_tokens: int = 90
    max_tokens: int = 170

    @staticmethod
    def sample(rng: random.Random) -> "NameTraits":
        """Draw a heterogeneous traits profile for one name."""
        return NameTraits(
            p_home_domain=rng.uniform(0.3, 0.95),
            p_missing_orgs=rng.uniform(0.1, 0.6),
            p_missing_concepts=rng.uniform(0.05, 0.4),
            concept_noise=rng.uniform(0.0, 0.35),
            org_noise=rng.uniform(0.0, 0.3),
            associate_noise=rng.uniform(0.0, 0.3),
            name_confusion=rng.uniform(0.05, 0.3),
            shared_word_rate=rng.uniform(0.05, 0.22),
            noise_word_rate=rng.uniform(0.05, 0.2),
            boilerplate_rate=rng.uniform(0.02, 0.16),
            offtopic_rate=rng.uniform(0.0, 0.15),
        )


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for corpus synthesis.

    Attributes:
        pages_per_name: number of retrieved pages per ambiguous name
            (~100 for WWW'05, ~150 for WePS-2).
        min_clusters / max_clusters: range the per-name true cluster count
            is drawn from when not fixed explicitly (paper: 2–61).
        cluster_size_alpha: Zipf exponent of the cluster-size distribution;
            larger means one dominant person plus a long tail.
        n_concepts_per_person: latent concept count per profile.
        n_topic_words: latent topical word count per profile.
        word_pool_factor / concept_pool_factor: per-name pool sizes as a
            multiple of one person's consumption; smaller factors mean
            namesakes overlap more and the corpus gets harder.
        vocabulary_seed: seed for :func:`build_vocabulary`; independent of
            the corpus seed so re-sampling pages keeps the lexicon fixed.
        fixed_traits: if set, every name uses these traits instead of
            sampling (useful for tests and ablations).
        seeding: how per-name seeds derive from the corpus seed.
            ``"sequential"`` (default, legacy) draws them from a master
            RNG in name order — block *i*'s content depends on its
            position in the name list.  ``"independent"`` hashes
            ``(seed, query_name)`` (:func:`independent_block_seed`) — any
            block regenerates in O(1) without the rest of the corpus,
            which is what makes streaming and parallel generation cheap.
        cluster_count_skew: entities-per-name distribution.  0.0 (default)
            draws the true cluster count uniformly from
            ``[min_clusters, max_clusters]``; > 0 weights count ``k`` by
            ``1 / k**skew`` — most names have few bearers, a heavy tail
            has many, which matches crawled name ambiguity far better at
            scale.
        page_length_skew: 0.0 (default) draws page lengths uniformly from
            the traits' token range; > 0 multiplies each draw by a capped
            Pareto(``skew``) tail — a few pages are much longer, as in
            real crawls.  Smaller values mean heavier tails.
        vocabulary_zipf: 0.0 (default) draws filler/noise words uniformly
            from the lexicon; > 0 draws them Zipf(``vocabulary_zipf``)
            rank-weighted, so token frequencies follow the power law that
            real TF-IDF weighting is calibrated against.
        doc_id_scheme: ``"surname"`` (default, legacy) keys doc/person ids
            by the lowercased surname — fine for curated name lists, but
            namesake *query names* ("Alice Smith", "Bob Smith") would
            collide.  ``"full"`` keys by the full slugged name and is
            required for collision-rate corpora.
    """

    pages_per_name: int = 100
    min_clusters: int = 2
    max_clusters: int = 40
    cluster_size_alpha: float = 1.7
    n_concepts_per_person: int = 8
    n_topic_words: int = 60
    word_pool_factor: float = 4.5
    concept_pool_factor: float = 3.5
    vocabulary_seed: int = 7
    fixed_traits: NameTraits | None = None
    seeding: str = "sequential"
    cluster_count_skew: float = 0.0
    page_length_skew: float = 0.0
    vocabulary_zipf: float = 0.0
    doc_id_scheme: str = "surname"

    def __post_init__(self) -> None:
        if self.seeding not in SEEDING_SCHEMES:
            raise ValueError(
                f"unknown seeding scheme {self.seeding!r}; "
                f"expected one of {SEEDING_SCHEMES}")
        if self.doc_id_scheme not in DOC_ID_SCHEMES:
            raise ValueError(
                f"unknown doc_id scheme {self.doc_id_scheme!r}; "
                f"expected one of {DOC_ID_SCHEMES}")
        for knob in ("cluster_count_skew", "page_length_skew",
                     "vocabulary_zipf"):
            if getattr(self, knob) < 0.0:
                raise ValueError(f"{knob} must be >= 0, "
                                 f"got {getattr(self, knob)}")


def _zipf_cluster_sizes(rng: random.Random, n_pages: int, n_clusters: int,
                        alpha: float) -> list[int]:
    """Allocate ``n_pages`` over ``n_clusters`` with Zipf-ish weights.

    Every cluster receives at least one page; remaining pages are assigned
    proportionally to ``1 / rank**alpha`` with randomized rank order.
    """
    if n_clusters > n_pages:
        raise ValueError(f"cannot split {n_pages} pages into {n_clusters} clusters")
    weights = [1.0 / (rank ** alpha) for rank in range(1, n_clusters + 1)]
    rng.shuffle(weights)
    total = left_sum(weights)
    sizes = [1] * n_clusters
    remaining = n_pages - n_clusters
    # Largest-remainder apportionment of the leftover pages.
    quotas = [remaining * w / total for w in weights]
    floors = [int(q) for q in quotas]
    sizes = [s + f for s, f in zip(sizes, floors)]
    leftover = remaining - sum(floors)
    order = sorted(range(n_clusters), key=lambda i: quotas[i] - floors[i], reverse=True)
    for i in order[:leftover]:
        sizes[i] += 1
    return sizes


class CorpusGenerator:
    """Synthesizes :class:`DocumentCollection` datasets from a config."""

    def __init__(self, config: GeneratorConfig | None = None,
                 vocabulary: Vocabulary | None = None):
        self.config = config or GeneratorConfig()
        self.vocabulary = vocabulary or build_vocabulary(self.config.vocabulary_seed)
        self._boilerplate_cache: dict[str, list[str]] = {}
        if self.config.vocabulary_zipf > 0.0:
            alpha = self.config.vocabulary_zipf
            self._content_sampler = ZipfSampler(self.vocabulary.content_words,
                                                alpha)
            self._general_sampler = ZipfSampler(self.vocabulary.general_words,
                                                alpha)
        else:
            self._content_sampler = None
            self._general_sampler = None

    def generate(
        self,
        names: list[str],
        seed: int,
        dataset_name: str = "synthetic",
        cluster_counts: dict[str, int] | None = None,
    ) -> DocumentCollection:
        """Generate a full dataset.

        Args:
            names: ambiguous query names (each becomes one block).
            seed: corpus seed; fully determines the output.
            dataset_name: label stored on the collection.
            cluster_counts: optional fixed true-cluster count per name;
                names absent from the mapping draw from the config range.
        """
        collections = list(self.iter_blocks(names, seed, cluster_counts))
        collection = DocumentCollection(name=dataset_name, collections=collections)
        collection.metadata = self.corpus_metadata(seed)
        return collection

    def corpus_metadata(self, seed: int) -> dict:
        """The metadata :meth:`generate` attaches to a collection.

        Exposed so streaming writers (block-per-line JSONL, see
        ``repro.corpus.loaders``) can persist the same provenance without
        materializing the corpus.  ``vocabulary_sizes`` is recorded only
        when the lexicon was built at non-default sizes, so legacy corpora
        keep byte-identical metadata.
        """
        metadata = {
            "seed": seed,
            "pages_per_name": self.config.pages_per_name,
            "vocabulary_seed": self.config.vocabulary_seed,
        }
        sizes = vocabulary_sizes(self.vocabulary)
        if sizes:
            metadata["vocabulary_sizes"] = sizes
        if self.config.seeding != "sequential":
            metadata["seeding"] = self.config.seeding
        return metadata

    def block_seeds(self, names: Sequence[str], seed: int) -> list[int]:
        """The per-name seeds ``generate(names, seed)`` would use.

        Under ``"sequential"`` seeding these come from a master RNG in
        name order (legacy behavior); under ``"independent"`` each is a
        pure hash of ``(seed, query_name)``.
        """
        if self.config.seeding == "independent":
            return [independent_block_seed(seed, name) for name in names]
        master = random.Random(seed)
        return [master.randrange(2**31) for _ in names]

    def iter_blocks(
        self,
        names: Sequence[str],
        seed: int,
        cluster_counts: dict[str, int] | None = None,
    ) -> Iterator[NameCollection]:
        """Yield name blocks lazily, in name order.

        Materializing the iterator equals :meth:`generate` block for
        block under either seeding scheme, but only one block is alive at
        a time — peak memory is O(pages_per_name), independent of
        ``len(names)``.  (The up-front seed list is O(len(names)) ints.)
        """
        counts = cluster_counts or {}
        for query_name, name_seed in zip(names, self.block_seeds(names, seed)):
            yield self._generate_name(query_name, name_seed,
                                      counts.get(query_name))

    def generate_block(self, query_name: str, seed: int,
                       n_clusters: int | None = None) -> NameCollection:
        """Regenerate one name's block in O(1), without its corpus.

        Requires ``seeding="independent"`` — only there is a block's seed
        a pure function of ``(seed, query_name)``.  The result is
        byte-identical to the same name's block in
        ``generate(names, seed)`` for any name list containing it.
        """
        if self.config.seeding != "independent":
            raise ValueError(
                "generate_block requires seeding='independent'; under "
                "'sequential' seeding a block's seed depends on its "
                "position in the name list — use iter_blocks instead")
        return self._generate_name(
            query_name, independent_block_seed(seed, query_name), n_clusters)

    def _generate_name(self, query_name: str, seed: int,
                       n_clusters: int | None) -> NameCollection:
        """Generate one name's block of pages."""
        rng = random.Random(seed)
        config = self.config
        traits = config.fixed_traits or NameTraits.sample(rng)

        if n_clusters is None:
            upper = min(config.max_clusters, config.pages_per_name)
            n_clusters = self._draw_cluster_count(rng, config.min_clusters,
                                                  upper)
        # Per-name skew jitter: some names are dominated by one famous
        # bearer, others are spread more evenly.
        alpha = config.cluster_size_alpha * rng.uniform(0.75, 1.4)
        sizes = _zipf_cluster_sizes(
            rng, config.pages_per_name, n_clusters, alpha)

        if config.doc_id_scheme == "full":
            key = "-".join(query_name.lower().split())
        else:
            key = query_name.split()[-1].lower()
        pools = NamePools.sample(
            rng, self.vocabulary, n_clusters,
            n_topic_words=config.n_topic_words,
            n_concepts=config.n_concepts_per_person,
            word_pool_factor=config.word_pool_factor,
            concept_pool_factor=config.concept_pool_factor,
        )
        profiles: list[PersonProfile] = []
        for index in range(n_clusters):
            profiles.append(sample_profile(
                rng, pools,
                person_id=f"{key}#{index:02d}",
                query_name=query_name,
                n_concepts=config.n_concepts_per_person,
                n_topic_words=config.n_topic_words,
            ))

        assignments = [profile for profile, size in zip(profiles, sizes)
                       for _ in range(size)]
        rng.shuffle(assignments)

        pages = []
        for index, profile in enumerate(assignments):
            doc_id = f"{key}/{index:03d}"
            pages.append(self._generate_page(rng, doc_id, profile, profiles, traits))
        return NameCollection(query_name=query_name, pages=pages)

    def _generate_page(self, rng: random.Random, doc_id: str,
                       profile: PersonProfile, peers: list[PersonProfile],
                       traits: NameTraits) -> WebPage:
        """Synthesize one page about ``profile``."""
        offtopic = rng.random() < traits.offtopic_rate
        mentions: list[str] = []

        mentions.extend(self._name_mentions(rng, profile, peers, traits, offtopic))
        mentions.extend(self._org_mentions(rng, profile, traits, offtopic))
        mentions.extend(self._concept_mentions(rng, profile, traits, offtopic))
        mentions.extend(self._associate_mentions(rng, profile, traits, offtopic))
        for location in profile.locations:
            if rng.random() < (0.2 if offtopic else 0.5):
                mentions.append(location)

        url = self._page_url(rng, profile, traits)
        domain = url.split("://", 1)[-1].split("/", 1)[0]
        words = self._body_words(rng, profile, traits, offtopic, domain)
        text = self._compose_text(rng, mentions, words)

        title_words = rng.sample(profile.topic_words, 2)
        title = f"{profile.full_name} {' '.join(title_words)}"
        return WebPage(
            doc_id=doc_id,
            query_name=profile.query_name,
            url=url,
            title=title,
            text=text,
            person_id=profile.person_id,
        )

    def _name_mentions(self, rng: random.Random, profile: PersonProfile,
                       peers: list[PersonProfile], traits: NameTraits,
                       offtopic: bool) -> list[str]:
        """The person's own name variants plus occasional dominant others.

        All namesakes share the query full name, so own-name mentions are
        identical across clusters.  With probability ``name_confusion`` the
        page is dominated by an *associate's* name instead (a profile page
        of a colleague that merely cites the query person) — the failure
        mode that makes F3 ("most frequent name") imperfect.
        """
        variants = profile.name_variants()
        n_own = rng.randint(1, 2) if offtopic else rng.randint(2, 5)
        mentions = [variants[0]] * max(1, n_own - 1)
        mentions.extend(rng.choice(variants) for _ in range(n_own - len(mentions) + 1))
        if profile.associates and rng.random() < traits.name_confusion:
            dominant = rng.choice(profile.associates)
            mentions.extend([dominant] * rng.randint(2, 4))
        if offtopic:
            # Off-topic pages are usually *about someone else* who merely
            # mentions the query person in passing.
            stranger = self.vocabulary.full_name(rng)
            mentions.extend([stranger] * rng.randint(2, 4))
        return mentions

    def _org_mentions(self, rng: random.Random, profile: PersonProfile,
                      traits: NameTraits, offtopic: bool) -> list[str]:
        if rng.random() < traits.p_missing_orgs or offtopic:
            return []
        mentions = []
        for org in rng.sample(profile.organizations,
                              rng.randint(1, len(profile.organizations))):
            if rng.random() < traits.org_noise:
                org = rng.choice(self.vocabulary.organizations)
            mentions.extend([org] * rng.randint(1, 2))
        return mentions

    def _concept_mentions(self, rng: random.Random, profile: PersonProfile,
                          traits: NameTraits, offtopic: bool) -> list[str]:
        if rng.random() < traits.p_missing_concepts:
            return []
        concepts = list(profile.concepts)
        weights = list(profile.concepts.values())
        n_mention = rng.randint(1, 2) if offtopic else rng.randint(2, 6)
        mentions = []
        for _ in range(n_mention):
            concept = rng.choices(concepts, weights=weights, k=1)[0]
            if rng.random() < traits.concept_noise:
                concept = rng.choice(self.vocabulary.concepts)
            mentions.extend([concept] * rng.randint(1, 3))
        return mentions

    def _associate_mentions(self, rng: random.Random, profile: PersonProfile,
                            traits: NameTraits, offtopic: bool) -> list[str]:
        n_assoc = 0 if offtopic else rng.randint(0, 3)
        mentions = []
        for name in rng.sample(profile.associates,
                               min(n_assoc, len(profile.associates))):
            if rng.random() < traits.associate_noise:
                name = self.vocabulary.full_name(rng)
            mentions.append(name)
        return mentions

    def _body_words(self, rng: random.Random, profile: PersonProfile,
                    traits: NameTraits, offtopic: bool,
                    domain: str) -> list[str]:
        """Draw the page's plain content words from the mixture model.

        The mixture has five layers: site boilerplate (same for every page
        of a domain — the template text that confounds TF-IDF), random
        noise words, general filler, name-shared words (topical overlap of
        namesakes) and the person's own topic words.
        """
        n_tokens = self._draw_page_length(rng, traits)
        shared_rate = traits.shared_word_rate
        noise_rate = traits.noise_word_rate
        boilerplate_rate = traits.boilerplate_rate
        if offtopic:
            noise_rate = min(0.9, noise_rate + 0.4)
        boilerplate = self._domain_boilerplate(domain)
        words = []
        for _ in range(n_tokens):
            roll = rng.random()
            if roll < boilerplate_rate:
                words.append(rng.choice(boilerplate))
            elif roll < boilerplate_rate + noise_rate:
                words.append(self._content_word(rng))
            elif roll < boilerplate_rate + noise_rate + 0.12:
                words.append(self._general_word(rng))
            elif roll < boilerplate_rate + noise_rate + 0.12 + shared_rate:
                words.append(rng.choice(profile.shared_words))
            else:
                words.append(rng.choice(profile.topic_words))
        return words

    def _content_word(self, rng: random.Random) -> str:
        """One lexicon content word — uniform, or Zipfian when skewed."""
        if self._content_sampler is not None:
            return self._content_sampler.choice(rng)
        return rng.choice(self.vocabulary.content_words)

    def _general_word(self, rng: random.Random) -> str:
        if self._general_sampler is not None:
            return self._general_sampler.choice(rng)
        return rng.choice(self.vocabulary.general_words)

    def _draw_cluster_count(self, rng: random.Random, lower: int,
                            upper: int) -> int:
        """Entities-per-name draw: uniform, or ``1/k**skew``-weighted."""
        skew = self.config.cluster_count_skew
        if skew <= 0.0 or lower >= upper:
            return rng.randint(lower, upper)
        cumulative = list(itertools.accumulate(
            1.0 / (k ** skew) for k in range(lower, upper + 1)))
        position = bisect.bisect_left(cumulative, rng.random() * cumulative[-1])
        return lower + min(position, upper - lower)

    def _draw_page_length(self, rng: random.Random,
                          traits: NameTraits) -> int:
        """Page token count: uniform range, with an optional Pareto tail."""
        n_tokens = rng.randint(traits.min_tokens, traits.max_tokens)
        skew = self.config.page_length_skew
        if skew > 0.0:
            # paretovariate yields multipliers >= 1; cap the tail so one
            # page can never dominate a block's memory or runtime.
            n_tokens = int(n_tokens * min(rng.paretovariate(skew), 8.0))
        return n_tokens

    def _domain_boilerplate(self, domain: str) -> list[str]:
        """The site-template words of a domain (stable across pages/seeds)."""
        cached = self._boilerplate_cache.get(domain)
        if cached is None:
            seed = zlib.crc32(domain.encode("utf-8")) ^ self.vocabulary.seed
            domain_rng = random.Random(seed)
            cached = domain_rng.sample(self.vocabulary.content_words, 15)
            self._boilerplate_cache[domain] = cached
        return cached

    def _compose_text(self, rng: random.Random, mentions: list[str],
                      words: list[str]) -> str:
        """Interleave entity mentions into the word stream as sentences."""
        tokens = list(words)
        for mention in mentions:
            position = rng.randint(0, len(tokens))
            tokens.insert(position, mention)
        sentences = []
        cursor = 0
        while cursor < len(tokens):
            length = rng.randint(8, 14)
            sentences.append(" ".join(tokens[cursor:cursor + length]) + ".")
            cursor += length
        return " ".join(sentences)

    def _page_url(self, rng: random.Random, profile: PersonProfile,
                  traits: NameTraits) -> str:
        if rng.random() < traits.p_home_domain:
            domain = rng.choice(profile.home_domains)
        else:
            domain = rng.choice(self.vocabulary.domains)
        path_words = rng.sample(self.vocabulary.content_words, 2)
        return f"http://{domain}/{path_words[0]}/{path_words[1]}{rng.randint(0, 999)}.html"


def with_traits(config: GeneratorConfig, traits: NameTraits) -> GeneratorConfig:
    """Return a copy of ``config`` with :attr:`fixed_traits` set."""
    return replace(config, fixed_traits=traits)
