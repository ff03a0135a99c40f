"""Dictionary-based named-entity recognition.

The paper extracts organizations, locations and person names with
dictionary-based NER services; this module provides the same capability
from scratch:

* **gazetteer entities** (organizations, locations, concepts treated as
  phrases) are found by greedy longest-match over the token stream,
  case-sensitively for capitalized entity types;
* **person names** are found by pattern matching over capitalized tokens,
  assisted by a first-name gazetteer: ``First Last``, ``F. Last`` (initial
  form) and bare known surnames.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.extraction.phrases import PhraseMatcher
from repro.extraction.tokenizer import (
    capitalized_positions,
    is_capitalized,
    is_initial,
    tokenize,
)


@dataclass(frozen=True)
class PersonMention:
    """One extracted person-name mention."""

    surface: str
    first: str | None
    last: str

    @property
    def is_full(self) -> bool:
        """True when a given name (not just an initial) is present."""
        return self.first is not None and len(self.first) > 1


@dataclass
class NerResult:
    """Entities extracted from one page."""

    organizations: Counter = field(default_factory=Counter)
    locations: Counter = field(default_factory=Counter)
    persons: list[PersonMention] = field(default_factory=list)

    def person_counts(self) -> Counter:
        """Surface-form counts of person mentions."""
        return Counter(mention.surface for mention in self.persons)


class DictionaryNer:
    """Gazetteer + pattern NER over tokenized page text.

    Args:
        organizations: organization-name gazetteer.
        locations: location gazetteer.
        first_names: given-name gazetteer used by the person patterns.
        known_surnames: surnames recognizable as bare mentions (typically
            the dataset's ambiguous query names plus vocabulary surnames).
    """

    def __init__(
        self,
        organizations: Iterable[str] = (),
        locations: Iterable[str] = (),
        first_names: Iterable[str] = (),
        known_surnames: Iterable[str] = (),
    ):
        self._org_matcher = PhraseMatcher(organizations)
        self._loc_matcher = PhraseMatcher(locations)
        self._first_names = set(first_names)
        self._known_surnames = set(known_surnames)

    def extract(self, text: str) -> NerResult:
        """Run NER over raw page text."""
        return self.extract_tokens(tokenize(text))

    def extract_tokens(self, tokens: list[str]) -> NerResult:
        """Run NER over an already tokenized page.

        Every entity starts on a capitalized token, so only those
        positions are visited.  Matching priority at each: organizations,
        then locations, then person patterns.  Matched spans are consumed
        so one token never contributes to two entities.
        """
        result = NerResult()
        free = 0  # first position no earlier match has consumed
        for position in capitalized_positions(tokens):
            if position < free:
                continue

            org = self._org_matcher.match_at(tokens, position)
            if org is not None:
                result.organizations[" ".join(org)] += 1
                free = position + len(org)
                continue

            loc = self._loc_matcher.match_at(tokens, position)
            if loc is not None:
                result.locations[" ".join(loc)] += 1
                free = position + len(loc)
                continue

            mention, consumed = self._match_person(tokens, position)
            if mention is not None:
                result.persons.append(mention)
                free = position + consumed
        return result

    def _match_person(self, tokens: list[str],
                      position: int) -> tuple[PersonMention | None, int]:
        """Try the person-name patterns at ``position``."""
        token = tokens[position]
        has_next = position + 1 < len(tokens)
        next_token = tokens[position + 1] if has_next else ""

        # "First Last" — given name from the gazetteer + capitalized surname.
        if token in self._first_names and is_capitalized(next_token) and not is_initial(next_token):
            surface = f"{token} {next_token}"
            return PersonMention(surface=surface, first=token, last=next_token), 2

        # "F. Last" — single initial + capitalized surname.
        if is_initial(token) and is_capitalized(next_token) and len(next_token) > 1:
            surface = f"{token}. {next_token}"
            return PersonMention(surface=surface, first=token, last=next_token), 2

        # Bare known surname.
        if token in self._known_surnames:
            return PersonMention(surface=token, first=None, last=token), 1

        return None, 0
