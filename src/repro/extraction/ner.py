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

import string
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain, compress, count

from repro.extraction.phrases import PhraseMatcher
from repro.extraction.tokenizer import is_capitalized, is_initial, tokenize


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
        # Every token an entity can start on: a capitalised word that
        # begins an organisation or location, a first name or a known
        # surname, or an initial.  Any other token, capitalised or not,
        # fires no branch of the scan, so it is never visited.
        self._starters = frozenset([
            word for word in chain(self._org_matcher.first_words(),
                                   self._loc_matcher.first_words(),
                                   self._first_names, self._known_surnames)
            if word[:1].isupper()]).union(string.ascii_uppercase)

    def extract(self, text: str) -> NerResult:
        """Run NER over raw page text."""
        return self.extract_tokens(tokenize(text))

    def extract_tokens(self, tokens: list[str]) -> NerResult:
        """Run NER over an already tokenized page.

        Every entity starts on a capitalized token that begins a
        gazetteer phrase or a person pattern, so only those positions
        are visited.  Matching priority at each: organizations, then
        locations, then person patterns.  Matched spans are consumed so
        one token never contributes to two entities.
        """
        result = NerResult()
        if "".join(tokens).isascii():
            starts = map(self._starters.__contains__, tokens)
        else:
            # A one-letter non-ASCII capital ('É') is an initial too; the
            # tokenizer yields none, so only hand-made tokens get here.
            starts = map(self._starts_entity, tokens)
        free = 0  # first position no earlier match has consumed
        for position in compress(count(), starts):
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

    def _starts_entity(self, token: str) -> bool:
        return token in self._starters or is_initial(token)

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
