"""Extended similarity function (F11–F14) tests."""

from collections import Counter

import pytest

from repro.extraction.features import PageFeatures
from repro.similarity.extended import (
    EXTENDED_FUNCTION_NAMES,
    SUBSET_I14,
    extended_function_by_name,
    extended_functions,
    full_battery,
)
from repro.similarity.functions import function_by_name


def features(**kwargs):
    return PageFeatures(doc_id=kwargs.pop("doc_id", "x/0"), **kwargs)


class TestRegistry:
    def test_four_extended_functions(self):
        assert EXTENDED_FUNCTION_NAMES == ("F11", "F12", "F13", "F14")
        assert len(extended_functions()) == 4

    def test_full_battery_is_fourteen(self):
        battery = full_battery()
        assert [f.name for f in battery] == list(SUBSET_I14)
        assert len(battery) == 14

    def test_core_lookup_resolves_extended(self):
        assert function_by_name("F13").name == "F13"

    def test_extended_lookup_resolves_core(self):
        assert extended_function_by_name("F3").name == "F3"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            extended_function_by_name("F99")


class TestBehaviour:
    def test_f11_locations(self):
        left = features(locations=Counter({"Lausanne": 1}))
        right = features(locations=Counter({"Lausanne": 2, "Geneva": 1}))
        assert extended_function_by_name("F11")(left, right) == 1.0

    def test_f12_top_terms(self):
        vector = {f"w{i}": 1.0 / (i + 1) for i in range(30)}
        left = features(tfidf=dict(vector))
        right = features(tfidf=dict(vector))
        assert extended_function_by_name("F12")(left, right) == pytest.approx(1.0)

    def test_f12_restricts_to_top_terms(self):
        # Two pages agree only on low-weight tail terms: F12 (top-12 terms)
        # must score 0 while F8 (full vector) scores positive.
        head = {f"h{i}": 1.0 for i in range(12)}
        tail = {"shared": 0.01}
        other_head = {f"g{i}": 1.0 for i in range(12)}
        left = features(tfidf={**head, **tail})
        right = features(tfidf={**other_head, **tail})
        assert extended_function_by_name("F12")(left, right) == 0.0
        assert function_by_name("F8")(left, right) > 0.0

    def test_f13_weighted_jaccard(self):
        left = features(organizations=Counter({"Acme Labs": 2}),
                        locations=Counter({"Lausanne": 1}))
        right = features(organizations=Counter({"Acme Labs": 1}))
        # min-sum = 1, max-sum = 2 + 1 = 3
        assert extended_function_by_name("F13")(left, right) == pytest.approx(1 / 3)

    def test_f14_concept_jaccard(self):
        vector = {"a b": 0.5, "c d": 0.5}
        left = features(concept_vector=dict(vector))
        right = features(concept_vector=dict(vector))
        assert extended_function_by_name("F14")(left, right) == pytest.approx(1.0)

    @pytest.mark.parametrize("name", EXTENDED_FUNCTION_NAMES)
    def test_missing_information_scores_zero(self, name):
        empty = features()
        full = features(
            locations=Counter({"Lausanne": 1}),
            organizations=Counter({"Acme Labs": 1}),
            other_persons=Counter({"Bob Smith": 1}),
            concept_vector={"a b": 1.0},
            tfidf={"w": 1.0},
        )
        assert extended_function_by_name(name)(empty, full) == 0.0

    @pytest.mark.parametrize("name", EXTENDED_FUNCTION_NAMES)
    def test_unit_interval_on_real_block(self, name, small_block,
                                         block_features):
        function = extended_function_by_name(name)
        ids = sorted(block_features)[:8]
        for i, left in enumerate(ids):
            for right in ids[i + 1:]:
                value = function(block_features[left], block_features[right])
                assert 0.0 <= value <= 1.0


class TestResolverIntegration:
    def test_resolver_runs_with_extended_battery(self, small_block,
                                                 block_features, fit_evaluate):
        from repro.core import EntityResolver, ResolverConfig
        from repro.runtime.batch import batched_similarity_graphs
        graphs = batched_similarity_graphs(small_block, block_features,
                                           full_battery())
        resolver = EntityResolver(ResolverConfig(function_names=SUBSET_I14))
        result = fit_evaluate(resolver, small_block, training_seed=0,
                              graphs=graphs)
        assert len(result.layer_accuracies) == 14 * 3
