"""Region-accuracy estimation tests."""

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.accuracy import (
    RegionAccuracyProfile,
    RegionStats,
    overall_accuracy,
)
from repro.core.decisions import _fitted, build_criteria
from repro.core.regions import EqualWidthRegions, ThresholdRegions


def profile_from(data, n_bins=10, smoothing=0.0):
    return RegionAccuracyProfile(EqualWidthRegions(n_bins), data,
                                 smoothing=smoothing)


class TestRegionAccuracyProfile:
    def test_unsmoothed_accuracy_is_link_fraction(self):
        data = [(0.05, True), (0.05, False), (0.06, True), (0.07, True)]
        profile = profile_from(data)
        assert profile.region_accuracy(0) == pytest.approx(0.75)

    def test_link_probability_uses_region(self):
        data = [(0.05, False), (0.95, True)]
        profile = profile_from(data)
        assert profile.link_probability(0.02) < 0.5
        assert profile.link_probability(0.98) > 0.5

    def test_decide_majority(self):
        data = [(0.05, False), (0.06, False), (0.07, True),
                (0.95, True), (0.96, True), (0.97, False)]
        profile = profile_from(data)
        assert not profile.decide(0.05)
        assert profile.decide(0.95)

    def test_empty_region_falls_back_to_prior(self):
        data = [(0.05, True), (0.06, True), (0.07, False)]
        profile = profile_from(data, smoothing=0.0)
        # Region around 0.5 saw no data; prior is smoothed 2/3-ish.
        assert profile.link_probability(0.5) == profile.prior

    def test_smoothing_shrinks_extremes(self):
        data = [(0.05, True)]  # one positive in bin 0
        unsmoothed = profile_from(data, smoothing=0.0)
        smoothed = profile_from(data, smoothing=1.0)
        assert unsmoothed.region_accuracy(0) == 1.0
        assert smoothed.region_accuracy(0) < 1.0

    def test_region_stats(self):
        data = [(0.05, True), (0.06, False)]
        profile = profile_from(data)
        stats = profile.region_stats(0)
        assert stats.n_pairs == 2
        assert stats.n_links == 1

    def test_accuracy_series_matches_regions(self):
        data = [(0.05, True), (0.95, False)]
        profile = profile_from(data, n_bins=4)
        series = profile.accuracy_series()
        assert len(series) == 4
        assert series[0][0] == 0.0
        assert series[-1][1] == 1.0

    def test_non_monotone_structure_is_captured(self):
        # Low values: links (missing info on dominant-cluster pairs);
        # mid values: non-links; high values: links.  Thresholds cannot
        # express this, region profiles can — the paper's core argument.
        data = ([(0.05, True)] * 8 + [(0.05, False)] * 2
                + [(0.5, False)] * 8 + [(0.5, True)] * 2
                + [(0.95, True)] * 9 + [(0.95, False)] * 1)
        profile = profile_from(data)
        assert profile.decide(0.05)
        assert not profile.decide(0.5)
        assert profile.decide(0.95)


class TestProfileTables:
    """What a profile keeps, reads back and writes, pinned value by
    value: bins 0, 2 and 3 of four see pairs, bin 1 falls back to the
    prior (3 links + 1) / (4 pairs + 2)."""

    DATA = [(0.05, True), (0.06, False), (0.55, True), (0.95, True)]
    STATS = [RegionStats(2, 1, 0.5), RegionStats(0, 0, 2 / 3),
             RegionStats(1, 1, 2 / 3), RegionStats(1, 1, 2 / 3)]

    @pytest.fixture
    def profile(self):
        return profile_from(self.DATA, n_bins=4, smoothing=1.0)

    def test_region_stats(self, profile):
        assert [profile.region_stats(region) for region in range(4)] \
            == self.STATS
        assert profile.prior == 2 / 3
        assert profile.links == (False, True, True, True)

    def test_accuracy_series(self, profile):
        assert profile.accuracy_series() == [
            (0.0, 0.25, 0.5), (0.25, 0.5, 2 / 3), (0.5, 0.75, 2 / 3),
            (0.75, 1.0, 2 / 3)]

    def test_to_dict(self, profile):
        assert profile.to_dict() == {
            "regions": {"type": "equal_width", "n_bins": 4},
            "prior": 2 / 3,
            "stats": [{"n_pairs": entry.n_pairs, "n_links": entry.n_links,
                       "accuracy": entry.accuracy} for entry in self.STATS],
        }

    def test_dict_round_trip(self, profile):
        payload = json.loads(json.dumps(profile.to_dict()))
        rebuilt = RegionAccuracyProfile.from_dict(payload)
        assert rebuilt.to_dict() == profile.to_dict()
        assert rebuilt.links == profile.links
        assert rebuilt.n_correct == profile.n_correct == 3

    def test_from_stats(self, profile):
        rebuilt = RegionAccuracyProfile.from_stats(
            EqualWidthRegions(4), self.STATS, prior=2 / 3)
        assert rebuilt.to_dict() == profile.to_dict()
        assert rebuilt.accuracy_series() == profile.accuracy_series()
        assert [rebuilt.decide(value) for value, _ in self.DATA] \
            == [profile.decide(value) for value, _ in self.DATA]

    def test_stats_short_of_the_regions_are_refused(self, profile):
        with pytest.raises(ValueError, match="expected 4 region stats, got 3"):
            RegionAccuracyProfile.from_stats(EqualWidthRegions(4),
                                             self.STATS[:3], prior=0.5)
        payload = profile.to_dict()
        payload["stats"].pop()
        with pytest.raises(ValueError, match="expected 4 region stats, got 3"):
            RegionAccuracyProfile.from_dict(payload)


samples = st.lists(st.tuples(st.floats(0.0, 1.0), st.booleans()),
                   max_size=40)


class TestTrainingAccuracy:
    """A fitted decision's training accuracy comes from the profile's
    counts; it is the float :func:`overall_accuracy` gives its
    decisions."""

    @given(samples, st.sampled_from(["threshold", "equal_width", "kmeans"]))
    @example([], "threshold")
    @example([], "kmeans")
    @example([(0.2, True), (0.9, True)], "equal_width")
    @example([(0.2, False), (0.9, False)], "kmeans")
    @example([(0.5, True)] * 3 + [(0.5, False)] * 2, "kmeans")
    def test_counts_score_like_overall_accuracy(self, data, criterion):
        fitted = build_criteria([criterion], k=10)[0].fit(data)
        if not data:
            assert fitted.training_accuracy == 0.0
            return
        values, labels = zip(*data)
        assert fitted.training_accuracy == overall_accuracy(
            list(fitted.decide_all(values)), labels)

    @given(samples)
    @example([])
    @example([(0.3, True), (0.7, True)])
    @example([(0.3, False), (0.7, False)])
    def test_a_single_region(self, data):
        fitted = _fitted("threshold", ThresholdRegions(1.1), data)
        assert fitted.profile.n_regions == 1
        if not data:
            assert fitted.training_accuracy == 0.0
            return
        values, labels = zip(*data)
        assert fitted.training_accuracy == overall_accuracy(
            list(fitted.decide_all(values)), labels)


class TestOverallAccuracy:
    def test_basic(self):
        assert overall_accuracy([True, False, True],
                                [True, True, True]) == pytest.approx(2 / 3)

    def test_perfect(self):
        assert overall_accuracy([True, False], [True, False]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            overall_accuracy([True], [True, False])

    def test_empty(self):
        with pytest.raises(ValueError, match="zero"):
            overall_accuracy([], [])
