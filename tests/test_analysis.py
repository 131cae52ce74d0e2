"""Tests for the §3.2 analysis layer against the crawled small corpus."""

import pytest

from repro.analysis import (
    ServiceClassifier,
    UR_ET_AL_DATASET,
    add_count_top_shares,
    growth_percentages,
    heatmap_intensity,
    interaction_heatmap,
    iot_shares,
    log_rank_series,
    ranked_add_counts,
    table1,
    table2,
    table3,
    user_contribution_stats,
    weekly_series,
)
from repro.analysis.growthstats import monotonically_growing
from repro.analysis.heatmap import col_sums, render_ascii, row_sums
from repro.ecosystem.categories import CATEGORIES


@pytest.fixture(scope="module")
def truth(small_corpus):
    return {s.slug: s.category_index for s in small_corpus.services_at()}


class TestClassifier:
    def test_high_accuracy_on_corpus(self, small_snapshot, truth):
        clf = ServiceClassifier()
        assert clf.accuracy(small_snapshot.services.values(), truth) > 0.9

    def test_anchor_services_classified_correctly(self, small_snapshot):
        clf = ServiceClassifier()
        assert clf.classify(small_snapshot.services["amazon_alexa"]) == 1
        assert clf.classify(small_snapshot.services["fitbit"]) == 3
        assert clf.classify(small_snapshot.services["gmail"]) == 13
        assert clf.classify(small_snapshot.services["facebook"]) == 10

    def test_empty_evidence_falls_back_to_other(self):
        from repro.crawler.snapshot import CrawledService

        clf = ServiceClassifier()
        mystery = CrawledService(slug="x", name="Zzqy", description="")
        assert clf.classify(mystery) == 14

    def test_accuracy_requires_services(self, truth):
        with pytest.raises(ValueError):
            ServiceClassifier().accuracy([], truth)

    def test_confusion_diagonal_dominates(self, small_snapshot, truth):
        confusion = ServiceClassifier().confusion(small_snapshot.services.values(), truth)
        diagonal = sum(count for (t, p), count in confusion.items() if t == p)
        total = sum(confusion.values())
        assert diagonal / total > 0.9


class TestTable1:
    def test_service_shares_match_paper(self, small_snapshot):
        rows = table1(small_snapshot)
        for row, cat in zip(rows, CATEGORIES):
            assert row.pct_services == pytest.approx(cat.pct_services, abs=2.5), cat.name

    def test_addcount_shares_track_paper(self, small_snapshot):
        rows = table1(small_snapshot)
        for row, cat in zip(rows, CATEGORIES):
            # Small-scale corpora put several % of all adds in single
            # applets, so per-cell shares carry that granularity.
            assert row.trigger_ac_pct == pytest.approx(cat.trigger_ac_pct, abs=6.0), cat.name
            assert row.action_ac_pct == pytest.approx(cat.action_ac_pct, abs=6.0), cat.name

    def test_shares_sum_to_100(self, small_snapshot):
        rows = table1(small_snapshot)
        assert sum(r.pct_services for r in rows) == pytest.approx(100.0)
        assert sum(r.trigger_ac_pct for r in rows) == pytest.approx(100.0)
        assert sum(r.action_ac_pct for r in rows) == pytest.approx(100.0)


class TestTable2:
    def test_ours_dwarfs_ur_et_al(self, snapshot_store):
        result = table2(snapshot_store, contributors=2064)
        ours, theirs = result["ours"], result["ur_et_al"]
        assert ours["snapshots"] == 5
        assert theirs["applets"] == 224_000
        assert theirs["channels"] == 220
        # at full scale ours exceeds theirs; at reduced scale the service
        # side (unscaled) still does
        assert ours["channels"] > theirs["channels"]
        assert ours["triggers"] > theirs["triggers"]
        assert ours["actions"] > theirs["actions"]

    def test_reference_constants(self):
        assert UR_ET_AL_DATASET["adoptions"] == 12_000_000
        assert UR_ET_AL_DATASET["duration"] == "Sep 2015"


class TestTable3:
    def test_alexa_top_trigger_service(self, small_snapshot):
        result = table3(small_snapshot)
        assert result.top_trigger_services[0][0] == "Amazon Alexa"

    def test_hue_top_action_service(self, small_snapshot):
        result = table3(small_snapshot)
        assert result.top_action_services[0][0] == "Philips Hue"

    def test_expected_services_in_top_lists(self, small_snapshot):
        result = table3(small_snapshot)
        trigger_names = [name for name, _ in result.top_trigger_services]
        assert "Fitbit" in trigger_names
        action_names = [name for name, _ in result.top_action_services]
        assert "LIFX" in action_names or "Nest Thermostat" in action_names

    def test_say_a_phrase_top_trigger(self, small_snapshot):
        result = table3(small_snapshot)
        top_trigger = result.top_triggers[0]
        assert top_trigger[0] == "Say a phrase"
        assert top_trigger[1] == "Amazon Alexa"

    def test_hue_actions_dominate(self, small_snapshot):
        result = table3(small_snapshot)
        hue_actions = [entry for entry in result.top_actions if entry[1] == "Philips Hue"]
        assert len(hue_actions) >= 2  # Turn on lights, Change color, ...

    def test_counts_sorted_descending(self, small_snapshot):
        result = table3(small_snapshot)
        counts = [count for _, count in result.top_trigger_services]
        assert counts == sorted(counts, reverse=True)


class TestHeatmap:
    def test_total_mass_is_double_counted_adds(self, small_snapshot):
        matrix = interaction_heatmap(small_snapshot)
        total_adds = sum(a.add_count for a in small_snapshot.applets.values())
        assert sum(row_sums(matrix)) == total_adds
        assert sum(col_sums(matrix)) == total_adds

    def test_social_sync_hotspot(self, small_snapshot):
        matrix = interaction_heatmap(small_snapshot)
        # (10,10) social->social is a known hotspot
        assert matrix[9][9] > 0.03 * sum(row_sums(matrix))

    def test_timeloc_action_column_empty(self, small_snapshot):
        matrix = interaction_heatmap(small_snapshot)
        assert sum(matrix[i][11] for i in range(14)) == 0

    def test_intensity_normalized(self, small_snapshot):
        intensity = heatmap_intensity(interaction_heatmap(small_snapshot))
        flat = [cell for row in intensity for cell in row]
        assert max(flat) == 1.0
        assert min(flat) >= 0.0

    def test_intensity_of_empty(self):
        assert heatmap_intensity([[0, 0], [0, 0]]) == [[0.0, 0.0], [0.0, 0.0]]

    def test_ascii_rendering(self, small_snapshot):
        art = render_ascii(interaction_heatmap(small_snapshot))
        assert len(art.splitlines()) == 15  # header + 14 rows


class TestDistributions:
    def test_ranked_descending(self, small_snapshot):
        ranked = ranked_add_counts(small_snapshot)
        assert ranked == sorted(ranked, reverse=True)

    def test_top_shares_match_paper_shape(self, small_snapshot):
        shares = add_count_top_shares(small_snapshot)
        # paper: the top 1% (10%) of applets hold 84.1% (97.6%) of adds
        assert abs(shares[0.01] - 0.841) < 0.05
        assert abs(shares[0.10] - 0.976) < 0.04

    def test_log_rank_series_covers_range(self, small_snapshot):
        series = log_rank_series(small_snapshot)
        ranks = [rank for rank, _ in series]
        assert ranks[0] == 1
        assert ranks[-1] == len(small_snapshot.applets)
        values = [value for _, value in series]
        assert values == sorted(values, reverse=True)


class TestUserContribution:
    def test_stats_match_paper(self, small_snapshot):
        stats = user_contribution_stats(small_snapshot)
        assert abs(stats.user_made_applet_fraction - 0.98) < 0.02
        assert abs(stats.user_made_add_fraction - 0.86) < 0.06
        assert stats.dominated_by_users()

    def test_user_channel_tail(self, small_snapshot):
        stats = user_contribution_stats(small_snapshot)
        # paper: the top 1% (10%) of users contribute 18% (49%) of applets
        assert abs(stats.top1pct_user_applet_share - 0.18) < 0.08
        assert abs(stats.top10pct_user_applet_share - 0.49) < 0.12

    def test_channels_outnumber_services(self, small_snapshot):
        stats = user_contribution_stats(small_snapshot)
        assert stats.user_channels > 1000  # paper: 135,544 against ~400 services


class TestIotShares:
    def test_headline_numbers(self, small_snapshot):
        shares = iot_shares(small_snapshot)
        assert shares.iot_service_fraction == pytest.approx(0.517, abs=0.02)
        assert shares.iot_add_fraction == pytest.approx(0.16, abs=0.05)

    def test_component_shares_consistent(self, small_snapshot):
        shares = iot_shares(small_snapshot)
        assert shares.iot_add_fraction <= (
            shares.iot_trigger_add_fraction + shares.iot_action_add_fraction
        )
        assert shares.iot_add_fraction >= max(
            shares.iot_trigger_add_fraction, shares.iot_action_add_fraction
        )


class TestGrowthStats:
    def test_percentages_positive(self, snapshot_store):
        growth = growth_percentages(snapshot_store)
        assert abs(growth["services"] - 11.0) < 5.0
        assert abs(growth["triggers"] - 31.0) < 8.0
        assert abs(growth["actions"] - 27.0) < 8.0
        assert abs(growth["add_count"] - 19.0) < 5.0

    def test_weekly_series(self, snapshot_store):
        series = weekly_series(snapshot_store, "services")
        assert len(series) == 5
        with pytest.raises(KeyError):
            weekly_series(snapshot_store, "nope")

    def test_steady_growth(self, snapshot_store):
        assert monotonically_growing(snapshot_store, "applets")
        assert monotonically_growing(snapshot_store, "add_count")
