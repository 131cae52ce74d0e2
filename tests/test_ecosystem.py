"""Tests for the ecosystem model: categories, popularity, IPF, generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecosystem import (
    CATEGORIES,
    Corpus,
    EcosystemGenerator,
    EcosystemParams,
    fit_interaction_matrix,
    fit_zipf_alpha,
    iot_categories,
    top_share,
    zipf_add_counts,
)
from repro.ecosystem.anchors import ANCHOR_SERVICES
from repro.ecosystem.categories import iot_service_share
from repro.ecosystem.corpus import AppletRecord, ServiceRecord
from repro.ecosystem.growth import (
    FINAL_WEEK,
    GROWTH_TARGETS,
    conditional_fraction,
    in_window_fraction,
    snapshot_date,
)
from repro.ecosystem.interactions import base_affinity_matrix, ipf_fit
from repro.ecosystem.naming import slugify
from repro.ecosystem.popularity import zipf_shares, zipf_top_share


class TestCategories:
    def test_fourteen_categories(self):
        assert len(CATEGORIES) == 14
        assert [c.index for c in CATEGORIES] == list(range(1, 15))

    def test_iot_is_first_four(self):
        assert [c.index for c in iot_categories()] == [1, 2, 3, 4]

    def test_iot_share_matches_paper(self):
        assert iot_service_share() == pytest.approx(51.7)

    def test_service_shares_sum_to_100(self):
        assert sum(c.pct_services for c in CATEGORIES) == pytest.approx(100.0, abs=0.5)

    def test_table1_headline_values(self):
        by_index = {c.index: c for c in CATEGORIES}
        assert by_index[1].pct_services == 37.7
        assert by_index[7].trigger_ac_pct == 20.0
        assert by_index[9].action_ac_pct == 27.4
        assert by_index[12].action_ac_pct == 0.0


class TestPopularity:
    def test_shares_normalized_and_decreasing(self):
        shares = zipf_shares(100, 1.5)
        assert sum(shares) == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(shares, shares[1:]))

    def test_shift_flattens_head(self):
        plain = zipf_shares(1000, 1.5)
        shifted = zipf_shares(1000, 1.5, shift=50)
        assert shifted[0] < plain[0]

    def test_top_share_basic(self):
        assert top_share([100, 1, 1, 1, 1, 1, 1, 1, 1, 1], 0.1) == pytest.approx(100 / 109)

    def test_top_share_validation(self):
        with pytest.raises(ValueError):
            top_share([], 0.1)
        with pytest.raises(ValueError):
            top_share([1], 0.0)

    def test_fit_zipf_alpha_recovers_target(self):
        alpha = fit_zipf_alpha(10_000, 0.01, 0.5)
        assert zipf_top_share(10_000, alpha, 0.01) == pytest.approx(0.5, abs=0.01)

    def test_add_counts_exact_total_and_order(self):
        counts = zipf_add_counts(100, 1.5, 10_000, shift=2)
        assert sum(counts) == 10_000
        assert all(c >= 1 for c in counts)
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_add_counts_total_too_small_rejected(self):
        with pytest.raises(ValueError):
            zipf_add_counts(100, 1.5, 50)

    @given(st.integers(min_value=2, max_value=500),
           st.floats(min_value=0.3, max_value=2.5))
    @settings(max_examples=30)
    def test_add_counts_invariants(self, n, alpha):
        total = n * 10
        counts = zipf_add_counts(n, alpha, total)
        assert sum(counts) == total
        assert min(counts) >= 1


class TestInteractionMatrix:
    def test_ipf_matches_marginals(self):
        matrix = fit_interaction_matrix()
        rows = [sum(row) for row in matrix]
        cols = [sum(matrix[i][j] for i in range(14)) for j in range(14)]
        trigger_total = sum(c.trigger_ac_pct for c in CATEGORIES)
        action_total = sum(c.action_ac_pct for c in CATEGORIES)
        for cat, row_sum in zip(CATEGORIES, rows):
            assert row_sum == pytest.approx(cat.trigger_ac_pct / trigger_total, abs=1e-6)
        for cat, col_sum in zip(CATEGORIES, cols):
            assert col_sum == pytest.approx(cat.action_ac_pct / action_total, abs=1e-6)

    def test_time_location_action_column_zero(self):
        matrix = fit_interaction_matrix()
        assert all(matrix[i][11] == 0 for i in range(14))  # category 12 actions

    def test_affinity_hotspots_survive_ipf(self):
        """The boosted cells stay hot relative to an unboosted baseline."""
        matrix = fit_interaction_matrix()
        flat = ipf_fit(
            [[1.0] * 14 for _ in range(14)],
            [c.trigger_ac_pct for c in CATEGORIES],
            [c.action_ac_pct for c in CATEGORIES],
        )
        # social->social (10,10) was boosted 8x
        assert matrix[9][9] > 2 * flat[9][9]

    def test_ipf_validation(self):
        with pytest.raises(ValueError):
            ipf_fit([[1.0]], [1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            ipf_fit([[1.0]], [0.0], [1.0])

    def test_base_matrix_positive(self):
        assert all(cell >= 1.0 for row in base_affinity_matrix() for cell in row)


class TestGrowthHelpers:
    def test_in_window_fraction(self):
        assert in_window_fraction(0.0) == 0.0
        assert in_window_fraction(0.11) == pytest.approx(1 - 1 / 1.11)
        with pytest.raises(ValueError):
            in_window_fraction(-0.1)

    def test_conditional_fraction_bounds(self):
        frac = conditional_fraction(0.31, 0.11)
        assert 0 < frac < in_window_fraction(0.31)
        assert conditional_fraction(0.05, 0.11) == 0.0

    def test_snapshot_dates(self):
        assert snapshot_date(0) == "2016-11-24"
        assert snapshot_date(4) == "2016-12-22"


class TestParams:
    def test_scale_validation(self):
        with pytest.raises(ValueError):
            EcosystemParams(scale=0.0)
        with pytest.raises(ValueError):
            EcosystemParams(scale=1.5)

    def test_positive_counts_enforced(self):
        with pytest.raises(ValueError):
            EcosystemParams(n_services=0)

    def test_scaled_counts(self):
        params = EcosystemParams(scale=0.1)
        assert params.scaled_applets == 32_000
        assert params.scaled_users == 13_554


class TestGenerator:
    def test_exact_universe_sizes(self, small_corpus):
        summary = small_corpus.summary()
        assert summary["services"] == 408
        assert summary["triggers"] == 1490
        assert summary["actions"] == 957
        assert summary["applets"] == 6400
        assert summary["add_count"] == 460_000

    def test_category_apportionment(self, small_corpus):
        by_cat = {}
        for service in small_corpus.services_at():
            by_cat[service.category_index] = by_cat.get(service.category_index, 0) + 1
        for cat in CATEGORIES:
            expected = 408 * cat.pct_services / 100
            assert by_cat.get(cat.index, 0) == pytest.approx(expected, abs=1.5)

    def test_iot_share(self, small_corpus):
        iot = [s for s in small_corpus.services_at() if s.category_index <= 4]
        assert len(iot) / 408 == pytest.approx(0.517, abs=0.01)

    def test_anchor_services_present(self, small_corpus):
        slugs = set(small_corpus.services)
        for anchor in ("amazon_alexa", "philips_hue", "fitbit", "nest_thermostat",
                       "egg_minder", "samsung_smartthings"):
            assert anchor in slugs

    def test_anchor_signature_endpoints(self, small_corpus):
        alexa = small_corpus.service("amazon_alexa")
        trigger_names = [t.name for t in alexa.triggers]
        assert "Say a phrase" in trigger_names
        hue = small_corpus.service("philips_hue")
        action_names = [a.name for a in hue.actions]
        assert "Turn on lights" in action_names

    def test_applet_popularity_tail(self, small_corpus):
        adds = [a.add_count for a in small_corpus.applets_at()]
        assert top_share(adds, 0.01) == pytest.approx(0.84, abs=0.06)
        assert top_share(adds, 0.10) == pytest.approx(0.97, abs=0.04)

    def test_user_made_fractions(self, small_corpus):
        applets = small_corpus.applets_at()
        user_frac = sum(a.author_is_user for a in applets) / len(applets)
        adds = sum(a.add_count for a in applets)
        user_adds = sum(a.add_count for a in applets if a.author_is_user)
        assert user_frac == pytest.approx(0.98, abs=0.02)
        assert user_adds / adds == pytest.approx(0.86, abs=0.06)

    def test_applet_ids_six_digit_and_sparse(self, small_corpus):
        low, high = small_corpus.applet_id_bounds()
        assert low == 100000
        assert high <= 999999
        assert high - low > len(small_corpus.applets)  # gaps exist

    def test_growth_trajectory(self, small_corpus):
        start = small_corpus.summary(0)
        end = small_corpus.summary(FINAL_WEEK)
        for key, target in GROWTH_TARGETS.items():
            realized = end[key] / start[key] - 1.0
            # Small-scale corpora carry binomial noise on creation weeks.
            assert realized == pytest.approx(target, abs=0.08), key

    def test_determinism(self):
        params = EcosystemParams(scale=0.005, seed=77)
        a = EcosystemGenerator(params).generate().summary()
        b = EcosystemGenerator(params).generate().summary()
        assert a == b

    def test_different_seeds_differ(self):
        a = EcosystemGenerator(EcosystemParams(scale=0.005, seed=1)).generate()
        b = EcosystemGenerator(EcosystemParams(scale=0.005, seed=2)).generate()
        ids_a = sorted(a.applets)[:50]
        ids_b = sorted(b.applets)[:50]
        assert ids_a != ids_b

    def test_applet_endpoints_exist_on_services(self, small_corpus):
        for applet in list(small_corpus.applets.values())[:500]:
            service = small_corpus.service(applet.trigger_service_slug)
            assert any(t.slug == applet.trigger_slug for t in service.triggers)
            service = small_corpus.service(applet.action_service_slug)
            assert any(a.slug == applet.action_slug for a in service.actions)


class TestCorpus:
    def test_duplicate_service_rejected(self):
        corpus = Corpus()
        corpus.add_service(ServiceRecord("x", "X", "", 1))
        with pytest.raises(ValueError):
            corpus.add_service(ServiceRecord("x", "X2", "", 1))

    def test_duplicate_applet_rejected(self):
        corpus = Corpus()
        record = AppletRecord(1, "a", "", "t", "s", "a", "s2", "u", True, 5)
        corpus.add_applet(record)
        with pytest.raises(ValueError):
            corpus.add_applet(record)

    def test_add_count_interpolation(self):
        applet = AppletRecord(1, "a", "", "t", "s", "a", "s2", "u", True,
                              add_count=1190, created_week=0)
        assert applet.add_count_at(24, 24) == 1190
        assert applet.add_count_at(0, 24) == pytest.approx(1000, abs=1)
        late = AppletRecord(2, "b", "", "t", "s", "a", "s2", "u", True,
                            add_count=100, created_week=12)
        assert late.add_count_at(6, 24) == 0
        assert late.add_count_at(12, 24) == 0
        assert late.add_count_at(18, 24) == 50

    def test_empty_bounds(self):
        assert Corpus().applet_id_bounds() == (0, 0)


def test_slugify():
    assert slugify("Amazon Alexa") == "amazon_alexa"
    assert slugify("UP by Jawbone!") == "up_by_jawbone"
    assert slugify("  Weird -- name ") == "weird_name"


def test_anchor_list_consistency():
    names = [a.name for a in ANCHOR_SERVICES]
    assert len(names) == len(set(names))
    assert all(1 <= a.category_index <= 14 for a in ANCHOR_SERVICES)
