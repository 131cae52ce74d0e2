"""Tests for applet data model, OAuth, permissions, and polling policies."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import (
    ActionRef,
    AdaptivePollingPolicy,
    Applet,
    AppletState,
    FixedPollingPolicy,
    PerEndpointPermissionModel,
    ProductionPollingPolicy,
    ServicePermissionModel,
    TriggerRef,
    excess_privilege,
)
from repro.engine.oauth import OAuthAuthority, OAuthError
from repro.engine.permissions import action_scope, required_scopes, trigger_scope
from repro.simcore import Rng


def make_applet(applet_id=1, user="alice", trigger_fields=None, action_fields=None):
    return Applet(
        applet_id=applet_id,
        name="test",
        user=user,
        trigger=TriggerRef("gmail", "new_email", trigger_fields or {}),
        action=ActionRef("philips_hue", "turn_on_lights", action_fields or {"lamp_id": "l1"}),
    )


class TestTriggerRef:
    def test_identity_is_stable(self):
        ref = TriggerRef("gmail", "new_email", {"folder": "inbox"})
        assert ref.identity(1, "alice") == ref.identity(1, "alice")

    def test_identity_varies_by_applet_user_fields(self):
        ref = TriggerRef("gmail", "new_email")
        assert ref.identity(1, "alice") != ref.identity(2, "alice")
        assert ref.identity(1, "alice") != ref.identity(1, "bob")
        other = TriggerRef("gmail", "new_email", {"folder": "work"})
        assert ref.identity(1, "alice") != other.identity(1, "alice")


class TestActionRefTemplating:
    def test_substitutes_ingredient(self):
        ref = ActionRef("sheets", "add_row", {"row": "got {{subject}}"})
        assert ref.resolve_fields({"subject": "hi"}) == {"row": "got hi"}

    def test_missing_ingredient_renders_blank(self):
        ref = ActionRef("sheets", "add_row", {"row": "{{nope}}!"})
        assert ref.resolve_fields({}) == {"row": "!"}

    def test_non_string_fields_pass_through(self):
        ref = ActionRef("hue", "set", {"brightness": 200})
        assert ref.resolve_fields({"x": 1}) == {"brightness": 200}

    def test_multiple_and_spaced_templates(self):
        ref = ActionRef("x", "y", {"s": "{{ a }}-{{b}}"})
        assert ref.resolve_fields({"a": "1", "b": "2"}) == {"s": "1-2"}

    @given(st.dictionaries(st.from_regex(r"[a-z_][a-z0-9_]{0,10}", fullmatch=True),
                           st.text(max_size=20), max_size=5))
    def test_templating_never_raises(self, ingredients):
        ref = ActionRef("x", "y", {"s": "pre {{key}} post", "n": 3})
        resolved = ref.resolve_fields(ingredients)
        assert resolved["n"] == 3
        assert resolved["s"].startswith("pre ")


class TestApplet:
    def test_enabled_by_default(self):
        applet = make_applet()
        assert applet.enabled
        applet.state = AppletState.DISABLED
        assert not applet.enabled

    def test_describe(self):
        assert make_applet().describe() == "gmail.new_email -> philips_hue.turn_on_lights"

    def test_trigger_identity_property(self):
        applet = make_applet(applet_id=7, user="carol")
        assert applet.trigger_identity == applet.trigger.identity(7, "carol")

    def test_slotted_with_the_dataclass_defaults(self):
        applet = make_applet()
        assert not hasattr(applet, "__dict__")
        assert (applet.author, applet.state, applet.executions) == (None, AppletState.ENABLED, 0)
        assert (applet.extra_actions, applet.queries, applet.filter_code) == ((), (), None)
        with pytest.raises(AttributeError):
            applet.nickname = "x"

    def test_equality_is_by_value(self):
        assert make_applet() == make_applet()
        assert make_applet() != make_applet(applet_id=2)
        changed = make_applet()
        changed.executions += 1
        assert changed != make_applet()
        assert make_applet() != "not an applet"
        with pytest.raises(TypeError):
            hash(make_applet())

    def test_repr(self):
        applet = make_applet(applet_id=7)
        assert repr(applet) == "<Applet #7 gmail.new_email -> philips_hue.turn_on_lights [enabled]>"

    def test_pickle_round_trip(self):
        applet = Applet(
            applet_id=9, name="both", user="dora",
            trigger=TriggerRef("gmail", "new_email", {"folder": "inbox"}),
            action=ActionRef("philips_hue", "turn_on_lights", {"lamp_id": "l1"}),
            author="maker", state=AppletState.DISABLED, executions=4,
            extra_actions=(ActionRef("sheets", "add_row"),),
            filter_code="trigger.n > 1",
        )
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(applet, protocol))
            assert copy == applet and copy is not applet
            assert repr(copy) == repr(applet)
            assert copy.state is AppletState.DISABLED


class TestOAuth:
    def test_full_flow(self):
        authority = OAuthAuthority("gmail")
        authority.register_user("alice", "pw")
        code = authority.authorize("alice", "pw")
        grant = authority.exchange(code)
        assert grant.user == "alice"
        assert authority.validate(grant.access_token)

    def test_bad_credentials_rejected(self):
        authority = OAuthAuthority("gmail")
        authority.register_user("alice", "pw")
        with pytest.raises(OAuthError):
            authority.authorize("alice", "wrong")
        with pytest.raises(OAuthError):
            authority.authorize("mallory", "pw")

    def test_code_single_use(self):
        authority = OAuthAuthority("gmail")
        authority.register_user("alice", "pw")
        code = authority.authorize("alice", "pw")
        authority.exchange(code)
        with pytest.raises(OAuthError):
            authority.exchange(code)


class TestPermissions:
    def _models(self):
        coarse = ServicePermissionModel()
        fine = PerEndpointPermissionModel()
        for model in (coarse, fine):
            model.register_service(
                "gmail",
                trigger_slugs=["new_email", "new_attachment"],
                action_slugs=["send_email"],
                extra_operations=["delete", "manage"],
            )
        return coarse, fine

    def test_coarse_grants_everything(self):
        coarse, _ = self._models()
        granted = coarse.grant_all_scopes("alice", "gmail")
        assert len(granted) == 5  # 2 triggers + 1 action + 2 extras
        assert coarse.granted("alice") == granted

    def test_fine_grants_only_needed(self):
        _, fine = self._models()
        applet = make_applet()
        applet = Applet(
            applet_id=1, name="t", user="alice",
            trigger=TriggerRef("gmail", "new_email"),
            action=ActionRef("gmail", "send_email"),
        )
        granted = fine.grant_for_applet(applet)
        assert trigger_scope("gmail", "new_email") in granted
        assert action_scope("gmail", "send_email") in granted
        assert len(granted) == 2

    def test_excess_privilege_quantified(self):
        coarse, fine = self._models()
        applet = Applet(
            applet_id=1, name="t", user="alice",
            trigger=TriggerRef("gmail", "new_email"),
            action=ActionRef("gmail", "send_email"),
        )
        coarse.grant_all_scopes("alice", "gmail")
        needed = required_scopes([applet])
        excess, ratio = excess_privilege(coarse.granted("alice"), needed)
        assert len(excess) == 3  # new_attachment read + delete + manage
        assert ratio == pytest.approx(3 / 5)

    def test_excess_with_nothing_granted(self):
        excess, ratio = excess_privilege(frozenset(), frozenset())
        assert excess == frozenset() and ratio == 0.0


class TestPollingPolicies:
    def test_production_bounds_and_variability(self):
        policy = ProductionPollingPolicy()
        rng = Rng(1)
        samples = [policy.next_interval(rng) for _ in range(2000)]
        assert min(samples) >= policy.minimum
        assert max(samples) > 3 * min(samples)  # highly variable

    def test_production_inflation_tail(self):
        policy = ProductionPollingPolicy(inflation_prob=1.0, inflation_min=5, inflation_max=5)
        base = ProductionPollingPolicy(inflation_prob=0.0)
        rng_a, rng_b = Rng(2), Rng(2)
        inflated_mean = sum(policy.next_interval(rng_a) for _ in range(500)) / 500
        plain_mean = sum(base.next_interval(rng_b) for _ in range(500)) / 500
        assert inflated_mean > 3 * plain_mean

    def test_production_validation(self):
        with pytest.raises(ValueError):
            ProductionPollingPolicy(median=-1)
        with pytest.raises(ValueError):
            ProductionPollingPolicy(inflation_prob=2.0)

    def test_fixed_policy(self):
        policy = FixedPollingPolicy(1.0)
        assert policy.next_interval(Rng(1)) == 1.0
        with pytest.raises(ValueError):
            FixedPollingPolicy(0.0)

    def test_clone_is_independent(self):
        policy = AdaptivePollingPolicy()
        clone = policy.clone()
        policy.observe_events(5)
        assert clone.activity == 0.0

    def test_adaptive_speeds_up_on_activity(self):
        policy = AdaptivePollingPolicy(fast=5.0, slow=300.0, jitter=0.0)
        rng = Rng(3)
        idle = policy.next_interval(rng)
        for _ in range(10):
            policy.observe_events(3)
        busy = policy.next_interval(rng)
        assert busy < idle / 5

    def test_adaptive_backs_off_when_idle(self):
        policy = AdaptivePollingPolicy(fast=5.0, slow=300.0, jitter=0.0)
        for _ in range(10):
            policy.observe_events(1)
        for _ in range(30):
            policy.observe_events(0)
        assert policy.next_interval(Rng(4)) > 200

    def test_adaptive_validation(self):
        with pytest.raises(ValueError):
            AdaptivePollingPolicy(fast=10, slow=5)
        with pytest.raises(ValueError):
            AdaptivePollingPolicy(ewma_alpha=0)
