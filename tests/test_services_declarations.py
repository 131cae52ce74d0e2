"""The testbed's declared endpoints against the hand-written lambdas they replace.

``ORACLE`` holds, verbatim, the matcher and ingredient lambdas that
``services/official.py`` and ``services/custom.py`` spelled out before
their endpoints became declarations (``when`` / ``project`` / named
one-endpoint functions).  Hypothesis draws events and identity fields —
``on`` across ``True``/``False``/``1``/``0``/``1.0``/``None``/missing,
narrowing fields absent, ``""``, equal or unequal — and every trigger
endpoint of a built :class:`~repro.testbed.testbed.Testbed` must agree
with its oracle: the same result compared with ``==`` (ingredients in the
same key order), or the same exception type.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.services.endpoints import project, when
from repro.testbed import Testbed, TestbedConfig


def _match_all(event, fields):
    return True


# (service slug, trigger slug) -> (matcher, ingredients), copied verbatim.
ORACLE = {
    ("philips_hue", "light_turned_on"): (
        lambda event, fields: event.get("on") is True
        and (not fields.get("lamp_id") or fields["lamp_id"] == event.get("lamp_id")),
        lambda event: {"lamp_id": event.get("lamp_id", "")},
    ),
    ("philips_hue", "light_turned_off"): (
        lambda event, fields: event.get("on") is False
        and (not fields.get("lamp_id") or fields["lamp_id"] == event.get("lamp_id")),
        lambda event: {"lamp_id": event.get("lamp_id", "")},
    ),
    ("wemo", "switch_activated"): (
        lambda event, fields: event.get("on") is True
        and (not fields.get("device_id") or fields["device_id"] == event.get("device_id")),
        lambda event: {"device_id": event.get("device_id", "")},
    ),
    ("wemo", "switch_deactivated"): (
        lambda event, fields: event.get("on") is False
        and (not fields.get("device_id") or fields["device_id"] == event.get("device_id")),
        lambda event: {"device_id": event.get("device_id", "")},
    ),
    ("amazon_alexa", "say_phrase"): (
        lambda event, fields: event.get("intent") == "say_phrase"
        and (not fields.get("phrase") or fields["phrase"] == event.get("phrase")),
        lambda event: {"phrase": event.get("phrase", "")},
    ),
    ("amazon_alexa", "todo_item_added"): (
        lambda event, fields: event.get("intent") == "todo_item_added",
        lambda event: {"item": event.get("item", "")},
    ),
    ("amazon_alexa", "shopping_item_added"): (
        lambda event, fields: event.get("intent") == "shopping_item_added",
        lambda event: {"item": event.get("item", "")},
    ),
    ("amazon_alexa", "shopping_list_asked"): (
        lambda event, fields: event.get("intent") == "shopping_list_asked",
        lambda event: {},
    ),
    ("amazon_alexa", "song_played"): (
        lambda event, fields: event.get("intent") == "song_played",
        lambda event: {"song": event.get("song", "")},
    ),
    ("gmail", "new_email"): (
        _match_all,
        lambda event: {
            "subject": event.get("subject", ""),
            "from": event.get("from", ""),
            "body": event.get("body", ""),
        },
    ),
    ("gmail", "new_attachment"): (
        lambda event, fields: bool(event.get("attachments")),
        lambda event: {
            "subject": event.get("subject", ""),
            "from": event.get("from", ""),
            "attachments": list(event.get("attachments", [])),
            "attachment": (event.get("attachments") or [""])[0],
        },
    ),
    ("google_sheets", "new_row"): (
        lambda event, fields: not fields.get("sheet")
        or fields["sheet"] == event.get("sheet"),
        lambda event: {"sheet": event.get("sheet", ""), "row": event.get("row", 0)},
    ),
    ("nest_thermostat", "temperature_rises_above"): (
        lambda event, fields: event.get("key") == "ambient_c"
        and float(event.get("value", 0.0)) > float(fields.get("threshold_c", 1e9)),
        lambda event: {"temperature_c": event.get("value")},
    ),
    ("nest_thermostat", "temperature_drops_below"): (
        lambda event, fields: event.get("key") == "ambient_c"
        and float(event.get("value", 1e9)) < float(fields.get("threshold_c", -1e9)),
        lambda event: {"temperature_c": event.get("value")},
    ),
    ("smartthings", "device_state_changed"): (
        lambda event, fields: not fields.get("device_id")
        or fields["device_id"] == event.get("device_id"),
        lambda event: {
            "device_id": event.get("device_id", ""),
            "key": event.get("key", ""),
            "value": event.get("value"),
        },
    ),
    ("weather", "rain_starts"): (
        lambda event, fields: event.get("condition") == "rain",
        lambda event: {"location": event.get("location", "")},
    ),
    ("weather", "condition_changes"): (
        _match_all,
        lambda event: {
            "location": event.get("location", ""),
            "condition": event.get("condition", ""),
        },
    ),
    ("our_service", "wemo_activated"): (
        lambda event, fields: event.get("kind") == "wemo_switch"
        and event.get("on") is True,
        lambda event: {"device_id": event.get("device_id", "")},
    ),
    ("our_service", "wemo_deactivated"): (
        lambda event, fields: event.get("kind") == "wemo_switch"
        and event.get("on") is False,
        lambda event: {"device_id": event.get("device_id", "")},
    ),
    ("our_service", "hue_light_on"): (
        lambda event, fields: event.get("kind") == "hue_lamp"
        and event.get("on") is True,
        lambda event: {"lamp_id": event.get("device_id", "")},
    ),
    ("our_service", "alexa_phrase"): (
        lambda event, fields: event.get("intent") == "say_phrase"
        and (not fields.get("phrase") or fields["phrase"] == event.get("phrase")),
        lambda event: {"phrase": event.get("phrase", "")},
    ),
    ("our_service", "alexa_song_played"): (
        lambda event, fields: event.get("intent") == "song_played",
        lambda event: {"song": event.get("song", "")},
    ),
    ("our_service", "gmail_new_email"): (
        _match_all,
        lambda event: {
            "subject": event.get("subject", ""),
            "from": event.get("from", ""),
        },
    ),
    ("our_service", "gmail_new_attachment"): (
        lambda event, fields: bool(event.get("attachments")),
        lambda event: {
            "subject": event.get("subject", ""),
            "attachments": list(event.get("attachments", [])),
            "attachment": (event.get("attachments") or [""])[0],
        },
    ),
}

#: Every constant the oracles compare against, so draws hit them often.
WORDS = ("", "a", "b", "lamp1", "wemo1", "rain", "clear", "ambient_c", "wemo_switch",
         "hue_lamp", "say_phrase", "song_played", "todo_item_added", "shopping_item_added",
         "shopping_list_asked", "light off", "songs")
SCALARS = st.one_of(st.sampled_from(WORDS), st.integers(-3, 40), st.none(),
                    st.floats(-50, 50, allow_nan=False))
ON = st.sampled_from([True, False, 1, 0, 1.0, None])
ATTACHMENTS = st.one_of(st.lists(st.sampled_from(WORDS), max_size=3),
                        st.tuples(st.sampled_from(WORDS)), st.none())
EVENT_KEYS = ("kind", "lamp_id", "device_id", "intent", "phrase", "item", "song", "subject",
              "from", "body", "sheet", "row", "key", "value", "condition", "location", "id")
FIELD_KEYS = ("lamp_id", "device_id", "phrase", "sheet", "threshold_c")

EVENTS = st.fixed_dictionaries(
    {},
    optional={"on": ON, "attachments": ATTACHMENTS, **{key: SCALARS for key in EVENT_KEYS}},
)
FIELDS = st.fixed_dictionaries({}, optional={key: SCALARS for key in FIELD_KEYS})


def outcome(fn, *args):
    """What ``fn(*args)`` did: its value (a dict as its items, in order)
    or the type of what it raised."""
    try:
        value = fn(*args)
    except Exception as exc:  # the oracle raising is an outcome too
        return ("raised", type(exc))
    return ("returned", list(value.items()) if isinstance(value, dict) else value)


@pytest.fixture(scope="module")
def testbed():
    """The official services plus Our Service with Gmail, Sheets and Drive connected."""
    return Testbed(TestbedConfig(seed=5)).build()


def declared_triggers(testbed):
    return {
        (service.slug, slug): service.trigger(slug)
        for service in testbed.all_services()
        for slug in service.trigger_slugs
    }


class TestAgainstTheOracle:
    def test_every_trigger_has_an_oracle(self, testbed):
        assert set(declared_triggers(testbed)) == set(ORACLE)

    @settings(max_examples=400, deadline=None)
    @given(event=EVENTS, fields=FIELDS)
    def test_declarations_agree_with_the_lambdas(self, testbed, event, fields):
        for key, endpoint in declared_triggers(testbed).items():
            matcher, ingredients = ORACLE[key]
            assert outcome(endpoint.matcher, event, fields) == outcome(matcher, event, fields), key
            assert outcome(endpoint.ingredients, event) == outcome(ingredients, event), key

    @pytest.mark.parametrize("on", [1, 0, 1.0, 0.0, None, "yes"])
    def test_a_bool_constant_matches_by_identity(self, on):
        assert not when(on=True)({"on": on}, {})
        assert not when(on=False)({"on": on}, {})
        assert when(on=True)({"on": True}, {}) and when(on=False)({"on": False}, {})

    def test_narrowing_is_skipped_for_an_absent_or_empty_field(self):
        matcher = when(intent="say_phrase", narrow_by="phrase")
        event = {"intent": "say_phrase", "phrase": "hi"}
        assert matcher(event, {}) and matcher(event, {"phrase": ""})
        assert matcher(event, {"phrase": "hi"}) and not matcher(event, {"phrase": "bye"})

    def test_project_names_then_renames_in_order(self):
        extract = project("b", "a", lamp_id="device_id")
        assert list(extract({"a": 1, "device_id": "l"}).items()) == [
            ("b", ""), ("a", 1), ("lamp_id", "l")
        ]


class TestPicklable:
    def test_trigger_and_query_endpoints_pickle_without_their_service(self, testbed):
        endpoints = 0
        for service in testbed.all_services():
            declared = [service.trigger(slug) for slug in service.trigger_slugs]
            declared += list(service._queries.values())
            for endpoint in declared:
                data = pickle.dumps(endpoint)
                assert type(service).__name__.encode() not in data, (service.slug, endpoint.slug)
                assert pickle.loads(data).slug == endpoint.slug
                endpoints += 1
        assert endpoints == len(ORACLE) + 2  # two queries: row_count, current_conditions

    def test_vocabulary_round_trips_by_value(self):
        for declared in (when(on=True, narrow_by="lamp_id"), project("photo", lamp_id="device_id")):
            assert pickle.loads(pickle.dumps(declared)) == declared
