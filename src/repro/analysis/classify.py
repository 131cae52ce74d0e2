"""Keyword-based service classification.

"For each service, we examine its service description, trigger list,
action list, and its external website if needed.  We then classify the
service into one of the 13 categories ... based on our domain knowledge.
Given the number of services is moderate (~400), the classification was
done manually to ensure its accuracy." (§3.2)

Manual classification is replaced by a transparent keyword scorer over
the same evidence (name, description, trigger/action names).  Ground
truth lives in the generator, so ``tests/test_analysis.py`` measures the
classifier's accuracy directly — it must stay high for the Table 1
reproduction to be meaningful.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.crawler.snapshot import CrawledService

#: Per-category keyword lists (lowercase).  Order matters only for ties.
_KEYWORDS: Dict[int, Tuple[str, ...]] = {
    1: ("light", "lamp", "camera", "thermostat", "lock", "switch", "plug",
        "doorbell", "garage", "sensor", "sprinkler", "blinds", "vacuum",
        "fridge", "egg", "alexa", "echo", "speaker", "smoke", "alarm", "bulb",
        "motion", "hue", "lifx", "wemo", "nest", "assistant"),
    2: ("hub", "smartthings", "home control", "bridge", "integration",
        "scene", "station", "harmony"),
    3: ("watch", "band", "tracker", "fitness", "wearable", "sleep", "workout",
        "steps", "fitbit", "jawbone", "activity"),
    4: ("car", "vehicle", "ignition", "fuel", "drive ", "automatic", "bmw"),
    5: ("phone", "android", "battery", "nfc", "wallpaper", "ringtone", "ios",
        "call ended", "device"),
    6: ("storage", "file", "backup", "upload", "folder", "vault", "dropbox",
        "document"),
    7: ("weather", "news", "stock", "sports", "video", "deals", "space",
        "story", "article", "forecast", "score", "channel", "picture of the day"),
    8: ("rss", "feed", "digest", "recommendation"),
    9: ("note", "reminder", "todo", "to-do", "calendar", "task", "journal",
        "list", "spreadsheet", "row", "sheet"),
    10: ("social", "photo", "blog", "share", "post", "tweet", "status",
         "follower", "tagged", "instagram", "facebook", "twitter", "moments",
         "stream"),
    11: ("sms", "message", "chat", "voip", "team", "messenger", "slack",
         "skype", "channel post"),
    12: ("time", "location", "geofence", "sunrise", "every day", "area",
         "date"),
    13: ("email", "mail", "inbox", "attachment", "gmail"),
    14: ("tool", "utility", "webhook", "labs", "box", "misc"),
}

#: Categories whose keywords are high-precision: a name hit decides.
_NAME_WEIGHT = 4.0
_ENDPOINT_WEIGHT = 1.0
_DESCRIPTION_WEIGHT = 2.0


class ServiceClassifier:
    """Scores a service's text evidence against category vocabularies."""

    def __init__(self, keywords: Dict[int, Tuple[str, ...]] = _KEYWORDS) -> None:
        self.keywords = keywords

    def classify(self, service: CrawledService) -> int:
        """The best-scoring Table 1 category index for a crawled service."""
        name = service.name.lower()
        description = service.description.lower()
        endpoints = " ".join(
            entry["name"].lower()
            for entry in list(service.triggers) + list(service.actions)
        )
        scores = {index: 0.0 for index in self.keywords}
        for index, words in self.keywords.items():
            for word in words:
                if word in name:
                    scores[index] += _NAME_WEIGHT * len(word.split())
                if word in description:
                    scores[index] += _DESCRIPTION_WEIGHT * len(word.split())
                scores[index] += _ENDPOINT_WEIGHT * endpoints.count(word)
        best = max(scores, key=lambda index: (scores[index], -index))
        if scores[best] == 0:
            return 14  # Other
        return best

    def classify_all(self, services: Iterable[CrawledService]) -> Dict[str, int]:
        """Category index per service slug."""
        return {service.slug: self.classify(service) for service in services}

    def accuracy(self, services: Iterable[CrawledService], truth: Dict[str, int]) -> float:
        """Fraction of services classified into their ground-truth category."""
        services = list(services)
        if not services:
            raise ValueError("no services to classify")
        hits = sum(
            1 for service in services if self.classify(service) == truth.get(service.slug)
        )
        return hits / len(services)
