"""Corpus data model: services, triggers, actions, applets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class TriggerRecord:
    """One trigger exposed by a service."""

    slug: str
    name: str
    service_slug: str
    created_week: int = 0


@dataclass
class ActionRecord:
    """One action exposed by a service."""

    slug: str
    name: str
    service_slug: str
    created_week: int = 0


@dataclass
class ServiceRecord:
    """One partner service in the ecosystem.

    ``category_index`` is the ground-truth Table 1 category assigned at
    generation time; the keyword classifier in
    :mod:`repro.analysis.classify` re-derives it from name/description,
    playing the paper's manual-classification role.
    """

    slug: str
    name: str
    description: str
    category_index: int
    created_week: int = 0
    triggers: List[TriggerRecord] = field(default_factory=list)
    actions: List[ActionRecord] = field(default_factory=list)

    @property
    def trigger_count(self) -> int:
        """Number of triggers the service exposes."""
        return len(self.triggers)

    @property
    def action_count(self) -> int:
        """Number of actions the service exposes."""
        return len(self.actions)


@dataclass
class AppletRecord:
    """One published applet as the crawler sees it.

    ``add_count`` is the final-snapshot install count; see
    :meth:`add_count_at` for the within-study interpolation used by
    earlier weekly snapshots.
    """

    applet_id: int
    name: str
    description: str
    trigger_slug: str
    trigger_service_slug: str
    action_slug: str
    action_service_slug: str
    author: str
    author_is_user: bool
    add_count: int
    created_week: int = 0

    def add_count_at(self, week: int, final_week: int) -> int:
        """Install count as of a study week.

        Applets existing before the study window ramp linearly from
        ``add_count / GROWTH`` to ``add_count``; applets created during
        the window ramp from 0 at their creation week.  The aggregate
        trajectory reproduces the measured +19% add-count growth.
        """
        if week >= final_week:
            return self.add_count
        if self.created_week > week:
            return 0
        if self.created_week <= 0:
            start = self.add_count / 1.19
            progress = week / final_week if final_week else 1.0
            return int(round(start + (self.add_count - start) * progress))
        age = week - self.created_week
        span = max(1, final_week - self.created_week)
        return int(round(self.add_count * age / span))


class Corpus:
    """The full ecosystem: services (with endpoints) and applets.

    Supports week-indexed views (what the crawler of week ``w`` can see)
    without materializing 25 separate corpora.
    """

    def __init__(self, final_week: int = 24) -> None:
        self.final_week = final_week
        self.services: Dict[str, ServiceRecord] = {}
        self.applets: Dict[int, AppletRecord] = {}

    # -- construction -------------------------------------------------------------

    def add_service(self, service: ServiceRecord) -> ServiceRecord:
        """Register a service; slug must be unique."""
        if service.slug in self.services:
            raise ValueError(f"duplicate service slug {service.slug!r}")
        self.services[service.slug] = service
        return service

    def add_applet(self, applet: AppletRecord) -> AppletRecord:
        """Register an applet; id must be unique."""
        if applet.applet_id in self.applets:
            raise ValueError(f"duplicate applet id {applet.applet_id}")
        self.applets[applet.applet_id] = applet
        return applet

    # -- week-indexed access ---------------------------------------------------------

    def services_at(self, week: Optional[int] = None) -> List[ServiceRecord]:
        """Services visible at a study week (all, when ``week`` is None)."""
        if week is None:
            return list(self.services.values())
        return [s for s in self.services.values() if s.created_week <= week]

    def applets_at(self, week: Optional[int] = None) -> List[AppletRecord]:
        """Applets visible at a study week."""
        if week is None:
            return list(self.applets.values())
        return [a for a in self.applets.values() if a.created_week <= week]

    def triggers_at(self, week: Optional[int] = None) -> List[TriggerRecord]:
        """Trigger records visible at a study week."""
        out: List[TriggerRecord] = []
        for service in self.services_at(week):
            for trigger in service.triggers:
                if week is None or trigger.created_week <= week:
                    out.append(trigger)
        return out

    def actions_at(self, week: Optional[int] = None) -> List[ActionRecord]:
        """Action records visible at a study week."""
        out: List[ActionRecord] = []
        for service in self.services_at(week):
            for action in service.actions:
                if week is None or action.created_week <= week:
                    out.append(action)
        return out

    def total_add_count(self, week: Optional[int] = None) -> int:
        """Sum of applet add counts at a study week."""
        if week is None:
            return sum(a.add_count for a in self.applets.values())
        return sum(
            a.add_count_at(week, self.final_week) for a in self.applets_at(week)
        )

    # -- lookups ------------------------------------------------------------------------

    def service(self, slug: str) -> ServiceRecord:
        """Service by slug."""
        return self.services[slug]

    def applet(self, applet_id: int) -> AppletRecord:
        """Applet by id."""
        return self.applets[applet_id]

    def applet_id_bounds(self) -> Tuple[int, int]:
        """Smallest and largest allocated applet id."""
        if not self.applets:
            return (0, 0)
        ids = self.applets.keys()
        return (min(ids), max(ids))

    def summary(self, week: Optional[int] = None) -> Dict[str, int]:
        """Headline counts (the §3.2 snapshot characterization)."""
        return {
            "services": len(self.services_at(week)),
            "triggers": len(self.triggers_at(week)),
            "actions": len(self.actions_at(week)),
            "applets": len(self.applets_at(week)),
            "add_count": self.total_add_count(week),
        }

    # -- persistence ----------------------------------------------------------------

    def save(self, path) -> None:
        """Serialize the corpus to a JSON file (the shareable dataset).

        Mirrors the paper's data release: the full services/endpoints/
        applets tables, reloadable with :meth:`load`.
        """
        import json
        from pathlib import Path

        payload = {
            "final_week": self.final_week,
            "services": [
                {
                    "slug": s.slug,
                    "name": s.name,
                    "description": s.description,
                    "category_index": s.category_index,
                    "created_week": s.created_week,
                    "triggers": [vars(t) for t in s.triggers],
                    "actions": [vars(a) for a in s.actions],
                }
                for s in self.services.values()
            ],
            "applets": [vars(a) for a in self.applets.values()],
        }
        Path(path).write_text(json.dumps(payload))

    @staticmethod
    def load(path) -> "Corpus":
        """Load a corpus previously written by :meth:`save`."""
        import json
        from pathlib import Path

        payload = json.loads(Path(path).read_text())
        corpus = Corpus(final_week=payload["final_week"])
        for raw in payload["services"]:
            service = ServiceRecord(
                slug=raw["slug"],
                name=raw["name"],
                description=raw["description"],
                category_index=raw["category_index"],
                created_week=raw["created_week"],
            )
            service.triggers = [TriggerRecord(**t) for t in raw["triggers"]]
            service.actions = [ActionRecord(**a) for a in raw["actions"]]
            corpus.add_service(service)
        for raw in payload["applets"]:
            corpus.add_applet(AppletRecord(**raw))
        return corpus

    def __repr__(self) -> str:
        return (
            f"<Corpus services={len(self.services)} applets={len(self.applets)} "
            f"adds={self.total_add_count()}>"
        )
