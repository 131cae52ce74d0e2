"""Permission management.

§6 ("Permission Management"): *"IFTTT performs coarse-grained permission
control at the service level: for a service involved in any trigger or
action installed by the user, IFTTT will need all permissions of the
service.  For example, installing an applet with the trigger 'new email
arrives' requires permissions for reading, deleting, sending, and
managing emails ... the 'least privilege principle' is violated."*

Two models are implemented:

* :class:`ServicePermissionModel` — production IFTTT: connecting a
  service grants the user's token every scope the service defines.
* :class:`PerEndpointPermissionModel` — the recommended alternative:
  grants only the scopes required by the endpoints actually used by the
  user's installed applets.

:func:`excess_privilege` quantifies the gap between the two — §6's
ablation (``tests/test_paper_fidelity.py``) checks it on the Table 4 mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Set, Tuple

from repro.engine.applet import Applet


@dataclass(frozen=True, order=True)
class Scope:
    """One grantable permission: an operation on a service's resource.

    Trigger endpoints require their ``read:`` scope; action endpoints
    their ``write:`` scope.  Services may define extra scopes (Gmail's
    ``delete``/``manage``) that nothing on IFTTT needs but the coarse
    model grants anyway.
    """

    service_slug: str
    operation: str

    def __str__(self) -> str:
        return f"{self.service_slug}:{self.operation}"


def trigger_scope(service_slug: str, trigger_slug: str) -> Scope:
    """The scope a trigger endpoint requires."""
    return Scope(service_slug, f"read:{trigger_slug}")


def action_scope(service_slug: str, action_slug: str) -> Scope:
    """The scope an action endpoint requires."""
    return Scope(service_slug, f"write:{action_slug}")


class _ScopeRegistry:
    """Shared bookkeeping of each service's full scope universe."""

    def __init__(self) -> None:
        self._service_scopes: Dict[str, Set[Scope]] = {}

    def register_service(
        self,
        slug: str,
        trigger_slugs: Iterable[str],
        action_slugs: Iterable[str],
        extra_operations: Iterable[str] = (),
    ) -> None:
        """Declare a service's scope universe (idempotent re-registration)."""
        scopes: Set[Scope] = set()
        for trigger in trigger_slugs:
            scopes.add(trigger_scope(slug, trigger))
        for action in action_slugs:
            scopes.add(action_scope(slug, action))
        for operation in extra_operations:
            scopes.add(Scope(slug, operation))
        self._service_scopes[slug] = scopes

    def service_scopes(self, slug: str) -> FrozenSet[Scope]:
        """The full scope universe of one service."""
        return frozenset(self._service_scopes.get(slug, ()))


class ServicePermissionModel(_ScopeRegistry):
    """Coarse service-level grants (production IFTTT)."""

    def __init__(self) -> None:
        super().__init__()
        self._grants: Dict[str, Set[Scope]] = {}

    def grant_all_scopes(self, user: str, service_slug: str) -> FrozenSet[Scope]:
        """Connecting a service grants *every* scope it defines."""
        scopes = self.service_scopes(service_slug)
        self._grants.setdefault(user, set()).update(scopes)
        return scopes

    def granted(self, user: str) -> FrozenSet[Scope]:
        """All scopes currently granted to a user's tokens."""
        return frozenset(self._grants.get(user, ()))


class PerEndpointPermissionModel(_ScopeRegistry):
    """Fine-grained grants: only what installed applets actually need."""

    def __init__(self) -> None:
        super().__init__()
        self._grants: Dict[str, Set[Scope]] = {}

    def grant_for_applet(self, applet: Applet) -> FrozenSet[Scope]:
        """Grant exactly the trigger-read and action-write scopes."""
        needed = frozenset(
            {
                trigger_scope(applet.trigger.service_slug, applet.trigger.trigger_slug),
                action_scope(applet.action.service_slug, applet.action.action_slug),
            }
        )
        self._grants.setdefault(applet.user, set()).update(needed)
        return needed

    def granted(self, user: str) -> FrozenSet[Scope]:
        """All scopes granted to the user under the fine-grained model."""
        return frozenset(self._grants.get(user, ()))


def required_scopes(applets: Iterable[Applet]) -> FrozenSet[Scope]:
    """The minimal scope set a collection of applets needs."""
    needed: Set[Scope] = set()
    for applet in applets:
        needed.add(trigger_scope(applet.trigger.service_slug, applet.trigger.trigger_slug))
        needed.add(action_scope(applet.action.service_slug, applet.action.action_slug))
    return frozenset(needed)


def excess_privilege(
    granted: FrozenSet[Scope], required: FrozenSet[Scope]
) -> Tuple[FrozenSet[Scope], float]:
    """Scopes granted beyond need, and the excess ratio.

    Returns ``(excess_set, ratio)`` where ratio is ``|excess| / |granted|``
    (0.0 when nothing is granted).
    """
    excess = frozenset(granted - required)
    ratio = len(excess) / len(granted) if granted else 0.0
    return excess, ratio
