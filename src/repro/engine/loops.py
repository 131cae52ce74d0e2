"""Infinite-loop analysis.

§4 ("Infinite Loop") observes that chained applets can form loops — *"A
triggers B, which further triggers A"* — that production IFTTT does not
detect ("no syntax check is performed"), and that loops can also be
*implicit*: closed through an automation IFTTT cannot see, like Google
Sheets' notify-on-edit feature emailing the user whose inbox feeds an
email-to-spreadsheet applet.  §4 concludes offline analysis cannot catch
implicit loops, so "some runtime detection techniques are needed".

This module provides both halves:

* :class:`StaticLoopAnalyzer` — builds the applet channel graph (which
  actions write the channels which triggers read) and finds cycles.  It
  catches explicit loops; implicit loops are only caught if the external
  automation is declared via :meth:`~StaticLoopAnalyzer.add_external_edge`
  — exactly the paper's point that IFTTT, being unaware of the Sheets
  notification, "cannot detect the loop by analyzing the applets offline".
* :class:`RuntimeLoopDetector` — the recommended runtime technique: a
  per-applet execution rate limit that catches both loop kinds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.engine.applet import Applet
from repro.services.endpoints import Channel
from repro.services.partner import PartnerService

#: The runtime detector's rate limit: more than ``LOOP_THRESHOLD``
#: executions of one applet within ``LOOP_WINDOW`` seconds flags a loop.
#: A §4 loop cycles once per poll round (~minutes), so the window is
#: long: more than 4 executions in 30 simulated minutes is far beyond
#: any legitimate email-to-spreadsheet usage.
LOOP_THRESHOLD = 4
LOOP_WINDOW = 1800.0


@dataclass(frozen=True)
class LoopFinding:
    """One detected loop: the applet cycle and the channels that close it."""

    applets: Tuple[Applet, ...]
    channels: Tuple[Channel, ...]

    def describe(self) -> str:
        """Human-readable cycle, e.g. ``#1 a->b  ->  #2 b->a``."""
        return "  ->  ".join(f"#{a.applet_id} {a.describe()}" for a in self.applets)


class StaticLoopAnalyzer:
    """Offline cycle detection over the applet channel graph.

    Parameters
    ----------
    services:
        Published services by slug (the analyzer asks each endpoint for
        its read/written channels given the applet's fields).
    """

    def __init__(self, services: Dict[str, PartnerService]) -> None:
        self._services = services
        #: channel -> channels it propagates to via declared external automations
        self._external: Dict[Channel, Set[Channel]] = {}

    def add_external_edge(self, source: Channel, target: Channel) -> None:
        """Declare a non-IFTTT automation: writes to ``source`` mutate ``target``.

        E.g. the Sheets notification feature:
        ``add_external_edge(("sheets", "log"), ("gmail_inbox", "alice@gmail"))``.
        """
        self._external.setdefault(source, set()).add(target)

    # -- channel plumbing ------------------------------------------------------------

    def action_channels(self, applet: Applet) -> FrozenSet[Channel]:
        """Channels (including external propagation) the applet's action affects."""
        service = self._services.get(applet.action.service_slug)
        if service is None:
            return frozenset()
        try:
            direct = service.action_channels(applet.action.action_slug, applet.action.fields)
        except KeyError:
            return frozenset()
        return self._propagate(direct)

    def trigger_channels(self, applet: Applet) -> FrozenSet[Channel]:
        """Channels whose mutation can fire the applet's trigger."""
        service = self._services.get(applet.trigger.service_slug)
        if service is None:
            return frozenset()
        try:
            return frozenset(service.trigger_channels(applet.trigger.trigger_slug, applet.trigger.fields))
        except KeyError:
            return frozenset()

    def _propagate(self, channels: FrozenSet[Channel]) -> FrozenSet[Channel]:
        """Transitive closure through declared external automations."""
        closure: Set[Channel] = set(channels)
        frontier = list(channels)
        while frontier:
            channel = frontier.pop()
            for target in self._external.get(channel, ()):
                if target not in closure:
                    closure.add(target)
                    frontier.append(target)
        return frozenset(closure)

    def feeds(self, upstream: Applet, downstream: Applet) -> FrozenSet[Channel]:
        """Channels through which ``upstream``'s action can fire ``downstream``."""
        return self.action_channels(upstream) & self.trigger_channels(downstream)

    # -- cycle detection ----------------------------------------------------------------

    def find_cycles(self, applets: Sequence[Applet]) -> List[LoopFinding]:
        """All elementary applet cycles among ``applets``.

        Uses iterative DFS with an on-stack set; each cycle is reported
        once, rooted at its smallest applet id.
        """
        edges: Dict[int, List[Tuple[int, FrozenSet[Channel]]]] = {a.applet_id: [] for a in applets}
        by_id = {a.applet_id: a for a in applets}
        for upstream in applets:
            for downstream in applets:
                shared = self.feeds(upstream, downstream)
                if shared:
                    edges[upstream.applet_id].append((downstream.applet_id, shared))
        findings: List[LoopFinding] = []
        seen_cycles: Set[Tuple[int, ...]] = set()

        def dfs(root: int) -> None:
            stack: List[Tuple[int, List[int]]] = [(root, [root])]
            while stack:
                node, path = stack.pop()
                for successor, shared in edges.get(node, ()):
                    if successor == root:
                        cycle = tuple(path)
                        canonical = self._canonical(cycle)
                        if canonical not in seen_cycles and min(cycle) == root:
                            seen_cycles.add(canonical)
                            findings.append(
                                LoopFinding(
                                    applets=tuple(by_id[i] for i in cycle),
                                    channels=tuple(sorted(shared)),
                                )
                            )
                    elif successor not in path and successor > root:
                        stack.append((successor, path + [successor]))

        for applet_id in sorted(edges):
            dfs(applet_id)
        return findings

    @staticmethod
    def _canonical(cycle: Tuple[int, ...]) -> Tuple[int, ...]:
        pivot = cycle.index(min(cycle))
        return cycle[pivot:] + cycle[:pivot]


class RuntimeLoopDetector:
    """Execution-rate loop detection (the §4/§6 recommendation).

    Flags an applet whose action executes more than :data:`LOOP_THRESHOLD`
    times within any sliding :data:`LOOP_WINDOW` seconds.  Rate-based
    detection is loop-kind agnostic: it catches explicit chains and
    implicit loops closed outside IFTTT equally, at the cost of also
    flagging any legitimately hyperactive applet.
    """

    def __init__(self) -> None:
        self._executions: Dict[int, Deque[float]] = {}
        self.flagged: Set[int] = set()

    def observe(self, applet_id: int, now: float) -> bool:
        """Record one execution; returns True if the applet trips the limit."""
        history = self._executions.setdefault(applet_id, deque())
        history.append(now)
        while history and history[0] < now - LOOP_WINDOW:
            history.popleft()
        if len(history) > LOOP_THRESHOLD:
            self.flagged.add(applet_id)
            return True
        return False

    def rate(self, applet_id: int) -> int:
        """Executions currently inside the applet's sliding window."""
        return len(self._executions.get(applet_id, ()))

    def reset(self, applet_id: int) -> None:
        """Clear an applet's history and flag (after manual intervention)."""
        self._executions.pop(applet_id, None)
        self.flagged.discard(applet_id)
