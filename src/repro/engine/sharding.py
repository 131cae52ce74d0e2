"""Multi-engine sharding: partition the applet corpus across N engines.

The paper measures one centralized engine; the production-scale system
this repo grows toward partitions applets across ``N``
:class:`~repro.engine.engine.IftttEngine` instances so a shard-local
outage (an open breaker, a retry storm, a dead-lettering burst) cannot
stall the rest of the fleet.  :class:`ShardedEngine` is the coordinator:

* **assignment** — applets map to shards by one of the strategies in
  :data:`~repro.engine.config.SHARD_STRATEGIES`.  The default,
  ``service_hash``, hashes the *trigger service* with a seed-stable CRC32
  (:func:`stable_service_hash`), so every poll for one service lands on
  one shard and per-service batching keeps working.  ``round_robin``
  spreads applets individually (a no-affinity baseline), and
  ``popularity_balanced`` sticks each newly seen trigger service to the
  currently least-loaded shard — taming the heavy-tailed applet
  popularity that makes naive hashing skew hot shards.
* **isolation** — every shard is a full engine with its *own*
  per-service circuit breakers, retry queues, dead-letter sink, RNG fork
  (``rng.fork("shard<i>")``), delivery health trackers
  (:mod:`repro.engine.delivery` — one shard's brownout stretch never
  slows another shard's polls), and metrics namespace
  (``engine.shard<i>.*``).  Nothing mutable is shared between shards;
  ``tests/test_sharding.py`` holds regression tests for exactly that.
* **accounting** — :meth:`ShardedEngine.stats` sums shard counters into
  fleet totals, and the conservation invariant
  ``dispatched == delivered + in_retry + dead_lettered + in_replay`` is
  checkable both per shard (:meth:`conservation`) and fleet-wide,
  because it holds shard-locally and counters add.
* **replay** — dead-letter replay (:mod:`repro.engine.replay`) stays
  shard-local: each shard's :class:`~repro.engine.replay.ReplayController`
  drains only its own sink, and :meth:`ShardedEngine.replay_dead_letters`
  fans the explicit trigger out to every shard.  Its
  ``engine.shard<i>.replay.*`` metric families fold into fleet-wide
  ``engine.replay.*`` by the same snapshot algebra as every other
  engine metric — :func:`shard_snapshot` rebases on prefix, so new
  families need no special casing.
* **snapshot algebra** — :func:`shard_snapshot` rebases one shard's
  ``engine.shard<i>.*`` metrics onto the unsharded ``engine.*`` names,
  and :func:`merged_fleet_snapshot` folds all shards into fleet totals
  with :func:`~repro.obs.metrics.merge_snapshots` (commutative, so
  shard order never matters).

See ``docs/SHARDING.md`` for the full semantics and the chaos-isolation
experiments built on top (:mod:`repro.testbed.chaos`).
"""

from __future__ import annotations

import copy
import itertools
import re
import zlib
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.applet import Applet, ActionRef, QueryRef, TriggerRef
from repro.engine.config import EngineConfig, SHARD_STRATEGIES
from repro.engine.engine import IftttEngine
from repro.engine.oauth import OAuthAuthority
from repro.engine.resilience import DeadLetter, conservation_residual
from repro.net.address import Address
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.services.partner import PartnerService
from repro.simcore.rng import Rng
from repro.simcore.trace import Trace

#: Disjoint applet-id ranges per shard: shard ``i`` allocates ids from
#: ``100000 + i * stride``.  This is the *floor* stride; a fleet built
#: with ``expected_applets`` derives a stride wide enough for its whole
#: corpus to land on one shard (the worst-case hash skew), and every
#: shard engine enforces its range with
#: :class:`~repro.engine.engine.AppletIdRangeError` instead of silently
#: bleeding into its neighbour's ids.
APPLET_ID_STRIDE = 100000


def derive_applet_id_stride(expected_applets: Optional[int]) -> int:
    """The per-shard applet-id range width for a corpus of the given size.

    The next power of ten at or above ``expected_applets`` (floored at
    :data:`APPLET_ID_STRIDE`): under ``service_hash`` a heavy-tailed
    corpus can land almost entirely on one shard, so the stride must
    cover the *whole* corpus, not ``corpus / num_shards``.  Powers of
    ten keep shard ids readable (``engine_for`` is a subtraction away).
    """
    stride = APPLET_ID_STRIDE
    if expected_applets is not None:
        while stride < expected_applets:
            stride *= 10
    return stride

#: Each shard engine's host; ``{shard}`` is the shard index.
DEFAULT_HOST_PATTERN = "engine{shard}.ifttt.cloud"

_SHARD_METRIC_RE = re.compile(r"^engine\.shard(\d+)\.")


def stable_service_hash(slug: str) -> int:
    """A deterministic, process- and seed-stable hash of a service slug.

    Python's builtin ``hash`` is salted per process (``PYTHONHASHSEED``),
    so it would silently break replayability; CRC32 of the UTF-8 slug is
    stable everywhere and cheap.
    """
    return zlib.crc32(slug.encode("utf-8")) & 0xFFFFFFFF


class ShardedEngine:
    """Coordinator that partitions applets across N shard engines.

    Mirrors the :class:`~repro.engine.engine.IftttEngine` lifecycle API
    (publish / connect / install / enable / disable / uninstall) and
    routes each call to the owning shard, so testbeds can swap one for
    the other.  Typical wiring::

        fleet = ShardedEngine(network, config=EngineConfig(), num_shards=4,
                              rng=rng.fork("engine"), trace=trace)
        fleet.publish_service(hue)
        fleet.connect_service("alice", hue, authority, "pw")
        applet = fleet.install_applet("alice", "rain -> blue", trig, act)
        fleet.engine_for(applet.applet_id)   # the owning shard

    (``__test__`` opts the class out of pytest collection.)
    """

    __test__ = False

    def __init__(
        self,
        network,
        config: Optional[EngineConfig] = None,
        rng: Optional[Rng] = None,
        trace: Optional[Trace] = None,
        num_shards: int = 1,
        shard_strategy: str = "service_hash",
        service_time: float = 0.01,
        expected_applets: Optional[int] = None,
        applet_id_stride: Optional[int] = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.num_shards = num_shards
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        self.strategy = shard_strategy
        if self.strategy not in SHARD_STRATEGIES:
            raise ValueError(
                f"unknown shard strategy {self.strategy!r}; "
                f"expected one of {SHARD_STRATEGIES}"
            )
        # `network` is either one shared Network (the classic single-sim
        # fleet) or one Network per shard (epoch-stepped worlds on a
        # ShardedSimulator, where each shard's nodes live on its own
        # simulator — see repro.simcore.parallel and docs/SHARDING.md).
        if isinstance(network, (list, tuple)):
            if len(network) != self.num_shards:
                raise ValueError(
                    f"got {len(network)} shard networks for "
                    f"{self.num_shards} shards"
                )
            self.networks = list(network)
            self.network = None
        else:
            self.networks = [network] * self.num_shards
            self.network = network
        #: Width of each shard's disjoint applet-id range; ids are
        #: enforced against it at install time (AppletIdRangeError).
        self.applet_id_stride = (
            applet_id_stride
            if applet_id_stride is not None
            else derive_applet_id_stride(expected_applets)
        )
        if self.applet_id_stride < 1:
            raise ValueError(
                f"applet_id_stride must be >= 1, got {self.applet_id_stride}"
            )
        self.rng = rng or Rng(seed=0, name="sharded-engine")
        self.trace = trace
        self.shards: List[IftttEngine] = []
        for index in range(self.num_shards):
            # Each shard gets its own config copy with a cloned polling
            # prototype, its own named RNG fork, a disjoint applet-id
            # range, and the engine.shard<i> metrics namespace — no
            # mutable state crosses shard boundaries.  (The copy keeps the
            # prototype one object per shard even where clone() is the
            # policy itself; a shard's applets then share their shard's.)
            shard_config = replace(
                self.config,
                poll_policy=copy.copy(self.config.poll_policy.clone()),
            )
            shard = IftttEngine(
                Address(DEFAULT_HOST_PATTERN.format(shard=index)),
                config=shard_config,
                rng=self.rng.fork(f"shard{index}"),
                trace=trace,
                service_time=service_time,
                metrics_namespace=f"engine.shard{index}",
                applet_id_start=100000 + index * self.applet_id_stride,
                applet_id_limit=self.applet_id_stride,
            )
            self.networks[index].add_node(shard)
            self.shards.append(shard)
        #: Sticky trigger-service -> shard assignment (service_hash and
        #: popularity_balanced; round_robin assigns per applet).
        self._service_shard: Dict[str, int] = {}
        self._shard_loads: List[int] = [0] * self.num_shards
        self._applet_shard: Dict[int, int] = {}
        self._published: Dict[str, Tuple[PartnerService, Dict[int, str]]] = {}
        self._rr_counter = itertools.count()

    # -- assignment --------------------------------------------------------------

    def shard_for_trigger_service(self, slug: str) -> int:
        """The shard that owns (or would own) a trigger service's polls.

        Sticky once decided: every applet triggered by ``slug`` lands on
        the same shard, so its polls batch on one engine.  Under
        ``round_robin`` no shard owns a service; this returns the
        hash-preferred shard as a best-effort answer without pinning.
        """
        assigned = self._service_shard.get(slug)
        if assigned is not None:
            return assigned
        if self.strategy == "round_robin":
            return stable_service_hash(slug) % self.num_shards
        if self.strategy == "popularity_balanced":
            shard = min(range(self.num_shards), key=lambda i: (self._shard_loads[i], i))
        else:  # service_hash
            shard = stable_service_hash(slug) % self.num_shards
        self._service_shard[slug] = shard
        self._retarget_hints(slug, shard)
        return shard

    def _retarget_hints(self, slug: str, shard: int) -> None:
        """Point a service's realtime hints (and push notifications) at
        its (newly pinned) home shard.

        ``popularity_balanced`` only learns a service's home at first
        install, which may be long after publication; re-calling
        :meth:`PartnerService.published` with the home shard's address
        and key moves the hint/push target without re-running
        onboarding.  The negotiated push contract is re-asserted from
        the home shard's registration so re-pointing never silently
        drops it.
        """
        entry = self._published.get(slug)
        if entry is not None:
            service, keys = entry
            home = self.shards[shard]
            service.published(
                home.address,
                keys[shard],
                push=home.service_registration(slug).push,
            )

    def _shard_for_new_applet(self, trigger_slug: str) -> int:
        if self.strategy == "round_robin":
            return next(self._rr_counter) % self.num_shards
        return self.shard_for_trigger_service(trigger_slug)

    def shard_loads(self) -> List[int]:
        """Installed-applet count per shard."""
        return list(self._shard_loads)

    # -- service publication / user connection -----------------------------------

    def publish_service(self, service: PartnerService) -> Dict[int, str]:
        """Publish a service on every shard; returns ``{shard: key}``.

        Every shard may dispatch actions to (or poll triggers of) any
        service, so each shard issues its own key and the service
        accepts them all.  :meth:`PartnerService.published` keeps the
        *last* publisher as its realtime-hint/push-notification target,
        so under ``service_hash`` the home shard publishes last, and
        under ``popularity_balanced`` the target is re-pointed when the
        home is pinned at first install (:meth:`_retarget_hints`).
        Under ``round_robin`` no shard owns a service; a hint or push
        landing on a non-owning shard is handled by whichever shard
        received it (for pushes: ingested for its own applets, or
        parked on its own breaker when open).
        """
        order = list(range(self.num_shards))
        if self.strategy == "service_hash":
            # Hash assignment is pure, so the home shard is known now and
            # can publish last.  popularity_balanced homes are unknown
            # until first install; _retarget_hints fixes them up then.
            home = stable_service_hash(service.slug) % self.num_shards
            order.remove(home)
            order.append(home)
        keys = {index: self.shards[index].publish_service(service) for index in order}
        self._published[service.slug] = (service, keys)
        return keys

    def connect_service(
        self,
        user: str,
        service: PartnerService,
        authority: OAuthAuthority,
        password: str,
    ) -> Dict[int, str]:
        """Connect a user to a service on every shard: ``{shard: token}``.

        Each shard runs its own OAuth2 flow and caches its own token —
        shards share no token cache, so one shard's revocations or
        failures never leak into another's auth state.
        """
        return {
            index: shard.connect_service(user, service, authority, password)
            for index, shard in enumerate(self.shards)
        }

    @property
    def published_slugs(self) -> List[str]:
        """Slugs published to the fleet (identical on every shard)."""
        return self.shards[0].published_slugs

    # -- applet lifecycle ---------------------------------------------------------

    def install_applet(
        self,
        user: str,
        name: str,
        trigger: TriggerRef,
        action: ActionRef,
        author: Optional[str] = None,
        extra_actions: Tuple[ActionRef, ...] = (),
        queries: Tuple[QueryRef, ...] = (),
        filter_code: Optional[str] = None,
    ) -> Applet:
        """Install an applet on the shard its trigger service maps to."""
        shard = self._shard_for_new_applet(trigger.service_slug)
        applet = self.shards[shard].install_applet(
            user,
            name,
            trigger,
            action,
            author=author,
            extra_actions=extra_actions,
            queries=queries,
            filter_code=filter_code,
        )
        self._applet_shard[applet.applet_id] = shard
        self._shard_loads[shard] += 1
        return applet

    def shard_of(self, applet_id: int) -> int:
        """Which shard owns an installed applet."""
        return self._applet_shard[applet_id]

    def engine_for(self, applet_id: int) -> IftttEngine:
        """The shard engine that owns an applet."""
        return self.shards[self.shard_of(applet_id)]

    def applet(self, applet_id: int) -> Applet:
        """Look up an applet anywhere in the fleet."""
        return self.engine_for(applet_id).applet(applet_id)

    @property
    def applets(self) -> List[Applet]:
        """All installed applets, fleet-wide."""
        return [applet for shard in self.shards for applet in shard.applets]

    def disable_applet(self, applet_id: int) -> None:
        """Stop polling for an applet (on its owning shard)."""
        self.engine_for(applet_id).disable_applet(applet_id)

    def enable_applet(self, applet_id: int) -> None:
        """Resume polling for a disabled applet."""
        self.engine_for(applet_id).enable_applet(applet_id)

    def uninstall_applet(self, applet_id: int) -> Applet:
        """Remove an applet and release its slot in the shard-load ledger."""
        shard = self._applet_shard.pop(applet_id)
        self._shard_loads[shard] -= 1
        return self.shards[shard].uninstall_applet(applet_id)

    def poll_count(self, applet_id: int) -> int:
        """How many polls the owning shard has sent for an applet."""
        return self.engine_for(applet_id).poll_count(applet_id)

    # -- fleet accounting ---------------------------------------------------------

    def shard_stats(self) -> List[Dict[str, int]]:
        """Per-shard :meth:`IftttEngine.stats` snapshots, in shard order."""
        return [shard.stats() for shard in self.shards]

    def stats(self) -> Dict[str, int]:
        """Fleet-wide totals: shard counters summed.

        ``services`` is *not* summed (every shard publishes the same
        catalogue); it reports the fleet's distinct service count.
        """
        per_shard = self.shard_stats()
        totals = {key: sum(stats[key] for stats in per_shard) for key in per_shard[0]}
        totals["services"] = len(self.published_slugs)
        return totals

    @property
    def dead_letters(self) -> List[DeadLetter]:
        """Every dead letter in the fleet, in shard order."""
        return [letter for shard in self.shards for letter in shard.dead_letters]

    def breaker_states(self) -> Dict[int, Dict[str, str]]:
        """Per-shard breaker states — shard-local by construction."""
        return {
            index: shard.breaker_states() for index, shard in enumerate(self.shards)
        }

    def breaker_levels(self) -> Dict[int, Dict[str, int]]:
        """Per-shard numeric breaker levels (the live
        ``engine.shard<i>.breaker_state`` gauge values)."""
        return {
            index: shard.breaker_levels() for index, shard in enumerate(self.shards)
        }

    def degradation_levels(self) -> Dict[str, int]:
        """Fleet-wide degradation ladder: worst level per service.

        Health is shard-local (like breakers), so the fleet answer for a
        service is the *max* across shards — the same algebra the gauge
        merge applies when ``engine.shard<i>.degradation_level`` families
        fold into ``engine.degradation_level``.  Empty when
        ``config.delivery_policy`` is unset.
        """
        merged: Dict[str, int] = {}
        for shard in self.shards:
            if shard.delivery is None:
                continue
            for link in shard.delivery.tracked():
                merged[link.slug] = max(merged.get(link.slug, 0), link.level)
        return merged

    def replay_dead_letters(self, service_slug: Optional[str] = None) -> None:
        """Explicitly drain dead letters on every shard (shard-locally).

        Each shard replays only its own sink; shards without matching
        letters are no-ops.  Requires ``config.replay_policy`` to be set
        (every shard inherits it), like the single-engine method.
        """
        for shard in self.shards:
            shard.replay_dead_letters(service_slug)

    def conservation(self) -> Dict[str, Any]:
        """The delivery-conservation invariant, per shard and fleet-wide.

        For every shard (and therefore for their sum), ``dispatched ==
        delivered + in_retry + dead_lettered + in_replay``; the
        ``*_lost`` entries report the residual, which must be 0.
        """
        per_shard = [conservation_residual(stats) for stats in self.shard_stats()]
        return {"shard_lost": per_shard, "fleet_lost": sum(per_shard)}

    def __repr__(self) -> str:
        return (
            f"<ShardedEngine shards={self.num_shards} strategy={self.strategy!r} "
            f"applets={sum(self._shard_loads)}>"
        )


# -- shard snapshot algebra -------------------------------------------------------


def shard_metric_ids(snapshot: Dict[str, Any]) -> List[int]:
    """Shard indices present in a snapshot's ``engine.shard<i>.*`` names."""
    ids = set()
    for entry in snapshot["metrics"]:
        match = _SHARD_METRIC_RE.match(entry["name"])
        if match:
            ids.add(int(match.group(1)))
    return sorted(ids)


def shard_snapshot(snapshot: Dict[str, Any], shard_id: int) -> Dict[str, Any]:
    """One shard's metrics, rebased onto the unsharded ``engine.*`` names.

    The result is a well-formed snapshot, so it feeds straight into
    :func:`~repro.obs.metrics.merge_snapshots`.
    """
    prefix = f"engine.shard{shard_id}."
    entries = [
        dict(entry, name="engine." + entry["name"][len(prefix):])
        for entry in snapshot["metrics"]
        if entry["name"].startswith(prefix)
    ]
    return {"metrics": entries}


def merged_fleet_snapshot(source: Any) -> Dict[str, Any]:
    """Fold every ``engine.shard<i>.*`` family into fleet-wide ``engine.*``.

    ``source`` may be a :class:`~repro.obs.metrics.MetricsRegistry` or a
    snapshot dict.  Merging is commutative and associative (counters
    add, gauges max, histogram buckets add — see
    :func:`~repro.obs.metrics.merge_snapshots`), so for one shard the
    result equals that shard's own rebased snapshot, and for N shards it
    equals the unsharded totals the same workload would produce.
    """
    snapshot = source.snapshot() if isinstance(source, MetricsRegistry) else source
    ids = shard_metric_ids(snapshot)
    if not ids:
        return {"metrics": []}
    return merge_snapshots(*(shard_snapshot(snapshot, i) for i in ids))
