"""The IFTTT engine (Figure 1, ❼) — the paper's system under test.

This package implements the centralized trigger-action engine whose
behaviour §4 measures:

* :mod:`repro.engine.applet` — applets: a trigger reference, an action
  reference, field parameters, and install metadata.
* :mod:`repro.engine.engine` — the engine itself: service publication,
  applet installation, the batched poll loop, event dedup, action
  dispatch with ingredient templating, and the realtime-hint endpoint.
* :mod:`repro.engine.poller` — polling-interval policies.  The production
  policy reproduces the paper's long, highly variable polling delay
  (T2A quartiles ≈ 58/84/122 s, tail to ~15 min); a 1 s fixed policy
  reproduces experiment E3.
* :mod:`repro.engine.oauth` — the OAuth2 authorization-code flow used to
  connect user accounts to services, with tokens cached at the engine.
* :mod:`repro.engine.permissions` — IFTTT's coarse service-level
  permission grants and the finer-grained alternative §6 recommends.
* :mod:`repro.engine.loops` — static (channel-graph) and runtime loop
  detection; disabled by default, matching the measured IFTTT behaviour
  ("no syntax check is performed").
* :mod:`repro.engine.local` — a home-LAN local engine and a hybrid
  scheduler, implementing §6's distributed-applet-execution proposal.
* :mod:`repro.engine.resilience` — retry backoff, per-service circuit
  breakers, and the action dead-letter sink that keep the engine honest
  under the fault plans of :mod:`repro.faults`.
* :mod:`repro.engine.delivery` — health-aware adaptive delivery: the
  :class:`DeliveryController` keeps each service's EWMA health on its
  :class:`ServiceRegistration`, and the engine's one cadence decision
  applies the stretch factor to any polling policy under brownout
  (provably restoring the §4 interval distribution after heal); it adds
  watermarked admission control and the 4-level degradation ladder
  (``docs/ROBUSTNESS.md``, "Adaptive delivery & degradation ladder").
* :mod:`repro.engine.push` — push-first delivery: the opt-in per-service
  push contract (payload-carrying ``POST /ifttt/v1/webhooks/push``
  notifications), engine-side ingestion batching via coalescing drains,
  and watermarked backpressure that degrades a service push→hint→poll,
  its queue and rung kept on the :class:`ServiceRegistration`
  (``docs/DELIVERY.md``).
* :mod:`repro.engine.replay` — the :class:`ReplayController` that drains
  a healed service's dead letters back through delivery, coalescing
  same-service actions into batched requests (``docs/ROBUSTNESS.md``,
  "Replay & batching").
* :mod:`repro.engine.sharding` — the :class:`ShardedEngine` coordinator
  that partitions applets across N engines with per-shard breakers,
  metrics scopes, and a mergeable fleet snapshot (``docs/SHARDING.md``).
* :mod:`repro.engine.scheduler` — the fleet-scale poll scheduler: one
  wake event per engine, lazy cancellation (``docs/PERFORMANCE.md``).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(globals(), {
    "applet": ("Applet", "TriggerRef", "ActionRef", "AppletState", "QueryRef"),
    "config": ("EngineConfig", "SHARD_STRATEGIES"),
    "poller": (
        "PollingPolicy", "ProductionPollingPolicy", "FixedPollingPolicy", "AdaptivePollingPolicy",
    ),
    "delivery": (
        "DEGRADATION_LEVEL_NAMES", "DeliveryController", "DeliveryPolicy",
        "sampled_interval_quartiles",
    ),
    "push": (
        "DELIVERY_MODES", "PUSH_RUNG_NAMES", "PushController", "PushPolicy",
    ),
    "oauth": ("OAuthAuthority", "OAuthGrant"),
    "engine": (
        "AppletIdRangeError", "DuplicateIdentityError", "IftttEngine", "ServiceRegistration",
    ),
    "permissions": (
        "Scope", "ServicePermissionModel", "PerEndpointPermissionModel", "excess_privilege",
    ),
    "loops": ("StaticLoopAnalyzer", "RuntimeLoopDetector", "LoopFinding"),
    "local": ("LocalEngine", "HybridScheduler"),
    "replay": ("ReplayController",),
    "resilience": (
        "BreakerState", "CircuitBreaker", "DeadLetter", "PendingAction", "ReplayPolicy",
    ),
    "scheduler": ("HeapPollScheduler",),
    "sharding": ("ShardedEngine", "merged_fleet_snapshot", "shard_snapshot", "stable_service_hash"),
    "filters": (
        "FilterSyntaxError", "FilterEvalError", ("parse_filter", "parse"),
        ("evaluate_filter", "evaluate"),
    ),
})
