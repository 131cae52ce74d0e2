"""Deterministic fault injection (``repro.faults``).

The paper's §4 latency findings and its outage observations are
consequences of how the real IFTTT engine tolerates flaky partner
services and lossy networks.  This package makes failure scenarios
first-class, replayable workloads:

* :mod:`repro.faults.plan` — :class:`FaultPlan`: a declarative,
  JSON-round-trippable schedule of faults (service outages, brownouts,
  flaps; link partitions, loss, latency spikes).
* :mod:`repro.faults.injector` — :class:`FaultInjector`: turns a plan
  into scheduled simulator events, drawing all randomness from one
  seeded stream so ``(seed, plan)`` reproduces an identical trace.

Engine-side resilience (retry policies, circuit breakers, the action
dead-letter queue) lives in :mod:`repro.engine.resilience`; the chaos
scenario harness lives in :mod:`repro.testbed.chaos`.  Semantics and
determinism guarantees are documented in ``docs/ROBUSTNESS.md``.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(globals(), {
    "plan": (
        "FaultPlan", "FaultPlanError", "FaultSpec", "link_down", "link_latency", "link_loss",
        "service_brownout", "service_flap", "service_outage",
    ),
    "injector": ("FaultInjector", "NetworkFaultState", "ServiceFaultState"),
})
