"""Discrete-event simulation kernel.

This package provides the deterministic, seeded discrete-event core on
which every other subsystem (network, devices, the IFTTT engine, the
testbed) runs.  It is deliberately small: an event heap
(:class:`~repro.simcore.simulator.Simulator`) whose scheduled callbacks
drive all simulated work; a seeded random source with the distributions
the calibration needs (:class:`~repro.simcore.rng.Rng`); and a structured
trace recorder (:class:`~repro.simcore.trace.Trace`).

Example
-------
>>> from repro.simcore import Simulator
>>> sim = Simulator()
>>> fired = []
>>> sim.schedule(5.0, lambda: fired.append(sim.now))
>>> sim.run()
>>> fired
[5.0]
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(globals(), {
    "event": ("Event",),
    "simulator": ("RunResult", "Simulator", "SimulationError"),
    "parallel": ("DEFAULT_LOOKAHEAD", "ShardedSimulator"),
    "rng": ("Rng",),
    "trace": ("Trace", "TraceRecord"),
})
