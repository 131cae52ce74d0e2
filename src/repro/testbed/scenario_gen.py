"""Day-in-the-life workload generation for the home testbed.

Drives the testbed's devices and web apps the way a household does —
morning and evening activity peaks on switches and voice, a workday
email stream, ambient temperature following a daily cycle, weather
changing on frontal timescales — so soak tests and capacity studies can
run the engine against realistic, bursty, time-of-day-shaped input
(§6 notes IoT workloads are highly bursty).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict

from repro.simcore.event import Event
from repro.simcore.rng import Rng
from repro.webapps.weather import CONDITIONS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.testbed.testbed import Testbed

HOUR = 3600.0
DAY = 24 * HOUR

#: Seconds between ambient temperature readings.
TEMPERATURE_PERIOD = 900.0

_PHRASES = ("Alexa, trigger light off", "Alexa, trigger movie time",
            "Alexa, play something mellow", "Alexa, add milk to my shopping list")
_SENDERS = ("boss@corp", "newsletter@list", "friend@mail", "alerts@bank")


def diurnal_rate(t: float, base_per_hour: float, morning_peak: float = 7.5,
                 evening_peak: float = 19.5, width_hours: float = 2.0) -> float:
    """Events/hour at simulated time ``t``: two Gaussian activity bumps.

    Models human-driven device interaction: quiet overnight, a morning
    bump around 7:30, a bigger evening bump around 19:30.
    """
    hour = (t % DAY) / HOUR
    def bump(center: float, height: float) -> float:
        distance = min(abs(hour - center), 24 - abs(hour - center))
        return height * math.exp(-0.5 * (distance / width_hours) ** 2)
    return base_per_hour * (0.15 + bump(morning_peak, 0.8) + bump(evening_peak, 1.0))


@dataclass
class ScenarioStats:
    """What the scenario generator injected."""

    switch_presses: int = 0
    voice_commands: int = 0
    emails: int = 0
    weather_changes: int = 0
    temperature_updates: int = 0


class DailyScenario:
    """Arms the household drivers on a built testbed.

    Each driver is one armed simulator event whose wake, a bound method,
    does the driver's work and re-arms it.  The switch, voice and email
    drivers sample inter-event gaps from the diurnal rate via thinning
    (sample at the peak rate, accept with probability rate(t)/peak);
    weather dwells for exponential spells and temperature ticks every
    :data:`TEMPERATURE_PERIOD`.  A scenario in flight is plain data, so
    its testbed pickles mid-run.
    """

    def __init__(self, testbed: "Testbed", seed: int = 1) -> None:
        self.testbed = testbed
        self.rng = Rng(seed=seed, name="scenario")
        self.stats = ScenarioStats()
        #: Each driver's armed event, in start order.
        self._armed: Dict[str, Event] = {}
        self._emails_sent = 0

    def start(
        self,
        switch_per_hour: float = 2.0,
        voice_per_hour: float = 3.0,
        emails_per_hour: float = 4.0,
        weather_dwell_hours: float = 6.0,
    ) -> "DailyScenario":
        """Arm all drivers; returns self for chaining.  A scenario already
        armed is a ``RuntimeError`` (a second set of drivers would outlive
        :meth:`stop`); one that was stopped may start again."""
        if self._armed:
            raise RuntimeError("scenario already started; stop() it before starting again")
        self._arm_thinned("switch", switch_per_hour, self._press_switch)
        self._arm_thinned("voice", voice_per_hour, self._speak)
        self._arm_thinned("email", emails_per_hour, self._send_email)
        dwell = weather_dwell_hours * HOUR
        self._arm("weather", self.rng.exponential(dwell), self._weather_wake, dwell)
        self._arm("temperature", TEMPERATURE_PERIOD, self._temperature_wake)
        return self

    def stop(self) -> None:
        """Cancel every driver's armed event."""
        for event in self._armed.values():
            event.cancel()
        self._armed.clear()

    # -- drivers -----------------------------------------------------------------

    def _arm(self, kind: str, delay: float, wake: Callable[..., None], *args: Any) -> None:
        self._armed[kind] = self.testbed.sim.schedule(
            delay, wake, *args, label=f"scenario.{kind}.timeout"
        )

    def _arm_thinned(self, kind: str, per_hour: float, act: Callable[[], None]) -> None:
        """Arm the next thinning sample: a gap drawn at the envelope's peak."""
        peak = per_hour * 1.15  # max of the diurnal envelope
        self._arm(kind, self.rng.exponential(HOUR / peak), self._thinned_wake, kind, per_hour, act)

    def _thinned_wake(self, kind: str, per_hour: float, act: Callable[[], None]) -> None:
        rate = diurnal_rate(self.testbed.sim.now, per_hour)
        if self.rng.random() < rate / (per_hour * 1.15):
            act()
        self._arm_thinned(kind, per_hour, act)

    def _press_switch(self) -> None:
        self.testbed.wemo.press()
        self.stats.switch_presses += 1

    def _speak(self) -> None:
        self.testbed.echo.hear(self.rng.choice(_PHRASES))
        self.stats.voice_commands += 1

    def _send_email(self) -> None:
        from repro.testbed.testbed import TEST_EMAIL

        self._emails_sent += 1
        self.testbed.gmail.deliver_email(
            to=TEST_EMAIL,
            sender=self.rng.choice(_SENDERS),
            subject=f"scenario mail {self._emails_sent}",
            attachments=("doc.pdf",) if self.rng.bernoulli(0.2) else (),
        )
        self.stats.emails += 1

    def _weather_wake(self, dwell: float) -> None:
        self.testbed.weather.set_conditions("home", self.rng.choice(CONDITIONS))
        self.stats.weather_changes += 1
        self._arm("weather", self.rng.exponential(dwell), self._weather_wake, dwell)

    def _temperature_wake(self) -> None:
        """Ambient temperature follows a smooth daily sinusoid + noise."""
        hour = (self.testbed.sim.now % DAY) / HOUR
        ambient = 20.0 + 4.0 * math.sin((hour - 9.0) / 24.0 * 2 * math.pi)
        self.testbed.nest.sense_ambient(round(ambient + self.rng.normal(0, 0.3), 2))
        self.stats.temperature_updates += 1
        self._arm("temperature", TEMPERATURE_PERIOD, self._temperature_wake)
