"""Assembly of the Figure 1 topology."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.engine.config import EngineConfig
from repro.engine.engine import IftttEngine
from repro.engine.local import LocalEngine
from repro.engine.oauth import OAuthAuthority
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.iot.alexa import AlexaCloud, EchoDevice
from repro.iot.gateway import GatewayRouter
from repro.iot.hue import HueHub, HueLamp
from repro.iot.nest import NestThermostat
from repro.iot.proxy import LocalProxy
from repro.iot.smartthings import GenericDevice, SmartThingsHub
from repro.iot.wemo import WemoSwitch
from repro.net.address import Address
from repro.net.latency import cloud_internal_latency, lan_latency, wan_latency
from repro.net.network import Network
from repro.obs.metrics import MetricsRegistry
from repro.services.custom import CustomService
from repro.services.official import (
    OfficialAlexaService,
    OfficialDriveService,
    OfficialGmailService,
    OfficialHueService,
    OfficialNestService,
    OfficialSheetsService,
    OfficialSmartThingsService,
    OfficialWeatherService,
    OfficialWemoService,
)
from repro.simcore.rng import Rng
from repro.simcore.simulator import Simulator
from repro.simcore.trace import Trace
from repro.webapps.gdrive import GoogleDrive
from repro.webapps.gmail import Gmail
from repro.webapps.sheets import GoogleSheets
from repro.webapps.weather import WeatherService

#: The author's account on the testbed (applets are installed for them).
TEST_USER = "tester"
TEST_EMAIL = "tester@gmail"
TEST_PASSWORD = "hunter2"


@dataclass
class TestbedConfig:
    """Knobs for building a testbed.

    (``__test__`` opts the class out of pytest collection.)

    Attributes
    ----------
    seed:
        Master RNG seed (everything derives from it).
    engine_config:
        Engine behaviour; defaults to production IFTTT.
    with_local_engine:
        Also deploy a :class:`~repro.engine.local.LocalEngine` in the LAN
        (for the §6 distributed-execution ablation).
    custom_service_realtime:
        Whether "Our Service" sends realtime hints.
    gmail_poll_interval, sheets_poll_interval, weather_poll_interval:
        Internal web-app poll cadences of the partner services.
    trace_max_records:
        When set, the shared trace becomes a ring buffer of this many
        records (memory-bounded soak runs); ``None`` keeps the classic
        unbounded trace.
    metrics_enabled:
        Build a shared :class:`~repro.obs.metrics.MetricsRegistry` and
        attach it to the simulator, network, and engine.
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan` applied right
        after the topology is wired (fault times are absolute sim
        seconds).  A :class:`~repro.faults.injector.FaultInjector` is
        built either way and exposed as ``testbed.fault_injector``, so
        experiments can also apply plans mid-run.
    """

    __test__ = False  # not a pytest class, despite the name

    seed: int = 7
    engine_config: EngineConfig = field(default_factory=EngineConfig)
    with_local_engine: bool = False
    custom_service_realtime: bool = False
    gmail_poll_interval: float = 10.0
    sheets_poll_interval: float = 15.0
    weather_poll_interval: float = 60.0
    trace_max_records: Optional[int] = None
    metrics_enabled: bool = True
    fault_plan: Optional[FaultPlan] = None


class Testbed:
    """The full measurement testbed on one simulator.

    Build with :meth:`build`; every entity of Figure 1 is then available
    as an attribute (``hue_lamp``, ``proxy``, ``engine``, ...), all wired
    through one :class:`~repro.net.network.Network` and recording into one
    shared :class:`~repro.simcore.trace.Trace`.
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, config: Optional[TestbedConfig] = None) -> None:
        self.config = config or TestbedConfig()
        self.sim = Simulator()
        self.rng = Rng(seed=self.config.seed, name="testbed")
        self.trace = Trace(max_records=self.config.trace_max_records)
        self.metrics = MetricsRegistry() if self.config.metrics_enabled else None
        self.sim.metrics = self.metrics
        self.network = Network(
            self.sim, self.rng.fork("network"), metrics=self.metrics
        )
        self.authorities: Dict[str, OAuthAuthority] = {}
        self.fault_injector: Optional[FaultInjector] = None
        self._built = False

    # -- construction -------------------------------------------------------------

    def build(self) -> "Testbed":
        """Instantiate and wire every entity; idempotent."""
        if self._built:
            return self
        self._build_home_lan()
        self._build_cloud()
        self._build_services()
        self._publish_and_connect()
        self.fault_injector = FaultInjector(
            self.sim, self.network,
            services=self.all_services(),
            rng=self.rng.fork("faults"),
            metrics=self.metrics, trace=self.trace,
        )
        if self.config.fault_plan is not None:
            self.fault_injector.apply(self.config.fault_plan)
        # Let subscriptions, pairing chatter, and poll-loop startup settle.
        self.sim.run_until(self.sim.now + 5.0)
        self._built = True
        return self

    def _build_home_lan(self) -> None:
        net, trace = self.network, self.trace
        self.gateway = net.add_node(GatewayRouter(Address("gateway.home")))
        self.hue_lamp = net.add_node(HueLamp(Address("hue-lamp.home"), "lamp1", trace=trace))
        self.hue_hub = net.add_node(HueHub(Address("hue-hub.home"), trace=trace))
        self.wemo = net.add_node(WemoSwitch(Address("wemo.home"), "wemo1", trace=trace))
        self.st_hub = net.add_node(SmartThingsHub(Address("st-hub.home"), trace=trace))
        self.st_lock = net.add_node(GenericDevice(Address("st-lock.home"), "lock1", "lock", trace=trace))
        self.st_motion = net.add_node(
            GenericDevice(Address("st-motion.home"), "motion1", "motion", trace=trace)
        )
        self.nest = net.add_node(
            NestThermostat(Address("nest.home"), "nest1", trace=trace)
        )
        # Star topology around the gateway (WiFi), except the Zigbee
        # lamp-hub link which is direct.
        lan_nodes = (self.hue_hub, self.wemo, self.st_hub, self.nest)
        for node in lan_nodes:
            net.connect(node.address, self.gateway.address, lan_latency())
        net.connect(self.hue_lamp.address, self.hue_hub.address, lan_latency())
        for device in (self.st_lock, self.st_motion):
            net.connect(device.address, self.st_hub.address, lan_latency())
        self.hue_hub.pair_lamp(self.hue_lamp)
        self.st_hub.pair_device(self.st_lock)
        self.st_hub.pair_device(self.st_motion)

    def _build_cloud(self) -> None:
        net, trace = self.network, self.trace
        self.internet = net.add_node(GatewayRouter(Address("core.internet")))
        net.connect(self.gateway.address, self.internet.address, wan_latency())

        self.alexa_cloud = net.add_node(AlexaCloud(Address("alexa.cloud"), trace=trace))
        self.gmail = net.add_node(Gmail(Address("gmail.cloud"), trace=trace))
        self.gdrive = net.add_node(GoogleDrive(Address("drive.cloud"), trace=trace))
        self.sheets = net.add_node(GoogleSheets(Address("sheets.cloud"), trace=trace))
        self.weather = net.add_node(WeatherService(Address("weather.cloud"), trace=trace))
        for node in (self.alexa_cloud, self.gmail, self.gdrive, self.sheets, self.weather):
            net.connect(node.address, self.internet.address, cloud_internal_latency())
        self.gmail.create_account(TEST_EMAIL)

        # The Echo lives in the LAN but its brain is the Alexa cloud.
        self.echo = net.add_node(
            EchoDevice(Address("echo.home"), "echo1", cloud=self.alexa_cloud.address, trace=trace)
        )
        net.connect(self.echo.address, self.gateway.address, lan_latency())
        # Nest phones home to its official service; wired in _build_services.

        self.engine = net.add_node(
            IftttEngine(
                Address("engine.ifttt.cloud"),
                config=self.config.engine_config,
                rng=self.rng.fork("engine"),
                trace=self.trace,
            )
        )
        net.connect(self.engine.address, self.internet.address, cloud_internal_latency())

        self.proxy = None  # created in _build_services once the custom service exists
        self.local_engine = None
        if self.config.with_local_engine:
            self.local_engine = net.add_node(
                LocalEngine(Address("local-engine.home"), trace=trace)
            )
            net.connect(self.local_engine.address, self.gateway.address, lan_latency())

    def _build_services(self) -> None:
        net, trace = self.network, self.trace
        cfg = self.config
        self.hue_service = net.add_node(
            OfficialHueService(Address("hue-service.cloud"), hub=self.hue_hub.address, trace=trace)
        )
        self.wemo_service = net.add_node(OfficialWemoService(Address("wemo-service.cloud"), trace=trace))
        self.alexa_service = net.add_node(
            OfficialAlexaService(Address("alexa-service.cloud"), alexa_cloud=self.alexa_cloud.address, trace=trace)
        )
        self.gmail_service = net.add_node(
            OfficialGmailService(
                Address("gmail-service.cloud"),
                gmail=self.gmail.address,
                user_email=TEST_EMAIL,
                poll_interval=cfg.gmail_poll_interval,
                trace=trace,
            )
        )
        self.sheets_service = net.add_node(
            OfficialSheetsService(
                Address("sheets-service.cloud"),
                sheets=self.sheets.address,
                poll_interval=cfg.sheets_poll_interval,
                trace=trace,
            )
        )
        self.drive_service = net.add_node(
            OfficialDriveService(Address("drive-service.cloud"), drive=self.gdrive.address, trace=trace)
        )
        self.nest_service = net.add_node(OfficialNestService(Address("nest-service.cloud"), trace=trace))
        self.st_service = net.add_node(
            OfficialSmartThingsService(Address("st-service.cloud"), hub=self.st_hub.address, trace=trace)
        )
        self.weather_service = net.add_node(
            OfficialWeatherService(
                Address("weather-service.cloud"),
                weather=self.weather.address,
                poll_interval=cfg.weather_poll_interval,
                trace=trace,
            )
        )
        self.custom_service = net.add_node(
            CustomService(
                Address("our-service.cloud"),
                slug="our_service",
                realtime=cfg.custom_service_realtime,
                trace=trace,
            )
        )
        for service in self.all_services():
            net.connect(service.address, self.internet.address, cloud_internal_latency())

        # The local proxy bridges LAN devices to the custom service.
        self.proxy = net.add_node(
            LocalProxy(
                Address("proxy.home"),
                service_server=self.custom_service.address,
                trace=trace,
            )
        )
        net.connect(self.proxy.address, self.gateway.address, lan_latency())
        self.custom_service.proxy = self.proxy.address

    def all_services(self):
        """Every partner service node, official and custom."""
        return [
            self.hue_service,
            self.wemo_service,
            self.alexa_service,
            self.gmail_service,
            self.sheets_service,
            self.drive_service,
            self.nest_service,
            self.st_service,
            self.weather_service,
            self.custom_service,
        ]

    def _publish_and_connect(self) -> None:
        cfg = self.config
        # Device-side wiring.
        self.hue_service.connect()
        self.wemo_service.connect_switch("wemo1", self.wemo.address)
        self.alexa_service.connect()
        self.nest.subscribe(self.nest_service.address)
        self.nest_service.connect_thermostat("nest1", self.nest.address)
        self.st_service.connect()
        self.gmail_service.start_polling()
        self.sheets_service.start_polling()
        self.weather_service.start_polling()
        # Proxy bridging for the custom service.
        self.proxy.bridge_hue_hub(self.hue_hub.address)
        self.proxy.bridge_wemo("wemo1", self.wemo.address)
        self.proxy.bridge_smartthings_hub(self.st_hub.address)
        self.custom_service.connect_gmail(
            self.gmail.address, TEST_EMAIL, poll_interval=cfg.gmail_poll_interval
        )
        self.custom_service.connect_sheets(self.sheets.address)
        self.custom_service.connect_drive(self.gdrive.address)
        # Publication + OAuth for the test user.
        for service in self.all_services():
            self.engine.publish_service(service)
            authority = OAuthAuthority(service.slug)
            authority.register_user(TEST_USER, TEST_PASSWORD)
            self.authorities[service.slug] = authority
            self.engine.connect_service(TEST_USER, service, authority, TEST_PASSWORD)

    # -- conveniences ---------------------------------------------------------------------

    def run_for(self, seconds: float) -> None:
        """Advance simulated time by ``seconds``."""
        self.sim.run_until(self.sim.now + seconds)

    def __repr__(self) -> str:
        state = "built" if self._built else "unbuilt"
        return f"<Testbed {state} t={self.sim.now:.1f}s>"
