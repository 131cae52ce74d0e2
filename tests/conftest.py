"""Shared fixtures.

Corpus generation and crawling are deterministic and moderately
expensive, so the small reference corpus and its crawl are session-scoped;
testbeds mutate during experiments and are function-scoped.
"""

from __future__ import annotations

import pytest

from repro.crawler import IftttCrawler, SnapshotStore
from repro.ecosystem import EcosystemGenerator, EcosystemParams
from repro.frontend import SimulatedIftttSite
from repro.simcore import Rng, Simulator, Trace
from repro.testbed import Testbed, TestbedConfig, TestController


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> Rng:
    return Rng(seed=1234, name="test")


@pytest.fixture
def trace() -> Trace:
    return Trace()


@pytest.fixture(scope="session")
def small_corpus():
    """A scale-0.02 corpus (6400 applets) shared across analysis tests."""
    return EcosystemGenerator(EcosystemParams(scale=0.02, seed=42)).generate()


@pytest.fixture(scope="session")
def small_site(small_corpus):
    return SimulatedIftttSite(small_corpus)


@pytest.fixture(scope="session")
def small_snapshot(small_site):
    """The final-week crawl of the small corpus."""
    return IftttCrawler(small_site).crawl()


@pytest.fixture(scope="session")
def snapshot_store(small_site):
    """A five-snapshot store spanning the study window."""
    crawler = IftttCrawler(small_site)
    store = SnapshotStore()
    for week in (0, 6, 12, 18, 24):
        store.add(crawler.crawl(week=week))
    return store


@pytest.fixture
def testbed() -> Testbed:
    """A freshly built testbed with production engine behaviour."""
    return Testbed(TestbedConfig(seed=99)).build()


@pytest.fixture
def controller(testbed) -> TestController:
    return TestController(testbed)


# -- chaos runs (shared: each is deterministic in its seed but takes a
# -- nontrivial slice of wall-clock, so suites share one run) ----------------


@pytest.fixture(scope="session")
def outage_result():
    """One shared run of the flagship 60 s-outage-during-burst scenario."""
    from repro.testbed.chaos import run_chaos_scenario

    return run_chaos_scenario("outage", seed=7)


@pytest.fixture(scope="session")
def nofault_result():
    """A fault-free single-engine run of the outage cadence — the
    unsharded latency baseline the acceptance criteria reference."""
    from repro.faults import FaultPlan
    from repro.testbed.chaos import run_chaos_scenario

    return run_chaos_scenario("outage", seed=7, plan=FaultPlan(()))


@pytest.fixture(scope="session")
def sharded_outage_result():
    """The same outage scenario against a 4-shard fleet (same seed)."""
    from repro.testbed.chaos import run_chaos_scenario

    return run_chaos_scenario("outage", seed=7, shards=4)


@pytest.fixture(scope="session")
def sharded_nofault_result():
    """A fault-free 4-shard run of the outage cadence — the isolation
    baseline sharded chaos tests compare healthy shards against."""
    from repro.faults import FaultPlan
    from repro.testbed.chaos import run_chaos_scenario

    return run_chaos_scenario("outage", seed=7, shards=4, plan=FaultPlan(()))
