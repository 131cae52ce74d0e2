"""The §4 infinite-loop experiments.

* **Explicit loop** — two chained applets: "add a row to my spreadsheet
  when an email is received" and "email me when a row is added".  IFTTT
  performs no syntax check, so both install fine and the chain feeds
  itself.
* **Implicit loop** — only the first applet is installed, but the user
  has enabled the spreadsheet's *notification feature* (email on
  modification).  The loop closes outside IFTTT, so no offline analysis
  of applets can reveal it.

Both experiments also evaluate the countermeasures of §4/§6: the static
channel-graph analyzer (catches the explicit loop; catches the implicit
one only when the external automation is declared) and the runtime
rate-limit detector (catches both, and with a kill switch actually stops
the loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.engine.applet import ActionRef, Applet, TriggerRef
from repro.engine.config import EngineConfig
from repro.engine.loops import LoopFinding, StaticLoopAnalyzer
from repro.testbed.applets import _deliver_email
from repro.testbed.testbed import TEST_EMAIL, TEST_USER, Testbed, TestbedConfig

LOOP_SHEET = "inbox_log"


@dataclass
class LoopExperimentResult:
    """Outcome of one loop experiment."""

    kind: str
    duration: float
    rows_added: int
    emails_received: int
    executions: List[int]
    static_findings: List[LoopFinding]
    static_findings_with_external_knowledge: List[LoopFinding]
    runtime_flagged: List[int]
    disabled_applets: List[int]

    @property
    def looped(self) -> bool:
        """Whether the feedback loop actually self-sustained.

        One seed email should produce one row; any growth beyond a couple
        of rows means actions kept re-triggering.
        """
        return self.rows_added >= 3


def _run_loop(
    kind: str,
    install_reverse_applet: bool,
    enable_sheet_notifications: bool,
    duration: float,
    seed: int,
    runtime_detection: bool,
) -> LoopExperimentResult:
    testbed = Testbed(
        TestbedConfig(
            seed=seed, engine_config=EngineConfig(runtime_loop_detection=runtime_detection)
        )
    ).build()
    engine = testbed.engine

    forward = engine.install_applet(
        user=TEST_USER,
        name="Add a row to my spreadsheet when an email is received",
        trigger=TriggerRef("gmail", "new_email"),
        action=ActionRef(
            "google_sheets", "add_row", {"sheet": LOOP_SHEET, "row": "mail: {{subject}}"}
        ),
    )
    applets: List[Applet] = [forward]
    if install_reverse_applet:
        reverse = engine.install_applet(
            user=TEST_USER,
            name="Email me when a row is added to my spreadsheet",
            trigger=TriggerRef("google_sheets", "new_row", {"sheet": LOOP_SHEET}),
            action=ActionRef(
                "gmail", "send_email", {"to": TEST_EMAIL, "subject": "row added to {{sheet}}"}
            ),
        )
        applets.append(reverse)
    if enable_sheet_notifications:
        testbed.sheets.enable_notifications(LOOP_SHEET, testbed.gmail.address, TEST_EMAIL)

    testbed.run_for(10.0)
    start_rows = testbed.sheets.row_count(LOOP_SHEET)
    start_mail = len(testbed.gmail.inbox(TEST_EMAIL))
    _deliver_email(testbed)  # the seed event
    testbed.run_for(duration)

    # Offline analysis, as IFTTT could run it (channel graph from the
    # published services), without and with external-automation knowledge.
    services = {s.slug: s for s in testbed.all_services()}
    analyzer = StaticLoopAnalyzer(services)
    blind_findings = analyzer.find_cycles(applets)
    informed = StaticLoopAnalyzer(services)
    if enable_sheet_notifications:
        informed.add_external_edge(("sheets", LOOP_SHEET), ("gmail_inbox", "me"))
    informed_findings = informed.find_cycles(applets)

    return LoopExperimentResult(
        kind=kind,
        duration=duration,
        rows_added=testbed.sheets.row_count(LOOP_SHEET) - start_rows,
        emails_received=len(testbed.gmail.inbox(TEST_EMAIL)) - start_mail,
        executions=[applet.executions for applet in applets],
        static_findings=blind_findings,
        static_findings_with_external_knowledge=informed_findings,
        runtime_flagged=sorted(engine.loop_detector.flagged),
        disabled_applets=[a.applet_id for a in applets if not a.enabled],
    )


def run_explicit_loop_experiment(
    duration: float = 7200.0, seed: int = 7, runtime_detection: bool = False
) -> LoopExperimentResult:
    """Two chained applets forming "A triggers B triggers A"."""
    return _run_loop(
        kind="explicit",
        install_reverse_applet=True,
        enable_sheet_notifications=False,
        duration=duration,
        seed=seed,
        runtime_detection=runtime_detection,
    )


def run_implicit_loop_experiment(
    duration: float = 7200.0, seed: int = 7, runtime_detection: bool = False
) -> LoopExperimentResult:
    """One applet + the Sheets notification feature closing the loop."""
    return _run_loop(
        kind="implicit",
        install_reverse_applet=False,
        enable_sheet_notifications=True,
        duration=duration,
        seed=seed,
        runtime_detection=runtime_detection,
    )
