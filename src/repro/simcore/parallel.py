"""Epoch-barriered stepping for sharded simulations.

One global event heap serializes every shard of a
:class:`~repro.engine.sharding.ShardedEngine` through a single clock.
:class:`ShardedSimulator` gives every shard its **own**
:class:`~repro.simcore.simulator.Simulator` (own heap, own clock), and
shards advance together in bounded **time epochs** under the classic
conservative-synchronization contract:

* Within an epoch ``[t, t + lookahead)`` each shard runs independently
  of the others: the stepper runs them one after another, and nothing a
  shard does inside the epoch can reach another shard's heap.
* Cross-shard traffic (realtime hints, push notifications to a
  receiving shard, remote polls/actions, fleet-level fault-plan events)
  never touches another shard's heap directly: it is posted to a
  per-shard **mailbox** and drained at the next epoch boundary.  Senders
  must guarantee a delivery time at or beyond the barrier — the network
  router (:class:`~repro.net.network.CrossShardRouter`) enforces a
  latency floor of ``lookahead`` on every cross-shard hop, which is the
  lookahead that makes the epoch width safe.
* At each barrier the mailboxes are merged in a deterministic order —
  ``(deliver_at, source shard, per-source sequence)`` — before being
  scheduled into the destination heaps.  The order in which shards are
  stepped inside an epoch decides *when* outbox entries are appended
  relative to each other across shards, but never the sorted drain
  order, so every shard executes the same event sequence whatever that
  order is.

Determinism is therefore structural, not incidental: each shard's world
(engine, network, RNG forks, metrics registry) is one cell with one heap
— nothing is shared across cells except the mailboxes — shard RNGs are
independent forks (``rng.fork("shard<i>")``), and fleet results merge
through the commutative snapshot algebra (`shard_snapshot` /
`merged_fleet_snapshot` — counters add, gauges max).  That mailbox order
is also the seam a one-process-per-shard stepper would use: only
:meth:`ShardedSimulator._step_epoch` knows how the cells are advanced
(docs/PERFORMANCE.md, "Threads: the verdict", says why it is a loop).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.simcore.simulator import RunResult, SimulationError, Simulator

_INF = float("inf")

#: Default epoch width / cross-shard latency floor, seconds.  Chosen at
#: cloud-internal scale (≈ the p95 of one engine↔service hop): wide
#: enough that chaos-length runs take only a few thousand barriers,
#: narrow enough that a floored cross-shard hint costs less than the
#: fastest poll turnaround it accelerates.
DEFAULT_LOOKAHEAD = 0.05


class MailboxEntry(tuple):
    """``(deliver_at, src, seq, dst, fn, args)`` — kept sortable by the
    deterministic ``(deliver_at, src, seq)`` drain key via plain tuple
    comparison (``fn``/``args`` are never reached because ``(src, seq)``
    is unique)."""

    __slots__ = ()


class ShardedSimulator:
    """N shard simulators stepped together under epoch barriers.

    Parameters
    ----------
    num_shards:
        Number of per-shard :class:`~repro.simcore.simulator.Simulator`
        instances to create (``sims[i]`` is shard *i*'s kernel).
    lookahead:
        Epoch width once the fleet is *coupled* (a cross-shard router
        attached).  Also the minimum latency any cross-shard message must
        carry; :meth:`post` enforces it.  Uncoupled fleets (no possible
        cross-shard traffic) run each shard straight to the target in
        one epoch.
    """

    def __init__(self, num_shards: int, lookahead: float = DEFAULT_LOOKAHEAD) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        # NaN and inf fail the chained compare; a bool is not a width.
        if isinstance(lookahead, bool) or not 0 < lookahead < _INF:
            raise ValueError(
                f"lookahead must be a positive, finite number of seconds, "
                f"got {lookahead!r}"
            )
        self.num_shards = num_shards
        self.lookahead = float(lookahead)
        self.sims: List[Simulator] = [Simulator() for _ in range(num_shards)]
        # One world, one trigger-event id source: a publication fans out
        # on whichever shard hosts the service, from the same counter.
        for sim in self.sims[1:]:
            sim.event_ids = self.sims[0].event_ids
        # One outbox per source shard plus one controller outbox (index
        # num_shards): a shard appends only to its own, so its entries'
        # sequence numbers do not depend on what other shards sent.
        self._outboxes: List[List[MailboxEntry]] = [
            [] for _ in range(num_shards + 1)
        ]
        self._seqs = [0] * (num_shards + 1)  # each outbox's next sequence number
        self.epochs = 0
        self.mailbox_messages = 0
        self._coupled = False

    # -- coupling ------------------------------------------------------------

    def mark_coupled(self) -> None:
        """Declare that cross-shard traffic is possible.

        Called by the cross-shard router when it attaches.  From then on
        epochs are bounded by ``lookahead`` so no shard can run past a
        message another shard may still send it.
        """
        self._coupled = True

    # -- mailboxes -----------------------------------------------------------

    def post(
        self,
        dst: int,
        deliver_at: float,
        fn: Callable[..., Any],
        *args: Any,
        src: Optional[int] = None,
    ) -> None:
        """Enqueue ``fn(*args)`` for shard ``dst`` at ``deliver_at``.

        ``src`` is the sending shard (the entry goes to that shard's own
        outbox); ``None`` means the controller — code running *between*
        epochs, e.g. a testbed injecting fleet-level events before the
        run starts.
        """
        source = self.num_shards if src is None else src
        seqs = self._seqs
        seq = seqs[source]
        seqs[source] = seq + 1
        self._outboxes[source].append(MailboxEntry((
            deliver_at, source, seq, dst, fn, args,
        )))

    def broadcast(
        self, deliver_at: float, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Post the same callback to every shard (fleet-level events)."""
        for dst in range(self.num_shards):
            self.post(dst, deliver_at, fn, *args)

    def _drain_mailboxes(self) -> None:
        """Schedule every posted entry into its destination heap.

        Runs only at barriers (no shard is stepping).  Entries are
        sorted by ``(deliver_at, src, seq)`` — a total order independent
        of the order cells are stepped in — so destination heaps receive
        the same event sequence on every run.
        """
        pending: List[MailboxEntry] = []
        for outbox in self._outboxes:
            if outbox:
                pending.extend(outbox)
                outbox.clear()
        if not pending:
            return
        pending.sort()
        sims = self.sims
        for deliver_at, _src, _seq, dst, fn, args in pending:
            sim = sims[dst]
            if deliver_at < sim._now:
                raise SimulationError(
                    f"cross-shard message for shard {dst} at t={deliver_at} "
                    f"arrived after its clock ({sim._now}); the sender "
                    f"violated the {self.lookahead}s lookahead floor"
                )
            sim.schedule_at(deliver_at, fn, *args, label="mailbox")
        self.mailbox_messages += len(pending)

    # -- clocks --------------------------------------------------------------

    @property
    def now(self) -> float:
        """The fleet clock: the slowest shard's time (all equal at barriers)."""
        return min(sim.now for sim in self.sims)

    @property
    def fired_count(self) -> int:
        """Total events fired across all shards."""
        return sum(sim.fired_count for sim in self.sims)

    @property
    def pending(self) -> int:
        """Live scheduled events across all shards (O(num_shards))."""
        return sum(sim.pending for sim in self.sims)

    def sim(self, shard: int) -> Simulator:
        """Shard ``i``'s kernel (each shard's nodes schedule only here)."""
        return self.sims[shard]

    # -- epoch stepping ------------------------------------------------------

    def _step_epoch(self, horizon: float) -> int:
        """Advance every shard to ``horizon``; returns events fired.

        Only a shard with a live event at or before ``horizon`` is entered
        (its :meth:`Simulator.run_until`).  Any other shard just has its
        clock set to ``horizon``, which is all an empty ``run_until``
        does, after the same drop of cancelled entries from the top of
        its heap.  A shard whose clock is already past ``horizon`` is
        entered too, so that ``run_until`` refuses the step as before.
        """
        fired = 0
        for sim in self.sims:
            heap = sim._heap
            if heap and heap[0][3]._canceled:
                sim._peek()
            if (heap and heap[0][0] <= horizon) or horizon < sim._now:
                fired += sim.run_until(horizon)
            else:
                sim._now = horizon
        return fired

    def _cross_empty_epochs(self, horizon: float, time: float) -> float:
        """Count the empty epochs ending at ``horizon`` and after it.

        Returns the first barrier at which some shard has work, or
        ``time``.  An epoch is empty when no shard has a live event at or
        before its barrier and no clock is past it: every shard's
        ``run_until`` would fire nothing and only move its clock.  The
        mailboxes are drained, and an epoch that fires nothing posts
        nothing, so the whole run of empty epochs is crossed without
        entering a shard.  Each barrier is computed with the float
        additions :meth:`run_until` makes, so the grid, ``epochs`` and
        every clock end up as if each empty epoch had been stepped.
        This only reads the cells; :meth:`_step_epoch` moves them.
        """
        due = _INF
        sims = self.sims
        for sim in sims:
            if sim._now > horizon:
                return horizon
            heap = sim._heap
            if heap and heap[0][3]._canceled:
                sim._peek()
            if heap and heap[0][0] < due:
                due = heap[0][0]
        if due <= horizon:
            return horizon
        lookahead = self.lookahead
        while due > horizon < time:
            self.epochs += 1
            crossed = horizon
            horizon += lookahead
            if not horizon < time:  # min(time, horizon + lookahead)
                horizon = time
        # Every clock to the last crossed barrier, where stepping would
        # have left it; no shard has work there, so none is entered.
        self._step_epoch(crossed)
        return horizon

    def run_until(self, time: float) -> int:
        """Step every shard to ``time`` through epoch barriers.

        Returns the total number of events fired by this call.  On
        return all shard clocks equal ``time`` and every cross-shard
        message produced on the way has been delivered or scheduled.
        ``time`` must not be NaN or before :attr:`now`
        (:class:`SimulationError`); ``time == now`` is a no-op.

        Coupled barriers fall on the grid ``h <- min(time, h +
        lookahead)`` from the fleet clock; a run of epochs in which no
        shard has work is counted, not stepped
        (:meth:`_cross_empty_epochs`).
        """
        now = self.now
        if not time >= now:  # also rejects NaN, which compares false
            raise SimulationError(f"cannot run until t={time} < now={now}")
        sims = self.sims
        outboxes = self._outboxes
        lookahead = self.lookahead
        fired = 0
        while True:
            if any(outboxes):
                self._drain_mailboxes()
            now = _INF  # the fleet clock, :attr:`now`
            for sim in sims:
                if sim._now < now:
                    now = sim._now
            if now >= time:
                break
            horizon = now + lookahead
            if not self._coupled or not horizon < time:
                horizon = time
            else:
                horizon = self._cross_empty_epochs(horizon, time)
            fired += self._step_epoch(horizon)
            self.epochs += 1
        return fired

    def run(self, max_epochs: int = 1_000_000) -> RunResult:
        """Step until every heap and mailbox drains (bounded by epochs).

        ``completed`` is ``False`` when ``max_epochs`` ended the run with
        events or mailbox entries still pending; calling again resumes.
        """
        fired = 0
        for _ in range(max_epochs):
            self._drain_mailboxes()
            bounds = [sim.peek_time() for sim in self.sims]
            live = [t for t in bounds if t is not None]
            if not live:
                return RunResult(fired, True)
            horizon = max(live) if not self._coupled else min(live) + self.lookahead
            fired += self._step_epoch(max(horizon, self.now))
            self.epochs += 1
        return RunResult(fired, not self.pending and not any(self._outboxes))

    def shutdown(self) -> None:
        """Frozen ``benchmarks/ledger/adapters.py``; removed by ROADMAP 1(a)."""

    def __repr__(self) -> str:
        return (
            f"<ShardedSimulator shards={self.num_shards} now={self.now:.6g} "
            f"epochs={self.epochs} coupled={self._coupled}>"
        )
