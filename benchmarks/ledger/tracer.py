"""Span recording for the traced pass, done entirely from outside ``src/``.

Before a world is built the tracer replaces a declared table of each
layer's public entry points with span-opening wrappers (and puts them
back afterwards).  A span has a name, a layer, a start, an end and a
parent; a per-thread span stack gives *self time* = duration minus the
time its child spans cover.  Spans are aggregated in memory per
``parent layer -> layer`` edge (calls, total, self); the first
``sample_limit`` raw spans of each phase are kept as a sample.

Four wrapper kinds besides the plain call span:

``fire``
    ``Event.fire`` — the span's layer is the layer owning the module that
    defines the event's callback, so every simulator event hangs under
    the layer whose code it runs.
``route`` / ``request``
    ``HttpNode.add_route`` / ``HttpNode.request`` — the handler (resp.
    ``on_response`` callback) passing through is itself wrapped, again
    charged to the layer owning its module.
``backref``
    ``HeapPollScheduler.schedule`` — the scheduler calls back into its
    engine through its public ``engine`` attribute and no public method;
    the first call swaps that attribute for a forwarding proxy that opens
    an ``engine`` span around each call made through it.
``fork``
    ``ShardedSimulator.run_until`` — children may run on worker threads;
    the part of the interval they cover is subtracted from self time.

Wrappers change who is timed, never what is computed: the traced run
must reproduce the untraced run's ``sim_fingerprint``.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

#: Layer of the harness's own phase frames; its self time is the part of
#: a phase that ran under no span.
HARNESS = "harness"
#: Layer for callbacks defined outside the declared layers.
OTHER = "other"


def _call(function: Callable, *args: Any, **kwargs: Any) -> Any:
    return function(*args, **kwargs)


class EntryPoint(NamedTuple):
    owner: type
    attr: str
    layer: str
    kind: str = "call"


class _ThreadState:
    """One thread's open-span stack and edge table."""

    __slots__ = ("stack", "edges", "worker")

    def __init__(self, base_layer: int, worker: bool) -> None:
        # frame = [layer index, start ns, child ns, span id].  The base
        # frame never closes: on the main thread it is the harness, on a
        # worker it stands in for whatever span the main thread had open
        # when the worker first ran, so the worker's root spans become
        # that span's children.
        self.stack: List[List[int]] = [[base_layer, 0, 0, -1]]
        self.edges: Dict[int, List[int]] = {}
        self.worker = worker


class _BackrefProxy:
    """Forwards everything; calls made through it open a span."""

    __slots__ = ("_target", "_tracer", "_wrapped")

    def __init__(self, target: Any, tracer: "Tracer") -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_wrapped", {})

    def __getattr__(self, name: str) -> Any:
        value = getattr(self._target, name)
        if not callable(value):
            return value
        wrapped = self._wrapped.get(name)
        if wrapped is None:
            wrapped = self._wrapped[name] = self._tracer.wrap_callable(value)
        return wrapped

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._target, name, value)


class Tracer:
    """Patches entry points, records spans, aggregates per layer edge."""

    def __init__(
        self,
        layers: Iterable[str],
        layer_of_module: Callable[[Optional[str]], Optional[str]],
        sample_limit: int = 5_000,
    ) -> None:
        self.layers: List[str] = list(layers) + [OTHER, HARNESS]
        self._index = {name: i for i, name in enumerate(self.layers)}
        self._layer_of_module = layer_of_module
        self._layer_cache: Dict[Any, int] = {}
        self._callable_spans: Dict[Any, Callable] = {}
        self._local = threading.local()
        main = self._local.state = _ThreadState(self._index[HARNESS], worker=False)
        self._states: List[_ThreadState] = [main]
        self._ids = itertools.count()
        self._patched: List[Tuple[type, str, Any]] = []
        self.sample_limit = sample_limit
        # Spans with an id below this are sampled; each phase moves it to
        # ``sample_limit`` past its own first span.
        self._sample_below = [sample_limit]
        #: ``(id, parent id, name, layer, start ns, end ns)`` of the first
        #: spans of each phase.
        self.sample: List[Tuple[int, int, str, str, int, int]] = []
        #: phase name -> aggregated tables, filled as each phase closes.
        self.phases: Dict[str, Dict[str, Any]] = {}

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            pass
        # First span on a worker thread (the main thread's state was made
        # by the constructor).
        state = self._local.state = _ThreadState(
            self._states[0].stack[-1][0], worker=True
        )
        self._states.append(state)
        return state

    @staticmethod
    def _function_of(callback: Any) -> Tuple[Any, Any]:
        """The plain function behind ``callback`` and a cache key for it
        (the code object, so per-call closures share one entry)."""
        function = getattr(callback, "__func__", callback)
        return function, getattr(function, "__code__", None) or type(function)

    def _layer_index(self, callback: Any) -> int:
        """The layer owning the module that defines ``callback``."""
        function, key = self._function_of(callback)
        index = self._layer_cache.get(key)
        if index is None:
            layer = self._layer_of_module(getattr(function, "__module__", None))
            index = self._layer_cache[key] = self._index[layer or OTHER]
        return index

    # -- the span ------------------------------------------------------------

    def _open(self, index: int) -> Tuple[List[List[int]], List[int], _ThreadState]:
        state = self._state()
        frame = [index, 0, 0, next(self._ids)]
        state.stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return state.stack, frame, state

    def _close(
        self, stack: List[List[int]], frame: List[int], state: _ThreadState,
        name: str, covered: int = 0,
    ) -> None:
        end = time.perf_counter_ns()
        stack.pop()
        duration = end - frame[1]
        own = duration - frame[2] - covered
        parent = stack[-1]
        parent[2] += duration
        key = parent[0] * len(self.layers) + frame[0]
        record = state.edges.get(key)
        if record is None:
            state.edges[key] = [1, duration, own]
        else:
            record[0] += 1
            record[1] += duration
            record[2] += own
        if frame[3] < self._sample_below[0]:
            self.sample.append(
                (frame[3], parent[3], name, self.layers[frame[0]], frame[1], end)
            )

    def _wrap(self, function: Callable, index: int, name: str) -> Callable:
        """The hot wrapper: ``_open``/``_close`` inlined for speed."""
        state_of = self._state
        local = self._local
        ids = self._ids
        clock = time.perf_counter_ns
        width = len(self.layers)
        sample_below = self._sample_below
        sample = self.sample
        layer = self.layers[index]

        def span(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = state_of()
            stack = state.stack
            frame = [index, 0, 0, next(ids)]
            stack.append(frame)
            frame[1] = start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = stack[-1]
                parent[2] += duration
                key = parent[0] * width + index
                record = state.edges.get(key)
                if record is None:
                    state.edges[key] = [1, duration, duration - frame[2]]
                else:
                    record[0] += 1
                    record[1] += duration
                    record[2] += duration - frame[2]
                if frame[3] < sample_below[0]:
                    sample.append((frame[3], parent[3], name, layer, start, end))

        span.__wrapped__ = function
        span.__name__ = getattr(function, "__name__", name)
        return span

    _call_wrapper = _wrap

    def wrap_callable(self, callback: Callable) -> Callable:
        """Wrap a callback in a span of the layer that defines it.

        Cheap enough to do per request: one span wrapper per code object
        is kept, and each callback is only bound to it.
        """
        function, key = self._function_of(callback)
        span = self._callable_spans.get(key)
        if span is None:
            name = getattr(function, "__qualname__", type(function).__name__)
            span = self._callable_spans[key] = self._wrap(
                _call, self._layer_index(callback), name
            )
        return functools.partial(span, callback)

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """A span the harness opens around its own call into a layer."""
        stack, frame, state = self._open(self._index[layer])
        try:
            yield
        finally:
            self._close(stack, frame, state, name)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Everything inside is one phase; its tables land in ``phases``."""
        stack, frame, state = self._open(self._index[HARNESS])
        self._sample_below[0] = frame[3] + self.sample_limit
        try:
            yield
        finally:
            self._close(stack, frame, state, f"phase:{name}")
            self.phases[name] = self._collect()

    # -- wrapper kinds -------------------------------------------------------

    def _fire_wrapper(self, original: Callable, index: int, name: str) -> Callable:
        # ``index`` (the layer declared for Event.fire itself) is unused:
        # each callback's defining module decides.
        spans: Dict[Any, Callable] = {}

        def fire(event):
            callback = event.callback
            try:
                key = callback.__func__.__code__  # a bound method, nearly always
            except AttributeError:
                key = self._function_of(callback)[1]
            span = spans.get(key)
            if span is None:
                function = self._function_of(callback)[0]
                name = getattr(function, "__qualname__", type(function).__name__)
                span = spans[key] = self._wrap(
                    original, self._layer_index(callback), f"event:{name}"
                )
            return span(event)

        fire.__wrapped__ = original
        return fire

    def _route_wrapper(self, original: Callable, index: int, name: str) -> Callable:
        inner = self._wrap(original, index, name)

        def add_route(node, method, path_prefix, handler):
            return inner(node, method, path_prefix, self.wrap_callable(handler))

        add_route.__wrapped__ = original
        return add_route

    def _request_wrapper(self, original: Callable, index: int, name: str) -> Callable:
        inner = self._wrap(original, index, name)

        def request(node, dst, method, path, body=None, on_response=None, *args, **kwargs):
            if on_response is not None:
                on_response = self.wrap_callable(on_response)
            return inner(node, dst, method, path, body, on_response, *args, **kwargs)

        request.__wrapped__ = original
        return request

    def _backref_wrapper(self, original: Callable, index: int, name: str) -> Callable:
        inner = self._wrap(original, index, name)

        def schedule(scheduler, *args, **kwargs):
            if type(scheduler.engine) is not _BackrefProxy:
                scheduler.engine = _BackrefProxy(scheduler.engine, self)
            return inner(scheduler, *args, **kwargs)

        schedule.__wrapped__ = original
        return schedule

    def _fork_wrapper(self, original: Callable, index: int, name: str) -> Callable:
        def worker_busy() -> Dict[int, int]:
            return {id(s): s.stack[0][2] for s in self._states if s.worker}

        def forked(*args, **kwargs):
            before = worker_busy()
            stack, frame, state = self._open(index)
            try:
                return original(*args, **kwargs)
            finally:
                # Workers run concurrently, so the interval they cover is
                # at least the busiest worker's time, at most what this
                # thread's own children left uncovered.
                busiest = max(
                    (busy - before.get(key, 0) for key, busy in worker_busy().items()),
                    default=0,
                )
                elapsed = time.perf_counter_ns() - frame[1]
                covered = max(0, min(busiest, elapsed - frame[2]))
                self._close(stack, frame, state, name, covered)

        forked.__wrapped__ = original
        return forked

    # -- install / uninstall -------------------------------------------------

    def install(self, entry_points: Iterable[EntryPoint]) -> None:
        """Replace each declared entry point with its span wrapper."""
        for point in entry_points:
            if point.attr.startswith("_"):
                raise ValueError(f"private entry point {point.owner.__name__}.{point.attr}")
            original = point.owner.__dict__[point.attr]
            index = self._index[point.layer]
            name = f"{point.owner.__name__}.{point.attr}"
            wrapper = getattr(self, f"_{point.kind}_wrapper")(original, index, name)
            setattr(point.owner, point.attr, wrapper)
            self._patched.append((point.owner, point.attr, original))

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def _collect(self) -> Dict[str, Any]:
        """Merge and reset every thread's edge table."""
        width = len(self.layers)
        merged: Dict[int, List[int]] = {}
        for state in list(self._states):
            for key, (calls, total, own) in state.edges.items():
                record = merged.setdefault(key, [0, 0, 0])
                record[0] += calls
                record[1] += total
                record[2] += own
            state.edges = {}
        edges = []
        layers = {
            name: {"calls_in": 0, "spans": 0, "child_spans": 0, "total_ns": 0, "self_ns": 0}
            for name in self.layers
        }
        for key in sorted(merged):
            calls, total, own = merged[key]
            parent, child = self.layers[key // width], self.layers[key % width]
            edges.append({
                "parent": parent, "layer": child,
                "calls": calls, "total_ns": total, "self_ns": own,
            })
            layers[parent]["child_spans"] += calls
            entry = layers[child]
            entry["spans"] += calls
            entry["self_ns"] += own
            if parent != child:
                entry["calls_in"] += calls
                entry["total_ns"] += total
        return {"layers": layers, "edges": edges}

    def calibrate(self, calls: int = 100_000) -> Dict[str, float]:
        """Per-span cost of the wrapper itself, in ns.

        ``inside_ns`` lands in the span's own self time (between its two
        clock reads); ``outside_ns`` lands in the parent's.  The ledger
        subtracts both (see :func:`corrected_self_ns`) so that layers made
        of many short calls are not charged for being watched; the raw
        numbers stay in the trace file.
        """
        def noop(node: Any, message: Any, label: Any = None) -> None:
            return None

        wrapped = self._wrap(noop, self._index[OTHER], "calibrate")
        clock = time.perf_counter_ns
        with self.phase("calibrate"):
            start = clock()
            for _ in range(calls):
                noop(self, calls, label=None)
            bare = clock() - start
            start = clock()
            for _ in range(calls):
                wrapped(self, calls, label=None)
            traced = clock() - start
        inside = self.phases.pop("calibrate")["layers"][OTHER]["self_ns"] / calls
        # The sample is for spans of the run, not of this loop.  (Wrappers
        # bind the id counter when made, so this precedes ``install``.)
        self._ids = itertools.count()
        del self.sample[:]
        return {
            "inside_ns": round(inside, 1),
            "outside_ns": round((traced - bare) / calls - inside, 1),
        }


def corrected_self_ns(entry: Dict[str, int], calibration: Dict[str, float]) -> float:
    """A layer's self time less the wrapper cost that landed in it."""
    return max(0.0, (
        entry["self_ns"]
        - entry["spans"] * calibration["inside_ns"]
        - entry["child_spans"] * calibration["outside_ns"]
    ))
