"""CUDA-style streams and the engine-aware scheduler of the simulated device.

The device has three hardware engines — ``compute``, ``h2d`` and ``d2h``
copy engines — matching the dual-copy-engine Tesla cards the paper used.
Work items submitted to the same :class:`Stream` are serialized; items in
different streams overlap whenever their engines are free.  The
:class:`Timeline` holds only scheduler state — engine clocks, stream
vector clocks and epochs: :meth:`Timeline.schedule` places one op and
returns its interval.  The ops themselves are logged once, by
:meth:`~repro.gpusim.device.Device.enqueue`, in the device's
:class:`~repro.gpusim.profiler.Profiler`, which also reports how much
transfer time the batching scheme hides behind kernel execution
(Section VI of the paper).

Ordering semantics (the sanitizer's happens-before graph) are explicit:
each stream carries a vector clock advanced at every scheduled op;
:meth:`Stream.record_event` snapshots it into an :class:`Event` bound to
the recording timeline, :meth:`Stream.wait_event` merges it (and rejects
events from another timeline or a pre-reset epoch — the CUDA
cross-device ``cudaStreamWaitEvent`` misuse), and
:meth:`Timeline.synchronize` is the ``cudaDeviceSynchronize`` analogue
joining every stream.  :meth:`Timeline.reset` starts a new *epoch*:
streams created before the reset are invalidated and raise
:class:`StaleStreamError` on reuse instead of silently carrying stale
``available_ms`` values into the fresh timeline.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Literal, Optional

from repro.gpusim.sanitizer import SynccheckError

__all__ = ["Engine", "Stream", "Event", "Timeline", "StaleStreamError"]

Engine = Literal["compute", "h2d", "d2h", "host"]

_ENGINES: tuple[Engine, ...] = ("compute", "h2d", "d2h", "host")

_stream_ids = itertools.count(0)


class StaleStreamError(RuntimeError):
    """A stream from before a :meth:`Timeline.reset` was reused."""


@dataclass
class Event:
    """A recorded instant in a stream (CUDA event analogue).

    Recorded events are bound to the timeline (and its epoch) they were
    recorded on, and snapshot the recording stream's vector clock so
    :meth:`Stream.wait_event` creates a happens-before edge.
    """

    timestamp_ms: float = 0.0
    recorded: bool = False
    timeline: Optional["Timeline"] = None
    stream_id: Optional[int] = None
    epoch: int = 0
    clock: dict[int, int] = field(default_factory=dict)


class Stream:
    """An ordered queue of device operations."""

    def __init__(self, timeline: "Timeline", name: str = ""):
        self.timeline = timeline
        self.stream_id = next(_stream_ids)
        self.name = name or f"stream{self.stream_id}"
        #: simulated instant at which this stream's last op completes
        self.available_ms = 0.0
        #: timeline epoch this stream belongs to (stale after a reset)
        self.epoch = timeline.epoch
        #: number of ops submitted to this stream (program order)
        self.seq = 0
        #: vector clock: latest known op seq per stream (self included)
        self.clock: dict[int, int] = {self.stream_id: 0}
        timeline._register(self)

    def _check_live(self) -> None:
        if self.epoch != self.timeline.epoch:
            raise StaleStreamError(
                f"stream '{self.name}' belongs to timeline epoch "
                f"{self.epoch}, but the timeline was reset (epoch "
                f"{self.timeline.epoch}); create a new stream"
            )

    def record_event(self) -> Event:
        self._check_live()
        return Event(
            timestamp_ms=self.available_ms,
            recorded=True,
            timeline=self.timeline,
            stream_id=self.stream_id,
            epoch=self.epoch,
            clock=dict(self.clock),
        )

    def wait_event(self, event: Event) -> None:
        """Block subsequent work in this stream until ``event``.

        Rejects unrecorded events and events recorded on a different
        timeline (or a pre-reset epoch of this one) — the synccheck
        hook: a cross-device wait must not silently "work".
        """
        self._check_live()
        if not event.recorded:
            raise SynccheckError("cannot wait on an unrecorded event")
        if event.timeline is not None and event.timeline is not self.timeline:
            raise SynccheckError(
                f"stream '{self.name}' cannot wait on an event recorded "
                f"on a different timeline"
            )
        if event.timeline is self.timeline and event.epoch != self.timeline.epoch:
            raise SynccheckError(
                f"stream '{self.name}' cannot wait on an event recorded "
                f"before the timeline was reset (event epoch {event.epoch}, "
                f"timeline epoch {self.timeline.epoch})"
            )
        self.available_ms = max(self.available_ms, event.timestamp_ms)
        for sid, seq in event.clock.items():
            if self.clock.get(sid, 0) < seq:
                self.clock[sid] = seq


class Timeline:
    """Engine-aware scheduler for simulated stream operations."""

    def __init__(self) -> None:
        self._engine_available: dict[Engine, float] = {e: 0.0 for e in _ENGINES}
        #: reentrant so :meth:`~repro.gpusim.device.Device.enqueue` can hold
        #: it across scheduling an op and logging it
        self.lock = threading.RLock()
        #: bumped by :meth:`reset`; streams from older epochs are stale
        self.epoch = 0
        self._streams: list[Stream] = []

    def _register(self, stream: Stream) -> None:
        with self.lock:
            self._streams.append(stream)

    @property
    def streams(self) -> list[Stream]:
        """Live streams of the current epoch."""
        return [s for s in self._streams if s.epoch == self.epoch]

    def schedule(
        self, stream: Stream, engine: Engine, duration_ms: float
    ) -> tuple[float, float]:
        """Place one op on ``engine`` after ``stream``'s previous op;
        returns its ``(start_ms, end_ms)`` interval."""
        if duration_ms < 0:
            raise ValueError("operation duration must be non-negative")
        if engine not in self._engine_available:
            raise ValueError(f"unknown engine {engine!r}")
        stream._check_live()
        with self.lock:
            start = max(stream.available_ms, self._engine_available[engine])
            end = start + duration_ms
            stream.available_ms = end
            self._engine_available[engine] = end
            stream.seq += 1
            stream.clock[stream.stream_id] = stream.seq
            return start, end

    def synchronize(self) -> float:
        """Device-wide barrier (``cudaDeviceSynchronize`` analogue).

        Joins every live stream: all later work on any stream
        happens-after all work submitted so far.  Returns the barrier
        instant.
        """
        with self.lock:
            live = [s for s in self._streams if s.epoch == self.epoch]
            t = max(
                [*(s.available_ms for s in live), *self._engine_available.values()],
                default=0.0,
            )
            merged: dict[int, int] = {}
            for s in live:
                for sid, seq in s.clock.items():
                    if merged.get(sid, 0) < seq:
                        merged[sid] = seq
            for s in live:
                s.available_ms = t
                s.clock = dict(merged)
            return t

    def reset(self) -> None:
        """Start a fresh epoch: idle engines, old streams invalidated.

        Streams created before the reset raise :class:`StaleStreamError`
        on any further use — callers must create new streams
        (``Device.reset`` recreates the default stream).
        """
        with self.lock:
            self._engine_available = {e: 0.0 for e in _ENGINES}
            self.epoch += 1
            self._streams = []

