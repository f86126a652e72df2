"""Deterministic task schedulers for the simulated multicore host.

Two shapes cover the paper's host-side concurrency:

* :func:`schedule_parallel` — ``n`` identical workers pull tasks in
  order as they become free (OpenMP dynamic-schedule analogue).  Used
  for S3: 16 threads clustering different minpts values from one ``T``.
* :func:`schedule_pipeline` — one producer emits items one after
  another; ``n`` consumers process each item as it becomes ready.  Used
  for S2: the table producer feeds DBSCAN consumers.

Both book their tasks onto :class:`~repro.hostsim.queueing.WorkerPool`
(quote with ``peek_start``, book with ``commit``) — the one
earliest-free-worker primitive, ties going to the lowest worker id — and
return full per-task intervals so benches can report utilization, not
just the makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.hostsim.queueing import WorkerPool

__all__ = ["Schedule", "PipelineSchedule", "schedule_parallel", "schedule_pipeline"]


@dataclass(frozen=True)
class TaskInterval:
    task: int
    worker: int
    start_s: float
    end_s: float


@dataclass(frozen=True)
class Schedule:
    """Result of a parallel schedule."""

    makespan_s: float
    n_workers: int
    intervals: tuple[TaskInterval, ...]

    @property
    def serial_s(self) -> float:
        return sum(t.end_s - t.start_s for t in self.intervals)

    @property
    def speedup(self) -> float:
        return self.serial_s / self.makespan_s if self.makespan_s else 1.0

    @property
    def utilization(self) -> float:
        denom = self.makespan_s * self.n_workers
        return self.serial_s / denom if denom else 1.0


@dataclass(frozen=True)
class PipelineSchedule:
    """Result of a producer/consumer pipeline schedule."""

    makespan_s: float
    n_consumers: int
    produce_end_s: tuple[float, ...]
    consume_intervals: tuple[TaskInterval, ...]

    @property
    def producer_busy_s(self) -> float:
        return self.produce_end_s[-1] if self.produce_end_s else 0.0

    @property
    def serial_s(self) -> float:
        """Total if nothing overlapped (the non-pipelined execution)."""
        return self.producer_busy_s + sum(
            t.end_s - t.start_s for t in self.consume_intervals
        )

    @property
    def speedup_vs_serial(self) -> float:
        return self.serial_s / self.makespan_s if self.makespan_s else 1.0


def _validate(durations: Sequence[float], name: str) -> list[float]:
    out = [float(d) for d in durations]
    if any(d < 0 for d in out):
        raise ValueError(f"{name} must be non-negative")
    return out


def schedule_parallel(durations: Sequence[float], n_workers: int) -> Schedule:
    """Greedy in-order dispatch of tasks onto ``n_workers`` cores.

    Tasks are dispatched in list order to the earliest-free worker —
    the behaviour of an OpenMP dynamic-schedule loop (and of a
    ``ThreadPoolExecutor.map``), which is how the paper runs the 16
    concurrent DBSCAN variants of scenario S3.
    """
    pool = WorkerPool(n_workers)
    ds = _validate(durations, "durations")
    intervals: list[TaskInterval] = []
    for i, d in enumerate(ds):
        t = pool.peek_start(0.0)
        w = pool.commit(t, d)
        intervals.append(TaskInterval(task=i, worker=w, start_s=t, end_s=t + d))
    return Schedule(
        makespan_s=pool.makespan_ms, n_workers=n_workers, intervals=tuple(intervals)
    )


def schedule_pipeline(
    produce_durations: Sequence[float],
    consume_durations: Sequence[float],
    n_consumers: int,
    *,
    queue_depth: int | None = None,
) -> PipelineSchedule:
    """Makespan of a single-producer, ``n_consumers``-consumer pipeline.

    Item ``i`` becomes ready when the producer finishes it (the producer
    works strictly in order); each consumer processes one item at a
    time.  With a bounded ``queue_depth`` the producer stalls when that
    many finished items await consumption — matching the bounded queue
    of :class:`repro.core.pipeline.MultiClusterPipeline`.
    """
    if n_consumers < 1:
        raise ValueError("n_consumers must be >= 1")
    if queue_depth is not None and queue_depth < 1:
        # depth 0 would mean "item i may only be produced once item i has
        # started consumption" — a deadlock (and an IndexError below,
        # since intervals[i] does not exist before item i is produced)
        raise ValueError("queue_depth must be >= 1 (or None for unbounded)")
    ps = _validate(produce_durations, "produce_durations")
    cs = _validate(consume_durations, "consume_durations")
    if len(ps) != len(cs):
        raise ValueError("produce and consume lists must have equal length")

    pool = WorkerPool(n_consumers)
    produce_end: list[float] = []
    intervals: list[TaskInterval] = []
    t_prod = 0.0
    for i, (p, c) in enumerate(zip(ps, cs, strict=True)):
        # queue-depth back-pressure: item i can only be produced once
        # item i - queue_depth has started consumption
        if queue_depth is not None and i >= queue_depth:
            t_prod = max(t_prod, intervals[i - queue_depth].start_s)
        t_prod += p
        produce_end.append(t_prod)
        start = pool.peek_start(t_prod)
        w = pool.commit(start, c)
        intervals.append(
            TaskInterval(task=i, worker=w, start_s=start, end_s=start + c)
        )
    return PipelineSchedule(
        # the producer clock only moves forward: its last end is its max
        makespan_s=max(pool.makespan_ms, t_prod),
        n_consumers=n_consumers,
        produce_end_s=tuple(produce_end),
        consume_intervals=tuple(intervals),
    )
