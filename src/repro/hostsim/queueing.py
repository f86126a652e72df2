"""Virtual-clock worker pool: the one earliest-free-worker primitive.

A *service* admits requests one at a time, at arrival, and must answer
"when could this start?" before deciding whether to run it at all
(admission control, deadline fitting, degradation —
:mod:`repro.service`).  :class:`WorkerPool` answers it with a min-heap
of per-worker free instants on a virtual clock, advanced by modeled
execution times — never by wall clock — so every serving decision is
deterministic.  The service's clock is in milliseconds; the batch
schedulers of :mod:`repro.hostsim.scheduler` book their task lists onto
the same pool in seconds (the clock is unit-agnostic).

The two-phase API mirrors how admission works: ``peek_start`` quotes
the earliest start for a request arriving *now* (the quote drives the
deadline/degrade decision), and ``commit`` books the chosen duration
onto the earliest-free worker.  Calls must alternate per decision, which
is exactly the shape of the single-threaded event loop driving it.
"""

from __future__ import annotations

import heapq

__all__ = ["WorkerPool"]


class WorkerPool:
    """``n_workers`` identical workers on a shared virtual clock."""

    def __init__(self, n_workers: int):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        # ties on the free instant go to the lowest worker id; the
        # sorted initial list is already a valid heap
        self._free: list[tuple[float, int]] = [
            (0.0, w) for w in range(self.n_workers)
        ]
        #: total committed busy time across workers
        self.busy_ms = 0.0
        #: last committed end instant (0 with nothing committed)
        self.makespan_ms = 0.0

    def peek_start(self, now_ms: float) -> float:
        """Earliest instant a request arriving at ``now_ms`` could start."""
        return max(float(now_ms), self._free[0][0])

    def commit(self, start_ms: float, duration_ms: float) -> int:
        """Book ``duration_ms`` on the earliest-free worker; returns its id.

        ``start_ms`` must be at least the quoted :meth:`peek_start` for
        the same decision (the pool cannot travel back in time).
        """
        if duration_ms < 0:
            raise ValueError("duration_ms must be non-negative")
        free_ms, worker = self._free[0]
        if start_ms < free_ms:
            raise ValueError(
                f"start {start_ms} predates worker {worker}'s free instant {free_ms}"
            )
        end_ms = float(start_ms) + float(duration_ms)
        heapq.heapreplace(self._free, (end_ms, worker))
        self.busy_ms += float(duration_ms)
        self.makespan_ms = max(self.makespan_ms, end_ms)
        return worker

    @property
    def utilization(self) -> float:
        """Busy fraction of ``n_workers`` x makespan (1.0 when idle)."""
        denom = self.makespan_ms * self.n_workers
        return self.busy_ms / denom if denom else 1.0
