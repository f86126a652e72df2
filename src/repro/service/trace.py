"""Requests and deterministic request traces for the serving loop.

The service is exercised by *traces*, not wall-clock load generators:
a trace is a list of :class:`TraceEvent` (requests and epoch bumps) on
the virtual millisecond clock, replayed in arrival order by
:meth:`~repro.service.server.ClusteringService.run_trace`.  Because
arrivals, the synthetic workload mix (:func:`make_trace`, seeded
``Generator`` streams only — GS004), injected faults, and execution
durations (modeled device ms) are all deterministic, every admission /
deadline / retry / degradation path replays bit-identically — overload
is a fixture, not a flake.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.index.base import check_eps, check_minpts

__all__ = ["Request", "TraceEvent", "make_trace"]


@dataclass(frozen=True)
class Request:
    """One clustering query against a registered dataset."""

    dataset_id: str
    eps: float
    minpts: int
    #: deadline relative to arrival (virtual ms); None = best-effort
    deadline_ms: Optional[float] = None
    tenant: str = "default"
    #: arrival instant on the service's virtual clock
    arrival_ms: float = 0.0
    #: trace sequence number (stable tiebreak + fault-injection key)
    seq: int = 0

    def __post_init__(self) -> None:
        check_minpts(self.minpts)
        check_eps(self.eps)
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive (or None)")
        if self.arrival_ms < 0:
            raise ValueError("arrival_ms must be non-negative")


@dataclass(frozen=True)
class TraceEvent:
    """A request arrival or a dataset epoch bump."""

    arrival_ms: float
    #: "request" | "bump"
    kind: str = "request"
    request: Optional[Request] = None
    #: for bumps: the dataset whose epoch advances
    dataset_id: str = ""
    #: for bumps: replacement points (None keeps the current points)
    points: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("request", "bump"):
            raise ValueError(f"unknown trace event kind {self.kind!r}")
        if self.kind == "request" and self.request is None:
            raise ValueError("request events need a request")
        if self.kind == "bump" and not self.dataset_id:
            raise ValueError("bump events need a dataset_id")


def make_trace(
    dataset_id: str,
    *,
    n_requests: int,
    eps_choices: list,
    minpts_choices: list,
    mean_interarrival_ms: float,
    deadline_ms: Optional[float] = None,
    n_tenants: int = 1,
    bump_every: int = 0,
    seed: int = 0,
) -> list[TraceEvent]:
    """Seeded synthetic workload: Poisson-ish arrivals over a mix of
    ``(eps, minpts, tenant)``; every ``bump_every`` requests an epoch
    bump is interleaved (0 disables bumps).  Deterministic per seed."""
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    if not eps_choices or not minpts_choices:
        raise ValueError("eps_choices and minpts_choices must be non-empty")
    if mean_interarrival_ms < 0:
        raise ValueError("mean_interarrival_ms must be non-negative")
    if n_tenants < 1:
        raise ValueError("n_tenants must be >= 1")
    rng = np.random.default_rng(seed)
    events: list[TraceEvent] = []
    t = 0.0
    for i in range(n_requests):
        t += float(rng.exponential(mean_interarrival_ms)) if (
            mean_interarrival_ms > 0
        ) else 0.0
        if bump_every and i and i % bump_every == 0:
            events.append(
                TraceEvent(arrival_ms=t, kind="bump", dataset_id=dataset_id)
            )
        events.append(
            TraceEvent(
                arrival_ms=t,
                request=Request(
                    dataset_id=dataset_id,
                    eps=float(eps_choices[int(rng.integers(len(eps_choices)))]),
                    minpts=int(
                        minpts_choices[int(rng.integers(len(minpts_choices)))]
                    ),
                    deadline_ms=deadline_ms,
                    tenant=f"tenant{int(rng.integers(n_tenants))}",
                    arrival_ms=t,
                    seq=i,
                ),
            )
        )
    return events
