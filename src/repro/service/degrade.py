"""Graceful degradation: bounded-quality answers instead of timeouts.

When the admission queue passes its high-water mark, or a request's
remaining deadline budget cannot fit a full neighbor-table build, the
service has three honest options, tried in order:

1. **stale** — serve cached results from the dataset's previous epoch
   (an exact answer to a slightly old question), flagged
   ``stale=True``;
2. **sampled** — the paper's sample fraction ``f`` turned into a
   quality knob: build on an evenly spread
   :func:`~repro.kernels.count_kernel.sample_point_ids` subset sized to
   the remaining budget, cluster the subset, and return full-length
   labels with unsampled points marked noise — flagged with the
   fraction used;
3. **reject** — a typed :class:`~repro.service.admission.ServiceError`
   when degradation is disabled.

Every degraded response carries ``degraded=True`` plus the specific
flag (``stale`` / ``sample_fraction``); exact responses never do.  The
full-build cost estimate feeding the decision is a per-dataset EWMA of
observed modeled device milliseconds (:class:`CostTracker`) — it
converges after the first exact build and is deterministic thereafter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.hybrid_dbscan import HybridDBSCAN
from repro.core.table_dbscan import NOISE
from repro.kernels.count_kernel import sample_point_ids

__all__ = [
    "DegradeConfig",
    "DegradeDecision",
    "CostTracker",
    "choose_mode",
    "sampled_labels",
]


@dataclass(frozen=True)
class DegradeConfig:
    """Tunables of the degradation policy."""

    enabled: bool = True
    #: default sample fraction for approximate builds
    sample_fraction: float = 0.25
    #: floor for budget-driven fraction shrinking
    min_sample_fraction: float = 0.05
    #: serve the previous epoch's cached answer when available
    allow_stale: bool = True
    #: safety factor applied to the full-build cost estimate
    estimate_margin: float = 1.25

    def __post_init__(self) -> None:
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        if not 0.0 < self.min_sample_fraction <= self.sample_fraction:
            raise ValueError(
                "min_sample_fraction must be in (0, sample_fraction]"
            )
        if self.estimate_margin < 1.0:
            raise ValueError("estimate_margin must be >= 1")


@dataclass(frozen=True)
class DegradeDecision:
    """Outcome of the admission → cache → execute → degrade policy."""

    #: "exact" | "stale" | "sampled" | "reject"
    mode: str
    reason: str = ""
    sample_fraction: float = 0.0


def choose_mode(
    cfg: DegradeConfig,
    *,
    budget_ms: Optional[float],
    estimate_ms: Optional[float],
    overloaded: bool,
    stale_available: bool,
) -> DegradeDecision:
    """Pick the serving mode for a cache-missing request.

    ``budget_ms`` is the deadline budget remaining at start (None =
    no deadline); ``estimate_ms`` the margin-adjusted full-build
    estimate (None = no history yet — optimistically try exact);
    ``overloaded`` the admission high-water hint.
    """
    deadline_tight = (
        budget_ms is not None
        and estimate_ms is not None
        and estimate_ms > budget_ms
    )
    if not overloaded and not deadline_tight:
        return DegradeDecision(mode="exact")
    reason = "queue over high-water mark" if overloaded else (
        f"full build estimate {estimate_ms:.2f}ms exceeds deadline "
        f"budget {budget_ms:.2f}ms"
    )
    if not cfg.enabled:
        return DegradeDecision(mode="reject", reason=reason)
    if cfg.allow_stale and stale_available:
        return DegradeDecision(mode="stale", reason=reason)
    fraction = cfg.sample_fraction
    if deadline_tight:
        # linear cost model: shrink f until the estimated cost fits
        assert budget_ms is not None and estimate_ms is not None
        fraction = min(fraction, budget_ms / estimate_ms)
        fraction = max(cfg.min_sample_fraction, fraction)
    return DegradeDecision(
        mode="sampled", reason=reason, sample_fraction=float(fraction)
    )


@dataclass
class CostTracker:
    """EWMA of exact-build modeled device ms per point, per dataset."""

    alpha: float = 0.5
    _per_point_ms: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")

    def observe(self, dataset_id: str, n_points: int, device_ms: float) -> None:
        per_point = device_ms / n_points
        prev = self._per_point_ms.get(dataset_id)
        self._per_point_ms[dataset_id] = (
            per_point
            if prev is None
            else self.alpha * per_point + (1.0 - self.alpha) * prev
        )

    def estimate_ms(self, dataset_id: str, n_points: int) -> Optional[float]:
        per_point = self._per_point_ms.get(dataset_id)
        if per_point is None:
            return None
        return per_point * n_points


def sampled_labels(
    points: np.ndarray,
    eps: float,
    minpts: int,
    fraction: float,
    *,
    hybrid: HybridDBSCAN,
) -> tuple[np.ndarray, int]:
    """Approximate clustering on an evenly spread ``fraction`` sample.

    Returns full-length labels — sampled points carry their subset
    clustering, unsampled points are NOISE — plus the sample size.
    Runs on ``hybrid``'s device (a fresh, fault-free one: the degraded
    path is the fallback of last resort and must not itself retry).
    """
    ids = sample_point_ids(len(points), fraction)
    sub = hybrid.fit(points[ids], eps, minpts)
    labels = np.full(len(points), NOISE, dtype=sub.labels.dtype)
    labels[ids] = sub.labels
    return labels, len(ids)
