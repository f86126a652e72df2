"""The long-lived clustering service: ``repro serve``.

A request loop in front of the existing HYBRID-DBSCAN machinery.  Each
:class:`~repro.service.trace.Request` ``(dataset_id, eps, minpts,
deadline_ms, tenant)`` flows through a fixed state machine::

    admission ──► cache ──► execute (retry + breaker) ──► respond
        │           │                │
        │ reject    │ hit            │ budget/retries/devices exhausted
        ▼           ▼                ▼
    Overloaded    exact          degrade: stale ─► sampled ─► typed reject

and ends in **exactly one** of: an exact result (bit-identical to a
direct :meth:`HybridDBSCAN.fit <repro.core.HybridDBSCAN.fit>` on that
epoch's points), a degraded result flagged as such (``stale=True`` or
``sample_fraction > 0``), or a typed rejection
(:class:`~repro.service.admission.ServiceError` subclass on
:attr:`Response.error`) — never an unhandled exception.

Time is *virtual*: queueing and deadlines run on the millisecond clock
of :class:`~repro.hostsim.WorkerPool`, advanced by modeled device
milliseconds (plus injected ``slowdown`` stalls and backoff delays),
while the actual label computation happens synchronously during
:meth:`ClusteringService.submit`.  That makes every overload, timeout,
retry, and breaker-trip path deterministic and property-testable.

Epoch semantics: a request is served against the dataset epoch current
at its *arrival*; an epoch bump invalidates the cache by keying (older
entries stay addressable only as flagged-stale degraded answers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.hybrid_dbscan import HybridDBSCAN
from repro.core.table_dbscan import NOISE, dbscan_from_table
from repro.gpusim.device import Device
from repro.gpusim.faults import FaultInjector, classify_fault, derive_seed
from repro.hostsim import WorkerPool
from repro.index.base import InvalidInputError, as_points
from repro.index.grid import GridGeometry, point_extent
from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    DeadlineExceeded,
    ExecutionFailed,
    InvalidRequest,
    Overloaded,
    ServiceError,
    UnknownDataset,
)
from repro.service.cache import ResultCache, TableEntry
from repro.service.degrade import (
    CostTracker,
    DegradeConfig,
    choose_mode,
    sampled_labels,
)
from repro.service.retry import CircuitBreaker, RetryPolicy
from repro.service.trace import Request, TraceEvent

__all__ = ["ServeConfig", "Response", "TraceResult", "ClusteringService"]


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of one :class:`ClusteringService` instance."""

    #: simulated host workers executing admitted requests
    n_workers: int = 2
    #: simulated device slots the breaker quarantines over
    n_device_slots: int = 2
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    degrade: DegradeConfig = field(default_factory=DegradeConfig)
    breaker_threshold: int = 3
    breaker_cooldown_ms: float = 250.0
    max_cached_tables: int = 8
    max_cached_label_sets: int = 64
    #: stale epochs kept addressable after a bump (degraded serving)
    stale_keep_epochs: int = 1
    #: virtual cost of serving from cache
    cache_hit_cost_ms: float = 0.05
    #: virtual host-clustering rate for table hits (pairs per ms)
    cluster_rate_pairs_per_ms: float = 50_000.0
    kernel: str = "global"
    backend: str = "vector"
    cluster_on: str = "host"
    seed: int = 0
    #: sanitizer toggle for per-attempt devices (None = GPUSAN env)
    sanitize: Optional[bool] = None
    #: per-attempt fault injection: (request, slot, attempt) -> injector
    fault_factory: Optional[
        Callable[[Request, int, int], Optional[FaultInjector]]
    ] = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.n_device_slots < 1:
            raise ValueError("n_device_slots must be >= 1")
        if self.stale_keep_epochs < 0:
            raise ValueError("stale_keep_epochs must be >= 0")
        if self.cache_hit_cost_ms < 0:
            raise ValueError("cache_hit_cost_ms must be non-negative")
        if self.cluster_rate_pairs_per_ms <= 0:
            raise ValueError("cluster_rate_pairs_per_ms must be positive")


@dataclass
class Response:
    """Terminal outcome of one request — exactly one bucket."""

    request: Request
    #: "exact" | "degraded" | "rejected"
    status: str
    #: ServiceError.code for rejections, None otherwise
    error: Optional[str] = None
    error_detail: str = ""
    labels: Optional[np.ndarray] = None
    #: dataset epoch the answer describes (stale answers: the old epoch)
    epoch: Optional[int] = None
    stale: bool = False
    sample_fraction: float = 0.0
    #: "label_hit" | "table_hit" | "stale" | "miss" | None (rejected)
    cache: Optional[str] = None
    attempts: int = 0
    backoff_ms: float = 0.0
    queue_ms: float = 0.0
    exec_ms: float = 0.0
    latency_ms: float = 0.0
    #: exact answer that finished after its deadline (still exact)
    deadline_missed: bool = False
    worker: Optional[int] = None
    device_slot: Optional[int] = None

    @property
    def degraded(self) -> bool:
        return self.status == "degraded"

    @property
    def rejected(self) -> bool:
        return self.status == "rejected"

    @property
    def n_clusters(self) -> int:
        if self.labels is None:
            return 0
        return int(self.labels.max()) + 1 if (self.labels != NOISE).any() else 0

    @property
    def n_noise(self) -> int:
        return 0 if self.labels is None else int((self.labels == NOISE).sum())

    def as_dict(self) -> dict:
        return {
            "seq": self.request.seq,
            "dataset": self.request.dataset_id,
            "eps": self.request.eps,
            "minpts": self.request.minpts,
            "tenant": self.request.tenant,
            "arrival_ms": self.request.arrival_ms,
            "status": self.status,
            "error": self.error,
            "error_detail": self.error_detail,
            "epoch": self.epoch,
            "stale": self.stale,
            "sample_fraction": self.sample_fraction,
            "cache": self.cache,
            "clusters": self.n_clusters,
            "noise": self.n_noise,
            "attempts": self.attempts,
            "backoff_ms": round(self.backoff_ms, 4),
            "queue_ms": round(self.queue_ms, 4),
            "exec_ms": round(self.exec_ms, 4),
            "latency_ms": round(self.latency_ms, 4),
            "deadline_missed": self.deadline_missed,
        }


@dataclass
class _Outcome:
    """Internal result of the serve stage (pre-booking)."""

    status: str
    exec_ms: float
    labels: Optional[np.ndarray] = None
    epoch: Optional[int] = None
    error: Optional[ServiceError] = None
    stale: bool = False
    sample_fraction: float = 0.0
    cache: Optional[str] = None
    attempts: int = 0
    backoff_ms: float = 0.0
    deadline_missed: bool = False
    device_slot: Optional[int] = None


@dataclass
class _DatasetState:
    points: np.ndarray
    epoch: int
    #: ``(xmin, ymin, xmax, ymax)``, to check a request's ε in O(1)
    extent: tuple[float, float, float, float]


@dataclass
class TraceResult:
    """Replay outcome of one request trace + service-side accounting."""

    responses: list
    admission: dict
    cache: dict
    breaker: dict
    utilization: float
    sanitizer_clean: bool

    def count(self, status: str) -> int:
        return sum(1 for r in self.responses if r.status == status)

    @property
    def shed_rate(self) -> float:
        n = len(self.responses)
        return self.count("rejected") / n if n else 0.0

    @property
    def degraded_rate(self) -> float:
        n = len(self.responses)
        return self.count("degraded") / n if n else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return float(self.cache.get("hit_rate", 0.0))

    def latency_percentile(self, p: float) -> float:
        """Latency percentile over served (non-rejected) requests."""
        lat = [r.latency_ms for r in self.responses if not r.rejected]
        return float(np.percentile(lat, p)) if lat else 0.0

    def as_dict(self, *, with_responses: bool = False) -> dict:
        out = {
            "requests": len(self.responses),
            "exact": self.count("exact"),
            "degraded": self.count("degraded"),
            "rejected": self.count("rejected"),
            "shed_rate": round(self.shed_rate, 4),
            "degraded_rate": round(self.degraded_rate, 4),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "latency_p50_ms": round(self.latency_percentile(50), 4),
            "latency_p95_ms": round(self.latency_percentile(95), 4),
            "latency_p99_ms": round(self.latency_percentile(99), 4),
            "utilization": round(self.utilization, 4),
            "admission": self.admission,
            "cache": self.cache,
            "breaker_trips": self.breaker.get("trips", 0),
            "sanitizer_clean": self.sanitizer_clean,
        }
        if with_responses:
            out["responses"] = [r.as_dict() for r in self.responses]
        return out


class ClusteringService:
    """Long-lived request loop over the HYBRID-DBSCAN machinery."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.admission = AdmissionController(self.config.admission)
        self.cache = ResultCache(
            max_tables=self.config.max_cached_tables,
            max_label_sets=self.config.max_cached_label_sets,
        )
        self.pool = WorkerPool(self.config.n_workers)
        self.breaker = CircuitBreaker(
            n_slots=self.config.n_device_slots,
            failure_threshold=self.config.breaker_threshold,
            cooldown_ms=self.config.breaker_cooldown_ms,
        )
        self.cost = CostTracker()
        self._datasets: dict[str, _DatasetState] = {}
        self._slot_use = [0] * self.config.n_device_slots
        self.responses: list[Response] = []
        #: False once any per-attempt sanitizer report was non-clean
        self.sanitizer_clean = True

    # ------------------------------------------------------------------
    # dataset registry
    # ------------------------------------------------------------------
    def register_dataset(
        self, dataset_id: str, points: np.ndarray, *, epoch: int = 0
    ) -> None:
        """Register ``points`` (validated here, once) as ``dataset_id``."""
        pts = as_points(points).copy()  # the caller's array may change
        self._datasets[dataset_id] = _DatasetState(pts, int(epoch), point_extent(pts))

    def bump_epoch(
        self, dataset_id: str, points: Optional[np.ndarray] = None
    ) -> int:
        """Advance a dataset's epoch (optionally replacing its points);
        cache entries for the current epoch become stale, entries past
        the stale window are dropped."""
        ds = self._datasets.get(dataset_id)
        if ds is None:
            raise ValueError(f"dataset {dataset_id!r} not registered")
        if points is not None:
            self.register_dataset(dataset_id, points, epoch=ds.epoch)
            ds = self._datasets[dataset_id]
        ds.epoch += 1
        self.cache.evict_older(
            dataset_id, ds.epoch, keep_epochs=self.config.stale_keep_epochs
        )
        return ds.epoch

    def epoch_of(self, dataset_id: str) -> int:
        return self._datasets[dataset_id].epoch

    # ------------------------------------------------------------------
    # the request path
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> Response:
        """Serve one request; always returns a terminal Response."""
        now = float(request.arrival_ms)
        ds = self._datasets.get(request.dataset_id)
        if ds is None:
            self.admission.record_rejection("unknown_dataset")
            return self._finish_rejected(
                request,
                UnknownDataset(
                    f"dataset {request.dataset_id!r} is not registered"
                ),
                now,
            )
        try:  # O(1): the points were validated at registration
            GridGeometry.over(ds.extent, request.eps)
        except InvalidInputError as exc:
            self.admission.record_rejection(InvalidRequest.code)
            return self._finish_rejected(request, InvalidRequest(str(exc)), now)
        try:
            adm = self.admission.admit(request.tenant, len(ds.points), now)
        except Overloaded as exc:
            return self._finish_rejected(request, exc, now)
        start = self.pool.peek_start(now)
        queue_ms = start - now
        budget: Optional[float] = None
        if request.deadline_ms is not None:
            budget = request.deadline_ms - queue_ms
            if budget <= 0:
                self.admission.record_rejection("deadline_exceeded")
                return self._finish_rejected(
                    request,
                    DeadlineExceeded(
                        f"queue wait {queue_ms:.2f}ms exceeds deadline "
                        f"{request.deadline_ms:.2f}ms"
                    ),
                    now,
                    queue_ms=queue_ms,
                )
        out = self._serve(request, ds, start, budget, adm.degrade_hint)
        end = start + out.exec_ms
        worker = self.pool.commit(start, out.exec_ms)
        self.admission.commit(adm, start, end)
        resp = Response(
            request=request,
            status=out.status,
            error=out.error.code if out.error is not None else None,
            error_detail=str(out.error) if out.error is not None else "",
            labels=out.labels,
            epoch=out.epoch,
            stale=out.stale,
            sample_fraction=out.sample_fraction,
            cache=out.cache,
            attempts=out.attempts,
            backoff_ms=out.backoff_ms,
            queue_ms=queue_ms,
            exec_ms=out.exec_ms,
            latency_ms=end - now,
            deadline_missed=out.deadline_missed,
            worker=worker,
            device_slot=out.device_slot,
        )
        self.responses.append(resp)
        return resp

    def _finish_rejected(
        self,
        request: Request,
        error: ServiceError,
        now_ms: float,
        *,
        queue_ms: float = 0.0,
    ) -> Response:
        """Terminal rejection before any worker time was booked."""
        resp = Response(
            request=request,
            status="rejected",
            error=error.code,
            error_detail=str(error),
            queue_ms=queue_ms,
            latency_ms=queue_ms,
        )
        self.responses.append(resp)
        return resp

    def run_trace(self, events: list[TraceEvent]) -> TraceResult:
        """Replay a trace in arrival order (ties keep list order)."""
        first = len(self.responses)
        for ev in sorted(events, key=lambda e: e.arrival_ms):
            if ev.kind == "bump":
                self.bump_epoch(ev.dataset_id, ev.points)
            else:
                assert ev.request is not None
                self.submit(ev.request)
        return TraceResult(
            responses=self.responses[first:],
            admission=self.admission.stats.as_dict(),
            cache=self.cache.stats.as_dict(),
            breaker=self.breaker.as_dict(),
            utilization=self.pool.utilization,
            sanitizer_clean=self.sanitizer_clean,
        )

    # ------------------------------------------------------------------
    # serve stages
    # ------------------------------------------------------------------
    def _serve(
        self,
        request: Request,
        ds: _DatasetState,
        start_ms: float,
        budget_ms: Optional[float],
        degrade_hint: bool,
    ) -> _Outcome:
        dsid, epoch = request.dataset_id, ds.epoch
        eps, minpts = request.eps, request.minpts
        labels = self.cache.get_labels(dsid, epoch, eps, minpts)
        if labels is not None:
            return _Outcome(
                status="exact",
                exec_ms=self.config.cache_hit_cost_ms,
                labels=labels,
                epoch=epoch,
                cache="label_hit",
            )
        entry = self.cache.get_table(dsid, epoch, eps)
        if entry is not None:
            labels = self._cluster_cached(entry, minpts)
            self.cache.put_labels(dsid, epoch, eps, minpts, labels)
            cost = max(
                self.config.cache_hit_cost_ms,
                entry.table.total_pairs / self.config.cluster_rate_pairs_per_ms,
            )
            return _Outcome(
                status="exact",
                exec_ms=cost,
                labels=labels,
                epoch=epoch,
                cache="table_hit",
            )
        self.cache.record_miss()
        estimate = self.cost.estimate_ms(dsid, len(ds.points))
        if estimate is not None:
            estimate *= self.config.degrade.estimate_margin
        decision = choose_mode(
            self.config.degrade,
            budget_ms=budget_ms,
            estimate_ms=estimate,
            overloaded=degrade_hint,
            stale_available=self.cache.has_stale(dsid, epoch, eps, minpts),
        )
        if decision.mode == "reject":
            err: ServiceError = (
                Overloaded(decision.reason)
                if degrade_hint
                else DeadlineExceeded(decision.reason)
            )
            self.admission.record_rejection(err.code)
            return _Outcome(status="rejected", exec_ms=0.0, error=err)
        if decision.mode == "stale":
            return self._serve_stale(request, ds, elapsed_ms=0.0)
        if decision.mode == "sampled":
            return self._serve_sampled(
                request, ds, decision.sample_fraction, elapsed_ms=0.0
            )
        return self._execute_exact(request, ds, start_ms, budget_ms)

    def _cluster_cached(self, entry: TableEntry, minpts: int) -> np.ndarray:
        """Host clustering from a cached table — the exact
        :meth:`HybridDBSCAN.cluster_table` host path."""
        labels_sorted = dbscan_from_table(entry.table, minpts)
        labels = np.empty_like(labels_sorted)
        labels[entry.grid.sort_order] = labels_sorted
        return labels

    def _serve_stale(
        self, request: Request, ds: _DatasetState, *, elapsed_ms: float,
        attempts: int = 0, backoff_ms: float = 0.0,
    ) -> _Outcome:
        dsid, epoch = request.dataset_id, ds.epoch
        eps, minpts = request.eps, request.minpts
        hit = self.cache.stale_labels(dsid, epoch, eps, minpts)
        if hit is not None:
            stale_epoch, labels = hit
            cost = self.config.cache_hit_cost_ms
        else:
            entry = self.cache.stale_table(dsid, epoch, eps)
            assert entry is not None, "stale path entered without stale entry"
            stale_epoch = entry.epoch
            labels = self._cluster_cached(entry, minpts)
            # stale labels are cached under their own (old) epoch, so
            # they never alias a fresh answer
            self.cache.put_labels(dsid, stale_epoch, eps, minpts, labels)
            cost = max(
                self.config.cache_hit_cost_ms,
                entry.table.total_pairs / self.config.cluster_rate_pairs_per_ms,
            )
        return _Outcome(
            status="degraded",
            exec_ms=elapsed_ms + cost,
            labels=labels,
            epoch=stale_epoch,
            stale=True,
            cache="stale",
            attempts=attempts,
            backoff_ms=backoff_ms,
        )

    def _serve_sampled(
        self, request: Request, ds: _DatasetState, fraction: float, *,
        elapsed_ms: float, attempts: int = 0, backoff_ms: float = 0.0,
    ) -> _Outcome:
        device = self._make_device(injector=None)
        hybrid = self._make_hybrid(device)
        try:
            labels, _n_sampled = sampled_labels(
                ds.points, request.eps, request.minpts, fraction, hybrid=hybrid
            )
        except Exception as exc:  # degraded path is fault-free; anything
            # escaping here is a programming error — typed, not raised
            self._close_device(device)
            err = ExecutionFailed(f"sampled fallback failed: {exc!r}")
            self.admission.record_rejection(err.code)
            return _Outcome(
                status="rejected",
                exec_ms=elapsed_ms + device.profiler.total_device_ms(),
                error=err,
                attempts=attempts,
                backoff_ms=backoff_ms,
            )
        dur = device.profiler.total_device_ms()
        self._close_device(device)
        return _Outcome(
            status="degraded",
            exec_ms=elapsed_ms + dur,
            labels=labels,
            epoch=ds.epoch,
            sample_fraction=float(fraction),
            cache="miss",
            attempts=attempts,
            backoff_ms=backoff_ms,
        )

    # ------------------------------------------------------------------
    # exact execution under retry/backoff + circuit breaker
    # ------------------------------------------------------------------
    def _execute_exact(
        self,
        request: Request,
        ds: _DatasetState,
        start_ms: float,
        budget_ms: Optional[float],
    ) -> _Outcome:
        cfg = self.config
        dsid, epoch = request.dataset_id, ds.epoch
        eps, minpts = request.eps, request.minpts
        rng = np.random.default_rng(derive_seed(cfg.seed, request.seq))
        t = start_ms
        attempts = 0
        backoff_total = 0.0
        slot = None
        while attempts < cfg.retry.max_attempts:
            healthy = self.breaker.healthy_slots(t)
            if not healthy:
                return self._degraded_fallback(
                    request, ds,
                    reason="all device slots quarantined",
                    reject_with=Overloaded,
                    elapsed_ms=t - start_ms,
                    attempts=attempts,
                    backoff_ms=backoff_total,
                )
            slot = min(healthy, key=lambda s: (self._slot_use[s], s))
            self._slot_use[slot] += 1
            injector = (
                cfg.fault_factory(request, slot, attempts)
                if cfg.fault_factory is not None
                else None
            )
            device = self._make_device(injector=injector)
            hybrid = self._make_hybrid(device)
            attempts += 1
            try:
                grid, table, _timings = hybrid.build_table(ds.points, eps)
                labels = hybrid.cluster_table(grid, table, minpts)
            except Exception as exc:
                dur = device.profiler.total_device_ms()
                self._close_device(device)
                if classify_fault(exc) == "fatal":
                    err = ExecutionFailed(f"fatal fault: {exc!r}")
                    self.admission.record_rejection(err.code)
                    return _Outcome(
                        status="rejected",
                        exec_ms=(t - start_ms) + dur,
                        error=err,
                        attempts=attempts,
                        backoff_ms=backoff_total,
                        device_slot=slot,
                    )
                t += dur
                self.breaker.record_failure(slot, t)
                if attempts >= cfg.retry.max_attempts:
                    return self._degraded_fallback(
                        request, ds,
                        reason=(
                            f"retry budget exhausted after {attempts} "
                            f"attempts (last: {exc!r})"
                        ),
                        reject_with=ExecutionFailed,
                        elapsed_ms=t - start_ms,
                        attempts=attempts,
                        backoff_ms=backoff_total,
                    )
                delay = cfg.retry.backoff_ms(attempts, rng)
                t += delay
                backoff_total += delay
                if budget_ms is not None and (t - start_ms) >= budget_ms:
                    return self._degraded_fallback(
                        request, ds,
                        reason=(
                            f"deadline budget exhausted during retries "
                            f"(last: {exc!r})"
                        ),
                        reject_with=DeadlineExceeded,
                        elapsed_ms=t - start_ms,
                        attempts=attempts,
                        backoff_ms=backoff_total,
                    )
                continue
            dur = device.profiler.total_device_ms()
            self._close_device(device)
            self.breaker.record_success(slot)
            self.cost.observe(dsid, len(ds.points), dur)
            self.cache.put_table(
                dsid,
                TableEntry(
                    grid=grid,
                    table=table,
                    epoch=epoch,
                    eps=eps,
                    build_device_ms=dur,
                ),
            )
            self.cache.put_labels(dsid, epoch, eps, minpts, labels)
            exec_ms = (t - start_ms) + dur
            return _Outcome(
                status="exact",
                exec_ms=exec_ms,
                labels=labels,
                epoch=epoch,
                cache="miss",
                attempts=attempts,
                backoff_ms=backoff_total,
                deadline_missed=budget_ms is not None and exec_ms > budget_ms,
                device_slot=slot,
            )
        raise AssertionError("unreachable: retry loop exits via return")

    def _degraded_fallback(
        self,
        request: Request,
        ds: _DatasetState,
        *,
        reason: str,
        reject_with: type,
        elapsed_ms: float,
        attempts: int,
        backoff_ms: float,
    ) -> _Outcome:
        """Last resort after exact execution failed: stale, then sampled
        (unless the deadline is already gone), then typed rejection."""
        cfg = self.config.degrade
        if cfg.enabled:
            if cfg.allow_stale and self.cache.has_stale(
                request.dataset_id, ds.epoch, request.eps, request.minpts
            ):
                return self._serve_stale(
                    request, ds,
                    elapsed_ms=elapsed_ms,
                    attempts=attempts,
                    backoff_ms=backoff_ms,
                )
            if reject_with is not DeadlineExceeded:
                return self._serve_sampled(
                    request, ds, cfg.sample_fraction,
                    elapsed_ms=elapsed_ms,
                    attempts=attempts,
                    backoff_ms=backoff_ms,
                )
        err = reject_with(reason)
        self.admission.record_rejection(err.code)
        return _Outcome(
            status="rejected",
            exec_ms=elapsed_ms,
            error=err,
            attempts=attempts,
            backoff_ms=backoff_ms,
        )

    # ------------------------------------------------------------------
    # device plumbing
    # ------------------------------------------------------------------
    def _make_device(self, *, injector: Optional[FaultInjector]) -> Device:
        return Device(
            faults=injector,
            sanitize=self.config.sanitize,
            sanitize_mode="record",
        )

    def _make_hybrid(self, device: Device) -> HybridDBSCAN:
        return HybridDBSCAN(
            device,
            kernel=self.config.kernel,  # type: ignore[arg-type]
            backend=self.config.backend,  # type: ignore[arg-type]
            cluster_on=self.config.cluster_on,  # type: ignore[arg-type]
        )

    def _close_device(self, device: Device) -> None:
        report = device.close()
        if report is not None and not report.clean:
            self.sanitizer_clean = False

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "admission": self.admission.stats.as_dict(),
            "cache": self.cache.stats.as_dict(),
            "breaker": self.breaker.as_dict(),
            "utilization": self.pool.utilization,
            "slot_use": list(self._slot_use),
            "sanitizer_clean": self.sanitizer_clean,
        }
