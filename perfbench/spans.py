"""Span recorder and timing shims for the traced benchmark run.

The program under test carries no tracing of its own.  For the traced
run, :class:`Shims` replaces a fixed list of public functions with
wrappers that open a span around each call, then puts the originals
back.  Each name is patched where its caller looks it up: a module
global that was imported by name (``repro.core.batching.launch``) is
patched in the importing module, a method on its class.

Spans stay in memory; :meth:`SpanRecorder.write_chrome_trace` writes
them once, as Chrome trace-event JSON, when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional


@dataclass
class Span:
    """One timed call: ``[start, end]`` in ``perf_counter`` seconds."""

    id: int
    name: str
    layer: str
    start: float
    parent: Optional[int]
    op: Optional[int]
    tid: int
    end: float = 0.0
    #: counts recorded at the boundary (pairs, bytes, calls, ...)
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from every thread of the process.

    Spans on one thread nest through a per-thread stack.  A span opened
    on a thread with an empty stack (a batching stream worker) takes as
    parent the innermost open span of the thread that started the
    current operation, so worker spans hang under the
    ``build_neighbor_table`` span that spawned them.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._stacks: dict[int, list[Span]] = {}
        self._op_thread: Optional[int] = None
        self._op: Optional[int] = None

    def _stack(self, tid: int) -> list[Span]:
        with self._lock:
            return self._stacks.setdefault(tid, [])

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        tid = threading.get_ident()
        stack = self._stack(tid)
        parent = stack[-1] if stack else None
        if parent is None and self._op_thread is not None and tid != self._op_thread:
            op_stack = self._stacks.get(self._op_thread) or []
            parent = op_stack[-1] if op_stack else None
        with self._lock:
            self._next_id += 1
            sp = Span(
                id=self._next_id,
                name=name,
                layer=layer,
                start=time.perf_counter(),
                parent=parent.id if parent is not None else None,
                op=self._op,
                tid=tid,
            )
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    @contextmanager
    def operation(self, op_id: int, name: str) -> Iterator[Span]:
        """Root span of one benchmark operation; children share its id."""
        self._op, self._op_thread = op_id, threading.get_ident()
        try:
            with self.span(name, "bench") as sp:
                yield sp
        finally:
            self._op = self._op_thread = None

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's
        intervals (clipped to the span; children on several threads
        overlap, so their union, not their sum, is subtracted)."""
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        out: dict[int, float] = {}
        for sp in self.spans:
            covered = 0.0
            cur_s = cur_e = None
            for c in sorted(children.get(sp.id, ()), key=lambda c: c.start):
                s, e = max(c.start, sp.start), min(c.end, sp.end)
                if e <= s:
                    continue
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                covered += cur_e - cur_s
            out[sp.id] = sp.dur - covered
        return out

    def layer_self_s(self) -> dict[str, float]:
        """Total self time per layer."""
        own = self.self_times()
        out: dict[str, float] = {}
        for sp in self.spans:
            out[sp.layer] = out.get(sp.layer, 0.0) + own[sp.id]
        return out

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Write all spans as Chrome trace-event JSON (complete events)."""
        own = self.self_times()
        t0 = min((sp.start for sp in self.spans), default=0.0)
        tids: dict[int, int] = {}
        events = []
        for sp in sorted(self.spans, key=lambda s: s.start):
            events.append({
                "name": sp.name,
                "cat": sp.layer,
                "ph": "X",
                "ts": round((sp.start - t0) * 1e6, 3),
                "dur": round(sp.dur * 1e6, 3),
                "pid": 1,
                "tid": tids.setdefault(sp.tid, len(tids)),
                "args": {
                    "id": sp.id,
                    "parent": sp.parent,
                    "op": sp.op,
                    "self_us": round(own[sp.id] * 1e6, 3),
                    **{k: v for k, v in sp.attrs.items() if not k.startswith("_")},
                },
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "metadata": metadata}))


Post = Callable[[Span, tuple, Any], None]


def _wrap(rec: SpanRecorder, fn: Callable, name: str, layer: str,
          post: Optional[Post]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name, layer) as sp:
            result = fn(*args, **kwargs)
            if post is not None:
                post(sp, args, result)
            return result
    return wrapper


def _launch_post(sp: Span, args: tuple, res: Any) -> None:
    kernel = args[0]
    sp.name = f"launch:{kernel.name}"
    sp.attrs["calc"] = kernel.name in ("GPUCalcGlobal", "GPUCalcShared")
    sp.attrs["distance_calcs"] = res.counters.distance_calcs
    sp.attrs["pairs"] = int(res.value) if sp.attrs["calc"] else 0
    # underscore keys stay in memory and are left out of the trace file
    sp.attrs["_profiler"] = args[2].profiler


def _build_post(sp: Span, args: tuple, res: Any) -> None:
    table, stats = res
    sp.attrs["pairs"] = table.total_pairs
    sp.attrs["n_batches"] = stats.n_batches_run
    sp.attrs["buffer_size"] = stats.plan.buffer_size
    sp.attrs["recoveries"] = stats.recovery.recoveries


def _d2h_post(sp: Span, args: tuple, res: Any) -> None:
    sp.attrs["bytes"] = int(res.nbytes)


def _add_batch_post(sp: Span, args: tuple, res: Any) -> None:
    sp.attrs["pairs"] = len(args[1])


def _hit_post(sp: Span, args: tuple, res: Any) -> None:
    sp.attrs["hit"] = res is not None


def _exchange_post(sp: Span, args: tuple, res: Any) -> None:
    sp.attrs["bytes"] = res.collective_bytes


def _plan_shards_post(sp: Span, args: tuple, plan: Any) -> None:
    sp.attrs["shards"] = plan.n_shards
    sp.attrs["points_built"] = sum(s.n_points for s in plan.shards)
    sp.attrs["n_points"] = plan.n_points


def _targets() -> list[tuple[Any, str, str, str, Optional[Post]]]:
    """(owner, attribute, span name, layer, post hook) of every shim."""
    import repro.core.batching as batching
    import repro.core.hybrid_dbscan as hybrid
    import repro.core.placement as placement
    import repro.core.sharding as sharding
    import repro.service.server as server
    from repro.core.neighbor_table import NeighborTable
    from repro.gpusim.device import Device
    from repro.index.grid import GridIndex
    from repro.service.cache import ResultCache

    return [
        (GridIndex, "build", "GridIndex.build", "index", None),
        (batching.BatchPlanner, "plan", "BatchPlanner.plan", "core.batching", None),
        (hybrid, "build_neighbor_table", "build_neighbor_table", "core.batching", _build_post),
        (sharding, "build_neighbor_table", "build_neighbor_table", "core.batching", _build_post),
        (batching, "launch", "launch", "kernels", _launch_post),
        (batching, "sort_pairs", "sort_pairs", "gpusim", None),
        (Device, "from_device", "Device.from_device", "gpusim", _d2h_post),
        (NeighborTable, "add_batch", "NeighborTable.add_batch", "core.neighbor_table",
         _add_batch_post),
        (NeighborTable, "finalize", "NeighborTable.finalize", "core.neighbor_table", None),
        (hybrid, "dbscan_from_table", "dbscan_from_table", "core.table_dbscan", None),
        (server, "dbscan_from_table", "dbscan_from_table", "core.table_dbscan", None),
        (sharding, "plan_shards", "plan_shards", "core.sharding", _plan_shards_post),
        (sharding, "run_shard_supervised", "run_shard_supervised", "core.sharding", None),
        (placement.IncrementalMerger, "absorb", "IncrementalMerger.absorb", "core.placement",
         None),
        (placement.IncrementalMerger, "finalize", "IncrementalMerger.finalize",
         "core.placement", None),
        (placement, "collective_exchange", "collective_exchange", "core.placement",
         _exchange_post),
        (ResultCache, "get_labels", "ResultCache.get_labels", "service", _hit_post),
        (ResultCache, "get_table", "ResultCache.get_table", "service", _hit_post),
        (server.ClusteringService, "bump_epoch", "ClusteringService.bump_epoch", "service",
         None),
    ]


class Shims:
    """Context manager that installs the timing shims and restores the
    original attributes on exit, also when the body raises."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Shims":
        try:
            for owner, attr, name, layer, post in _targets():
                # the raw class attribute, so a classmethod stays one
                orig = owner.__dict__[attr]
                if isinstance(orig, classmethod):
                    new: Any = classmethod(
                        _wrap(self.recorder, orig.__func__, name, layer, post)
                    )
                else:
                    new = _wrap(self.recorder, orig, name, layer, post)
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, new)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
