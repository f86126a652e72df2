"""Profiler for the simulated device — the NVIDIA Visual Profiler analogue.

Section VII-C of the paper obtains kernel response times and launched
thread counts (``nGPU``) from the Visual Profiler, whose timeline holds
one record per device op.  :class:`Profiler` keeps the same log: one
:class:`DeviceOp` per kernel launch (:class:`LaunchResult`), device sort
(:class:`SortRecord`) and transfer (:class:`TransferRecord`), appended
by :meth:`~repro.gpusim.device.Device.enqueue` in schedule order.  The
per-kind aggregates and the stream-timeline reports (makespan, busy
time per engine, overlap) all read that one list.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.gpusim.costmodel import KernelCounters
from repro.gpusim.streams import Engine

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpusim.launch import Backend, LaunchConfig
    from repro.gpusim.occupancy import Occupancy

__all__ = ["DeviceOp", "LaunchResult", "TransferRecord", "SortRecord", "Profiler"]


@dataclass(kw_only=True)
class DeviceOp:
    """One device op on the simulated timeline (times in ms).

    ``modeled_ms`` is the cost model's duration; ``stream``,
    ``stream_id`` and the ``[start_ms, end_ms]`` interval are stamped by
    :meth:`~repro.gpusim.device.Device.enqueue` when the op is scheduled.
    """

    name: str
    engine: Engine
    modeled_ms: float
    stream: str = ""
    stream_id: int = -1
    start_ms: float = 0.0
    end_ms: float = 0.0


@dataclass(kw_only=True)
class LaunchResult(DeviceOp):
    """One kernel launch: what :func:`~repro.gpusim.launch.launch`
    returns to host code, and the profiler's record of it."""

    value: Any
    counters: KernelCounters
    wall_s: float
    config: LaunchConfig
    backend: Backend
    occupancy: Optional[Occupancy] = None

    @property
    def n_gpu(self) -> int:
        """Total threads launched (blocks * block size) — paper's nGPU."""
        return self.config.total_threads


@dataclass(kw_only=True)
class TransferRecord(DeviceOp):
    """One host<->device copy; ``engine`` is its direction."""

    nbytes: int
    pinned: bool


@dataclass(kw_only=True)
class SortRecord(DeviceOp):
    """One device-side key sort of ``n`` pairs."""

    n: int


class Profiler:
    """The device's op log plus billed host-side costs (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: every device op, in schedule order
        self.ops: list[DeviceOp] = []
        self.pinned_alloc_ms: float = 0.0
        #: injected latency (slowdown faults) billed to this device
        self.stall_ms: float = 0.0

    def record_pinned_alloc(self, ms: float) -> None:
        with self._lock:
            self.pinned_alloc_ms += ms

    def record_stall(self, ms: float) -> None:
        """Bill injected latency (a ``slowdown`` fault) to the device."""
        with self._lock:
            self.stall_ms += ms

    # ------------------------------------------------------------------
    # views of the one list
    # ------------------------------------------------------------------
    @property
    def kernels(self) -> list[LaunchResult]:
        return [op for op in self.ops if isinstance(op, LaunchResult)]

    @property
    def transfers(self) -> list[TransferRecord]:
        return [op for op in self.ops if isinstance(op, TransferRecord)]

    @property
    def sorts(self) -> list[SortRecord]:
        return [op for op in self.ops if isinstance(op, SortRecord)]

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def kernel_time_ms(self, name: Optional[str] = None) -> float:
        return sum(
            k.modeled_ms for k in self.kernels if name is None or k.name == name
        )

    def transfer_time_ms(self, direction: Optional[str] = None) -> float:
        return sum(
            t.modeled_ms
            for t in self.transfers
            if direction is None or t.engine == direction
        )

    def transfer_bytes(self, direction: Optional[str] = None) -> int:
        return sum(
            t.nbytes
            for t in self.transfers
            if direction is None or t.engine == direction
        )

    def sort_time_ms(self) -> float:
        return sum(s.modeled_ms for s in self.sorts)

    def total_device_ms(self) -> float:
        """Serialized device milliseconds (kernels + sorts + transfers +
        pinned allocations + injected stalls)."""
        return (
            self.kernel_time_ms()
            + self.sort_time_ms()
            + self.transfer_time_ms()
            + self.pinned_alloc_ms
            + self.stall_ms
        )

    def counters(self, name: Optional[str] = None) -> KernelCounters:
        total = KernelCounters()
        for k in self.kernels:
            if name is None or k.name == name:
                total.merge(k.counters)
        return total

    # ------------------------------------------------------------------
    # stream-timeline reports
    # ------------------------------------------------------------------
    def makespan_ms(self) -> float:
        """End of the last scheduled op."""
        return max((op.end_ms for op in self.ops), default=0.0)

    def busy_ms(self, engine: str) -> float:
        return sum(op.modeled_ms for op in self.ops if op.engine == engine)

    def serialized_ms(self) -> float:
        """Total work if nothing overlapped (sum of all op durations)."""
        return sum(op.modeled_ms for op in self.ops)

    def overlap_ms(self) -> float:
        """Time hidden by engine overlap (serialized - makespan)."""
        return self.serialized_ms() - self.makespan_ms()

    def reset(self) -> None:
        with self._lock:
            self.ops.clear()
            self.pinned_alloc_ms = 0.0
            self.stall_ms = 0.0

    def summary(self) -> dict:
        """Flat dict of headline metrics (for bench reports)."""
        kernels = self.kernels
        return {
            "kernel_launches": len(kernels),
            "kernel_ms": self.kernel_time_ms(),
            "n_gpu_total": sum(k.n_gpu for k in kernels),
            "sorts": len(self.sorts),
            "sort_ms": self.sort_time_ms(),
            "transfers": len(self.transfers),
            "transfer_ms": self.transfer_time_ms(),
            "h2d_bytes": self.transfer_bytes("h2d"),
            "d2h_bytes": self.transfer_bytes("d2h"),
            "pinned_alloc_ms": self.pinned_alloc_ms,
            "stall_ms": self.stall_ms,
            "total_device_ms": self.total_device_ms(),
        }
