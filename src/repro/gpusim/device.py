"""The simulated GPU device.

:class:`DeviceSpec` describes the hardware; the default values approximate
the NVIDIA Tesla K20c used in the paper (13 SMs, 5 GB global memory, PCIe
2.0-era host link).  :class:`Device` owns the global memory pool, the cost
model, the profiler, and the stream timeline, and provides the host-side
API (`to_device`, `from_device`, `alloc_pinned`).

Every device op — kernel launch, device sort, transfer — goes through
:meth:`Device.enqueue`, which schedules it on its stream, appends its one
record to the profiler's log and reports its buffer accesses to the
sanitizer.

``Device(sanitize=True)`` (or the ``GPUSAN=1`` environment variable, or
the CLI's ``--sanitize``) attaches a
:class:`~repro.gpusim.sanitizer.Sanitizer` that records every buffer
access at this API boundary and checks race/memcheck/synccheck
invariants — the simulated runtime's ``compute-sanitizer``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, TypeVar, Union

import numpy as np

from repro.gpusim.constants import WARP_SIZE, compute_rate_per_ms
from repro.gpusim.costmodel import CostModel
from repro.gpusim.faults import FaultInjector
from repro.gpusim.memory import (
    DeviceBuffer,
    GlobalMemoryPool,
    PinnedHostBuffer,
    PinnedMemoryPool,
    ResultBuffer,
)
from repro.gpusim.profiler import DeviceOp, Profiler, TransferRecord
from repro.gpusim.sanitizer import Sanitizer, SanitizerReport
from repro.gpusim.streams import Stream, Timeline

__all__ = ["DeviceSpec", "Device", "sanitize_default"]

OpT = TypeVar("OpT", bound=DeviceOp)


def sanitize_default() -> bool:
    """Whether ``GPUSAN`` asks for sanitized devices by default."""
    return os.environ.get("GPUSAN", "").strip().lower() in ("1", "true", "on", "yes")


@dataclass(frozen=True)
class DeviceSpec:
    """Hardware description of the simulated card (K20c defaults)."""

    name: str = "SimTesla-K20c"
    sm_count: int = 13
    cores_per_sm: int = 192
    clock_mhz: float = 706.0
    global_mem_bytes: int = 5 * 1024**3
    shared_mem_per_block_bytes: int = 48 * 1024
    max_threads_per_block: int = 1024
    warp_size: int = WARP_SIZE
    copy_engines: int = 2

    def cost_model(self) -> CostModel:
        """Derive a :class:`CostModel` scaled to this device's width."""
        return CostModel(
            compute_rate_per_ms=compute_rate_per_ms(
                self.sm_count, self.cores_per_sm, self.clock_mhz
            )
        )


class Device:
    """A simulated GPU: memory pool + cost model + profiler + timeline."""

    def __init__(
        self,
        spec: Optional[DeviceSpec] = None,
        *,
        faults: Optional[FaultInjector] = None,
        sanitize: Optional[bool] = None,
        sanitize_mode: str = "raise",
    ):
        self.spec = spec or DeviceSpec()
        self.cost = self.spec.cost_model()
        self.memory = GlobalMemoryPool(self.spec.global_mem_bytes)
        self.pinned = PinnedMemoryPool()
        self.profiler = Profiler()
        self.timeline = Timeline()
        self.default_stream = Stream(self.timeline, name="default")
        #: optional fault-injection engine (see :mod:`repro.gpusim.faults`)
        self.faults = faults
        #: optional compute-sanitizer analogue; ``sanitize=None`` defers
        #: to the ``GPUSAN`` environment variable
        enabled = sanitize_default() if sanitize is None else bool(sanitize)
        self.sanitizer: Optional[Sanitizer] = (
            Sanitizer(mode=sanitize_mode) if enabled else None
        )
        self.memory.sanitizer = self.sanitizer
        self.pinned.sanitizer = self.sanitizer

    def check_fault(self, kind: str) -> None:
        """Give the attached :class:`FaultInjector` (if any) a chance to
        raise at this point; no-op on healthy devices.

        A lost device fails *every* operation, so ``device_lost`` specs
        are checked at every hook point in addition to ``kind``; the
        same holds for ``slowdown`` specs, whose injected latency is
        recorded as profiler stall time *before* any failure check so a
        slow-then-dead device still bills its stall.
        """
        if self.faults is None:
            return
        delay = self.faults.check("slowdown")
        if delay:
            self.profiler.record_stall(delay)
        if kind != "device_lost":
            self.faults.check("device_lost")
        if kind != "slowdown":
            self.faults.check(kind)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(
        self,
        shape: Union[int, tuple[int, ...]],
        dtype: Union[np.dtype, str] = np.float64,
        *,
        name: str = "",
        fill: Optional[float] = None,
    ) -> DeviceBuffer:
        """Allocate device global memory."""
        self.check_fault("device_oom")
        return self.memory.allocate(shape, dtype, name=name, fill=fill)

    def allocate_result_buffer(
        self,
        capacity: int,
        dtype: Union[np.dtype, str],
        *,
        name: str = "gpuResultSet",
    ) -> ResultBuffer:
        """Allocate an append-only result buffer of ``capacity`` elements."""
        self.check_fault("device_oom")
        buf = self.memory.allocate(capacity, dtype, name=name, result_buffer=True)
        assert isinstance(buf, ResultBuffer)
        return buf

    def alloc_pinned(
        self,
        shape: Union[int, tuple[int, ...]],
        dtype: Union[np.dtype, str],
        *,
        name: str = "pinned",
    ) -> PinnedHostBuffer:
        """Allocate page-locked host memory (charged by the cost model).

        The buffer is registered with the device's
        :class:`~repro.gpusim.memory.PinnedMemoryPool`; call its
        ``free()`` when the staging buffer is retired so pinned
        residency accounting (and the sanitizer's leak-at-close check)
        stays truthful.
        """
        arr = np.empty(shape, dtype=dtype)
        ms = self.cost.pinned_alloc_time_ms(arr.nbytes)
        self.profiler.record_pinned_alloc(ms)
        buf = PinnedHostBuffer(data=arr, alloc_time_ms=ms, name=name)
        self.pinned.register(buf)
        return buf

    # ------------------------------------------------------------------
    # the op path
    # ------------------------------------------------------------------
    def enqueue(
        self,
        op: OpT,
        stream: Optional[Stream] = None,
        *,
        reads: Sequence[Union[DeviceBuffer, PinnedHostBuffer]] = (),
        writes: Sequence[Union[DeviceBuffer, PinnedHostBuffer]] = (),
        nbytes: Optional[int] = None,
    ) -> OpT:
        """Run one device op through the runtime; returns ``op``.

        The one path of every kernel launch, device sort and transfer:
        checks that no buffer it touches was freed, schedules it on
        ``stream`` (the default stream if ``None``) for ``op.modeled_ms``
        on ``op.engine``, stamps its stream and interval, appends it to
        :attr:`profiler` ``.ops`` under the lock that scheduled it (so
        the log is in schedule order), and reports its ``reads`` and
        ``writes`` — bytes ``[0, nbytes)`` of each buffer, the whole
        buffer if ``None`` — to the sanitizer's racecheck.
        """
        s = stream or self.default_stream
        san = self.sanitizer
        if san is not None:
            for buf in (*reads, *writes):
                san.check_use(buf, op.name)
        with self.timeline.lock:
            op.start_ms, op.end_ms = self.timeline.schedule(
                s, op.engine, op.modeled_ms
            )
            op.stream, op.stream_id = s.name, s.stream_id
            self.profiler.ops.append(op)
            if san is not None:
                for kind, bufs in (("read", reads), ("write", writes)):
                    for buf in bufs:
                        san.record_access(buf, kind, s, op, byte_end=nbytes)
        return op

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def to_device(
        self,
        host_array: np.ndarray,
        *,
        name: str = "",
        stream: Optional[Stream] = None,
        pinned: bool = False,
    ) -> DeviceBuffer:
        """Copy a host array into a fresh device buffer."""
        self.check_fault("transfer")
        host_array = np.ascontiguousarray(host_array)
        buf = self.allocate(host_array.shape, host_array.dtype, name=name)
        buf.data[...] = host_array
        self.enqueue(
            TransferRecord(
                name=f"h2d:{name}",
                engine="h2d",
                modeled_ms=self.cost.transfer_time_ms(
                    host_array.nbytes, pinned=pinned
                ),
                nbytes=host_array.nbytes,
                pinned=pinned,
            ),
            stream,
            writes=(buf,),
        )
        return buf

    def from_device(
        self,
        buf: Union[DeviceBuffer, np.ndarray],
        *,
        out: Optional[Union[np.ndarray, PinnedHostBuffer]] = None,
        stream: Optional[Stream] = None,
        pinned: bool = False,
        count: Optional[int] = None,
    ) -> np.ndarray:
        """Copy a device buffer (or its filled prefix) back to the host.

        ``out`` may be a :class:`PinnedHostBuffer` (or a slice of one's
        array), in which case the transfer is charged at the pinned rate
        and — for the buffer form — the staging write is visible to the
        sanitizer's racecheck.
        """
        self.check_fault("transfer")
        pinned_out: Optional[PinnedHostBuffer] = None
        if isinstance(out, PinnedHostBuffer):
            pinned_out = out
            out = out.data
            pinned = True
        if (
            self.sanitizer is not None
            and isinstance(buf, DeviceBuffer)
            and count is not None
        ):
            self.sanitizer.check_bounds(buf, count, "from_device")
        src = buf.view() if isinstance(buf, ResultBuffer) else (
            buf.data if isinstance(buf, DeviceBuffer) else buf
        )
        if count is not None:
            src = src[:count]
        if out is None:
            out = np.empty_like(src)
        target = out[: len(src)] if out.shape != src.shape else out
        np.copyto(target, src)
        name = buf.name if isinstance(buf, DeviceBuffer) else ""
        self.enqueue(
            TransferRecord(
                name=f"d2h:{name}",
                engine="d2h",
                modeled_ms=self.cost.transfer_time_ms(src.nbytes, pinned=pinned),
                nbytes=src.nbytes,
                pinned=pinned,
            ),
            stream,
            reads=(buf,) if isinstance(buf, DeviceBuffer) else (),
            writes=(pinned_out,) if pinned_out is not None else (),
            nbytes=src.nbytes,
        )
        return target

    # ------------------------------------------------------------------
    # streams
    # ------------------------------------------------------------------
    def new_stream(self, name: str = "") -> Stream:
        return Stream(self.timeline, name=name)

    def synchronize(self) -> float:
        """Join every stream (``cudaDeviceSynchronize``); returns the
        barrier instant in simulated ms."""
        return self.timeline.synchronize()

    def reset(self) -> None:
        """Clear profiler and timeline (keeps memory accounting).

        Starts a new timeline epoch: streams created before the reset
        (including the old default stream) become stale and raise on
        reuse; the default stream is recreated.
        """
        self.profiler.reset()
        self.timeline.reset()
        self.default_stream = Stream(self.timeline, name="default")
        if self.sanitizer is not None:
            self.sanitizer.clear_accesses()

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def leaked_buffers(self) -> list[DeviceBuffer]:
        """Live (never-freed) device allocations."""
        return self.memory.leaked_buffers()

    def close(self) -> Optional[SanitizerReport]:
        """Teardown check: report leaked device *and* pinned allocations
        to the sanitizer.

        Returns the sanitizer report (``None`` on unsanitized devices).
        Leaks are reported, never raised — teardown must not mask the
        run's real outcome.
        """
        if self.sanitizer is None:
            return None
        self.sanitizer.check_leaks(self.memory)
        self.sanitizer.check_leaks(self.pinned)
        return self.sanitizer.report
