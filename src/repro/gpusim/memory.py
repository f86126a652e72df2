"""Device and pinned-host memory for the simulated GPU.

Global memory is a bounded pool: allocations beyond the device capacity
raise :class:`DeviceMemoryError`, which is exactly the constraint the
paper's batching scheme (Section VI) exists to avoid.  Result buffers are
append-only regions fed by an atomic cursor; writing past their capacity
raises :class:`ResultBufferOverflow` — the failure mode the overestimation
factor ``alpha`` guards against.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "DeviceMemoryError",
    "ResultBufferOverflow",
    "DeviceBuffer",
    "ResultBuffer",
    "PinnedHostBuffer",
    "GlobalMemoryPool",
    "PinnedMemoryPool",
]


class DeviceMemoryError(MemoryError):
    """Raised when an allocation would exceed device global memory."""


class ResultBufferOverflow(RuntimeError):
    """Raised when a kernel appends past the end of a result buffer."""


_buffer_ids = itertools.count(1)


@dataclass
class DeviceBuffer:
    """A typed allocation in simulated device global memory.

    The payload is an ordinary NumPy array; what makes it a *device*
    buffer is its accounting against the owning
    :class:`GlobalMemoryPool` and the requirement to move data through
    the device's transfer engine (which applies the cost model) rather
    than touching ``.data`` from host code.
    """

    data: np.ndarray
    pool: "GlobalMemoryPool"
    name: str = ""
    buffer_id: int = field(default_factory=lambda: next(_buffer_ids))
    freed: bool = False

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def free(self) -> None:
        """Release the allocation back to the pool.

        A second ``free()`` is a silent no-op on plain devices but a
        ``double-free`` memcheck violation under the sanitizer — fix the
        call site rather than relying on idempotency.
        """
        if self.freed:
            san = getattr(self.pool, "sanitizer", None)
            if san is not None:
                san.on_double_free(self)
            return
        self.freed = True
        self.pool.release_buffer(self)

    def __enter__(self) -> "DeviceBuffer":
        return self

    def __exit__(self, *exc) -> None:
        self.free()


class ResultBuffer(DeviceBuffer):
    """Append-only device buffer with an atomic write cursor.

    Models the ``gpuResultSet`` of Algorithms 2 and 3: threads reserve
    slots with an atomic add and write key/value pairs.  ``capacity`` is
    the ``b_b`` of the batching scheme.
    """

    def __init__(self, data: np.ndarray, pool: "GlobalMemoryPool", name: str = ""):
        super().__init__(data=data, pool=pool, name=name)
        self._cursor = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return len(self.data)

    @property
    def count(self) -> int:
        """Number of elements appended so far."""
        return self._cursor

    def reset(self) -> None:
        """Rewind the cursor; serialized against concurrent ``reserve``."""
        with self._lock:
            self._cursor = 0

    def reserve(self, n: int) -> int:
        """Atomically reserve ``n`` slots; return the starting offset."""
        with self._lock:
            start = self._cursor
            if start + n > self.capacity:
                msg = (
                    f"result buffer '{self.name}' overflow: "
                    f"{start} + {n} > capacity {self.capacity}"
                )
                san = getattr(self.pool, "sanitizer", None)
                if san is not None:
                    # raises OutOfBoundsError (a ResultBufferOverflow
                    # subclass) in raise mode; records in record mode
                    san.on_overflow(msg)
                raise ResultBufferOverflow(msg)
            self._cursor = start + n
            return start

    def append_block(self, values: np.ndarray) -> int:
        """Reserve and fill ``len(values)`` slots in one shot."""
        n = len(values)
        start = self.reserve(n)
        self.data[start : start + n] = values
        return start

    def append_columns(self, *columns: np.ndarray) -> int:
        """Reserve ``len(columns[0])`` rows and write column ``j`` from
        ``columns[j]`` in place — no stacked temporary."""
        n = len(columns[0])
        start = self.reserve(n)
        rows = self.data[start : start + n]
        for j, col in enumerate(columns):
            rows[:, j] = col
        return start

    def view(self) -> np.ndarray:
        """View of the filled prefix (device-side; host must copy out)."""
        return self.data[: self._cursor]


@dataclass
class PinnedHostBuffer:
    """Page-locked host staging buffer.

    Pinned memory transfers at the fast PCIe rate but is expensive to
    allocate — the model charges
    :meth:`repro.gpusim.costmodel.CostModel.pinned_alloc_time_ms` at
    construction, which the batching scheme's variable buffer sizing
    exists to minimize.  Pinned buffers share the device-buffer id space
    so the sanitizer can track staging-buffer accesses (two streams
    staging through one pinned buffer is the canonical Section VI race).

    Buffers handed out by :meth:`Device.alloc_pinned
    <repro.gpusim.device.Device.alloc_pinned>` are registered with the
    device's :class:`PinnedMemoryPool`; call :meth:`free` when the
    staging buffer is retired (regrow, build teardown) so pinned
    residency accounting stays truthful.
    """

    data: np.ndarray
    alloc_time_ms: float
    name: str = ""
    pool: Optional["PinnedMemoryPool"] = None
    buffer_id: int = field(default_factory=lambda: next(_buffer_ids))
    freed: bool = False

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def __len__(self) -> int:
        return len(self.data)

    def free(self) -> None:
        """Release the page-locked allocation.

        Mirrors :meth:`DeviceBuffer.free`: a second ``free()`` is a
        silent no-op on plain devices but a ``double-free`` memcheck
        violation under the sanitizer.
        """
        if self.freed:
            san = getattr(self.pool, "sanitizer", None)
            if san is not None:
                san.on_double_free(self)
            return
        self.freed = True
        if self.pool is not None:
            self.pool.release_buffer(self)

    def __enter__(self) -> "PinnedHostBuffer":
        return self

    def __exit__(self, *exc) -> None:
        self.free()


class PinnedMemoryPool:
    """Residency accounting for page-locked host memory.

    Unlike device global memory, pinned host memory is not
    capacity-bounded here — but page-locked pages are a scarce host
    resource, so the pool tracks every live :class:`PinnedHostBuffer`
    (:meth:`leaked_buffers` is the teardown leak report) and the
    used/peak byte counters the batching and sharding layers account
    against.
    """

    def __init__(self) -> None:
        self._used = 0
        self._lock = threading.Lock()
        self.peak_bytes = 0
        self._live: dict[int, "PinnedHostBuffer"] = {}
        #: optional sanitizer (set by the owning Device; duck-typed)
        self.sanitizer = None

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def live_count(self) -> int:
        with self._lock:
            return len(self._live)

    def register(self, buf: "PinnedHostBuffer") -> None:
        """Adopt a freshly allocated pinned buffer into the accounting."""
        buf.pool = self
        with self._lock:
            self._used += buf.nbytes
            self.peak_bytes = max(self.peak_bytes, self._used)
            self._live[buf.buffer_id] = buf

    def release_buffer(self, buf: "PinnedHostBuffer") -> None:
        with self._lock:
            self._used -= buf.nbytes
            if self._used < 0:  # pragma: no cover - defensive
                raise RuntimeError("pinned memory pool underflow")
            self._live.pop(buf.buffer_id, None)
        if self.sanitizer is not None:
            self.sanitizer.on_free(buf)

    def leaked_buffers(self) -> list["PinnedHostBuffer"]:
        """Live (never-freed) pinned allocations."""
        with self._lock:
            return list(self._live.values())


class GlobalMemoryPool:
    """Capacity accounting for device global memory.

    The pool tracks every live :class:`DeviceBuffer` it has handed out
    (:meth:`leaked_buffers` is the teardown leak report), and forwards
    double-free / overflow observations to an attached sanitizer.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("device memory capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self._used = 0
        self._lock = threading.Lock()
        self.peak_bytes = 0
        self._live: dict[int, "DeviceBuffer"] = {}
        #: optional :class:`repro.gpusim.sanitizer.Sanitizer` (set by the
        #: owning Device; duck-typed to avoid an import cycle)
        self.sanitizer = None

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    def reserve(self, nbytes: int) -> None:
        with self._lock:
            if self._used + nbytes > self.capacity_bytes:
                raise DeviceMemoryError(
                    f"device OOM: requested {nbytes} B with "
                    f"{self.capacity_bytes - self._used} B free "
                    f"(capacity {self.capacity_bytes} B)"
                )
            self._used += nbytes
            self.peak_bytes = max(self.peak_bytes, self._used)

    def release(self, nbytes: int) -> None:
        with self._lock:
            self._used -= nbytes
            if self._used < 0:  # pragma: no cover - defensive
                raise RuntimeError("global memory pool underflow")

    def release_buffer(self, buf: "DeviceBuffer") -> None:
        """Release a tracked buffer's bytes and drop it from the live set."""
        with self._lock:
            self._used -= buf.nbytes
            if self._used < 0:  # pragma: no cover - defensive
                raise RuntimeError("global memory pool underflow")
            self._live.pop(buf.buffer_id, None)
        if self.sanitizer is not None:
            self.sanitizer.on_free(buf)

    def leaked_buffers(self) -> list["DeviceBuffer"]:
        """Live (never-freed) allocations — the teardown leak report."""
        with self._lock:
            return list(self._live.values())

    @property
    def live_count(self) -> int:
        with self._lock:
            return len(self._live)

    def allocate(
        self,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | str = np.float64,
        *,
        name: str = "",
        result_buffer: bool = False,
        fill: Optional[float] = None,
    ) -> DeviceBuffer:
        """Allocate a :class:`DeviceBuffer` (or :class:`ResultBuffer`)."""
        arr = np.empty(shape, dtype=dtype)
        if fill is not None:
            arr.fill(fill)
        self.reserve(arr.nbytes)
        if result_buffer:
            buf: DeviceBuffer = ResultBuffer(arr, self, name=name)
        else:
            buf = DeviceBuffer(data=arr, pool=self, name=name)
        with self._lock:
            self._live[buf.buffer_id] = buf
        return buf
