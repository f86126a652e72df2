"""Simulated CUDA-like GPU substrate.

The paper's experiments ran on an NVIDIA Tesla K20c.  This package provides
a functional stand-in: a device with bounded global memory, a SIMT
interpreter that executes kernels per thread (with shared memory, block
barriers and atomics), a vectorized fast path for scale, streams on an
overlap-aware engine scheduler, a Thrust-style ``sort_by_key``
(:func:`~repro.gpusim.thrust.sort_pairs`), and a profiler that plays the
role of the NVIDIA Visual Profiler.  Every kernel launch, sort and
transfer goes through :meth:`~repro.gpusim.device.Device.enqueue`, which
appends one record per op to the profiler's log; kernel times, thread
counts, bytes moved and the stream timeline's makespan and overlap are
all read from that one list.

Public entry points
-------------------
:class:`~repro.gpusim.device.Device` / :class:`~repro.gpusim.device.DeviceSpec`
    Construct a simulated device.
:func:`~repro.gpusim.launch.launch`
    Launch a :class:`~repro.gpusim.launch.Kernel` on a device.
:func:`~repro.gpusim.thrust.sort_pairs`
    Device-side stable key sort of a pair buffer.
:class:`~repro.gpusim.faults.FaultInjector`
    Deterministic injection of overflow / OOM / transfer faults.
"""

from repro.gpusim.device import Device, DeviceSpec
from repro.gpusim.faults import (
    DeviceLostError,
    FaultInjector,
    FaultSpec,
    TransferError,
    classify_fault,
    derive_seed,
)
from repro.gpusim.memory import (
    DeviceBuffer,
    DeviceMemoryError,
    PinnedHostBuffer,
    PinnedMemoryPool,
    ResultBufferOverflow,
)
from repro.gpusim.launch import Kernel, LaunchConfig, launch
from repro.gpusim.occupancy import Occupancy, OccupancyLimits, occupancy
from repro.gpusim.sanitizer import (
    DoubleFreeError,
    LeakError,
    MemcheckError,
    OutOfBoundsError,
    RaceError,
    Sanitizer,
    SanitizerError,
    SanitizerReport,
    SynccheckError,
    UseAfterFreeError,
)
from repro.gpusim.streams import Event, StaleStreamError, Stream, Timeline
from repro.gpusim.thrust import sort_pairs
from repro.gpusim.timeline_view import render_timeline
from repro.gpusim.profiler import DeviceOp, Profiler

__all__ = [
    "Device",
    "DeviceSpec",
    "DeviceBuffer",
    "DeviceMemoryError",
    "PinnedHostBuffer",
    "PinnedMemoryPool",
    "ResultBufferOverflow",
    "FaultInjector",
    "FaultSpec",
    "DeviceLostError",
    "classify_fault",
    "derive_seed",
    "TransferError",
    "Kernel",
    "LaunchConfig",
    "launch",
    "Occupancy",
    "OccupancyLimits",
    "occupancy",
    "Sanitizer",
    "SanitizerError",
    "SanitizerReport",
    "RaceError",
    "MemcheckError",
    "UseAfterFreeError",
    "DoubleFreeError",
    "OutOfBoundsError",
    "LeakError",
    "SynccheckError",
    "StaleStreamError",
    "Stream",
    "Event",
    "Timeline",
    "render_timeline",
    "sort_pairs",
    "Profiler",
    "DeviceOp",
]
