"""Simulated multicore host.

The paper's host is a 16-core Xeon running OpenMP threads; this
execution environment may have as little as one core, so — exactly as
the GPU is simulated by :mod:`repro.gpusim` — the host-side concurrency
of scenarios S2 (producer/consumer pipeline) and S3 (16 threads sharing
one neighbor table) is *modeled*: every task runs serially (producing
real results and real per-task wall times), and the parallel makespan is
computed by a deterministic list scheduler over ``n`` simulated cores.
Every scheduler that picks "the earliest-free worker" books onto the one
:class:`WorkerPool` (the serving layer's virtual clock too);
:func:`schedule_devices` pins tasks to devices instead and needs none.

This is the only S2/S3 execution path: the batching layer's stream
workers are the only real host threads the clustering runs.
"""

from repro.hostsim.multidevice import DeviceSchedule, schedule_devices
from repro.hostsim.queueing import WorkerPool
from repro.hostsim.scheduler import (
    PipelineSchedule,
    Schedule,
    schedule_parallel,
    schedule_pipeline,
)

__all__ = [
    "schedule_parallel",
    "schedule_pipeline",
    "schedule_devices",
    "Schedule",
    "PipelineSchedule",
    "DeviceSchedule",
    "WorkerPool",
]
