"""Kernel objects and the launch entry point.

A :class:`Kernel` bundles two implementations of the same computation:

``device_code``
    Per-thread generator code run by the SIMT interpreter
    (:mod:`repro.gpusim.interpreter`) — the fidelity reference.
``vector_impl``
    A vectorized NumPy implementation producing identical results at
    scale, filling the same :class:`~repro.gpusim.costmodel.KernelCounters`
    analytically.

:func:`launch` dispatches to a backend, derives the simulated kernel time
from the counters via the device cost model, and enqueues the launch on a
stream's compute engine through :meth:`~repro.gpusim.device.Device.enqueue`;
the returned :class:`~repro.gpusim.profiler.LaunchResult` is the
profiler's record of the launch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Literal, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.absint import KernelInvariants
    from repro.analysis.costmodel import CostContract

from repro.gpusim.costmodel import KernelCounters
from repro.gpusim.device import Device
from repro.gpusim.interpreter import run_interpreted
from repro.gpusim.kernelapi import BarrierDivergenceError
from repro.gpusim.memory import DeviceBuffer, ResultBuffer
from repro.gpusim.occupancy import OccupancyLimits, occupancy
from repro.gpusim.profiler import LaunchResult
from repro.gpusim.streams import Stream

__all__ = ["Kernel", "LaunchConfig", "LaunchResult", "launch"]

Backend = Literal["vector", "interpreter"]


@dataclass(frozen=True)
class LaunchConfig:
    """Grid geometry for one launch."""

    grid_dim: int
    block_dim: int

    def __post_init__(self) -> None:
        if self.grid_dim <= 0 or self.block_dim <= 0:
            raise ValueError("grid_dim and block_dim must be positive")

    @property
    def total_threads(self) -> int:
        """Paper's ``nGPU``: blocks × block size."""
        return self.grid_dim * self.block_dim

    @staticmethod
    def for_elements(n: int, block_dim: int = 256) -> "LaunchConfig":
        """One thread per element, rounded up to whole blocks."""
        if n <= 0:
            raise ValueError("element count must be positive")
        grid = (n + block_dim - 1) // block_dim
        return LaunchConfig(grid_dim=grid, block_dim=block_dim)


class Kernel:
    """Base class for simulated GPU kernels.

    Subclasses set :attr:`name` and implement :meth:`device_code` and/or
    :meth:`vector_impl`.  :attr:`registers_per_thread` and
    :meth:`shared_mem_per_block` feed the occupancy calculation.
    """

    name: str = "kernel"
    #: register pressure assumed for the occupancy calculation
    registers_per_thread: int = 32

    def shared_mem_per_block(self, block_dim: int) -> int:
        """Static shared-memory footprint in bytes (0 = none)."""
        return 0

    def value_invariants(self) -> "Optional[KernelInvariants]":
        """Value contract for the static bounds checker (KC005).

        Subclasses with device code return a
        :class:`~repro.analysis.absint.KernelInvariants` declaring
        buffer lengths, scalar-parameter ranges, element ranges of
        index-carrying arrays, and row-pair orderings (e.g.
        ``t_min[i] <= t_max[i] < len(B)``) so the abstract interpreter
        can prove every access in-bounds before any launch.  ``None``
        means "no contract": global accesses are reported as *assumed*
        rather than proved.
        """
        return None

    def cost_contract(self) -> "Optional[CostContract]":
        """Declared cost expectations for the static cost model (KC007).

        Subclasses may return a
        :class:`~repro.analysis.costmodel.CostContract` declaring
        per-thread *counter bounds* (checked against the derived
        worst-case — declaring below the derivation is a KC007 warning)
        and *trip estimates* (average-case loop iteration counts used
        for point predictions; the worst-case bound stays in force for
        the soundness proof).  ``None`` means "no contract": the derived
        worst case doubles as the point estimate.
        """
        return None

    def device_code(self, ctx, **kwargs):  # pragma: no cover - interface
        """Per-thread device code (generator function)."""
        raise NotImplementedError(f"{self.name} has no interpreter path")

    def vector_impl(
        self, config: LaunchConfig, counters: KernelCounters, **kwargs
    ) -> Any:  # pragma: no cover - interface
        """Vectorized whole-grid implementation."""
        raise NotImplementedError(f"{self.name} has no vector path")


def launch(
    kernel: Kernel,
    config: LaunchConfig,
    device: Device,
    *,
    backend: Backend = "vector",
    stream: Optional[Stream] = None,
    **kwargs,
) -> LaunchResult:
    """Launch ``kernel`` on ``device``; returns the launch's record."""
    counters = KernelCounters()
    san = device.sanitizer
    t0 = time.perf_counter()
    try:
        if backend == "interpreter":
            run_interpreted(
                kernel.device_code,
                grid_dim=config.grid_dim,
                block_dim=config.block_dim,
                counters=counters,
                shared_mem_limit=device.spec.shared_mem_per_block_bytes,
                kwargs=kwargs,
            )
            value = None
        elif backend == "vector":
            counters.blocks += config.grid_dim
            counters.threads += config.total_threads
            value = kernel.vector_impl(config, counters, **kwargs)
        else:  # pragma: no cover - guarded by Literal
            raise ValueError(f"unknown backend {backend!r}")
    except BarrierDivergenceError as exc:
        if san is not None:
            san.on_sync_violation(
                f"kernel {kernel.name}: {exc}", raisable=False
            )
        raise
    wall = time.perf_counter() - t0

    occ = occupancy(
        config.block_dim,
        limits=OccupancyLimits.for_spec(device.spec),
        registers_per_thread=kernel.registers_per_thread,
        shared_mem_per_block_bytes=kernel.shared_mem_per_block(config.block_dim),
    )
    # every device buffer handed to the kernel is accessed during the
    # compute op — result buffers are written, inputs read
    bufs = [arg for arg in kwargs.values() if isinstance(arg, DeviceBuffer)]
    return device.enqueue(
        LaunchResult(
            name=kernel.name,
            engine="compute",
            modeled_ms=device.cost.kernel_time_ms(counters, occupancy=occ.fraction),
            value=value,
            counters=counters,
            wall_s=wall,
            config=config,
            backend=backend,
            occupancy=occ,
        ),
        stream,
        reads=[b for b in bufs if not isinstance(b, ResultBuffer)],
        writes=[b for b in bufs if isinstance(b, ResultBuffer)],
    )
