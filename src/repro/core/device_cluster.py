"""Device-resident cluster formation — the host driver.

The kernels (:mod:`repro.kernels.cluster_kernels`) do the work; this
module owns the host-side protocol: upload ``T``, classify cores, iterate
the union-find kernel until the device-side ``changed`` flag settles,
attach border points, download labels, canonicalize.  The result is
bit-identical to the host primitive
:func:`~repro.core.table_dbscan.cluster_edges` already before
canonicalization: both converge to the minimum core id per component,
and both attach each border point to its lowest-id core neighbor, so
``raw_labels`` and ``attach`` equal the host's ``(raw, attach)``.

The sharded path (:mod:`repro.core.sharding`) reuses this driver with an
``eligible`` mask restricting core status to interior points and reads
the raw (pre-canonicalization) labels and the ``attach`` array back out
of :class:`DeviceClusterResult` to build its merge edges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.neighbor_table import NeighborTable
from repro.core.table_dbscan import NOISE, canonicalize_labels
from repro.gpusim.device import Device
from repro.gpusim.launch import launch
from repro.index.base import check_minpts
from repro.kernels.cluster_kernels import (
    BorderAttachKernel,
    ClusterUnionFindKernel,
    CoreFlagKernel,
)

__all__ = [
    "DeviceClusterResult",
    "dbscan_from_table_device",
    "device_cluster_table",
]


@dataclass
class DeviceClusterResult:
    """Everything the device cluster-formation pass produces."""

    #: canonical labels (clusters numbered by lowest member id, -1 noise)
    labels: np.ndarray
    #: pre-canonicalization labels: per point, the minimum core id of its
    #: component (cores and attached borders), -1 for noise
    raw_labels: np.ndarray
    #: core flags (respecting ``eligible`` when given)
    core: np.ndarray
    #: per point, the lowest-id core neighbor a border point attached to
    #: (-1 for cores and unattached points)
    attach: np.ndarray
    #: union-find kernel launches until the ``changed`` flag settled
    iterations: int
    #: modeled device milliseconds across all launches (cost model)
    device_ms: float
    #: host wall seconds for the whole pass (transfers included)
    wall_s: float


def device_cluster_table(
    table: NeighborTable,
    minpts: int,
    *,
    device: Optional[Device] = None,
    backend: str = "vector",
    block_dim: int = 256,
    eligible: Optional[np.ndarray] = None,
) -> DeviceClusterResult:
    """Cluster a neighbor table on the (simulated) device.

    Uploads ``t_min``/``t_max``/``B``, then:

    1. ``CoreFlag`` — core classification + label init;
    2. ``ClusterUnionFind`` — relaunched until a round leaves every
       label fixed (the device-side ``changed`` counter reads 0);
    3. ``BorderAttach`` — border points take their lowest-id core
       neighbor's label.

    ``eligible`` (boolean, per point) restricts core status — the
    sharded path passes its interior mask so halo points are never
    classified.  When ``device`` is omitted a fresh one is created and
    closed (leak-checked) before returning.
    """
    check_minpts(minpts)
    n = table.n_points
    own_device = device is None
    if own_device:
        device = Device()
    t0 = time.perf_counter()
    device_ms = 0.0
    iterations = 0
    try:
        d_tmin = device.to_device(table.t_min, name="cluster.t_min")
        d_tmax = device.to_device(table.t_max, name="cluster.t_max")
        d_b = device.to_device(table.values, name="cluster.B")
        d_core = device.allocate(n, np.int8, name="cluster.core", fill=0)
        d_labels = device.allocate(
            n, np.int64, name="cluster.labels", fill=NOISE
        )
        d_elig = None
        if eligible is not None:
            d_elig = device.to_device(
                np.asarray(eligible).astype(np.int8), name="cluster.eligible"
            )
        cfg = CoreFlagKernel.launch_config(n, block_dim=block_dim)
        kwargs = dict(
            t_min=d_tmin,
            t_max=d_tmax,
            minpts=int(minpts),
            core=d_core,
            labels=d_labels,
        )
        if d_elig is not None:
            kwargs["eligible"] = d_elig
        res = launch(CoreFlagKernel(), cfg, device, backend=backend, **kwargs)
        device_ms += res.modeled_ms
        core = device.from_device(d_core) != 0
        attach = np.full(n, -1, dtype=np.int64)
        if core.any():
            uf = ClusterUnionFindKernel()
            while True:
                d_changed = device.allocate(
                    1, np.int64, name="cluster.changed", fill=0
                )
                res = launch(
                    uf,
                    cfg,
                    device,
                    backend=backend,
                    t_min=d_tmin,
                    t_max=d_tmax,
                    B=d_b,
                    core=d_core,
                    labels=d_labels,
                    changed=d_changed,
                )
                device_ms += res.modeled_ms
                iterations += 1
                n_changed = int(device.from_device(d_changed)[0])
                d_changed.free()
                if n_changed == 0:
                    break
            d_attach = device.allocate(
                n, np.int64, name="cluster.attach", fill=-1
            )
            res = launch(
                BorderAttachKernel(),
                cfg,
                device,
                backend=backend,
                t_min=d_tmin,
                t_max=d_tmax,
                B=d_b,
                core=d_core,
                labels=d_labels,
                attach=d_attach,
            )
            device_ms += res.modeled_ms
            attach = device.from_device(d_attach)
            d_attach.free()
        raw = device.from_device(d_labels)
        for buf in (d_tmin, d_tmax, d_b, d_core, d_labels):
            buf.free()
        if d_elig is not None:
            d_elig.free()
    finally:
        if own_device:
            device.close()
    return DeviceClusterResult(
        labels=canonicalize_labels(raw),
        raw_labels=raw,
        core=core,
        attach=attach,
        iterations=iterations,
        device_ms=device_ms,
        wall_s=time.perf_counter() - t0,
    )


def dbscan_from_table_device(
    table: NeighborTable,
    minpts: int,
    *,
    device: Optional[Device] = None,
    backend: str = "vector",
    block_dim: int = 256,
) -> np.ndarray:
    """Device-resident table DBSCAN; returns canonical labels only.

    The device-side counterpart of
    :func:`~repro.core.table_dbscan.dbscan_from_table` — bit-identical
    output, property-tested.
    """
    return device_cluster_table(
        table, minpts, device=device, backend=backend, block_dim=block_dim
    ).labels
