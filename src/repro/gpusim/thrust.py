"""Device-side key sort in the style of the CUDA Thrust library.

Algorithm 4 leaves the kernel's key/value result set on the device and
sorts it by key (``thrust::sort_by_key``) so identical keys become
adjacent before the single transfer to the host.  :func:`sort_pairs`
is that call: stable, in place on a pair buffer, charged by the cost
model, and enqueued on a stream — the Thrust execution-policy analogue.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpusim.device import Device
from repro.gpusim.memory import DeviceBuffer, ResultBuffer
from repro.gpusim.profiler import SortRecord
from repro.gpusim.streams import Stream

__all__ = ["sort_pairs"]


def sort_pairs(
    pairs: DeviceBuffer,
    device: Device,
    *,
    stream: Optional[Stream] = None,
) -> int:
    """Stable sort of an ``(n, 2)`` key/value pair buffer by key column.

    This is how Algorithm 4 invokes Thrust on the kernel result set: the
    key column holds ``k_j`` (a point id) and the value column ``v_j``
    (a neighbor id); sorting makes identical keys adjacent before the
    result is shipped to the host.  An ``(n, 3)`` buffer carries a
    distance column as well (the annotated-table extension).  Only the
    filled prefix of a result buffer participates, matching Thrust's
    iterator-range call.  Returns the number of pairs sorted.
    """
    data = pairs.view() if isinstance(pairs, ResultBuffer) else pairs.data
    if data.ndim != 2 or data.shape[1] not in (2, 3):
        raise ValueError(
            f"expected an (n, 2) or (n, 3) pair buffer, got {data.shape}"
        )
    n = len(data)
    if n:
        order = np.argsort(data[:, 0], kind="stable")
        data[...] = data[order]
    device.enqueue(
        SortRecord(
            name="thrust::sort_by_key",
            engine="compute",
            modeled_ms=device.cost.sort_time_ms(n),
            n=n,
        ),
        stream,
        writes=(pairs,),
    )
    return n
