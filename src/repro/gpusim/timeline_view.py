"""ASCII Gantt rendering of the simulated stream timeline.

Visualizes what Section VI's 3-stream batching hides: one row per
stream, engine-coded marks (``K`` kernel/compute, ``>`` h2d, ``<``
d2h), so the overlap between kernel execution and result-set transfers
is visible in terminal output.  Reads the device's one op log
(:class:`~repro.gpusim.profiler.Profiler`).  Used by
``examples/batching_internals`` and the stream ablation.
"""

from __future__ import annotations

from repro.gpusim.profiler import Profiler

__all__ = ["render_timeline"]

_ENGINE_MARK = {"compute": "K", "h2d": ">", "d2h": "<", "host": "H"}


def render_timeline(profiler: Profiler, *, width: int = 72) -> str:
    """Render the logged ops as one ASCII lane per stream."""
    ops = profiler.ops
    if not ops:
        return "(empty timeline)"
    makespan = profiler.makespan_ms()
    if makespan <= 0:
        return "(zero-length timeline)"
    stream_ids = sorted({op.stream_id for op in ops})
    lanes = {sid: [" "] * width for sid in stream_ids}
    for op in ops:
        c0 = int(op.start_ms / makespan * (width - 1))
        c1 = max(c0, int(op.end_ms / makespan * (width - 1)))
        mark = _ENGINE_MARK.get(op.engine, "?")
        lane = lanes[op.stream_id]
        for c in range(c0, c1 + 1):
            lane[c] = mark
    lines = [
        f"stream timeline  0 .. {makespan:.3f} ms   "
        f"(K=kernel/sort  >=h2d  <=d2h)"
    ]
    for sid in stream_ids:
        lines.append(f"  s{sid:<3}|" + "".join(lanes[sid]) + "|")
    busy = ", ".join(
        f"{e}={profiler.busy_ms(e):.2f}ms" for e in ("compute", "h2d", "d2h")
        if profiler.busy_ms(e) > 0
    )
    lines.append(
        f"  busy: {busy}; hidden by overlap: {profiler.overlap_ms():.2f} ms"
    )
    return "\n".join(lines)
