"""Tests for the ASCII timeline renderer."""

from repro.gpusim import Device, DeviceOp
from repro.gpusim.timeline_view import render_timeline


def _op(device, stream, name, engine, ms):
    device.enqueue(DeviceOp(name=name, engine=engine, modeled_ms=ms), stream)


class TestRenderTimeline:
    def test_empty(self):
        assert "(empty timeline)" in render_timeline(Device().profiler)

    def test_lane_per_stream(self, device):
        s0, s1 = device.new_stream(), device.new_stream()
        _op(device, s0, "k", "compute", 5.0)
        _op(device, s1, "t", "d2h", 5.0)
        out = render_timeline(device.profiler)
        lanes = [l for l in out.splitlines() if l.strip().startswith("s") and "|" in l]
        assert len(lanes) == 2
        assert "K" in lanes[0]
        assert "<" in lanes[1]

    def test_overlap_reported(self, device):
        s0, s1 = device.new_stream(), device.new_stream()
        _op(device, s0, "k", "compute", 4.0)
        _op(device, s1, "t", "h2d", 4.0)
        out = render_timeline(device.profiler)
        assert "hidden by overlap: 4.00 ms" in out

    def test_serialized_ops_span_lane(self, device):
        s = device.new_stream()
        _op(device, s, "a", "compute", 1.0)
        _op(device, s, "b", "d2h", 1.0)
        out = render_timeline(device.profiler, width=20)
        lane = [l for l in out.splitlines() if l.strip().startswith("s") and "|" in l][0]
        assert "K" in lane and "<" in lane
        # compute comes before the transfer in the lane
        assert lane.index("K") < lane.index("<")

    def test_real_batched_build_timeline(self, blobs_points):
        from repro.core import BatchConfig
        from repro.core.batching import build_neighbor_table
        from repro.index import GridIndex

        device = Device()
        grid = GridIndex.build(blobs_points, 0.4)
        build_neighbor_table(
            grid, device,
            config=BatchConfig(static_threshold=1, static_buffer_size=20_000),
        )
        out = render_timeline(device.profiler)
        assert "K" in out and "<" in out
