"""Tests for streams, events, the engine scheduler and the timeline
reports read from the device's op log."""

import pytest

from repro.gpusim import DeviceOp
from repro.gpusim.sanitizer import SynccheckError
from repro.gpusim.streams import StaleStreamError, Stream, Timeline


@pytest.fixture
def timeline():
    return Timeline()


def _op(device, stream, name, engine, ms):
    return device.enqueue(DeviceOp(name=name, engine=engine, modeled_ms=ms), stream)


class TestSerialization:
    def test_same_stream_serializes(self, device):
        s = device.new_stream()
        op1 = _op(device, s, "k1", "compute", 5.0)
        op2 = _op(device, s, "t1", "d2h", 3.0)
        assert op2.start_ms == op1.end_ms

    def test_same_engine_serializes_across_streams(self, device):
        s1, s2 = device.new_stream(), device.new_stream()
        op1 = _op(device, s1, "k1", "compute", 5.0)
        op2 = _op(device, s2, "k2", "compute", 5.0)
        assert op2.start_ms == op1.end_ms

    def test_different_engines_overlap(self, device):
        s1, s2 = device.new_stream(), device.new_stream()
        _op(device, s1, "k1", "compute", 5.0)
        op2 = _op(device, s2, "t2", "h2d", 5.0)
        assert op2.start_ms == 0.0
        assert device.profiler.makespan_ms() == 5.0

    def test_three_stream_pipeline_overlaps(self, device):
        """Kernel/sort/transfer across 3 streams overlaps like Section VI."""
        for s in [device.new_stream() for _ in range(3)]:
            _op(device, s, "kernel", "compute", 10.0)
            _op(device, s, "d2h", "d2h", 4.0)
        # compute engine serializes the kernels (30ms); transfers hide
        prof = device.profiler
        assert prof.makespan_ms() == pytest.approx(34.0)
        assert prof.overlap_ms() == pytest.approx(42.0 - 34.0)


class TestTimelineMath:
    def test_makespan_empty(self, device):
        assert device.profiler.makespan_ms() == 0.0

    def test_busy_per_engine(self, device):
        _op(device, None, "a", "compute", 2.0)
        _op(device, None, "b", "h2d", 3.0)
        prof = device.profiler
        assert prof.busy_ms("compute") == 2.0
        assert prof.busy_ms("h2d") == 3.0
        assert prof.serialized_ms() == 5.0

    def test_negative_duration_rejected(self, device):
        with pytest.raises(ValueError):
            _op(device, None, "bad", "compute", -1.0)
        assert device.profiler.ops == []

    def test_unknown_engine_rejected(self, device):
        with pytest.raises(ValueError):
            _op(device, None, "bad", "warp", 1.0)
        assert device.profiler.ops == []

    def test_ops_for_stream(self, device):
        s1, s2 = device.new_stream(), device.new_stream()
        _op(device, s1, "a", "compute", 1.0)
        _op(device, s2, "b", "compute", 1.0)
        _op(device, s1, "c", "d2h", 1.0)
        ops = device.profiler.ops
        assert [op.name for op in ops if op.stream_id == s1.stream_id] == ["a", "c"]

    def test_reset(self, device):
        _op(device, None, "a", "compute", 1.0)
        device.reset()
        assert device.profiler.makespan_ms() == 0.0
        assert device.profiler.ops == []


class TestReset:
    def test_reset_invalidates_old_streams(self, timeline):
        """A held stream must not carry stale available_ms past a reset."""
        s = Stream(timeline)
        timeline.schedule(s, "compute", 5.0)
        timeline.reset()
        with pytest.raises(StaleStreamError):
            timeline.schedule(s, "compute", 1.0)

    def test_stale_stream_event_apis_raise(self, timeline):
        s = Stream(timeline)
        timeline.reset()
        with pytest.raises(StaleStreamError):
            s.record_event()
        fresh = Stream(timeline)
        ev = fresh.record_event()
        with pytest.raises(StaleStreamError):
            s.wait_event(ev)

    def test_new_epoch_streams_start_clean(self, timeline):
        old = Stream(timeline)
        timeline.schedule(old, "compute", 9.0)
        timeline.reset()
        fresh = Stream(timeline)
        start, _ = timeline.schedule(fresh, "compute", 1.0)
        assert start == 0.0
        assert timeline.streams == [fresh]

    def test_wait_on_pre_reset_event_raises(self, timeline):
        s = Stream(timeline)
        ev = s.record_event()
        timeline.reset()
        fresh = Stream(timeline)
        with pytest.raises(SynccheckError):
            fresh.wait_event(ev)


class TestEvents:
    def test_record_and_wait(self, timeline):
        s1, s2 = Stream(timeline), Stream(timeline)
        timeline.schedule(s1, "compute", 7.0)
        ev = s1.record_event()
        assert ev.timestamp_ms == 7.0
        s2.wait_event(ev)
        start, _ = timeline.schedule(s2, "h2d", 1.0)
        assert start >= 7.0

    def test_wait_unrecorded_raises(self, timeline):
        from repro.gpusim.streams import Event

        s = Stream(timeline)
        with pytest.raises(SynccheckError):
            s.wait_event(Event())

    def test_wait_event_from_other_timeline_raises(self, timeline):
        other = Timeline()
        src = Stream(other)
        ev = src.record_event()
        s = Stream(timeline)
        with pytest.raises(SynccheckError):
            s.wait_event(ev)

    def test_event_merges_vector_clock(self, timeline):
        s1, s2 = Stream(timeline), Stream(timeline)
        timeline.schedule(s1, "compute", 3.0)
        ev = s1.record_event()
        s2.wait_event(ev)
        assert s2.clock[s1.stream_id] == s1.seq

    def test_duration_property(self, device):
        op = _op(device, None, "a", "compute", 2.5)
        assert op.end_ms - op.start_ms == pytest.approx(op.modeled_ms)
        assert op.modeled_ms == 2.5


class TestSynchronize:
    def test_synchronize_joins_all_streams(self, timeline):
        s1, s2 = Stream(timeline), Stream(timeline)
        timeline.schedule(s1, "compute", 8.0)
        timeline.schedule(s2, "h2d", 3.0)
        t = timeline.synchronize()
        assert t == pytest.approx(8.0)
        assert s1.available_ms == s2.available_ms == t
        # clocks merged both ways — everything before is ordered after
        assert s2.clock[s1.stream_id] == s1.seq
        assert s1.clock[s2.stream_id] == s2.seq

    def test_synchronize_empty(self, timeline):
        assert timeline.synchronize() == 0.0

