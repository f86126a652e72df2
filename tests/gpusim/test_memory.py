"""Tests for device global memory, result buffers and pinned memory."""

import numpy as np
import pytest

from repro.gpusim import Device, DeviceMemoryError, DeviceSpec, ResultBufferOverflow
from repro.gpusim.memory import GlobalMemoryPool


class TestGlobalMemoryPool:
    def test_accounting(self):
        pool = GlobalMemoryPool(1000)
        pool.reserve(400)
        assert pool.used_bytes == 400
        assert pool.free_bytes == 600
        pool.release(400)
        assert pool.used_bytes == 0

    def test_oom_raises(self):
        pool = GlobalMemoryPool(100)
        with pytest.raises(DeviceMemoryError):
            pool.reserve(101)

    def test_oom_message_has_sizes(self):
        pool = GlobalMemoryPool(100)
        pool.reserve(60)
        with pytest.raises(DeviceMemoryError, match="40 B free"):
            pool.reserve(50)

    def test_peak_tracking(self):
        pool = GlobalMemoryPool(1000)
        pool.reserve(700)
        pool.release(700)
        pool.reserve(100)
        assert pool.peak_bytes == 700

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            GlobalMemoryPool(0)

    def test_allocate_fill(self):
        pool = GlobalMemoryPool(10**6)
        buf = pool.allocate(10, np.float64, fill=3.5)
        assert np.all(buf.data == 3.5)


class TestDeviceBuffer:
    def test_free_is_idempotent(self):
        # double-free is tolerated only on unsanitized devices (the
        # sanitizer flags it as a memcheck violation; see test_sanitizer)
        device = Device(sanitize=False)
        buf = device.allocate(100, np.float64)
        used = device.memory.used_bytes
        buf.free()
        buf.free()
        assert device.memory.used_bytes == used - 800

    def test_context_manager(self, device):
        before = device.memory.used_bytes
        with device.allocate(10, np.int64) as buf:
            assert device.memory.used_bytes == before + 80
        assert device.memory.used_bytes == before

    def test_shape_dtype(self, device):
        buf = device.allocate((5, 2), np.int32)
        assert buf.shape == (5, 2)
        assert buf.dtype == np.int32
        assert buf.nbytes == 40
        assert len(buf) == 5

    def test_device_oom(self, tiny_device):
        with pytest.raises(DeviceMemoryError):
            tiny_device.allocate(100_000, np.float64)


class TestLiveTracking:
    def test_pool_tracks_live_buffers(self, device):
        a = device.allocate(10, np.float64, name="a")
        b = device.allocate(10, np.float64, name="b")
        assert device.memory.live_count == 2
        a.free()
        leaked = device.leaked_buffers()
        assert [buf.buffer_id for buf in leaked] == [b.buffer_id]
        b.free()
        assert device.memory.live_count == 0
        assert device.leaked_buffers() == []

    def test_result_buffers_tracked(self, device):
        buf = device.allocate_result_buffer(10, np.int64)
        assert device.memory.live_count == 1
        buf.free()
        assert device.memory.live_count == 0


class TestResultBuffer:
    def test_reserve_sequence(self, device):
        buf = device.allocate_result_buffer(10, np.int64)
        assert buf.reserve(3) == 0
        assert buf.reserve(4) == 3
        assert buf.count == 7

    def test_overflow(self, device):
        buf = device.allocate_result_buffer(5, np.int64)
        buf.reserve(5)
        with pytest.raises(ResultBufferOverflow):
            buf.reserve(1)

    def test_overflow_message(self, device):
        buf = device.allocate_result_buffer(4, np.int64, name="R0")
        with pytest.raises(ResultBufferOverflow, match="R0"):
            buf.reserve(5)

    def test_append_block_and_view(self, device):
        buf = device.allocate_result_buffer(10, np.int64)
        buf.append_block(np.array([5, 6, 7]))
        assert buf.view().tolist() == [5, 6, 7]

    def test_reset(self, device):
        buf = device.allocate_result_buffer(10, np.int64)
        buf.append_block(np.arange(4))
        buf.reset()
        assert buf.count == 0
        assert len(buf.view()) == 0

    def test_pair_buffer_rows(self, device):
        buf = device.allocate_result_buffer((10, 2), np.int64)
        buf.append_block(np.array([[1, 2], [3, 4]]))
        assert buf.view().shape == (2, 2)
        assert buf.capacity == 10

    def test_concurrent_reserve(self, device):
        import threading

        buf = device.allocate_result_buffer(8000, np.int64)
        offsets = []

        def worker():
            for _ in range(100):
                offsets.append(buf.reserve(10))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert buf.count == 8000
        assert sorted(offsets) == list(range(0, 8000, 10))


class TestTransfers:
    def test_roundtrip(self, device):
        host = np.arange(100, dtype=np.float64)
        buf = device.to_device(host)
        back = device.from_device(buf)
        assert np.array_equal(back, host)

    def test_transfer_records(self, device):
        host = np.arange(1000, dtype=np.float64)
        buf = device.to_device(host)
        device.from_device(buf)
        summary = device.profiler.summary()
        assert summary["transfers"] == 2
        assert summary["h2d_bytes"] == host.nbytes
        assert summary["d2h_bytes"] == host.nbytes
        # one record per copy, in enqueue order, serialized on the stream
        h2d, d2h = device.profiler.ops
        assert (h2d.engine, d2h.engine) == ("h2d", "d2h")
        assert h2d.nbytes == d2h.nbytes == host.nbytes
        assert d2h.start_ms == h2d.end_ms
        assert h2d.modeled_ms == device.cost.transfer_time_ms(
            host.nbytes, pinned=False
        )

    def test_result_prefix_transfer(self, device):
        buf = device.allocate_result_buffer(100, np.int64)
        buf.append_block(np.arange(7))
        out = device.from_device(buf)
        assert out.tolist() == list(range(7))

    def test_pinned_out_buffer(self, device):
        pinned = device.alloc_pinned(50, np.int64)
        assert pinned.alloc_time_ms > 0
        buf = device.to_device(np.arange(20, dtype=np.int64))
        got = device.from_device(buf, out=pinned.data, pinned=True)
        assert got.tolist() == list(range(20))
        # pinned transfers are recorded as pinned
        assert device.profiler.transfers[-1].pinned

    def test_pinned_alloc_cost_accumulates(self, device):
        device.alloc_pinned(1024, np.float64)
        device.alloc_pinned(1024, np.float64)
        assert device.profiler.pinned_alloc_ms > 0

    def test_transfer_uses_stream(self, device):
        s = device.new_stream("io")
        device.to_device(np.arange(10.0), stream=s)
        assert device.profiler.transfers[-1].stream == "io"


class TestDeviceSpec:
    def test_k20c_defaults(self):
        spec = DeviceSpec()
        assert spec.sm_count == 13
        assert spec.global_mem_bytes == 5 * 1024**3
        assert spec.warp_size == 32

    def test_cost_model_scales_with_width(self):
        small = DeviceSpec(sm_count=1).cost_model()
        big = DeviceSpec(sm_count=13).cost_model()
        assert big.compute_rate_per_ms > small.compute_rate_per_ms

    def test_device_reset(self, device):
        device.to_device(np.arange(10.0))
        device.reset()
        assert device.profiler.summary()["transfers"] == 0
        assert device.profiler.makespan_ms() == 0.0
