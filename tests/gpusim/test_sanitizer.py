"""Seeded-violation tests for the gpusanitizer.

Each test constructs a known-bad program — a cross-stream race, a
double-free, a result-buffer overflow, a skipped block barrier — and
asserts the sanitizer raises the *right* structured error.  The
no-false-positive tests at the bottom run the full batched hybrid
pipeline (3 streams) and the threads-mode multi-variant pipeline under
``sanitize=True`` and require a clean report.
"""

import numpy as np
import pytest

from repro.core.batching import BatchConfig
from repro.core.hybrid_dbscan import HybridDBSCAN
from repro.core.pipeline import MultiClusterPipeline, VariantSet
from repro.gpusim import (
    Device,
    DoubleFreeError,
    OutOfBoundsError,
    RaceError,
    ResultBufferOverflow,
    SynccheckError,
    UseAfterFreeError,
)
from repro.gpusim.device import sanitize_default
from repro.gpusim.kernelapi import BarrierDivergenceError
from repro.gpusim.sanitizer import MemcheckError, Sanitizer, SanitizerError
from repro.gpusim.thrust import reduce_sum, sort_pairs


@pytest.fixture
def sdevice():
    return Device(sanitize=True)


# ----------------------------------------------------------------------
# racecheck
# ----------------------------------------------------------------------
class TestRacecheck:
    def _pair_buffer(self, device, n=64):
        buf = device.allocate_result_buffer((n, 2), np.int64, name="pairs")
        rows = np.stack([np.arange(n // 2), np.arange(n // 2)], axis=1)
        buf.append_block(rows)
        return buf

    def test_unordered_sort_and_transfer_race(self, sdevice):
        """Device sort on one stream, D2H of the same buffer on another,
        no event edge: the transfer can read mid-sort — a race."""
        buf = self._pair_buffer(sdevice)
        s1 = sdevice.new_stream("compute")
        s2 = sdevice.new_stream("io")
        sort_pairs(buf, sdevice, stream=s1)
        with pytest.raises(RaceError) as exc:
            sdevice.from_device(buf, stream=s2, count=buf.count)
        v = exc.value.violation
        assert v is not None and v.kind == "race"
        assert v.first is not None and v.second is not None
        assert {v.first.stream_name, v.second.stream_name} == {"compute", "io"}
        assert "write" in (v.first.kind, v.second.kind)

    def test_event_edge_fixes_race(self, sdevice):
        """The same program with a record/wait edge is race-free."""
        buf = self._pair_buffer(sdevice)
        s1 = sdevice.new_stream("compute")
        s2 = sdevice.new_stream("io")
        sort_pairs(buf, sdevice, stream=s1)
        s2.wait_event(s1.record_event())
        out = sdevice.from_device(buf, stream=s2, count=buf.count)
        assert len(out) == buf.count
        assert sdevice.sanitizer.report.clean

    def test_device_synchronize_fixes_race(self, sdevice):
        buf = self._pair_buffer(sdevice)
        s1 = sdevice.new_stream("compute")
        s2 = sdevice.new_stream("io")
        sort_pairs(buf, sdevice, stream=s1)
        sdevice.synchronize()
        sdevice.from_device(buf, stream=s2, count=buf.count)
        assert sdevice.sanitizer.report.clean

    def test_concurrent_reads_are_not_a_race(self, sdevice):
        buf = self._pair_buffer(sdevice)
        sdevice.synchronize()  # order the appends' device sort-free state
        s1 = sdevice.new_stream("r1")
        s2 = sdevice.new_stream("r2")
        reduce_sum(buf, sdevice, stream=s1)
        reduce_sum(buf, sdevice, stream=s2)
        assert sdevice.sanitizer.report.clean

    def test_same_stream_is_program_ordered(self, sdevice):
        buf = self._pair_buffer(sdevice)
        s = sdevice.new_stream("solo")
        sort_pairs(buf, sdevice, stream=s)
        sort_pairs(buf, sdevice, stream=s)
        sdevice.from_device(buf, stream=s, count=buf.count)
        assert sdevice.sanitizer.report.clean

    def test_shared_pinned_staging_race(self, sdevice):
        """Two streams staging different device buffers through ONE
        pinned host buffer — the canonical Section VI misuse."""
        a = sdevice.to_device(np.arange(32, dtype=np.int64), name="a")
        b = sdevice.to_device(np.arange(32, dtype=np.int64), name="b")
        pinned = sdevice.alloc_pinned(32, np.int64)
        s1 = sdevice.new_stream("w1")
        s2 = sdevice.new_stream("w2")
        sdevice.synchronize()
        sdevice.from_device(a, out=pinned, stream=s1)
        with pytest.raises(RaceError):
            sdevice.from_device(b, out=pinned, stream=s2)

    def test_record_mode_accumulates(self):
        device = Device(sanitize=True, sanitize_mode="record")
        buf = device.allocate_result_buffer((64, 2), np.int64)
        buf.append_block(np.zeros((8, 2), dtype=np.int64))
        s1 = device.new_stream("a")
        s2 = device.new_stream("b")
        sort_pairs(buf, device, stream=s1)
        device.from_device(buf, stream=s2, count=buf.count)  # no raise
        report = device.sanitizer.report
        assert report.count("race") == 1
        d = report.as_dict()
        assert d["clean"] is False
        assert d["violations"][0]["kind"] == "race"
        assert "first" in d["violations"][0]
        assert "race" in report.render()


# ----------------------------------------------------------------------
# memcheck
# ----------------------------------------------------------------------
class TestMemcheck:
    def test_double_free(self, sdevice):
        buf = sdevice.allocate(16, np.float64)
        buf.free()
        with pytest.raises(DoubleFreeError) as exc:
            buf.free()
        assert exc.value.kind == "double-free"
        assert isinstance(exc.value, MemcheckError)

    def test_use_after_free_transfer(self, sdevice):
        buf = sdevice.to_device(np.arange(8.0))
        sdevice.synchronize()
        buf.free()
        with pytest.raises(UseAfterFreeError):
            sdevice.from_device(buf)

    def test_use_after_free_thrust(self, sdevice):
        buf = sdevice.to_device(np.arange(8.0))
        sdevice.synchronize()
        buf.free()
        with pytest.raises(UseAfterFreeError):
            reduce_sum(buf, sdevice)

    def test_overflow_is_oob_and_overflow(self, sdevice):
        """Sanitized overflow raises OutOfBoundsError, which recovery
        code catching ResultBufferOverflow still handles."""
        buf = sdevice.allocate_result_buffer(4, np.int64)
        with pytest.raises(OutOfBoundsError) as exc:
            buf.append_block(np.arange(5))
        assert isinstance(exc.value, ResultBufferOverflow)
        assert isinstance(exc.value, MemcheckError)
        assert exc.value.kind == "oob"

    def test_from_device_count_past_allocation(self, sdevice):
        buf = sdevice.to_device(np.arange(8.0))
        sdevice.synchronize()
        with pytest.raises(OutOfBoundsError):
            sdevice.from_device(buf, count=100)

    def test_leak_report_at_close(self, sdevice):
        sdevice.allocate(16, np.float64, name="leaky")
        kept = sdevice.allocate(16, np.float64, name="kept")
        kept.free()
        report = sdevice.close()
        assert report.count("leak") == 1
        assert "leaky" in report.violations[-1].message

    def test_clean_close(self, sdevice):
        buf = sdevice.allocate(16, np.float64)
        buf.free()
        assert sdevice.close().clean

    def test_unsanitized_close_returns_none(self):
        assert Device(sanitize=False).close() is None


# ----------------------------------------------------------------------
# synccheck
# ----------------------------------------------------------------------
class TestSynccheck:
    def test_skipped_barrier_is_synccheck(self, sdevice):
        """A thread returning between barriers its block-mates still hit
        is the synccheck violation class."""
        from repro.gpusim.launch import Kernel, LaunchConfig, launch

        class BadBarrier(Kernel):
            name = "bad_barrier"

            def device_code(self, ctx):
                yield ctx.syncthreads()
                if ctx.thread_idx == 0:
                    return  # skips the barrier the rest of the block takes
                yield ctx.syncthreads()

        with pytest.raises(BarrierDivergenceError) as exc:
            launch(
                BadBarrier(),
                LaunchConfig(grid_dim=1, block_dim=4),
                sdevice,
                backend="interpreter",
            )
        assert isinstance(exc.value, SynccheckError)
        # the violation is also on the report (recorded, then re-raised)
        assert sdevice.sanitizer.report.count("sync") == 1

    def test_wait_unrecorded_event(self, sdevice):
        s = sdevice.new_stream("w")
        from repro.gpusim.streams import Event

        with pytest.raises(SynccheckError):
            s.wait_event(Event())

    def test_cross_timeline_wait(self, sdevice):
        other = Device(sanitize=False)
        ev = other.default_stream.record_event()
        s = sdevice.new_stream("w")
        with pytest.raises(SynccheckError):
            s.wait_event(ev)


# ----------------------------------------------------------------------
# error taxonomy / plumbing
# ----------------------------------------------------------------------
class TestStructure:
    def test_all_kinds_are_sanitizer_errors(self):
        for cls in (
            RaceError,
            UseAfterFreeError,
            DoubleFreeError,
            OutOfBoundsError,
            SynccheckError,
        ):
            assert issubclass(cls, SanitizerError)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Sanitizer(mode="explode")

    def test_gpusan_env(self, monkeypatch):
        monkeypatch.setenv("GPUSAN", "1")
        assert sanitize_default()
        assert Device().sanitizer is not None
        monkeypatch.setenv("GPUSAN", "0")
        assert not sanitize_default()
        assert Device().sanitizer is None
        # explicit argument beats the environment
        monkeypatch.setenv("GPUSAN", "1")
        assert Device(sanitize=False).sanitizer is None


# ----------------------------------------------------------------------
# no false positives on the real pipelines
# ----------------------------------------------------------------------
def _blobs(n, seed=7):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 5.0]])
    pts = centers[rng.integers(0, len(centers), n)]
    return pts + rng.normal(0.0, 0.35, size=(n, 2))


class TestNoFalsePositives:
    def test_batched_hybrid_clean(self):
        """Full 3-stream batched table build + DBSCAN under the
        sanitizer: zero reports."""
        h = HybridDBSCAN(
            sanitize=True,
            batch_config=BatchConfig(n_streams=3, min_buffer_size=256),
        )
        res = h.fit(_blobs(600), eps=0.5, minpts=4)
        assert res.n_clusters >= 2
        report = h.device.close()
        assert report.clean, report.render()

    def test_interpreter_backend_clean(self):
        h = HybridDBSCAN(
            sanitize=True,
            backend="interpreter",
            batch_config=BatchConfig(n_streams=2, min_buffer_size=128),
            block_dim=32,
        )
        res = h.fit(_blobs(60), eps=0.5, minpts=4)
        assert res.n_clusters >= 1
        assert h.device.close().clean

    def test_threads_pipeline_clean(self):
        """Producer/consumer threads mode under the sanitizer."""
        pipe = MultiClusterPipeline(sanitize=True, n_consumers=2)
        variants = VariantSet.eps_sweep([0.4, 0.6], minpts=4)
        result = pipe.run(_blobs(300), variants, mode="threads")
        assert len(result.outcomes) == 2
        assert pipe.hybrid.device.close().clean

    def test_fault_recovery_clean(self):
        """Overflow-triggered split/regrow recovery must not trip the
        sanitizer (no double-frees, no stale buffers)."""
        from repro.gpusim.faults import FaultInjector, FaultSpec

        faults = FaultInjector([FaultSpec("overflow", frozenset({1}), times=1)])
        device = Device(sanitize=True, faults=faults)
        h = HybridDBSCAN(
            device,
            batch_config=BatchConfig(n_streams=2, min_buffer_size=256),
        )
        res = h.fit(_blobs(400), eps=0.5, minpts=4)
        assert res.recovery.retries >= 1
        assert device.close().clean
