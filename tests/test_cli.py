"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture
def points_file(tmp_path, blobs_points):
    path = tmp_path / "pts.npy"
    np.save(path, blobs_points)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv + ["--json"])
    return code, json.loads(out)


class TestCluster:
    def test_basic(self, capsys, points_file):
        code, payload = run_json(
            capsys, ["cluster", points_file, "--eps", "0.5", "--minpts", "5"]
        )
        assert code == 0
        assert payload["clusters"] == 2
        assert payload["points"] == 560

    def test_labels_out(self, capsys, points_file, tmp_path):
        out = tmp_path / "labels.npy"
        code, _ = run_json(
            capsys,
            ["cluster", points_file, "--eps", "0.5", "--labels-out", str(out)],
        )
        assert code == 0
        labels = np.load(out)
        assert len(labels) == 560

    def test_named_dataset(self, capsys):
        code, payload = run_json(
            capsys,
            ["cluster", "SW1", "--scale", "0.001", "--eps", "0.5"],
        )
        assert code == 0
        assert payload["points"] == 1865

    def test_shared_kernel(self, capsys, points_file):
        code, payload = run_json(
            capsys,
            ["cluster", points_file, "--eps", "0.5", "--kernel", "shared"],
        )
        assert code == 0

    def test_sharded_matches_single(self, capsys, points_file, tmp_path):
        single = tmp_path / "single.npy"
        sharded = tmp_path / "sharded.npy"
        code, _ = run_json(
            capsys,
            ["cluster", points_file, "--eps", "0.5", "--minpts", "5",
             "--labels-out", str(single)],
        )
        assert code == 0
        code, payload = run_json(
            capsys,
            ["cluster", points_file, "--eps", "0.5", "--minpts", "5",
             "--shards", "2", "2", "--shard-mem-mb", "4",
             "--labels-out", str(sharded)],
        )
        assert code == 0
        assert np.array_equal(np.load(single), np.load(sharded))
        assert payload["shard_grid"] == "2x2"
        assert payload["shards"] >= 1
        assert payload["peak_device_bytes"] <= 4 * (1 << 20)
        assert len(payload["per_shard"]) == payload["shards"]
        # one modeled makespan, reported on one device too
        assert payload["makespan_s"] == payload["device_schedule"]["makespan_s"]

    def test_sharded_batch_fault_injection_recovers(
        self, capsys, points_file, tmp_path
    ):
        """Batch-level injection now composes with --shards (it used to
        be rejected with exit code 2) and labels match the clean run."""
        clean = tmp_path / "clean.npy"
        faulty = tmp_path / "faulty.npy"
        code, _ = run_json(
            capsys,
            ["cluster", points_file, "--eps", "0.5", "--shards", "2", "2",
             "--labels-out", str(clean)],
        )
        assert code == 0
        code, payload = run_json(
            capsys,
            ["cluster", points_file, "--eps", "0.5", "--shards", "2", "2",
             "--inject-overflow", "0", "--labels-out", str(faulty)],
        )
        assert code == 0
        assert np.array_equal(np.load(clean), np.load(faulty))
        assert payload["recovery"]["splits"] + payload["recovery"]["regrows"] >= 1

    def test_sharded_wholesale_fault_injection(
        self, capsys, points_file, tmp_path
    ):
        clean = tmp_path / "clean.npy"
        faulty = tmp_path / "faulty.npy"
        code, _ = run_json(
            capsys,
            ["cluster", points_file, "--eps", "0.5", "--shards", "2", "2",
             "--labels-out", str(clean)],
        )
        assert code == 0
        code, payload = run_json(
            capsys,
            ["cluster", points_file, "--eps", "0.5", "--shards", "2", "2",
             "--inject-shard-oom", "0", "0", "--inject-shard-loss", "1", "1",
             "--labels-out", str(faulty)],
        )
        assert code == 0
        assert np.array_equal(np.load(clean), np.load(faulty))
        rec = payload["recovery"]
        # every completed shard is one "ok" attempt; the injected faults
        # must have added failed attempts on top
        assert rec["shard_attempts"] > payload["shards"]
        assert rec["shard_splits"] >= 1 or rec["fallback_placements"] >= 1
        outcomes = {e["outcome"] for e in payload["shard_events"]}
        assert "ok" in outcomes and ({"split", "retry"} & outcomes)

    def test_sharded_retry_budget_exhaustion_exit_code(
        self, capsys, points_file
    ):
        code = main(
            ["cluster", points_file, "--eps", "0.5", "--shards", "2", "2",
             "--inject-shard-oom", "0", "0", "--shard-retries", "0",
             "--no-shard-split-on-oom"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "shard (0,0)g0" in err

    def test_text_output(self, capsys, points_file):
        code, out = run_cli(capsys, ["cluster", points_file, "--eps", "0.5"])
        assert code == 0
        assert "clusters:" in out


class TestSweep:
    def test_sequential(self, capsys, points_file):
        code, payload = run_json(
            capsys,
            ["sweep", points_file, "--eps", "0.3", "0.5", "--minpts", "5"],
        )
        assert code == 0
        assert len(payload["results"]) == 2
        assert payload["mode"] == "sequential"

    def test_pipelined(self, capsys, points_file):
        code, payload = run_json(
            capsys,
            ["sweep", points_file, "--eps", "0.3", "0.5", "--pipelined"],
        )
        assert payload["mode"] == "pipelined"

    def test_annotated(self, capsys, points_file):
        code, payload = run_json(
            capsys,
            ["sweep", points_file, "--eps", "0.3", "0.5", "--annotated"],
        )
        assert payload["mode"] == "annotated"
        assert len(payload["results"]) == 2

    def test_annotated_matches_sequential(self, capsys, points_file):
        _, seq = run_json(
            capsys, ["sweep", points_file, "--eps", "0.3", "0.5", "--minpts", "5"]
        )
        _, ann = run_json(
            capsys,
            ["sweep", points_file, "--eps", "0.3", "0.5", "--minpts", "5",
             "--annotated"],
        )
        assert [r["clusters"] for r in seq["results"]] == [
            r["clusters"] for r in ann["results"]
        ]


class TestReuse:
    def test_basic(self, capsys, points_file):
        code, payload = run_json(
            capsys,
            ["reuse", points_file, "--eps", "0.5", "--minpts", "3", "5", "9"],
        )
        assert code == 0
        assert [r["minpts"] for r in payload["results"]] == [3, 5, 9]
        assert payload["threads"] == 16


class TestOptics:
    def test_with_extraction(self, capsys, points_file):
        code, payload = run_json(
            capsys,
            ["optics", points_file, "--eps", "0.5", "--minpts", "5",
             "--extract", "0.2", "0.5"],
        )
        assert code == 0
        assert len(payload["extractions"]) == 2
        assert payload["extractions"][1]["clusters"] == 2


class TestInfo:
    def test_basic(self, capsys, points_file):
        code, payload = run_json(capsys, ["info", points_file])
        assert code == 0
        assert payload["points"] == 560
        assert payload["mean_neighbors"] >= 1

    def test_explicit_eps(self, capsys, points_file):
        code, payload = run_json(
            capsys, ["info", points_file, "--eps", "0.5"]
        )
        assert payload["profile_eps"] == 0.5


class TestAnalyze:
    def test_kernels_text(self, capsys):
        code, out = run_cli(capsys, ["analyze", "kernels"])
        assert code == 0  # shipped kernels are clean
        assert "GPUCalcShared" in out
        assert "kernelcheck" in out

    def test_kernels_json(self, capsys):
        code, out = run_cli(capsys, ["analyze", "kernels", "--format", "json"])
        assert code == 0
        reports = json.loads(out)
        assert {r["kernel"] for r in reports} == {
            "NeighborCount",
            "GPUCalcGlobal",
            "GPUCalcShared",
            "HybridSelect",
            "CoreFlag",
            "ClusterUnionFind",
            "BorderAttach",
        }
        assert all(r["findings"] == [] for r in reports)

    def test_kernels_block_dims(self, capsys):
        code, out = run_cli(
            capsys,
            ["analyze", "kernels", "--format", "json", "--block-dims", "32"],
        )
        shared = next(
            r for r in json.loads(out) if r["kernel"] == "GPUCalcShared"
        )
        assert list(shared["static_shared_bytes"]) == ["32"]
        assert shared["static_shared_bytes"]["32"] == 48 * 32 + 80


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_missing_file(self, capsys, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["cluster", str(tmp_path / "nope.npy"), "--eps", "0.5"])


class TestServe:
    def test_basic_trace(self, capsys, points_file):
        code, data = run_json(
            capsys,
            [
                "serve", points_file, "--requests", "12",
                "--eps", "0.5", "0.7", "--minpts", "4", "8",
                "--interarrival-ms", "50",
            ],
        )
        assert code == 0
        assert data["requests"] == 12
        assert data["exact"] + data["degraded"] + data["rejected"] == 12
        assert data["cache_hit_rate"] > 0
        assert data["sanitizer_clean"] is True

    def test_faulted_overload_trace_exits_clean(self, capsys, points_file):
        code, data = run_json(
            capsys,
            [
                "serve", points_file, "--requests", "16",
                "--eps", "0.5", "--minpts", "4",
                "--interarrival-ms", "0.5", "--deadline-ms", "25",
                "--tenants", "2", "--bump-every", "5",
                "--inject-transfer-every", "4",
                "--inject-slowdown-ms", "2", "--slowdown-every", "3",
                "--sanitize", "--responses",
            ],
        )
        assert code == 0  # typed outcomes only, sanitizer clean
        assert data["requests"] == 16
        assert len(data["responses"]) == 16
        for r in data["responses"]:
            assert r["status"] in ("exact", "degraded", "rejected")
            if r["status"] == "rejected":
                assert r["error"]

    def test_deterministic_per_seed(self, capsys, points_file):
        argv = [
            "serve", points_file, "--requests", "10",
            "--eps", "0.5", "--minpts", "4", "8",
            "--interarrival-ms", "1", "--deadline-ms", "40",
            "--inject-transfer-every", "3", "--seed", "9",
        ]
        _, a = run_json(capsys, argv)
        _, b = run_json(capsys, argv)
        assert a == b

    def test_no_degrade_rejects_instead(self, capsys, points_file):
        code, data = run_json(
            capsys,
            [
                "serve", points_file, "--requests", "12",
                "--eps", "0.5", "--minpts", "4",
                "--interarrival-ms", "0.1", "--deadline-ms", "5",
                "--no-degrade",
            ],
        )
        assert code == 0
        assert data["degraded"] == 0


INVALID_ARGV = {
    "cluster": ["cluster", "{pts}", "--eps", "nan"],
    "cluster_sharded": [
        "cluster", "{pts}", "--eps", "0.5", "--minpts", "0",
        "--shards", "2", "2",
    ],
    "cluster_nan_point": ["cluster", "{nan_pts}", "--eps", "0.5"],
    "sweep": ["sweep", "{pts}", "--eps", "0.5", "nan"],
    "reuse": ["reuse", "{pts}", "--eps", "0.5", "--minpts", "4", "0"],
    "optics": ["optics", "{pts}", "--eps", "0.5", "--minpts", "0"],
    "info": ["info", "{pts}", "--eps", "inf"],
    "serve": ["serve", "{pts}", "--eps", "nan", "--requests", "3"],
    "tune": ["tune", "{pts}", "--eps", "0", "--prune-only"],
}


class TestInvalidInput:
    @pytest.mark.parametrize("case", list(INVALID_ARGV), ids=list(INVALID_ARGV))
    def test_exit_code_2_with_one_line_error(
        self, capsys, points_file, tmp_path, case
    ):
        nan_pts = tmp_path / "nan.npy"
        np.save(nan_pts, np.array([[0.0, 0.0], [np.nan, 1.0]]))
        argv = [
            a.format(pts=points_file, nan_pts=nan_pts)
            for a in INVALID_ARGV[case]
        ]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
