"""Tests for the synthetic SW/SDSS dataset generators."""

import hashlib

import numpy as np
import pytest

from repro.data import DATASETS, dataset, density_profile, make_sdss, make_sw, scaled_size
from repro.data.scale import get_scale
from repro.data.synthetic import mean_neighbors


class TestGenerators:
    def test_sizes(self):
        assert len(make_sw(1000)) == 1000
        assert len(make_sdss(777)) == 777

    def test_determinism(self):
        assert np.array_equal(make_sw(500, seed=3), make_sw(500, seed=3))
        assert not np.array_equal(make_sw(500, seed=3), make_sw(500, seed=4))

    def test_bounds(self):
        for pts in (make_sw(2000, domain=5.0), make_sdss(2000, domain=5.0)):
            assert pts.min() >= 0.0
            assert pts.max() <= 5.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            make_sw(0)
        with pytest.raises(ValueError):
            make_sdss(0)

    def test_sw_is_more_skewed_than_sdss(self):
        """The property the paper's kernel comparison hinges on: SW has
        heavy over-densities, SDSS is closer to uniform."""
        n = 6000
        sw = make_sw(n, seed=1)
        sdss = make_sdss(n, seed=1)
        eps = 0.02
        p_sw = density_profile(sw, eps)
        p_sdss = density_profile(sdss, eps)
        assert p_sw.skewness_ratio > p_sdss.skewness_ratio

    def test_sw_receiver_count_configurable(self):
        pts = make_sw(1000, n_receivers=3, clump_fraction=1.0, clump_sigma=1e-4)
        prof = density_profile(pts, 0.01, sample_fraction=1.0)
        # nearly all mass in 3 tight clumps -> enormous max counts
        assert prof.max > 100


class TestScale:
    def test_scaled_size_default(self):
        assert scaled_size("SW1") == round(1_864_620 * get_scale())

    def test_scaled_size_override(self):
        assert scaled_size("SDSS1", scale=0.001) == 2000

    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.002")
        assert scaled_size("SDSS1") == 4000

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            scaled_size("SW1", scale=0.0)
        with pytest.raises(ValueError):
            scaled_size("SW1", scale=2.0)

    def test_size_ordering_preserved(self):
        sizes = {name: scaled_size(name, scale=0.01) for name in DATASETS}
        assert sizes["SW1"] < sizes["SDSS1"] < sizes["SDSS2"]
        assert sizes["SDSS2"] <= sizes["SW4"] < sizes["SDSS3"]

    def test_registry_complete(self):
        assert set(DATASETS) == {"SW1", "SW4", "SDSS1", "SDSS2", "SDSS3"}
        for spec in DATASETS.values():
            assert spec.paper_n > 10**6
            assert len(spec.s3_minpts) == 16
            assert len(spec.t1_eps) == 2

    def test_s2_grids_match_table_iii(self):
        assert len(DATASETS["SW1"].s2_eps) == 15
        assert len(DATASETS["SW4"].s2_eps) == 9
        assert len(DATASETS["SDSS1"].s2_eps) == 15
        assert len(DATASETS["SDSS2"].s2_eps) == 9
        assert len(DATASETS["SDSS3"].s2_eps) == 8


class TestCalibratedDatasets:
    def test_density_calibration(self):
        spec = DATASETS["SDSS1"]
        pts = dataset("SDSS1", scale=0.002, seed=0)
        m = mean_neighbors(pts, spec.eps_ref)
        assert abs(m - spec.target_neighbors) / spec.target_neighbors < 0.25

    def test_cache_returns_same_object(self):
        a = dataset("SW1", scale=0.002)
        b = dataset("SW1", scale=0.002)
        assert a is b

    def test_different_seeds_differ(self):
        a = dataset("SW1", scale=0.002, seed=0)
        b = dataset("SW1", scale=0.002, seed=1)
        assert not np.array_equal(a, b)

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            dataset("SW9")

    @pytest.mark.parametrize(
        ("name", "scale", "seed", "n", "digest"),
        [
            ("SDSS3", 0.01, 1, 152_286, "698af8c0320dfccfbd199560d073aca3"),
            ("SW1", 0.05, 0, 93_231, "f5630f539f64c7665d8c8286bbae85a2"),
        ],
    )
    def test_calibrated_points_are_pinned(self, name, scale, seed, n, digest):
        """Calibration reads the density sampler's neighbour counts, so
        any change to the ε-search must leave the generated points
        byte-identical (these are the benchmark's inputs)."""
        pts = dataset(name, scale=scale, seed=seed)
        assert pts.shape == (n, 2)
        got = hashlib.blake2b(np.ascontiguousarray(pts).tobytes(), digest_size=16)
        assert got.hexdigest() == digest


class TestDensityProfile:
    def test_fields(self, uniform_points):
        p = density_profile(uniform_points, 0.4, sample_fraction=1.0)
        assert p.mean >= 1.0  # self-inclusion
        assert p.median <= p.p95 <= p.max
        assert p.eps == 0.4

    def test_mean_grows_with_eps(self, uniform_points):
        m1 = mean_neighbors(uniform_points, 0.2, 1.0)
        m2 = mean_neighbors(uniform_points, 0.6, 1.0)
        assert m2 > m1
