"""Tests for DBSCAN over the neighbor table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline import sequential_dbscan
from repro.core import (
    NOISE,
    HybridDBSCAN,
    MultiClusterPipeline,
    NeighborTable,
    ShardConfig,
    Variant,
    VariantSet,
    cluster_eps_sweep,
    cluster_sharded,
    cluster_with_reuse,
    extract_dbscan,
    optics,
    plan_shards,
)
from repro.core.batching import build_neighbor_table
from repro.core.device_cluster import dbscan_from_table_device
from repro.core.optics import core_distances
from repro.core.sharding import make_shard_fault_factory
from repro.core.table_dbscan import (
    canonicalize_labels,
    core_mask,
    dbscan_from_table,
    dbscan_from_table_expand,
)
from repro.gpusim import Device, FaultSpec
from repro.index import GridIndex
from repro.index.base import InvalidInputError, validate_inputs
from repro.service import ClusteringService, Request


def build_table(points, eps):
    grid = GridIndex.build(points, eps)
    table, _ = build_neighbor_table(grid, Device())
    return grid, table


def _duplicates():
    rng = np.random.default_rng(3)
    base = np.vstack([rng.normal(2, 0.2, (15, 2)), rng.random((10, 2)) * 4])
    # every point three times, interleaved with the originals
    return np.repeat(base, 3, axis=0), 0.3, 4


def _exact_eps_pairs():
    # points exactly ε apart (exactly representable): a tie must count
    # as a neighbor on every path
    x = np.arange(12) * 0.5
    chain = np.column_stack([x, np.zeros_like(x)])
    pair = np.array([[0.0, 3.0], [0.5, 3.0]])
    return np.vstack([chain, pair]), 0.5, 3


def _single_point():
    return np.array([[1.0, 2.0]]), 0.3, 1


def _minpts_one():
    rng = np.random.default_rng(5)
    return rng.random((60, 2)) * 3, 0.25, 1


def _all_noise():
    rng = np.random.default_rng(9)
    return rng.random((50, 2)) * 100, 0.5, 4


ADVERSARIAL = {
    "duplicates": _duplicates,
    "exact_eps_pairs": _exact_eps_pairs,
    "single_point": _single_point,
    "minpts_one": _minpts_one,
    "all_noise": _all_noise,
}

#: dyadic lattice step and ε values: every coordinate and squared
#: distance is exact in float64, so ε ties stay ties on every path
_STEP = 0.25
_ADVERSARIAL_KINDS = (
    "duplicates", "collinear", "exact_eps", "single_point", "all_noise",
    "minpts_one",
)


@st.composite
def adversarial_cases(draw):
    """``(points, eps, minpts)`` of one degenerate kind, on a lattice."""
    kind = draw(st.sampled_from(_ADVERSARIAL_KINDS))
    eps = draw(st.sampled_from([0.25, 0.5, 1.0]))
    minpts = draw(st.integers(min_value=1, max_value=5))
    cells = st.tuples(
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=24),
    )
    if kind == "single_point":
        pts = np.array([draw(cells)], dtype=np.float64) * _STEP
    elif kind == "all_noise":
        # distinct cells spaced 3ε apart: no point has a neighbor
        ij = draw(st.lists(cells, min_size=1, max_size=30, unique=True))
        pts = np.array(ij, dtype=np.float64) * 3 * eps
        minpts = draw(st.integers(min_value=2, max_value=5))
    elif kind == "duplicates":
        ij = draw(st.lists(cells, min_size=1, max_size=15))
        reps = draw(st.integers(min_value=2, max_value=4))
        pts = np.repeat(np.array(ij, dtype=np.float64) * _STEP, reps, axis=0)
    elif kind == "collinear":
        dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (3, 4)]))
        ks = draw(st.lists(st.integers(0, 40), min_size=2, max_size=40))
        k = np.array(ks, dtype=np.float64)
        pts = np.column_stack([k * dx, k * dy]) * _STEP
    elif kind == "exact_eps":
        # chains along x and y with neighbors exactly ε apart
        n = draw(st.integers(min_value=2, max_value=12))
        x0, y0 = draw(cells)
        k = np.arange(n, dtype=np.float64) * eps
        pts = np.vstack([
            np.column_stack([x0 * _STEP + k, np.full(n, y0 * _STEP)]),
            np.column_stack([np.full(n, x0 * _STEP), y0 * _STEP + k + eps]),
        ])
    else:  # minpts_one
        ij = draw(st.lists(cells, min_size=1, max_size=40))
        pts = np.array(ij, dtype=np.float64) * _STEP
        minpts = 1
    return pts, eps, minpts


def _assert_all_paths_agree(pts, eps, minpts):
    """The primitive, the expand oracle, the device path, ``fit``, the
    sharded executor (locality at 1, 2 and 4 devices, round-robin at 2
    and 4, and with an injected shard OOM), an exact service answer on a
    miss and on a table hit, both S2 pipeline runs, S3 reuse (also over
    ``minpts`` 1, the maximum degree and one above it, shuffled) and the
    multi-ε sweep all produce the same labels."""
    grid, table = build_table(pts, eps)
    a = dbscan_from_table_expand(table, minpts)
    b = dbscan_from_table(table, minpts)
    c = dbscan_from_table_device(table, minpts)
    assert np.array_equal(a, b)
    assert np.array_equal(b, c)

    def oracle(m):
        """The expand oracle's labels at ``m``, in input point order."""
        labels = np.empty_like(b)
        labels[grid.sort_order] = dbscan_from_table_expand(table, m)
        return labels

    want = oracle(minpts)
    assert np.array_equal(HybridDBSCAN().fit(pts, eps, minpts).labels, want)
    placements = [("locality", 1), ("locality", 2), ("locality", 4),
                  ("round-robin", 2), ("round-robin", 4)]
    for placement, n_devices in placements:
        res = cluster_sharded(
            pts, eps, minpts,
            config=ShardConfig(
                shards_x=2, shards_y=2, n_devices=n_devices,
                placement=placement,
            ),
        )
        assert np.array_equal(res.labels, want), (placement, n_devices)
    oom = make_shard_fault_factory([FaultSpec("device_oom")])
    faulted = cluster_sharded(
        pts, eps, minpts,
        config=ShardConfig(shards_x=2, shards_y=2, fault_factory=oom),
    )
    assert any(e.outcome != "ok" for e in faulted.events)
    assert np.array_equal(faulted.labels, want)
    svc = ClusteringService()
    svc.register_dataset("ds", pts)
    resp = svc.submit(Request("ds", eps, minpts))
    assert resp.status == "exact"
    assert np.array_equal(resp.labels, want)
    # a table-tier hit: another minpts builds and caches T first
    hit_svc = ClusteringService()
    hit_svc.register_dataset("ds", pts)
    first = hit_svc.submit(Request("ds", eps, minpts + 1))
    assert np.array_equal(first.labels, oracle(minpts + 1))
    hit = hit_svc.submit(Request("ds", eps, minpts))
    assert (hit.status, hit.cache) == ("exact", "table_hit")
    assert np.array_equal(hit.labels, want)
    # the serial multi-variant paths; a second, coarser variant runs
    # before (S2) or beside (sweep) the one under test
    wide = HybridDBSCAN().fit(pts, 2 * eps, minpts).labels
    variants = VariantSet((Variant(2 * eps, minpts), Variant(eps, minpts)))
    pipe = MultiClusterPipeline(keep_labels=True)
    for pipelined in (True, False):
        run = pipe.run(pts, variants, pipelined=pipelined)
        assert np.array_equal(run.outcomes[0].labels, wide), pipelined
        assert np.array_equal(run.outcomes[1].labels, want), pipelined
    max_deg = int(table.neighbor_counts().max())
    minpts_values = [1, minpts, max_deg, max_deg + 1]
    np.random.default_rng(minpts).shuffle(minpts_values)
    reuse = cluster_with_reuse(pts, eps, minpts_values, keep_labels=True)
    for m, outcome in zip(minpts_values, reuse.outcomes, strict=True):
        assert np.array_equal(outcome.labels, oracle(m)), m
    sweep = cluster_eps_sweep(pts, [eps, 2 * eps], minpts, keep_labels=True)
    assert np.array_equal(sweep.outcomes[0].labels, want)
    assert np.array_equal(sweep.outcomes[1].labels, wide)


def _valid_points():
    return np.random.default_rng(11).random((40, 2)) * 2


#: one invalid input per row: ``(points, eps, minpts, broken argument)``
INVALID = {
    "eps_nan": (_valid_points, float("nan"), 4, "eps"),
    "eps_inf": (_valid_points, float("inf"), 4, "eps"),
    "eps_zero": (_valid_points, 0.0, 4, "eps"),
    "eps_negative": (_valid_points, -1.0, 4, "eps"),
    "minpts_zero": (_valid_points, 0.3, 0, "minpts"),
    "minpts_fraction": (_valid_points, 0.3, 2.5, "minpts"),
    "minpts_bool": (_valid_points, 0.3, True, "minpts"),
    "three_columns": (
        lambda: np.random.default_rng(3).random((40, 3)), 0.3, 4, "points",
    ),
    "nan_point": (lambda: np.array([[0.0, 0.0], [np.nan, 1.0]]), 0.3, 4, "points"),
    "empty": (lambda: np.empty((0, 2)), 0.3, 4, "points"),
    "far_outlier": (
        lambda: np.vstack([_valid_points(), [[1e9, 1e9]]]), 0.3, 4, "extent",
    ),
}


def _service_with(pts):
    svc = ClusteringService()
    svc.register_dataset("ds", pts)
    return svc


_ALL = {"eps", "minpts", "points", "extent"}
_GRID = {"eps", "points", "extent"}
_SCALARS = {"eps", "minpts"}

#: every public entry point: (call on points, ε, minpts and a valid
#: annotated table, the arguments it takes)
ENTRY_POINTS = {
    "fit": (lambda p, e, m, t: HybridDBSCAN().fit(p, e, m), _ALL),
    "build_table": (lambda p, e, m, t: HybridDBSCAN().build_table(p, e), _GRID),
    "fit_sharded": (lambda p, e, m, t: HybridDBSCAN().fit_sharded(p, e, m), _ALL),
    "cluster_sharded": (
        lambda p, e, m, t: cluster_sharded(
            p, e, m, config=ShardConfig(shards_x=2, shards_y=2, n_devices=2)
        ),
        _ALL,
    ),
    "plan_shards": (lambda p, e, m, t: plan_shards(p, e), _GRID),
    "cluster_with_reuse": (lambda p, e, m, t: cluster_with_reuse(p, e, [m]), _ALL),
    "cluster_eps_sweep": (lambda p, e, m, t: cluster_eps_sweep(p, [e], m), _ALL),
    "Variant": (lambda p, e, m, t: Variant(e, m), _SCALARS),
    "MultiClusterPipeline": (
        lambda p, e, m, t: MultiClusterPipeline().run(
            p, VariantSet((Variant(e, 4),))
        ),
        {"points", "extent"},
    ),
    "optics": (lambda p, e, m, t: optics(t, m), {"minpts"}),
    "core_distances": (lambda p, e, m, t: core_distances(t, m), {"minpts"}),
    "extract_dbscan": (lambda p, e, m, t: extract_dbscan(optics(t, 4), e), {"eps"}),
    "sequential_dbscan": (lambda p, e, m, t: sequential_dbscan(p, e, m), _ALL),
    "register_dataset": (
        lambda p, e, m, t: ClusteringService().register_dataset("ds", p),
        {"points"},
    ),
    "bump_epoch": (
        lambda p, e, m, t: _service_with(_valid_points()).bump_epoch("ds", p),
        {"points"},
    ),
    "Request": (lambda p, e, m, t: Request("ds", e, m), _SCALARS),
}


@pytest.fixture(scope="module")
def annotated_table():
    return HybridDBSCAN().build_table(_valid_points(), 0.3, with_distances=True)[1]


@pytest.fixture
def devices(monkeypatch):
    """Every simulated device created while the test body runs."""
    created = []
    init = Device.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(Device, "__init__", recording_init)
    return created


class TestInvalidInputs:
    """One rule set, one typed error, one message — on every entry point,
    before any device allocation or modeled device time."""

    @pytest.mark.parametrize("case", list(INVALID), ids=list(INVALID))
    def test_every_entry_point_rejects_identically(
        self, annotated_table, devices, case
    ):
        make_points, eps, minpts, broken = INVALID[case]
        pts = make_points()
        with pytest.raises(InvalidInputError) as contract:
            validate_inputs(pts, eps, minpts)
        ran = []
        for name, (call, takes) in ENTRY_POINTS.items():
            if broken not in takes:
                continue
            ran.append(name)
            with pytest.raises(InvalidInputError) as err:
                call(pts, eps, minpts, annotated_table)
            assert str(err.value) == str(contract.value), name
            for dev in devices:
                assert dev.memory.peak_bytes == 0, name
                assert dev.profiler.total_device_ms() == 0, name
        assert len(ran) >= 3

    def test_service_answers_invalid_request(self, devices):
        make_points, eps, minpts, _ = INVALID["far_outlier"]
        pts = make_points()
        with pytest.raises(InvalidInputError) as contract:
            validate_inputs(pts, eps, minpts)
        svc = _service_with(pts)
        resp = svc.submit(Request("ds", eps, minpts))
        assert resp.status == "rejected"
        assert resp.error == "invalid_request"
        assert resp.error_detail == str(contract.value)
        assert resp.attempts == 0
        assert resp.exec_ms == 0 and resp.worker is None
        assert svc.pool.busy_ms == 0
        assert devices == []


class TestCoreMask:
    def test_counts_include_self(self, chain_points):
        _, table = build_table(chain_points, 0.5)
        # interior chain points see self + 2 neighbors
        assert core_mask(table, 3).sum() == len(chain_points) - 2

    def test_minpts_one_everything_core(self, uniform_points):
        _, table = build_table(uniform_points, 0.2)
        assert core_mask(table, 1).all()

    def test_huge_minpts_nothing_core(self, uniform_points):
        _, table = build_table(uniform_points, 0.2)
        assert not core_mask(table, 10**6).any()

    def test_invalid_minpts(self, uniform_points):
        _, table = build_table(uniform_points, 0.2)
        with pytest.raises(ValueError):
            core_mask(table, 0)


class TestKnownFixtures:
    def test_chain_is_one_cluster(self, chain_points):
        """Density reachability chains across the whole line."""
        _, table = build_table(chain_points, 0.5)
        for impl in (dbscan_from_table_expand, dbscan_from_table):
            labels = impl(table, 3)
            assert labels.max() == 0
            assert (labels == 0).all()

    def test_chain_splits_with_gap(self):
        x = np.concatenate([np.arange(10) * 0.4, 10 + np.arange(10) * 0.4])
        pts = np.column_stack([x, np.zeros_like(x)])
        _, table = build_table(pts, 0.5)
        labels = dbscan_from_table(table, 3)
        assert labels.max() == 1  # two clusters

    def test_two_blobs_and_noise(self, blobs_points):
        grid, table = build_table(blobs_points, 0.5)
        labels = dbscan_from_table(table, 5)
        assert labels.max() == 1
        assert (labels == NOISE).sum() > 0

    def test_all_noise(self, rng):
        pts = rng.random((50, 2)) * 100  # hyper-sparse
        _, table = build_table(pts, 0.5)
        labels = dbscan_from_table(table, 4)
        assert (labels == NOISE).all()

    def test_minpts_one_no_noise(self, uniform_points):
        _, table = build_table(uniform_points, 0.2)
        labels = dbscan_from_table(table, 1)
        assert (labels != NOISE).all()

    def test_border_point_attached(self):
        """A point with < minpts neighbors adjacent to a dense core must
        be border (clustered), not noise."""
        core = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1]])
        border = np.array([[0.5, 0.0]])  # within 0.5 of (0.1, 0) only
        lonely = np.array([[5.0, 5.0]])
        pts = np.vstack([core, border, lonely])
        _, table = build_table(pts, 0.45)
        for impl in (dbscan_from_table_expand, dbscan_from_table):
            labels = impl(table, 4)
            assert labels[4] == labels[0]  # border joins the cluster
            assert labels[5] == NOISE

    def test_labels_zero_indexed_and_canonical(self, blobs_points):
        _, table = build_table(blobs_points, 0.5)
        labels = dbscan_from_table(table, 5)
        used = np.unique(labels[labels != NOISE])
        assert used.tolist() == list(range(len(used)))


class TestImplementationEquivalence:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([2, 3, 4, 6, 10]),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_expand_equals_components(self, seed, minpts):
        rng = np.random.default_rng(seed)
        n_blobs = rng.integers(1, 5)
        parts = [
            rng.normal(rng.uniform(0, 10, 2), rng.uniform(0.1, 0.6), (40, 2))
            for _ in range(n_blobs)
        ]
        parts.append(rng.random((30, 2)) * 10)
        pts = np.vstack(parts)
        _, table = build_table(pts, 0.4)
        a = dbscan_from_table_expand(table, minpts)
        b = dbscan_from_table(table, minpts)
        # bit-identical, not merely equivalent: every implementation
        # resolves border ties by lowest-id core neighbor
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "case", list(ADVERSARIAL), ids=list(ADVERSARIAL)
    )
    def test_adversarial_inputs_agree(self, case):
        """Degenerate inputs: every clustering path gives the same
        labels (see :func:`_assert_all_paths_agree`)."""
        _assert_all_paths_agree(*ADVERSARIAL[case]())

    @given(adversarial_cases())
    @settings(max_examples=25, deadline=None)
    def test_property_adversarial_inputs_agree(self, case):
        _assert_all_paths_agree(*case)

    def test_cluster_counts_always_agree(self, blobs_points):
        _, table = build_table(blobs_points, 0.4)
        for minpts in (2, 4, 8, 16, 64):
            a = dbscan_from_table_expand(table, minpts)
            b = dbscan_from_table(table, minpts)
            assert a.max() == b.max()
            assert (a == NOISE).sum() == (b == NOISE).sum()


class TestCanonicalize:
    def test_noise_only(self):
        labels = np.full(5, NOISE)
        assert canonicalize_labels(labels).tolist() == [-1] * 5

    def test_renumbers_by_first_occurrence(self):
        labels = np.array([7, 7, -1, 3, 3, 7])
        assert canonicalize_labels(labels).tolist() == [0, 0, -1, 1, 1, 0]

    def test_idempotent(self):
        labels = np.array([2, -1, 0, 2, 1])
        once = canonicalize_labels(labels)
        assert np.array_equal(once, canonicalize_labels(once))

    def test_empty(self):
        assert len(canonicalize_labels(np.empty(0, dtype=np.int64))) == 0

    @given(st.lists(st.integers(min_value=-1, max_value=6), max_size=40))
    @settings(max_examples=60)
    def test_property_preserves_partition(self, raw):
        labels = np.array(raw, dtype=np.int64)
        canon = canonicalize_labels(labels)
        # same partition: equal-label pairs preserved both ways
        for i in range(len(labels)):
            for j in range(len(labels)):
                same_raw = labels[i] == labels[j]
                same_canon = canon[i] == canon[j]
                assert same_raw == same_canon


class TestMonotonicity:
    def test_clusters_shrink_with_minpts(self, blobs_points):
        """Raising minpts can only demote points (cluster membership is
        monotone non-increasing in minpts for fixed ε)."""
        _, table = build_table(blobs_points, 0.4)
        prev_members = None
        for minpts in (2, 4, 8, 16, 32):
            labels = dbscan_from_table(table, minpts)
            members = int((labels != NOISE).sum())
            if prev_members is not None:
                assert members <= prev_members
            prev_members = members


@pytest.fixture
def view_builds(monkeypatch):
    """One entry (the table) per half-edge view built during the test."""
    built = []
    build = NeighborTable._build_half_edges

    def counting_build(self, values):
        built.append(self)
        return build(self, values)

    monkeypatch.setattr(NeighborTable, "_build_half_edges", counting_build)
    return built


class TestHalfEdgeView:
    """``dbscan_from_table`` clusters every ``minpts`` from one memoized,
    ``minpts``-independent half-edge view per table."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_any_minpts_order_matches_fresh_tables(self, blobs_points, seed):
        _, table = build_table(blobs_points, 0.4)
        max_deg = int(table.neighbor_counts().max())
        grid_values = np.unique(np.linspace(1, max_deg + 1, 12).astype(int))
        for m in np.random.default_rng(seed).permutation(grid_values):
            _, fresh = build_table(blobs_points, 0.4)
            assert np.array_equal(
                dbscan_from_table(table, m), dbscan_from_table(fresh, m)
            ), m

    def test_view_built_once_per_table(self, blobs_points, view_builds):
        grid, table = build_table(blobs_points, 0.4)
        for m in (4, 16, 2, 4):
            dbscan_from_table(table, m)
            HybridDBSCAN().cluster_table(grid, table, m)
        assert view_builds == [table]
        cluster_with_reuse(blobs_points, 0.4, [8, 2, 16])
        assert len(view_builds) == 2
        svc = ClusteringService()
        svc.register_dataset("ds", blobs_points)
        caches = [
            svc.submit(Request("ds", 0.4, m)).cache for m in (4, 8, 16, 2)
        ]
        assert caches == ["miss", "table_hit", "table_hit", "table_hit"]
        assert len(view_builds) == 3

    def test_all_noise_never_builds_view(self, blobs_points, view_builds):
        _, table = build_table(blobs_points, 0.4)
        above = int(table.neighbor_counts().max()) + 1
        nbytes = table.nbytes
        assert (dbscan_from_table(table, above) == NOISE).all()
        assert table.nbytes == nbytes
        # the service's miss path: build T, cluster, cache T
        svc = ClusteringService()
        svc.register_dataset("ds", blobs_points)
        resp = svc.submit(Request("ds", 0.4, above))
        assert (resp.status, resp.cache) == ("exact", "miss")
        assert (resp.labels == NOISE).all()
        assert view_builds == []
