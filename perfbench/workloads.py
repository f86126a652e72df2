"""The three benchmark workloads.

Each workload is one closed-loop client in this process: it sends its
next operation only when the previous one has returned.  Inputs come
only from the seed (on ``serve_skewed`` only the request stream does;
its points are one fixed draw); the program under test receives the
generated points or requests and nothing else.

* ``fit_uniform`` -- repeated ``HybridDBSCAN.fit`` on the near-uniform
  SDSS3 analogue over a slice of its Table III ε sweep, ``minpts=4``
  (the paper's S2).  The table build is about two thirds of the wall
  time, so this workload moves with the index, batching, kernel, sort
  and table-assembly layers.
* ``serve_skewed`` -- ``ClusteringService.submit`` on the clumped SW1
  analogue with requests from its Table V (ε, minpts) grid and a write
  (epoch bump) every round.  Table-tier hits dominate, so host cluster
  formation over ``T`` sets the median; misses set the 90th percentile.
* ``sharded_4dev`` -- ``HybridDBSCAN.fit_sharded`` on a 2x2 tile grid
  over 4 simulated devices with locality placement.  The only workload
  that runs ``plan_shards``, the collective exchange and the
  incremental merge.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from repro.core.hybrid_dbscan import HybridDBSCAN
from repro.core.sharding import ShardConfig
from repro.data import synthetic
from repro.data.scale import DATASETS
from repro.service.server import ClusteringService
from repro.service.trace import Request


def digest(labels: np.ndarray) -> str:
    """Fingerprint of a labeling; equal exactly when the label values are."""
    data = np.ascontiguousarray(labels, dtype=np.int64).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@dataclass
class OpResult:
    """What one operation delivered."""

    labels: Optional[np.ndarray]
    #: False for a degraded response or a typed rejection
    exact: bool = True
    #: workload-specific facts the traced run reads (cache class, ...)
    info: dict = field(default_factory=dict)


@dataclass
class Op:
    """One client step.  ``key`` names the variant whose reference
    labels check the result; a write has no key and yields no sample."""

    run: Callable[[], OpResult]
    key: Optional[tuple] = None


class Workload:
    name = ""
    #: the call one operation makes (root span name of the traced run)
    op_name = ""
    #: fewest operations a measured phase may end with
    min_ops = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.points: Optional[np.ndarray] = None

    def _generate(self, dataset: str, scale: float, seed: int) -> np.ndarray:
        # dataset() memoizes per process; every set-up pays generation
        # and density calibration again
        synthetic._dataset_cache.clear()
        return synthetic.dataset(dataset, scale=scale, seed=seed)

    def setup(self) -> None:
        """Generate the inputs, build the client and warm up."""
        raise NotImplementedError

    def rounds(self) -> Iterator[list[Op]]:
        """Endless rounds; a measured phase ends only between rounds so
        every phase holds the same mix of variants."""
        raise NotImplementedError

    def reference(self, key: tuple) -> np.ndarray:
        """Labels for ``key`` from a code path other than the one timed."""
        raise NotImplementedError

    def provenance(self) -> dict:
        raise NotImplementedError


class FitUniform(Workload):
    name = "fit_uniform"
    op_name = "HybridDBSCAN.fit"
    dataset = "SDSS3"
    #: a slice of SDSS3's Table III sweep (0.06 ... 0.13)
    eps_slice = (0.08, 0.09, 0.10)
    minpts = 4

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        self.scale = 0.002 if tiny else 0.01
        self.rng = np.random.default_rng([seed, 1])

    def setup(self) -> None:
        self.points = self._generate(self.dataset, self.scale, self.seed)
        HybridDBSCAN().fit(self.points, self.eps_slice[0], self.minpts)

    def _fit(self, eps: float) -> OpResult:
        return OpResult(HybridDBSCAN().fit(self.points, eps, self.minpts).labels)

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            order = self.rng.permutation(len(self.eps_slice))
            yield [
                Op(lambda e=self.eps_slice[i]: self._fit(e), (self.eps_slice[i], self.minpts))
                for i in order
            ]

    def reference(self, key: tuple) -> np.ndarray:
        eps, minpts = key
        one_tile = ShardConfig(shards_x=1, shards_y=1)
        return HybridDBSCAN().fit_sharded(self.points, eps, minpts, shard_config=one_tile).labels

    def provenance(self) -> dict:
        return {
            "dataset": self.dataset,
            "scale": self.scale,
            "n_points": len(self.points),
            "eps": list(self.eps_slice),
            "minpts": [self.minpts],
            "reference": "fit_sharded 1x1",
        }


class Sharded4Dev(Workload):
    name = "sharded_4dev"
    op_name = "HybridDBSCAN.fit_sharded"
    dataset = "SDSS3"
    eps = 0.095
    minpts = 25
    config = ShardConfig(shards_x=2, shards_y=2, n_devices=4, placement="locality")

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        self.scale = 0.002 if tiny else 0.01

    def setup(self) -> None:
        self.points = self._generate(self.dataset, self.scale, self.seed)
        self._fit_sharded()

    def _fit_sharded(self) -> OpResult:
        res = HybridDBSCAN().fit_sharded(
            self.points, self.eps, self.minpts, shard_config=self.config
        )
        return OpResult(res.labels, info={
            "shards": len(res.shard_stats),
            "attempts": len(res.events),
            "modeled_makespan_s": res.device_schedule.makespan_s,
        })

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            yield [Op(self._fit_sharded, (self.eps, self.minpts))]

    def reference(self, key: tuple) -> np.ndarray:
        return HybridDBSCAN().fit(self.points, *key).labels

    def provenance(self) -> dict:
        return {
            "dataset": self.dataset,
            "scale": self.scale,
            "n_points": len(self.points),
            "eps": [self.eps],
            "minpts": [self.minpts],
            "shards": "2x2 on 4 devices, locality placement",
            "reference": "fit",
        }


class ServeSkewed(Workload):
    """Rounds of one write followed by 15 requests.

    After the write, the first request at each ε misses and builds
    ``T``; it asks for a large Table V minpts at which no point is core,
    so a miss costs one table build whatever minpts the seed drew.  Then
    three table-tier hits per ε at fixed minpts, and three label-tier
    repeats.  Sorted by latency, one round reads: misses at ε 0.7 and
    0.5 (the top 2/15, so p90 lies inside them), table hits at 0.7, the
    miss at 0.3, then table hits at 0.5 (the middle one holds p50),
    table hits at 0.3 and the label hits.
    """

    name = "serve_skewed"
    op_name = "ClusteringService.submit"
    dataset = "SW1"
    #: the points are one fixed SW1 draw and the seed draws the request
    #: stream: the generator's heavy-tailed receiver weights make the
    #: calibrated domain side vary 3x across seeds (278 to 894 at this
    #: scale), and calibration misses its density target for some seeds
    #: (16 and 30 of 0-39), which moves cost and memory by up to 3x
    dataset_seed = 0
    dataset_id = "sw"
    hit_minpts = (20, 40, 60)
    miss_minpts = (800, 1000, 2000, 3000)
    #: virtual ms between arrivals: far above any modeled service time,
    #: so admission never queues, sheds or degrades
    gap_ms = 10_000.0
    min_ops = 100

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        self.scale = 0.005 if tiny else 0.05
        spec = DATASETS[self.dataset]
        self.eps_grid = spec.s3_eps
        self.rng = np.random.default_rng([seed, 2])
        #: one miss minpts per ε for the whole run (bounds the references)
        self.miss_for = {
            e: int(self.rng.choice(self.miss_minpts)) for e in self.eps_grid
        }
        self.service: Optional[ClusteringService] = None
        self._clock = 0.0
        self._seq = 0

    def _submit(self, eps: float, minpts: int) -> OpResult:
        self._clock += self.gap_ms
        self._seq += 1
        resp = self.service.submit(Request(
            self.dataset_id, eps, minpts, arrival_ms=self._clock, seq=self._seq
        ))
        return OpResult(resp.labels, exact=resp.status == "exact", info={
            "cache": resp.cache, "modeled_latency_ms": resp.latency_ms,
        })

    def _bump(self) -> OpResult:
        self.service.bump_epoch(self.dataset_id)
        return OpResult(None)

    def setup(self) -> None:
        self.points = self._generate(self.dataset, self.scale, self.dataset_seed)
        self.service = ClusteringService()
        self.service.register_dataset(self.dataset_id, self.points)
        self._clock = self._seq = 0
        eps = self.eps_grid[0]
        for minpts in (self.miss_for[eps], self.hit_minpts[0], self.hit_minpts[0]):
            self._submit(eps, minpts)

    def rounds(self) -> Iterator[list[Op]]:
        rng = self.rng
        while True:
            queues = []
            for eps in self.eps_grid:
                hits = [int(m) for m in rng.permutation(self.hit_minpts)]
                queues.append([(eps, self.miss_for[eps])] + [(eps, m) for m in hits])
            for q in queues:
                q.append(q[1 + int(rng.integers(len(self.hit_minpts)))])
            # interleave the per-ε queues in a seeded order, keeping each
            # queue's own order (miss first, repeat last)
            seq = []
            while any(queues):
                live = [q for q in queues if q]
                seq.append(live[int(rng.integers(len(live)))].pop(0))
            yield [Op(self._bump)] + [
                Op(lambda e=e, m=m: self._submit(e, m), (e, m)) for e, m in seq
            ]

    def reference(self, key: tuple) -> np.ndarray:
        return HybridDBSCAN().fit(self.points, *key).labels

    def provenance(self) -> dict:
        return {
            "dataset": self.dataset,
            "dataset_seed": self.dataset_seed,
            "scale": self.scale,
            "n_points": len(self.points),
            "eps": list(self.eps_grid),
            "minpts": sorted(set(self.hit_minpts) | set(self.miss_for.values())),
            "reference": "fit",
        }


WORKLOADS = {w.name: w for w in (FitUniform, ServeSkewed, Sharded4Dev)}
