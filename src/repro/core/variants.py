"""Clustering variants — the ``(ε, minpts)`` parameter pairs of Section III.

A *variant* ``v_i = (ε_i, minpts_i)`` is one DBSCAN parameterization; the
throughput-maximization scenarios cluster a dataset under a whole
:class:`VariantSet`.  The S2/S3 scenario grids of Tables III and V are
provided as constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.index.base import check_eps, check_minpts

__all__ = ["Variant", "VariantSet"]


@dataclass(frozen=True, order=True)
class Variant:
    """One DBSCAN parameterization ``(ε, minpts)``."""

    eps: float
    minpts: int

    def __post_init__(self) -> None:
        check_minpts(self.minpts)
        check_eps(self.eps)


@dataclass(frozen=True)
class VariantSet:
    """An ordered collection of variants to cluster concurrently."""

    variants: tuple[Variant, ...]

    def __post_init__(self) -> None:
        if not self.variants:
            raise ValueError("a VariantSet needs at least one variant")

    def __iter__(self) -> Iterator[Variant]:
        return iter(self.variants)

    def __len__(self) -> int:
        return len(self.variants)

    def __getitem__(self, i: int) -> Variant:
        return self.variants[i]

    @property
    def eps_values(self) -> tuple[float, ...]:
        return tuple(v.eps for v in self.variants)

    @property
    def minpts_values(self) -> tuple[int, ...]:
        return tuple(v.minpts for v in self.variants)

    def shares_eps(self) -> bool:
        """True if all variants use one ε — the S3 reuse precondition."""
        return len(set(self.eps_values)) == 1

    # ------------------------------------------------------------------
    # constructors for the paper's scenario grids
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, int]]) -> "VariantSet":
        return cls(tuple(Variant(e, m) for e, m in pairs))

    @classmethod
    def eps_sweep(
        cls, eps_values: Sequence[float], minpts: int = 4
    ) -> "VariantSet":
        """S2-style: sweep ε at fixed minpts (Table III)."""
        return cls(tuple(Variant(float(e), minpts) for e in eps_values))

    @classmethod
    def minpts_sweep(
        cls, eps: float, minpts_values: Sequence[int]
    ) -> "VariantSet":
        """S3-style: fixed ε, sweep minpts (Table V)."""
        return cls(tuple(Variant(float(eps), int(m)) for m in minpts_values))

    @classmethod
    def eps_range(
        cls, start: float, stop: float, step: float, minpts: int = 4
    ) -> "VariantSet":
        """Inclusive ε range, e.g. ``{0.1, 0.2, ..., 1.5}`` for SW1/S2."""
        n = int(round((stop - start) / step)) + 1
        eps = np.round(start + step * np.arange(n), 10)
        return cls.eps_sweep(eps.tolist(), minpts)
