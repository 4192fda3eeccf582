"""Zipfian million-user serving workload over the TPC-W store.

The paper's north star is heavy traffic from millions of users; the
figure experiments drive at most dozens of clients against a uniformly
loaded table. This module closes the realism gap on the *workload*
side: a configurable Zipf(s) population of (by default) one million
TPC-W customers, folded deterministically onto the profile-table key
space, drawn entirely from dedicated ``SimRNG`` streams so that

* the population's rank CDF depends only on ``(population, s)``,
* client ``i``'s operation mix depends only on ``(seed, label, i)`` —
  adding clients, reordering cells or interleaving other RNG consumers
  never perturbs an existing client's stream (the scale-out bench's
  per-client-stream idiom),
* two runs at the same parameters are bit-identical.

Rank 0 is the hottest user. Ranks are folded onto ``key_space``
distinct profile rows with a fixed odd-multiplier permutation so the
hot head of the distribution spreads across the pre-split region
layout instead of piling onto the first region — skew then creates a
genuinely *hot server*, which is what the cache and the admission
controller are for.
"""

from __future__ import annotations

import numpy as np

from repro.sim.rng import derive_rng

_FOLD_MULTIPLIER = 0x9E3779B1
"""Fixed odd multiplier (2**32 / golden ratio) for the rank -> row
fold: bijective mod 2**32, so equal-rank collisions happen only via
the final modulo, spreading hot ranks across the key space."""


class ZipfianPopulation:
    """Bounded Zipf(s) distribution over ``population`` user ranks.

    Sampling inverts the precomputed rank CDF (``searchsorted`` over a
    cumulative weight array) — exact for the bounded population, with
    none of the rejection steps of open-ended Zipf samplers, so a draw
    consumes exactly one uniform variate per sample regardless of
    parameters. The CDF for a million users is an 8 MB float64 array,
    built once in ~milliseconds with numpy.
    """

    def __init__(self, population: int = 1_000_000, s: float = 1.1) -> None:
        if population < 1:
            raise ValueError(f"population must be >= 1, got {population}")
        if s < 0:
            raise ValueError(f"zipf s must be >= 0, got {s}")
        self.population = population
        self.s = s
        weights = np.arange(1, population + 1, dtype=np.float64) ** -float(s)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        self._cdf = cdf

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` user ranks (0 = hottest) from one RNG stream."""
        u = rng.random(n)
        return np.searchsorted(self._cdf, u, side="right")


class ServingWorkload:
    """Per-client operation streams for the serving bench.

    ``ops_for_client(i, n)`` yields ``n`` operations for virtual client
    ``i`` as ``(kind, row_index)`` pairs — ``kind`` is ``"get"`` or
    ``"put"``, ``row_index`` indexes the ``key_space`` profile rows —
    drawn from the stream ``derive_rng(seed, f"{label}/client-{i}")``.
    The grid cell a client runs in is deliberately *not* part of the
    stream label: client ``i`` replays the same personal mix at every
    offered load and in every serving mode, so mode comparisons differ
    only in the serving machinery, never in the workload.
    """

    def __init__(
        self,
        population: ZipfianPopulation,
        key_space: int,
        seed: int,
        read_fraction: float = 0.9,
        label: str = "serving",
    ) -> None:
        if key_space < 1:
            raise ValueError(f"key_space must be >= 1, got {key_space}")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(
                f"read_fraction must be in [0, 1], got {read_fraction}"
            )
        self.population = population
        self.key_space = key_space
        self.seed = seed
        self.read_fraction = read_fraction
        self.label = label

    def ops_for_client(self, client_id: int, n: int) -> list[tuple[str, bytes]]:
        """Client ``client_id``'s first ``n`` operations, materialized:
        ``[(kind, row_key), ...]``. One vectorized draw per client keeps
        a 10k-client cell's setup linear and cheap."""
        rng = derive_rng(self.seed, f"{self.label}/client-{client_id}")
        ranks = self.population.sample(rng, n)
        kinds = rng.random(n)
        read_fraction = self.read_fraction
        key_space = self.key_space
        return [
            (
                "get" if kinds[j] < read_fraction else "put",
                b"%08d" % ((int(ranks[j]) * _FOLD_MULTIPLIER) % key_space),
            )
            for j in range(n)
        ]
