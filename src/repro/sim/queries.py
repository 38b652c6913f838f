"""Query model: heavy-tail sizes, pooling-factor variance, workloads.

Production recommendation inference queries (Section II-A, Fig. 2b-c):

- The *query size* -- the number of items ranked per query -- varies
  between ~10 and ~1000 with a pronounced heavy tail (p75/p95/p99 far
  above the median).  We use a clipped log-normal.
- The *pooling factor* -- embedding entries per lookup -- varies widely
  across tables and queries.  We use per-table gamma distributions.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

__all__ = [
    "QuerySizeDistribution",
    "PoolingFactorDistribution",
    "Query",
    "QueryWorkload",
]


@functools.lru_cache(maxsize=4096)
def _lognormal_percentile(
    mu: float, sigma: float, min_size: int, max_size: int, p: float
) -> int:
    """Cached clipped log-normal percentile (hot path of the evaluator)."""
    if not 0.0 < p < 100.0:
        raise ValueError("percentile must be in (0, 100)")
    z = NormalDist().inv_cdf(p / 100.0)
    raw = math.exp(mu + sigma * z)
    return int(min(max(raw, min_size), max_size))


@dataclass(frozen=True)
class QuerySizeDistribution:
    """Clipped log-normal query-size distribution (Fig. 2b).

    Attributes:
        mean: Target mean query size in items.
        sigma: Log-space standard deviation; 0.8 reproduces a
            production-like p99/p50 ratio of ~6.
        min_size / max_size: Clipping range (10..1000 in the paper's
            histogram, 1..2048 here to keep the tail).
    """

    mean: float = 120.0
    sigma: float = 0.8
    min_size: int = 1
    max_size: int = 2048

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ValueError("mean must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not 1 <= self.min_size <= self.max_size:
            raise ValueError("need 1 <= min_size <= max_size")

    @property
    def mu(self) -> float:
        """Log-space location parameter giving the target mean."""
        return math.log(self.mean) - self.sigma**2 / 2.0

    def percentile(self, p: float) -> int:
        """Analytic percentile of the (unclipped) log-normal, clipped."""
        return _lognormal_percentile(
            self.mu, self.sigma, self.min_size, self.max_size, p
        )

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Draw ``n`` query sizes."""
        raw = rng.lognormal(self.mu, self.sigma, size=n)
        return np.clip(np.rint(raw), self.min_size, self.max_size).astype(int)


@dataclass(frozen=True)
class PoolingFactorDistribution:
    """Per-table pooling-factor variability (Fig. 2c).

    Each embedding table draws its per-query pooling factor from a
    gamma distribution with the table's own mean; the coefficient of
    variation is shared.  ``spread`` controls how much table means
    differ from each other (the x-axis spread in Fig. 2c).
    """

    mean: float = 80.0
    cv: float = 0.6
    spread: float = 0.5
    num_tables: int = 15

    def __post_init__(self) -> None:
        if self.mean < 1:
            raise ValueError("mean pooling must be >= 1")
        if self.cv < 0 or self.spread < 0:
            raise ValueError("cv and spread must be >= 0")
        if self.num_tables < 1:
            raise ValueError("num_tables must be >= 1")

    def table_means(self, rng: np.random.Generator) -> np.ndarray:
        """Per-table mean pooling factors (log-normal across tables)."""
        if self.spread == 0:
            return np.full(self.num_tables, self.mean)
        mu = math.log(self.mean) - self.spread**2 / 2.0
        return np.maximum(1.0, rng.lognormal(mu, self.spread, self.num_tables))

    def sample(self, rng: np.random.Generator, queries: int = 1) -> np.ndarray:
        """Pooling factors, shape ``(queries, num_tables)``."""
        means = self.table_means(rng)
        if self.cv == 0:
            return np.tile(means, (queries, 1))
        shape = 1.0 / self.cv**2
        scale = means / shape
        return np.maximum(
            1.0, rng.gamma(shape, scale, size=(queries, self.num_tables))
        )


_QueryBase = namedtuple(
    "Query", ("query_id", "arrival_s", "size", "pooling_scale")
)


class Query(_QueryBase):
    """One inference request.

    A named tuple rather than a dataclass: the load generator builds
    hundreds of thousands per trace through the C-level ``_make`` fast
    path (its inputs are vectorized-validated), while the public
    constructor keeps per-field validation.

    Attributes:
        query_id: Monotone id.
        arrival_s: Arrival time.
        size: Number of items to rank.
        pooling_scale: Multiplier on the model's mean pooling factor for
            this query (captures Fig. 2c per-query variance).
    """

    __slots__ = ()

    def __new__(cls, query_id, arrival_s, size, pooling_scale=1.0):
        # Negated comparisons so NaN fails them too.
        if not size >= 1:
            raise ValueError(f"query size must be >= 1, got {size!r}")
        if not 0 <= arrival_s < math.inf:
            raise ValueError(
                f"arrival time must be finite and >= 0, got {arrival_s!r}"
            )
        if not 0 < pooling_scale < math.inf:
            raise ValueError(
                f"pooling_scale must be positive and finite, got {pooling_scale!r}"
            )
        return tuple.__new__(cls, (query_id, arrival_s, size, pooling_scale))


@dataclass(frozen=True)
class QueryWorkload:
    """Statistical description of one model's query stream.

    Used by both the analytical evaluator (means + percentiles) and the
    discrete-event load generator (sampling).
    """

    size_dist: QuerySizeDistribution = field(default_factory=QuerySizeDistribution)
    pooling_cv: float = 0.3

    @property
    def mean_size(self) -> float:
        return self.size_dist.mean

    def tail_size(self, p: float = 99.0) -> int:
        """Query size at the ``p``-th percentile (the SLA-binding size).

        Memoized per workload instance: the latency-bounded bisection
        asks for the same three percentiles hundreds of thousands of
        times per profiling pass.  (Lazily attached via
        ``object.__setattr__`` -- not a dataclass field, so equality,
        hashing, and pickling are unaffected.)
        """
        try:
            tails = self._tail_cache
        except AttributeError:
            tails = {}
            object.__setattr__(self, "_tail_cache", tails)
        size = tails.get(p)
        if size is None:
            size = self.size_dist.percentile(p)
            tails[p] = size
        return size

    @classmethod
    def for_model(cls, mean_query_size: int) -> "QueryWorkload":
        """Workload matching a model config's mean query size."""
        return cls(size_dist=QuerySizeDistribution(mean=float(mean_query_size)))
