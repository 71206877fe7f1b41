"""Mergeable relative-error quantile sketches (DDSketch-style).

The windowed :class:`~repro.obs.registry.Histogram` answers "what is
*this process's* recent p99" exactly, but its quantiles are
structurally unmergeable: two sorted windows cannot be combined into
the pooled quantile without the raw observations, so a cluster of N
nodes has N local p99s and no true cluster-wide one.  This module adds
the standard fix: a logarithmically-bucketed sketch whose ``merge()``
is *exact* (bucket counts add), trading a bounded **relative** error
on the reported quantile values for mergeability.

The construction is DDSketch's: pick a relative accuracy ``alpha``,
let ``gamma = (1 + alpha) / (1 - alpha)``, and map every positive
value to the bucket ``ceil(log(v) / log(gamma))``.  All values in
bucket ``k`` lie in ``(gamma^(k-1), gamma^k]``, and the bucket's
representative ``2 * gamma^k / (gamma + 1)`` (the interval's harmonic
midpoint) is within ``alpha`` of every one of them — so any quantile
reported from bucket representatives carries at most ``alpha``
relative error, and merging sketches (summing the count maps) loses
nothing: the merged sketch is bit-identical to the sketch of the
concatenated stream.

Zero and negative values (latencies are non-negative; exact zeros do
occur on virtual clocks) land in a dedicated zero bucket counted
exactly.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional

__all__ = ["DEFAULT_RELATIVE_ACCURACY", "QuantileSketch"]

#: Default relative accuracy: reported quantiles within 1% of the true
#: value, comfortably inside the federation drill's 2% error budget.
DEFAULT_RELATIVE_ACCURACY = 0.01


class QuantileSketch:
    """A quantile sketch with bounded relative error and exact merge.

    Args:
        relative_accuracy: ``alpha`` in (0, 1); every reported quantile
            is within ``alpha`` of the true value, relatively.
    """

    __slots__ = ("relative_accuracy", "gamma", "_log_gamma", "_buckets",
                 "_zero_count", "count", "total", "min", "max")

    def __init__(self,
                 relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY):
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be within (0, 1)")
        self.relative_accuracy = relative_accuracy
        self.gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self.gamma)
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording -----------------------------------------------------

    def _key(self, value: float) -> int:
        return math.ceil(math.log(value) / self._log_gamma)

    def _representative(self, key: int) -> float:
        # Harmonic midpoint of (gamma^(k-1), gamma^k]: within alpha of
        # every value the bucket can hold.
        return 2.0 * self.gamma ** key / (self.gamma + 1.0)

    def add(self, value: float, count: int = 1) -> None:
        """Record ``value`` (``count`` times).  Non-positive values are
        counted exactly in the zero bucket."""
        if count < 1:
            raise ValueError("count must be >= 1")
        self.count += count
        self.total += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self._zero_count += count
            return
        key = self._key(value)
        self._buckets[key] = self._buckets.get(key, 0) + count

    # -- querying ------------------------------------------------------

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]) with at most
        ``relative_accuracy`` relative error; NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if self.count == 0:
            return math.nan
        rank = q * (self.count - 1)
        if rank < self._zero_count:
            return 0.0
        seen = float(self._zero_count)
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            if seen > rank:
                return self._representative(key)
        return self._representative(max(self._buckets))

    def percentile(self, p: float) -> float:
        """Histogram-compatible spelling: ``p`` in [0, 100]."""
        return self.quantile(p / 100.0)

    def reconstruct(self, max_values: int = 1 << 17) -> List[float]:
        """Representative values, one per recorded observation (each
        within ``relative_accuracy`` of an original), sorted ascending.

        This is what lets a *merged* sketch stand in for a histogram
        window downstream (threshold counting in the SLO engine).  When
        the sketch holds more than ``max_values`` observations the
        bucket counts are scaled down proportionally so the returned
        list stays bounded while preserving each bucket's share.
        """
        if self.count == 0:
            return []
        scale = min(1.0, max_values / self.count)
        values: List[float] = []
        zero = int(round(self._zero_count * scale))
        values.extend(0.0 for _ in range(zero))
        for key in sorted(self._buckets):
            n = int(round(self._buckets[key] * scale))
            rep = self._representative(key)
            values.extend(rep for _ in range(n))
        return values

    # -- merging -------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch, exactly; returns self.

        Requires equal ``relative_accuracy`` (equal bucket boundaries)
        — merging mismatched sketches would silently degrade the error
        bound, so it raises instead.
        """
        if not math.isclose(other.gamma, self.gamma, rel_tol=1e-12):
            raise ValueError(
                f"cannot merge sketches with different relative accuracy "
                f"({self.relative_accuracy} vs {other.relative_accuracy})")
        for key, count in other._buckets.items():
            self._buckets[key] = self._buckets.get(key, 0) + count
        self._zero_count += other._zero_count
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    @classmethod
    def merged(cls, sketches: Iterable["QuantileSketch"],
               relative_accuracy: Optional[float] = None) -> "QuantileSketch":
        """A fresh sketch holding the union of ``sketches``."""
        sketches = list(sketches)
        if relative_accuracy is None:
            relative_accuracy = (sketches[0].relative_accuracy if sketches
                                 else DEFAULT_RELATIVE_ACCURACY)
        out = cls(relative_accuracy)
        for sketch in sketches:
            out.merge(sketch)
        return out

    # -- transport -----------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable payload (the snapshot / scrape wire form).

        Bucket keys are stringified for JSON; ``from_dict`` restores
        them.  Empty-sketch min/max serialize as None.
        """
        return {
            "relative_accuracy": self.relative_accuracy,
            "count": self.count,
            "sum": self.total,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "zero_count": self._zero_count,
            "buckets": {str(k): v for k, v in sorted(self._buckets.items())},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`as_dict` output."""
        sketch = cls(float(payload["relative_accuracy"]))
        sketch.count = int(payload["count"])
        sketch.total = float(payload["sum"])
        sketch.min = (math.inf if payload.get("min") is None
                      else float(payload["min"]))
        sketch.max = (-math.inf if payload.get("max") is None
                      else float(payload["max"]))
        sketch._zero_count = int(payload.get("zero_count", 0))
        sketch._buckets = {int(k): int(v)
                           for k, v in payload.get("buckets", {}).items()}
        return sketch

    def __len__(self) -> int:
        return len(self._buckets) + (1 if self._zero_count else 0)

    def __repr__(self) -> str:
        return (f"QuantileSketch(alpha={self.relative_accuracy}, "
                f"count={self.count}, buckets={len(self._buckets)})")
