"""Summary statistics: means, quantiles and boxplot descriptors.

Backs the Figure 12 boxplots and the EXPERIMENTS.md tables.

Pure Python, and bit-for-bit equal to the numpy reductions they replace
(``np.mean``, ``np.std``, ``np.percentile``/``np.quantile`` with the
default linear method), so the scenario summaries and their JSONL digests
need no numpy:

* sums use numpy's pairwise summation;
* quantiles interpolate at ``q * (n - 1)`` with numpy's two-sided lerp;
* any NaN input makes every statistic NaN.

One thing is left to numpy's internals and not reproduced: when the
input holds both ``+0.0`` and ``-0.0``, which of the two equal zeros a
minimum, maximum or quantile lands on depends on numpy's SIMD reductions
and its unstable partition. Such results are equal (``==``) but may
differ in sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

#: numpy's pairwise-summation block: at most this many items are summed
#: with eight interleaved accumulators before the range is split in two.
_PW_BLOCKSIZE = 128


@dataclass(frozen=True)
class Summary:
    """Five-number summary plus mean/std — what a boxplot needs."""

    count: int
    mean: float
    std: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    def whiskers(self) -> tuple:
        """Tukey whiskers: the data range clipped to 1.5 IQR fences."""
        low = self.q1 - 1.5 * self.iqr
        high = self.q3 + 1.5 * self.iqr
        return (max(self.minimum, low), min(self.maximum, high))

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean:.4g} std={self.std:.4g} "
                f"min={self.minimum:.4g} q1={self.q1:.4g} "
                f"med={self.median:.4g} q3={self.q3:.4g} "
                f"max={self.maximum:.4g}")


def _pairwise(data: List[float], start: int, n: int) -> float:
    """numpy's ``pairwise_sum`` over ``data[start:start + n]``."""
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += data[i]
        return total
    if n <= _PW_BLOCKSIZE:
        r0, r1, r2, r3, r4, r5, r6, r7 = data[start:start + 8]
        stop = start + n - n % 8
        for i in range(start + 8, stop, 8):
            r0 += data[i]
            r1 += data[i + 1]
            r2 += data[i + 2]
            r3 += data[i + 3]
            r4 += data[i + 4]
            r5 += data[i + 5]
            r6 += data[i + 6]
            r7 += data[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(stop, start + n):
            total += data[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(data, start, half) + _pairwise(data, start + half,
                                                    n - half)


def _pairwise_sum(data: List[float]) -> float:
    """``np.sum`` of a list of floats: pairwise, from numpy's ``+0.0``
    identity (so ``[-0.0]`` sums to ``0.0``)."""
    return 0.0 + _pairwise(data, 0, len(data))


def _floats(values: Sequence[float]) -> List[float]:
    return [float(value) for value in values]


def _has_nan(data: List[float]) -> bool:
    return any(value != value for value in data)


def mean(values: Sequence[float]) -> float:
    """``np.mean``; NaN when *values* is empty."""
    data = _floats(values)
    if not data:
        return float("nan")
    return _pairwise_sum(data) / len(data)


def _lerp_at(ordered: List[float], q: float) -> float:
    """numpy's linear quantile of the sorted, NaN-free *ordered*."""
    n = len(ordered)
    virtual = (n - 1) * q
    if virtual >= n - 1:          # numpy clamps to the last element ...
        lower = upper = -1
    else:
        lower = math.floor(virtual)
        upper = lower + 1
    gamma = virtual - lower       # ... and takes gamma off the clamp
    a, b = ordered[lower], ordered[upper]
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1 - gamma)
    return a + diff * gamma


def describe(values: Sequence[float]) -> Summary:
    """Summary of *values*; NaN-filled when empty or when any is NaN."""
    data = _floats(values)
    n = len(data)
    nan = float("nan")
    if n == 0:
        return Summary(0, nan, nan, nan, nan, nan, nan, nan)
    if _has_nan(data):
        return Summary(n, nan, nan, nan, nan, nan, nan, nan)
    average = _pairwise_sum(data) / n
    deviations = [(value - average) * (value - average) for value in data]
    ordered = sorted(data)
    return Summary(
        count=n,
        mean=average,
        std=math.sqrt(_pairwise_sum(deviations) / n),
        minimum=min(data),
        q1=_lerp_at(ordered, 0.25),
        median=_lerp_at(ordered, 0.5),
        q3=_lerp_at(ordered, 0.75),
        maximum=max(data),
    )


def quantile(values: Sequence[float], q: float) -> float:
    """Value at quantile *q* in [0, 1]; NaN when *values* is empty.

    The single quantile entry point for tables and reports (Figure 6's
    p95 column and friends) — callers should route through here instead
    of reaching for ``np.percentile`` inline.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    data = _floats(values)
    if not data or _has_nan(data):
        return float("nan")
    ordered = sorted(data)
    if isinstance(q, int):        # numpy indexes integral q directly
        return ordered[(len(ordered) - 1) * q]
    return _lerp_at(ordered, q)


def quantiles(values: Sequence[float],
              qs: Sequence[float] = (0.5, 0.95, 0.99, 0.999)) -> dict:
    """``{q: value}`` for each requested quantile (NaN-valued if empty)."""
    return {q: quantile(values, q) for q in qs}


def cdf(values: Sequence[float]) -> tuple:
    """Empirical CDF points ``(sorted values, cumulative probabilities)``
    as lists; NaNs sort last, as in ``np.sort``."""
    data = _floats(values)
    ordered = sorted(value for value in data if value == value)
    ordered += [value for value in data if value != value]
    n = len(ordered)
    return ordered, [i / n for i in range(1, n + 1)]
