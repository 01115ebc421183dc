"""The pure-Python reductions behind scenario summaries equal numpy's,
bit for bit.

``describe``/``quantile``/``cdf`` and ``BinnedSeries.series`` replaced
numpy code whose results feed the sweep JSONL digests, so they are held
to ``repr`` equality with the numpy expressions they replaced (``repr``
tells ``-0.0`` from ``0.0``; every NaN prints ``nan``).

One documented exception: when an input holds both ``+0.0`` and
``-0.0``, which zero numpy's SIMD min/max and unstable partition land on
is not reproduced, so order statistics of such inputs are compared with
``==`` only.
"""

import math
import random
import warnings

import pytest
from hypothesis import given, strategies as st

from repro.metrics.series import BinnedSeries
from repro.metrics.summary import cdf, describe, quantile

np = pytest.importorskip("numpy")

INF = float("inf")
NAN = float("nan")

ELEMENTS = st.one_of(
    st.floats(),
    st.floats(min_value=-1e6, max_value=1e6),
    st.integers(min_value=-10**6, max_value=10**6),
    st.sampled_from([0.0, -0.0, INF, -INF, NAN]),
)


def _array(values):
    return np.asarray(list(values), dtype=float)


def _quiet(fn, *args):
    """Call a numpy reduction without its inf/NaN RuntimeWarnings."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        return fn(*args)


def _numpy_describe(values):
    array = _array(values)
    if array.size == 0:
        return (0,) + (NAN,) * 7
    return (int(array.size), float(np.mean(array)), float(np.std(array)),
            float(np.min(array)), float(np.percentile(array, 25)),
            float(np.percentile(array, 50)),
            float(np.percentile(array, 75)), float(np.max(array)))


def _fields(summary):
    return (summary.count, summary.mean, summary.std, summary.minimum,
            summary.q1, summary.median, summary.q3, summary.maximum)


def _mixed_zeros(values) -> bool:
    signs = {math.copysign(1.0, v) for v in map(float, values) if v == 0}
    return len(signs) == 2


def _same(a: float, b: float, exact_zero_sign: bool = True) -> bool:
    if exact_zero_sign:
        return repr(a) == repr(b)
    return a == b or (math.isnan(a) and math.isnan(b))


def _assert_describe_matches(values):
    ours = _fields(describe(values))
    ref = _quiet(_numpy_describe, values)
    exact = not _mixed_zeros(values)
    assert ours[0] == ref[0]
    # mean and std are pure arithmetic: always exact, zero sign included.
    assert _same(ours[1], ref[1]) and _same(ours[2], ref[2]), (ours, ref)
    for mine, theirs in zip(ours[3:], ref[3:]):
        assert _same(mine, theirs, exact), (values, ours, ref)


class TestDescribe:
    @given(st.lists(ELEMENTS, max_size=600))
    def test_matches_numpy(self, values):
        _assert_describe_matches(values)

    @pytest.mark.parametrize("n", [8193, 20_011])
    def test_matches_numpy_past_the_reduction_buffer(self, n):
        rng = random.Random(n)
        values = [rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-8, 8)
                  for _ in range(n)]
        _assert_describe_matches(values)

    @pytest.mark.parametrize("values", [
        [-0.0], [-0.0, -0.0, -0.0], [0.0, -0.0], [1, 2, 3], [INF],
        [1.0, INF], [-INF, INF], [1.0, NAN], [NAN], [5],
    ])
    def test_edge_cases(self, values):
        _assert_describe_matches(values)

    def test_negative_zero_sums_from_positive_zero(self):
        summary = describe([-0.0])
        assert repr(summary.mean) == "0.0"
        assert repr(summary.median) == "-0.0"


class TestQuantile:
    @given(st.lists(ELEMENTS, min_size=1, max_size=600),
           st.one_of(st.floats(min_value=0.0, max_value=1.0),
                     st.sampled_from([0, 1, 0.0, 0.25, 0.5, 0.999, 1.0])))
    def test_matches_numpy(self, values, q):
        ref = float(_quiet(np.quantile, _array(values), q))
        assert _same(quantile(values, q), ref, not _mixed_zeros(values))

    def test_empty_is_nan(self):
        assert math.isnan(quantile([], 0.5))


class TestCdf:
    @given(st.lists(ELEMENTS, max_size=600))
    def test_matches_numpy(self, values):
        ordered, probs = cdf(values)
        ref_values = np.sort(_array(values)).tolist()
        n = len(ref_values)
        ref_probs = (np.arange(1, n + 1) / n).tolist()
        assert [repr(p) for p in probs] == [repr(p) for p in ref_probs]
        exact = not _mixed_zeros(values)
        assert len(ordered) == n
        for mine, theirs in zip(ordered, ref_values):
            assert _same(mine, theirs, exact), (ordered, ref_values)


def _numpy_series(series: BinnedSeries, until: float):
    """``BinnedSeries.series`` as it was written with numpy."""
    n_bins = max(1, int(np.ceil((until - series.t0) / series.bin_width)))
    times = series.t0 + np.arange(n_bins) * series.bin_width
    values = np.zeros(n_bins)
    if series._bins:
        indices = np.fromiter(series._bins.keys(), dtype=np.int64,
                              count=len(series._bins))
        sums = np.fromiter(series._bins.values(), dtype=np.float64,
                           count=len(series._bins))
        mask = (indices >= 0) & (indices < n_bins)
        values[indices[mask]] = sums[mask]
    return times.tolist(), values.tolist()


class TestBinnedSeries:
    @given(t0=st.floats(min_value=-50.0, max_value=50.0),
           width=st.floats(min_value=0.01, max_value=10.0),
           until=st.floats(min_value=-60.0, max_value=150.0),
           events=st.lists(st.tuples(
               st.floats(min_value=-100.0, max_value=200.0),
               st.floats(min_value=-1e3, max_value=1e6)), max_size=80))
    def test_matches_numpy_fill(self, t0, width, until, events):
        """Events before ``t0`` (negative bins) and at/after *until* are
        dropped; ``t0`` offsets both the bins and the time axis."""
        series = BinnedSeries(width, t0=t0)
        for t, value in events:
            series.add(t, value)
        times, values = series.series(until)
        ref_times, ref_values = _numpy_series(series, until)
        assert [repr(t) for t in times] == [repr(t) for t in ref_times]
        assert [repr(v) for v in values] == [repr(v) for v in ref_values]
        _, rates = series.rate_series(until)
        assert [repr(r) for r in rates] == [
            repr(v) for v in (np.asarray(ref_values) / width).tolist()]

    def test_out_of_range_bins_dropped(self):
        series = BinnedSeries(1.0, t0=10.0)
        series.add(9.5, 7.0)     # bin -1: before t0
        series.add(10.2, 1.0)
        series.add(12.5, 2.0)
        series.add(13.0, 5.0)    # bin 3: at until
        times, values = series.series(until=13.0)
        assert times == [10.0, 11.0, 12.0]
        assert values == [1.0, 0.0, 2.0]
        assert (times, values) == _numpy_series(series, 13.0)
