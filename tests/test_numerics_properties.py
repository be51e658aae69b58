"""Property tests: `scan_max` on random sums of Gaussian bumps."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from lossywave.numerics import scan_max  # noqa: E402

bumps = st.lists(st.tuples(st.floats(min_value=-0.5, max_value=1.5),   # center, in units of hi - lo
                           st.floats(min_value=1e-3, max_value=1.0),   # width, same units
                           st.floats(min_value=0.1, max_value=10.0)),  # height
                 min_size=1, max_size=5)
intervals = st.tuples(st.floats(min_value=-100.0, max_value=100.0),
                      st.floats(min_value=-2.0, max_value=3.0))  # lo and log10(hi - lo)
grids = st.integers(min_value=3, max_value=2001)


def _bump_sum(bumps, lo, hi):
    span = hi - lo

    def f(t):
        t = np.asarray(t, dtype=float)
        return sum(h * np.exp(-(((t - (lo + c * span)) / (w * span)) ** 2)) for c, w, h in bumps)

    return f


@settings(max_examples=60, deadline=None)
@given(bumps=bumps, interval=intervals, n_grid=grids)
def test_returns_a_point_at_least_as_high_as_the_seed_grid(bumps, interval, n_grid):
    lo, hi = interval[0], interval[0] + 10.0 ** interval[1]
    f = _bump_sum(bumps, lo, hi)
    x, fx = scan_max(f, lo, hi, n_grid=n_grid)
    assert lo <= x <= hi
    assert fx == f(np.array([x]))[0]  # the best point evaluated, with its own value
    assert fx >= np.max(f(np.linspace(lo, hi, n_grid)))


@settings(max_examples=40, deadline=None)
@given(offsets=st.lists(st.tuples(st.floats(min_value=1e-3, max_value=0.5),
                                  st.floats(min_value=0.05, max_value=1.0),
                                  st.floats(min_value=0.1, max_value=10.0)), min_size=1, max_size=5),
       interval=intervals, n_grid=grids, right=st.booleans())
def test_endpoint_maximum_returns_the_endpoint_exactly(offsets, interval, n_grid, right):
    # bumps centred beyond one end point fall monotonically across [lo, hi]
    lo, hi = interval[0], interval[0] + 10.0 ** interval[1]
    f = _bump_sum([(1.0 + d if right else -d, w, h) for d, w, h in offsets], lo, hi)
    seed = f(np.linspace(lo, hi, n_grid))
    hypothesis.assume(seed[-1] > seed[-2] if right else seed[0] > seed[1])
    x, _ = scan_max(f, lo, hi, n_grid=n_grid)
    assert x == (hi if right else lo)


@settings(max_examples=40, deadline=None)
@given(bumps=bumps, interval=intervals, n_grid=grids, where=st.floats(0.0, 1.0))
def test_nan_on_the_seed_grid_comes_back_non_finite(bumps, interval, n_grid, where):
    lo, hi = interval[0], interval[0] + 10.0 ** interval[1]
    bad = np.linspace(lo, hi, n_grid)[round(where * (n_grid - 1))]
    smooth = _bump_sum(bumps, lo, hi)

    def f(t):
        values = smooth(t)
        values[np.asarray(t) == bad] = math.nan
        return values

    assert not math.isfinite(scan_max(f, lo, hi, n_grid=n_grid)[1])
