"""PELT vs reference golden values (FIXTURES.md §2.1,
SignalSharp.Tests/Detection/PELTTests.cs)."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from signalsharp_ray.kernels import pelt as pelt_mod
from signalsharp_ray.kernels.pelt import PELT, PELTOptions, pelt_breakpoints


SIMPLE = [1, 1, 1, 5, 5, 5, 1, 1, 1]


def test_l2_simple():
    opts = PELTOptions(cost_function="l2", min_size=1, jump=1)
    np.testing.assert_array_equal(PELT(opts).fit_and_detect(SIMPLE, 2.0), [3, 6])


def test_l2_trend_no_changepoints():
    np.testing.assert_array_equal(pelt_breakpoints([1, 2, 3, 4, 5], 10.0), [])


def test_rbf_simple():
    np.testing.assert_array_equal(
        pelt_breakpoints(SIMPLE, 0.1, cost="rbf", min_size=1, jump=1), [3, 6]
    )


def test_rbf_long_exact_no_changepoints():
    pattern = [1, 1, 1, 5, 5, 5, 1, 1, 1, 2, 2, 3, 4, 2, 1]
    signal = np.tile(pattern, 100)  # N = 1500
    assert signal.size == 1500
    out = pelt_breakpoints(signal, 10.0, cost="rbf", min_size=1, jump=1)
    np.testing.assert_array_equal(out, [])


def test_rbf_long_jump5_approximate():
    pattern = [1, 1, 1, 5, 5, 5, 1, 1, 1, 2, 2, 3, 4, 2, 1]
    signal = np.tile(pattern, 100)
    out = pelt_breakpoints(signal, 10.0, cost="rbf", min_size=2, jump=5)
    np.testing.assert_array_equal(out, [1496, 1498])


def test_multidim():
    sig = np.array([[1.0, 1, 1, 10, 10, 10], [5.0, 5, 5, 20, 20, 20]])
    out = pelt_breakpoints(sig, 2.0, cost="l2", min_size=1)
    np.testing.assert_array_equal(out, [3])


def test_short_signal_no_changepoints():
    assert pelt_breakpoints([1.0], 1.0).size == 0
    opts = PELTOptions(min_size=3)
    assert PELT(opts).fit_and_detect([1.0, 5.0, 1.0, 5.0, 9.0], 0.1).size == 0


def test_negative_penalty_rejected():
    with pytest.raises(ValueError):
        pelt_breakpoints(SIMPLE, -1.0)


def test_gaussian_cost_detects_variance_change():
    rng = np.random.default_rng(3)
    a = rng.normal(0, 0.1, 60)
    b = rng.normal(0, 3.0, 60)
    out = pelt_breakpoints(np.concatenate([a, b]), 10.0, cost="gaussian", min_size=2)
    assert any(abs(int(b_) - 60) <= 2 for b_ in out)


def test_jump_matches_exact_on_simple():
    # jump>1 is approximate, but on this easy signal it finds the same answer
    out = pelt_breakpoints(SIMPLE, 2.0, cost="l2", min_size=1, jump=2)
    assert list(out) in ([3, 6], [4, 6], [2, 6])  # approximation tolerance


def test_detect_without_fit_raises():
    # PELTTests.cs:26-33
    from signalsharp_ray.common.exceptions import UninitializedDataError

    with pytest.raises(UninitializedDataError):
        PELT(PELTOptions()).detect(2.0)


def test_matrix_input_simple():
    # PELTTests.cs:35-55 — 2-D single-row matrix behaves as the 1-D signal
    sig = np.array([[1.0, 1, 1, 5, 5, 5, 1, 1, 1]])
    opts = PELTOptions(cost_function="l2", min_size=1, jump=1)
    np.testing.assert_array_equal(PELT(opts).fit_and_detect(sig, 2.0), [3, 6])


def test_docstring_multivariate_example():
    # PELTAlgorithm.cs:183-187 doc example: { {1,1,10,10}, {5,5,20,20} } -> [2]
    sig = np.array([[1.0, 1, 10, 10], [5.0, 5, 20, 20]])
    out = pelt_breakpoints(sig, 8.0, cost="l2", min_size=1)
    np.testing.assert_array_equal(out, [2])


def test_small_l2_fast_path_identical_to_vectorized():
    """The scalar-float DP fast path (PELT._segment_small_l2) must produce
    bitwise-identical breakpoints to the array path on every config —
    the measured 13-39x speedup on short series is only admissible if the
    output is EXACTLY equal."""
    rng = np.random.default_rng(0)
    saved = pelt_mod._SMALL_N_FAST_PATH
    try:
        for trial in range(200):
            n = int(rng.integers(2, 120))
            kind = trial % 3
            if kind == 0:
                x = rng.normal(50, 10, n)
            elif kind == 1:
                x = np.repeat([0.0, 100.0], [n // 2, n - n // 2])
                x = x + rng.normal(0, 1, n)
            else:
                x = np.zeros(n)
            pen = [0.5, 5.0, 50.0][trial % 3]
            ms = [1, 2, 5][(trial // 3) % 3]
            if n < 2 * ms:
                continue
            pelt_mod._SMALL_N_FAST_PATH = saved
            fast = PELT(PELTOptions(min_size=ms)).fit_and_detect(x, pen)
            pelt_mod._SMALL_N_FAST_PATH = 0
            slow = PELT(PELTOptions(min_size=ms)).fit_and_detect(x, pen)
            np.testing.assert_array_equal(fast, slow, err_msg=f"{n} {pen} {ms}")
    finally:
        pelt_mod._SMALL_N_FAST_PATH = saved


# -- the array DP against the set-based DP it replaced -------------------


def _reference_segment(p: PELT, penalty: float) -> np.ndarray:
    """The former vectorized DP of PELT._segment: the admissible starts are
    a Python set, rebuilt at each step, and ties go to the largest start
    explicitly. Kept here as the reference for PELT._segment_array."""
    n = p._n
    min_size = p.options.min_size
    cost = p.cost
    F = np.full(n + 1, math.inf)
    F[0] = -penalty
    CP = np.zeros(n + 1, dtype=np.int64)
    admissible = {0}
    for t in range(min_size, n + 1):
        best_cost = math.inf
        best_prev = 0
        cands = np.fromiter((s for s in admissible if s <= t - min_size), dtype=np.int64)
        if cands.size:
            totals = F[cands] + cost.segment_costs(cands, t) + penalty
            m = totals[int(np.argmin(totals))]
            if math.isfinite(m):
                best_prev = int(cands[totals == m].max())
                best_cost = float(m)
        if math.isinf(best_cost):
            F[t] = math.inf
            CP[t] = -1
        else:
            F[t] = best_cost
            CP[t] = best_prev
        next_adm = set()
        adm = np.fromiter(admissible, dtype=np.int64)
        ready = adm[adm <= t - min_size]
        young = adm[adm > t - min_size]
        if ready.size:
            keep = F[ready] + cost.segment_costs(ready, t) <= F[t]
            next_adm.update(int(s) for s in ready[keep])
        next_adm.update(int(s) for s in young if math.isfinite(F[s]))
        if math.isfinite(F[t]):
            next_adm.add(t)
        admissible = next_adm
    return CP


def _signal(kind: str, n: int, dims: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (dims, n) if dims > 1 else (n,)
    if kind == "constant":
        return np.full(shape, 3.0)
    if kind == "ties":
        return np.round(rng.normal(0, 1, shape))
    if kind == "step":
        x = rng.normal(0, 1, shape)
        x[..., n // 2:] += 8.0
        return x
    x = rng.normal(0, 1, shape)
    if kind == "nonfinite":
        flat = x.reshape(-1)
        at = rng.integers(0, flat.size, size=3)
        flat[at] = rng.choice([np.nan, np.inf, -np.inf], size=3)
    return x


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cost=st.sampled_from(["l2", "l2_2d", "gaussian", "rbf"]),
    kind=st.sampled_from(["normal", "constant", "ties", "step", "nonfinite"]),
    n=st.integers(1, 60),
    min_size=st.integers(1, 5),
    penalty=st.sampled_from([0.0, 0.5, 1.0, 10.0, 100.0]),
    seed=st.integers(0, 2**16),
)
def test_array_dp_matches_set_dp(cost, kind, n, min_size, penalty, seed):
    """PELT._segment_array gives the CP array of the set-based DP, bit for
    bit, for every cost that takes it: short signals (n < 2 * min_size
    included), zero penalty, constant and rounded (tied) values, NaN and
    +-inf."""
    dims = 2 if cost == "l2_2d" else 1
    x = _signal(kind, n, dims, seed)
    with np.errstate(all="ignore"):
        p = PELT(PELTOptions(cost_function=cost.removesuffix("_2d"), min_size=min_size)).fit(x)
        np.testing.assert_array_equal(p._segment_array(penalty), _reference_segment(p, penalty))


@pytest.mark.parametrize("kind", ["normal", "step", "ties", "nonfinite"])
@pytest.mark.parametrize("min_size", [1, 3])
def test_dispatch_around_small_n_cutoff(kind, min_size):
    """Univariate L2 switches from the scalar DP to the array DP above
    _SMALL_N_FAST_PATH; on either side of the cutoff `_segment` gives the
    set-based DP's CP array."""
    cut = pelt_mod._SMALL_N_FAST_PATH
    for n in (cut - 1, cut, cut + 1, cut + 2):
        x = _signal(kind, n, 1, n)
        with np.errstate(all="ignore"):
            p = PELT(PELTOptions(min_size=min_size)).fit(x)
            np.testing.assert_array_equal(p._segment(10.0), _reference_segment(p, 10.0))


def test_two_way_tie_goes_to_the_larger_start():
    """On [3, 3] with penalty 0, F[0] + c(0, 2) == F[1] + c(1, 2) exactly
    (L2 costs are 0; Gaussian ones are len * ln(1e-10), and 2x == x + x);
    the reference keeps the larger start, 1."""
    for cost in ("l2", "gaussian"):
        p = PELT(PELTOptions(cost_function=cost)).fit([3.0, 3.0])
        np.testing.assert_array_equal(p._segment_array(0.0), [0, 0, 1])
        np.testing.assert_array_equal(p._segment(0.0), [0, 0, 1])
        np.testing.assert_array_equal(p.detect(0.0), [1])


# -- the segmented DP against the per-series kernel ----------------------


def _batch_series(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if n == 0:
        return np.zeros(0)
    if kind == "ties":
        return rng.integers(0, 3, n).astype(np.float64)
    if kind == "constant":
        return np.full(n, float(rng.integers(-2, 3)))
    return _signal(kind, n, 1, seed)


def _per_series(values, offsets, penalty, min_size):
    segs, bks = [], []
    for i, (s, e) in enumerate(zip(offsets[:-1], offsets[1:])):
        bk = PELT(PELTOptions(min_size=min_size)).fit_and_detect(values[s:e], penalty)
        segs += [i] * bk.size
        bks += bk.tolist()
    return np.asarray(segs, np.int64), np.asarray(bks, np.int64)


def _check_segments(series, penalty, min_size):
    values = np.concatenate([np.zeros(0)] + series)
    offsets = np.concatenate([[0], np.cumsum([x.size for x in series])]).astype(np.int64)
    with np.errstate(all="ignore"):
        want = _per_series(values, offsets, penalty, min_size)
        got = pelt_mod.pelt_l2_segments(values, offsets, penalty, min_size)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    specs=st.lists(
        st.tuples(
            st.sampled_from(["normal", "constant", "ties", "step", "nonfinite"]),
            st.one_of(st.integers(0, 3), st.integers(0, 24), st.integers(100, 144)),
            st.integers(0, 2**16),
        ),
        min_size=1, max_size=12,
    ),
    min_size=st.integers(1, 3),
    penalty=st.sampled_from([0.0, 10.0]),
)
def test_segmented_pelt_matches_per_series(specs, min_size, penalty):
    """pelt_l2_segments gives each series of a mixed batch the breakpoints
    PELT(...).fit_and_detect gives it alone: lengths 0, 1, 2 and up to
    _SMALL_N_FAST_PATH, constant and tie-heavy small-integer values, NaN
    and +-inf, min_size 1-3, penalties 0 and 10."""
    _check_segments([_batch_series(k, n, seed) for k, n, seed in specs], penalty, min_size)


@pytest.mark.parametrize("min_size", [1, 2])
def test_segmented_pelt_routes_long_series_per_series(min_size):
    """A series longer than _SMALL_N_FAST_PATH takes the per-series array
    DP inside a batch of short ones, with the same result."""
    cut = pelt_mod._SMALL_N_FAST_PATH
    series = [_batch_series("step", cut + 40, 1), _batch_series("ties", 5, 2),
              _batch_series("step", cut, 3), np.zeros(0), _batch_series("nonfinite", cut + 1, 4),
              _batch_series("normal", 1, 5)]
    for penalty in (0.0, 10.0):
        _check_segments(series, penalty, min_size)


def test_segmented_pelt_small_blocks_and_validation(monkeypatch):
    """Blocks of a few cells give the same breakpoints; a negative
    penalty or a non-positive min_size fails as the kernel does."""
    monkeypatch.setattr(pelt_mod, "_BLOCK_CELLS", 20)
    _check_segments([_batch_series("step", n, n) for n in (30, 3, 9, 9, 17, 1, 60)], 1.0, 1)
    with pytest.raises(ValueError, match="penalty"):
        pelt_mod.pelt_l2_segments(np.ones(4), np.array([0, 4]), -1.0)
    with pytest.raises(ValueError, match="min_size"):
        pelt_mod.pelt_l2_segments(np.ones(4), np.array([0, 4]), 1.0, 0)


def test_changepoints_sorted_names_the_series_over_the_cap():
    from signalsharp_ray.stages.analysis import ChangepointConfig, changepoints_sorted

    keys = np.array([7, 7, 8, 8, 8, 8, 9, 9, 9, 9, 9], np.int64)
    offsets = np.array([0, 2, 6, 11])
    cfg = ChangepointConfig(max_series_len=3)
    with pytest.raises(ValueError, match=r"url_hash=8 has 4 points > cap 3"):
        changepoints_sorted(keys, np.arange(11.0), offsets, cfg)
