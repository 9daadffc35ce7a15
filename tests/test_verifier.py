import json
import math
import tracemalloc
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import f_h_term, segment_bounds
from revpal import verifier
from revpal.cli import render
from revpal.digits import base_context
from revpal.verifier import (
    certify_base,
    certify_range,
    f_eval,
    find_min_K,
    segment_bounds_naive,
)


def test_f_eval_base2_origin():
    # h=0 term is capped at 2; h=1 term is 1/sin(pi/2) = 1
    assert f_eval(base_context(2), 0.0) == pytest.approx(3.0)


def test_f_eval_period_one_over_b():
    for b in (2, 7, 50):
        ctx = base_context(b)
        for theta in (0.0, 0.01, 0.37, 1.234):
            assert f_eval(ctx, theta + 1 / b) == pytest.approx(f_eval(ctx, theta), rel=1e-12)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_f_eval_rejects_a_non_finite_theta(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        f_eval(base_context(7), theta)


def test_f_eval_upper_bound():
    for b in (2, 5, 31):
        ctx = base_context(b)
        for theta in np.linspace(0, 1, 17):
            assert f_eval(ctx, float(theta)) <= b * b + 1e-9


def test_f_h_between_one_and_b():
    ctx = base_context(17)
    for h in range(17):
        for theta in np.linspace(0, 1 / 17, 9):
            v = f_h_term(ctx.b, h, float(theta))
            assert 1.0 - 1e-12 <= v <= 17.0


def test_certify_rejects_small_K():
    with pytest.raises(ValueError):
        certify_base(base_context(100), 1)


def test_certificate_fields_consistent():
    cert = certify_base(base_context(30000), 8)
    assert cert.threshold == pytest.approx(30000 ** 1.2)
    assert cert.cb_estimate == pytest.approx(cert.max_bound / 30000)
    assert cert.alpha_estimate == pytest.approx(
        math.log(cert.cb_estimate) / math.log(30000))
    assert cert.passed == (cert.max_bound * (1 + cert.slack) < cert.threshold)
    if cert.passed:
        assert cert.alpha_estimate < 1 / 5


@pytest.mark.parametrize("b", [10, 32, 26000, 31698])
def test_threshold_decided_exactly_one_ulp_either_side(b, monkeypatch):
    # float(32) ** 1.2 is 63.99999999999999 < 64 = 32^(6/5): a float compare
    # against the rounded threshold fails that bound, the exact one passes it
    t = float(b) ** 1.2
    with localcontext() as dec:
        dec.prec = 60
        exact = Decimal(b) ** (Decimal(6) / 5)
    monkeypatch.setattr(verifier, "SLACK", 0.0)
    for max_bound in (math.nextafter(t, 0), t, math.nextafter(t, math.inf)):
        monkeypatch.setattr(verifier, "candidate_bounds",
                            lambda ctx, K: ([0], np.array([max_bound])))
        cert = certify_base(base_context(b), 8)
        assert cert.threshold == t
        assert cert.passed == (Decimal(max_bound) < exact), (b, max_bound)


def test_grid_sharing_matches_naive_kernel():
    rng = np.random.default_rng(7)
    for _ in range(10):
        b = int(rng.integers(2, 500))
        K = int(rng.integers(2, 17))
        ctx = base_context(b)
        fast = segment_bounds(ctx, K)
        slow = segment_bounds_naive(ctx, K)
        assert np.allclose(fast, slow, rtol=1e-13, atol=0)


@pytest.mark.parametrize("b, K", [(2, 2), (7, 3), (50, 5), (211, 6), (26000, 367)])
def test_segment_bounds_mirror_symmetric(b, K):
    bounds = segment_bounds(base_context(b), K)
    assert bounds.shape == (K,)
    assert np.array_equal(bounds, bounds[::-1])


@pytest.mark.parametrize("b, K", [(7, 2), (50, 5), (137, 5), (1000, 8)])
def test_segment_bounds_match_mpmath(b, K):
    with mpmath.workdps(30):
        def g(h, j):
            s = abs(mpmath.sin(mpmath.pi * (mpmath.mpf(h * K + j) / (K * b))))
            return mpmath.mpf(b) if s * b <= 1 else 1 / s

        exact = [mpmath.fsum(max(g(h, i), g(h, i + 1)) for h in range(b)) for i in range(K)]
        got = segment_bounds(base_context(b), K)
        for i in range(K):
            assert abs(got[i] - exact[i]) <= 1e-13 * exact[i], (i, got[i], exact[i])


def test_segment_bounds_memory_does_not_grow_with_the_grid():
    # the K*b + 1 point grid at b = 26000, K = 367 alone would take 76 MB
    ctx = base_context(26000)
    tracemalloc.start()
    try:
        segment_bounds(ctx, 367)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def _assert_candidates_match_every_segment(b, K):
    ctx = base_context(b)
    full = segment_bounds(ctx, K)
    segments, bounds = verifier.candidate_bounds(ctx, K)
    assert segments == sorted(set(segments)) and 0 in segments and segments[-1] < (K + 1) // 2
    assert np.allclose(bounds, full[segments], rtol=1e-15, atol=0), (b, K)
    cert = certify_base(ctx, K)
    assert abs(cert.max_bound - full.max()) <= 1e-15 * full.max(), (b, K)
    assert cert.worst_segment == int(np.argmax(full)), (b, K)


def test_candidate_segments_hold_the_max_on_random_bases():
    rng = np.random.default_rng(11)
    for _ in range(400):
        _assert_candidates_match_every_segment(int(rng.integers(2, 3001)),
                                               int(rng.integers(2, 401)))


@pytest.mark.parametrize("b, K", [
    # first and last base of each published row of scripts/reproduce_table.py
    (28500, 8), (31698, 8), (26500, 34), (28499, 34),
    (26100, 122), (26499, 122), (26000, 367), (26099, 367),
    # the largest base that fails even at sup f
    (25957, 367),
    (2, 2), (2, 3), (3, 2), (3, 3),
])
def test_candidate_segments_hold_the_max(b, K):
    _assert_candidates_match_every_segment(b, K)


def test_candidate_segments_hold_the_max_for_every_K_at_20000():
    # the K that find_min_K tries at acceptance criterion 3's base
    for K in range(2, 65):
        _assert_candidates_match_every_segment(20000, K)


def _window_bounds(ctx, K, lo, hi):
    """B_i for lo <= i < hi by candidate_bounds' kernel, one column at a time."""
    sin_h, cos_h = verifier._row_factors(ctx.b)
    cols = [verifier._cap_reciprocal(math.cos(t) * sin_h + math.sin(t) * cos_h, ctx.b)
            for t in np.pi * np.arange(lo, hi + 1) / (K * ctx.b)]
    return np.array([np.maximum(g, h).sum() for g, h in zip(cols, cols[1:])])


@pytest.mark.parametrize("b", [2, 3, 7, 26000, 31698])
def test_candidate_segments_hold_the_max_at_the_largest_K(b):
    # the guarded cap kink moves past i_a by up to 0.4e-12 K segments; at
    # K = 10^13 the max of this window falls at i_a + 3 or i_a + 4
    K = 10 ** 12
    ctx = base_context(b)
    i_a = int(math.asin(1.0 / b) / math.pi * K * b)
    window = _window_bounds(ctx, K, i_a - 5, i_a + 60)
    segments, bounds = verifier.candidate_bounds(ctx, K)
    assert segments[1:] == list(range(i_a - 2, i_a + 3))
    assert i_a - 5 + int(np.argmax(window)) in segments
    assert window.max() <= bounds.max() * (1 + 1e-15)


def test_candidate_bounds_refuse_K_past_the_guard_bound():
    with pytest.raises(ValueError, match=r"^K must be <= 1000000000000, got 1000000000001$"):
        verifier.candidate_bounds(base_context(26000), 10 ** 12 + 1)


def test_certify_base_memory_is_a_few_columns():
    ctx = base_context(26000)
    tracemalloc.start()
    try:
        certify_base(ctx, 367)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@settings(max_examples=60, deadline=None)
@given(st.integers(100, 2000), st.integers(2, 32), st.data())
def test_endpoint_domination(b, K, data):
    ctx = base_context(b)
    i = data.draw(st.integers(0, K - 1))
    t = data.draw(st.floats(0.0, 1.0))
    left, right = i / (K * b), (i + 1) / (K * b)
    theta = left + t * (right - left)
    hs = np.arange(b) / b
    from revpal.verifier import _capped_inv_sin

    inner = _capped_inv_sin(hs + theta, b)
    lo = _capped_inv_sin(hs + left, b)
    hi = _capped_inv_sin(hs + right, b)
    assert np.all(inner <= np.maximum(lo, hi) + 1e-9 * b)


def test_interior_samples_below_certified_bound():
    rng = np.random.default_rng(3)
    for b, K in [(137, 5), (1000, 8), (26000, 4)]:
        ctx = base_context(b)
        bounds = segment_bounds(ctx, K)
        for _ in range(20):
            i = int(rng.integers(0, K))
            theta = (i + rng.random()) / (K * b)
            assert f_eval(ctx, theta) <= bounds[i] * (1 + 1e-12)


def test_certification_shift_invariant():
    # shifting the grid by whole multiples of 1/b cannot change anything
    ctx = base_context(211)
    base = segment_bounds(ctx, 6)
    for shift in (1, 3, 100):
        shifted = [
            sum(
                max(
                    f_h_term(ctx.b, h, shift / ctx.b + i / (6 * ctx.b)),
                    f_h_term(ctx.b, h, shift / ctx.b + (i + 1) / (6 * ctx.b)),
                )
                for h in range(ctx.b)
            )
            for i in range(6)
        ]
        assert np.allclose(shifted, base, rtol=1e-9)


def test_certify_range_singleton_and_order():
    certs = certify_range(28500, 28503, 8)
    assert [c.b for c in certs] == [28500, 28501, 28502, 28503]
    single = certify_range(28500, 28500, 8)
    assert len(single) == 1
    assert single[0] == certify_base(base_context(28500), 8)


def test_certify_range_workers_deterministic():
    seq = certify_range(28500, 28505, 8, workers=1)
    par = certify_range(28500, 28505, 8, workers=4)
    assert seq == par


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker is ever started."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize("cores, workers, want", [
    (1000, 64, [3]),  # capped at the 3 bases
    (2, 64, [2]),  # capped at the cores
    (1, 64, []),  # one core: no pool
    (None, 64, []),  # unknown core count counts as one
    (1000, 1, []),
])
def test_certify_range_caps_the_pool(monkeypatch, cores, workers, want):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: cores)
    certs = certify_range(28500, 28502, 8, workers=workers)
    assert _SerialPool.sizes == want
    assert certs == [certify_base(base_context(b), 8) for b in (28500, 28501, 28502)]


def test_find_min_K_finds_a_passing_K():
    k = find_min_K(base_context(31698), 8)
    assert k is not None and 2 <= k <= 8
    # every smaller K really does fail
    for smaller in range(2, k):
        assert not certify_base(base_context(31698), smaller).passed


def test_find_min_K_refuses_K_max_past_the_kernel_range_before_any_certificate(monkeypatch):
    monkeypatch.setattr(verifier, "certify_base", lambda *a: pytest.fail("certified a K"))
    with pytest.raises(ValueError, match=r"^K_max must be <= 1000000000000, got 1000000000001$"):
        find_min_K(base_context(20000), 10 ** 12 + 1)


def test_find_min_K_accepts_K_max_at_the_kernel_range():
    assert find_min_K(base_context(31698), 10 ** 12) == 5


def test_find_min_K_computes_the_row_factors_once_per_base():
    verifier._row_factors.cache_clear()
    ctx = base_context(20000)
    assert find_min_K(ctx, 12) is None
    info = verifier._row_factors.cache_info()
    assert (info.misses, info.hits) == (1, 10)
    # certificates from cached rows equal those from fresh ones, bit for bit
    for K in (2, 7, 12):
        cached = certify_base(ctx, K)
        verifier._row_factors.cache_clear()
        assert certify_base(ctx, K) == cached


def test_certificate_json_round_trip():
    cert = certify_base(base_context(28500), 8)
    assert json.loads(render([cert], "json")) == cert.to_dict()
