"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (on the real stdout, so the lines survive pytest capture).

Run with: pytest tests/test_acceptance.py -v
"""

import math
import sys
import time

import numpy as np
import pytest

from oracles import brute_force_palindromes, is_k_free, mobius_sum_oracle
from revpal import sieve
from revpal.digits import base_context, reverse, to_digits
from revpal.experiments import (
    count_kfree_palindromes,
    count_rev_kfree_primes,
    enumerate_palindromes,
)
from revpal.revgoldbach import scan_exceptions
from revpal.verifier import _capped_inv_sin, certify_base, certify_range, f_eval, find_min_K


RESULT_LINES: list[str] = []


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    RESULT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def table_1e7():
    return sieve.build(10 ** 7)


@pytest.fixture(scope="module")
def table_1e6_acc():
    return sieve.build(10 ** 6)


def test_criterion_1_table_spot_check():
    rows = [(31698, 8), (28500, 8), (26500, 34), (26100, 122), (26000, 367)]
    ok = True
    details = []
    for b, K in rows:
        t0 = time.monotonic()
        cert = certify_base(base_context(b), K)
        dt = time.monotonic() - t0
        margin = (cert.threshold - cert.max_bound) / cert.threshold
        good = cert.passed and margin >= 1e-6 and dt < 60.0
        ok &= good
        details.append(f"b={b} K={K} margin={margin:.2e} {dt:.1f}s")
    report(1, "published-table spot check", ok, "; ".join(details))


def test_criterion_2_subrange_certification():
    t0 = time.monotonic()
    a = certify_range(28500, 28520, 8)
    b = certify_range(26000, 26005, 367)
    dt = time.monotonic() - t0
    ok = all(c.passed for c in a + b) and dt < 600.0
    report(2, "sub-range certification", ok, f"{len(a) + len(b)} bases in {dt:.1f}s")


def test_criterion_3_failure_regime():
    ctx = base_context(20000)
    f0 = f_eval(ctx, 0.0)
    threshold = 20000 ** 1.2
    none_found = find_min_K(ctx, 64) is None
    ok = f0 >= threshold and none_found
    report(3, "failure regime at b=20000", ok,
           f"f(0)={f0:.1f} >= {threshold:.1f}, no K <= 64 passes")


def test_criterion_4_hcabdlog_scan(table_1e6_acc):
    t0 = time.monotonic()
    res = scan_exceptions(base_context(10), 10 ** 6, table_1e6_acc)
    dt = time.monotonic() - t0
    ok = res.exceptions == (11,) and dt < 300.0
    report(4, "base-10 reverse-Goldbach scan to 1e6", ok,
           f"exceptions={list(res.exceptions)} in {dt:.1f}s")


def test_criterion_5_oracle_equivalence(table_1e6_acc):
    mismatches = 0
    for k in (2, 3, 4):
        flags = table_1e6_acc.kfree_at(np.arange(10 ** 5 + 1), k)
        for n in range(1, 10 ** 5 + 1):
            oracle = mobius_sum_oracle(n, k) == 1
            if is_k_free(n, k, table_1e6_acc) != oracle or flags[n] != oracle:
                mismatches += 1
    report(5, "k-free sieve and flags vs divisor-sum oracle, n <= 1e5, k in {2,3,4}",
           mismatches == 0, f"{mismatches} mismatches")


def test_criterion_6_congruence_property():
    rng = np.random.default_rng(2026)
    violations = 0
    for _ in range(10 ** 4):
        b = int(rng.integers(2, 257))
        N = int(rng.integers(1, 16))
        ctx = base_context(b)
        lead = int(rng.integers(1, b))
        last = int(rng.integers(1, b))
        n = lead
        for _ in range(N - 2):
            n = n * b + int(rng.integers(0, b))
        if N > 1:
            n = n * b + last
        b2m1 = b * b - 1
        if reverse(n, ctx) % b2m1 != (pow(b, N - 1, b2m1) * n) % b2m1:
            violations += 1
    report(6, "reverse(n) = b^(N-1) n mod b^2-1 on 1e4 random inputs",
           violations == 0, f"{violations} violations")


def test_criterion_7_involution_and_enumeration():
    rng = np.random.default_rng(7)
    bad = 0
    for _ in range(10 ** 5):
        b = int(rng.integers(2, 65))
        n = int(rng.integers(1, 10 ** 9))
        n = n - n % b + int(rng.integers(1, b))  # force b not dividing n
        ctx = base_context(b)
        if reverse(reverse(n, ctx), ctx) != n:
            bad += 1
    enum_ok = True
    for b in (2, 3, 10, 16):
        ctx = base_context(b)
        enum_ok &= enumerate_palindromes(ctx, 10 ** 5).tolist() == brute_force_palindromes(ctx, 10 ** 5)
    report(7, "involution on 1e5 random inputs; constructive = brute-force enumeration",
           bad == 0 and enum_ok, f"{bad} involution failures; enum_ok={enum_ok}")


# regression goldens, frozen after first computation
GOLDEN_REV_KFREE_10_2 = {5: 3617, 6: 29549, 7: 250848}
GOLDEN_CUBEFREE_PALINDROMES_2_1E6 = 668


def test_criterion_8_density_ratios(table_1e7, table_1e6_acc):
    ctx10 = base_context(10)
    ok = True
    details = []
    for N in (5, 6, 7):
        rep = count_rev_kfree_primes(ctx10, 2, N, table_1e7)
        good = rep.empirical == GOLDEN_REV_KFREE_10_2[N] and 0.7 <= rep.ratio <= 1.3
        ok &= good
        details.append(f"N={N}: {rep.empirical} ratio={rep.ratio:.3f}")
    rep = count_kfree_palindromes(base_context(2), 3, 10 ** 6, table_1e6_acc)
    good = rep.empirical == GOLDEN_CUBEFREE_PALINDROMES_2_1E6 and 0.9 <= rep.ratio <= 1.1
    ok &= good
    details.append(f"b=2 k=3: {rep.empirical} ratio={rep.ratio:.3f}")
    report(8, "empirical/main-term ratios in band", ok, "; ".join(details))


def test_criterion_9_sqrt_law():
    ctx = base_context(10)
    ratios = []
    for j in range(2, 9):
        x = 10 ** j
        c = len(enumerate_palindromes(ctx, x))
        ratios.append(c / math.sqrt(x))
    spread = max(ratios) / min(ratios)
    report(9, "|P_10(x)|/sqrt(x) two-sided band over x = 1e2..1e8",
           spread <= 4.0, f"band [{min(ratios):.3f}, {max(ratios):.3f}], spread {spread:.2f}")


def test_criterion_10_endpoint_domination():
    rng = np.random.default_rng(41)
    violations = 0
    for _ in range(10 ** 4):
        b = int(rng.integers(100, 2001))
        K = int(rng.integers(2, 33))
        i = int(rng.integers(0, K))
        left, right = i / (K * b), (i + 1) / (K * b)
        theta = left + rng.random() * (right - left)
        hs = np.arange(b) / b
        inner = _capped_inv_sin(hs + theta, b)
        ends = np.maximum(_capped_inv_sin(hs + left, b), _capped_inv_sin(hs + right, b))
        if np.any(inner > ends * (1 + 1e-12)):
            violations += 1
    report(10, "endpoint domination on 1e4 random (b, K, segment, theta)",
           violations == 0, f"{violations} violations")


def test_criterion_11_brun_titchmarsh_sweep():
    ctx = base_context(10)
    stats = {}
    for x in (10 ** 6, 10 ** 7):
        pal = np.array(enumerate_palindromes(ctx, x), dtype=np.int64)
        total = len(pal)
        sup = 0.0
        for d in range(1, 1001):
            c = int(np.count_nonzero(pal % d == 0))
            sup = max(sup, c * math.sqrt(d) / total)
        stats[x] = sup
    ok = math.isfinite(stats[10 ** 7]) and stats[10 ** 7] <= stats[10 ** 6] * 1.05
    report(11, "divisibility sweep statistic bounded and non-increasing",
           ok, f"sup@1e6={stats[10 ** 6]:.4f}, sup@1e7={stats[10 ** 7]:.4f}")
