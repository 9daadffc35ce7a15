import json
import math
import tracemalloc
from math import isqrt

import numpy as np
import pytest

from oracles import (
    brute_force_palindromes,
    build_divide_out,
    count_rev_kfree_primes_via_kfree,
    reversed_prime_values,
    reversed_primes_in_class_direct,
    spf_trial,
)
from revpal import experiments, sieve
from revpal.cli import render
from revpal.digits import base_context, reverse_array
from revpal.experiments import (
    count_almost_prime_palindromes,
    count_kfree_palindromes,
    count_palindromes_div_by,
    count_rev_kfree_primes,
    enumerate_palindromes,
    rev_pi_star,
    sqrt_law_check,
)
from revpal.sieve import build


def test_palindrome_enumeration_base10_small():
    ctx = base_context(10)
    pal = enumerate_palindromes(ctx, 100)
    assert pal.dtype == np.int64
    assert pal.tolist() == list(range(1, 10)) + [11, 22, 33, 44, 55, 66, 77, 88, 99]
    assert enumerate_palindromes(ctx, 100, star=True).tolist() == [1, 7]


def test_single_digits_are_palindromes():
    for b in (2, 5, 10, 16):
        ctx = base_context(b)
        assert enumerate_palindromes(ctx, b - 1).tolist() == list(range(1, b))


# b^3 - b is past int64 from b = 2^21 + 1
@pytest.mark.parametrize("b", [2, 3, 10, 16, 2 ** 21, 2 ** 21 + 1, 3 * 10 ** 6])
def test_enumeration_matches_brute_force(b):
    ctx = base_context(b)
    for x in (0, 1, 50, 1221, 3000, 10 ** 4):
        assert enumerate_palindromes(ctx, x).tolist() == brute_force_palindromes(ctx, x)
        assert enumerate_palindromes(ctx, x, star=True).tolist() == brute_force_palindromes(ctx, x, star=True)


def test_enumeration_is_sorted_and_bounded():
    ctx = base_context(3)
    pal = enumerate_palindromes(ctx, 10 ** 5).tolist()
    assert pal == sorted(pal)
    assert all(1 <= n <= 10 ** 5 and n % 3 != 0 for n in pal)


def test_count_rev_kfree_primes_single_digit(table_1e5):
    ctx = base_context(10)
    rep = count_rev_kfree_primes(ctx, 2, 1, table_1e5)
    assert rep.empirical == 1  # only p = 7 has reverse coprime to 990


def test_count_rev_kfree_primes_two_digit(table_1e5):
    ctx = base_context(10)
    rep = count_rev_kfree_primes(ctx, 2, 2, table_1e5)
    # reversed two-digit primes landing in B*_2: {31,71,13,73,17,37,97,79,91}
    assert rep.empirical == 9
    assert rep.main_term > 0
    assert rep.ratio == rep.empirical / rep.main_term


def test_count_bounded_by_prime_count(table_1e5):
    ctx = base_context(10)
    for N in (1, 2, 3, 4):
        rep = count_rev_kfree_primes(ctx, 2, N, table_1e5)
        pi_bn = table_1e5.primes(10 ** (N - 1), 10 ** N).size
        assert 0 <= rep.empirical <= pi_bn


@pytest.mark.parametrize("b,N", [(10, 2), (10, 3), (10, 4), (2, 8), (3, 6)])
def test_two_pipelines_agree(b, N, table_1e5):
    ctx = base_context(b)
    forward = count_rev_kfree_primes(ctx, 2, N, table_1e5).empirical
    backward = count_rev_kfree_primes_via_kfree(ctx, 2, N, table_1e5)
    assert forward == backward


def test_rev_pi_star_examples(table_1e5):
    ctx = base_context(10)
    assert rev_pi_star(ctx, 2, 1, table_1e5).empirical == 9
    # only 91 among the nine reversed values is divisible by 7
    assert rev_pi_star(ctx, 2, 7, table_1e5).empirical == 1
    assert rev_pi_star(ctx, 2, 101, table_1e5).empirical == 0
    # the largest d below b^N coprime to 990, and a d past int64, which divides no reverse
    assert rev_pi_star(ctx, 2, 97, table_1e5).empirical == 1
    assert rev_pi_star(ctx, 2, 10 ** 20 + 1, table_1e5).empirical == 0


def test_rev_pi_star_rejects_shared_factor(table_1e5):
    ctx = base_context(10)
    with pytest.raises(ValueError):
        rev_pi_star(ctx, 2, 11, table_1e5)


def test_count_kfree_palindromes_small(table_1e5):
    ctx = base_context(10)
    rep = count_kfree_palindromes(ctx, 3, 100, table_1e5)
    assert rep.empirical == 2  # 1 and 7 are both cube-free
    pstar = len(enumerate_palindromes(ctx, 100, star=True))
    assert rep.empirical <= pstar


def test_count_palindromes_div_by(table_1e5):
    ctx = base_context(10)
    assert count_palindromes_div_by(ctx, 100, 11) == 9
    assert count_palindromes_div_by(ctx, 100, 1) == 18
    assert count_palindromes_div_by(ctx, 100, 1, star=True) == 2
    # d = x counts x alone; a larger d, even past int64, counts nothing
    assert count_palindromes_div_by(ctx, 99, 99) == 1
    assert count_palindromes_div_by(ctx, 99, 100) == 0
    assert count_palindromes_div_by(ctx, 1000, 10 ** 20 - 1, star=True) == 0


def test_ratio_is_none_where_the_main_term_is_not_positive():
    rep = experiments.CountReport(label="x", b=10, k=2, N_or_x=3, d=None, empirical=5, main_term=0.0)
    assert rep.ratio is None and rep.to_dict()["ratio"] is None


def test_almost_prime_palindromes(table_1e5):
    ctx = base_context(10)
    # omega_max = 0 counts only n = 1
    assert count_almost_prime_palindromes(ctx, 10 ** 4, 0, table=table_1e5) == 1
    # omega_max = 1 counts 1 and the palindromic primes
    direct = 1 + int(np.count_nonzero(
        table_1e5.is_prime(enumerate_palindromes(ctx, 10 ** 4))))
    assert count_almost_prime_palindromes(ctx, 10 ** 4, 1, table=table_1e5) == direct
    loose = count_almost_prime_palindromes(ctx, 10 ** 4, 6, kfree_k=3, table=table_1e5)
    tight = count_almost_prime_palindromes(
        ctx, 10 ** 4, 6, kfree_k=3, rough_exponent=1 / 21, table=table_1e5)
    assert loose >= tight


def test_palindrome_omega_matches_divide_out_oracle(table_1e5):
    # x = p^3 - 1, p^3 and p^3 + 1 put x on each side of the cut p^3 <= x of
    # the primes divided out; a palindromic cube p^3 <= x is right only if p
    # is divided out.  Every member of P_b(x) is compared with Omega by division
    _, omega = build_divide_out(10 ** 5)
    xs = sorted({p ** 3 + d for p in table_1e5.primes(2, 47).tolist() for d in (-1, 0, 1)})
    cubes = set()
    for b in range(2, 17):
        ctx = base_context(b)
        for x in xs + [10 ** 5]:
            pal = enumerate_palindromes(ctx, x)
            ps = table_1e5.primes(0, isqrt(x) + 1)
            assert experiments._omega(pal, x, ps, table_1e5).tolist() == omega[pal].tolist(), (b, x)
            cubes.update((b, x) for p in ps.tolist() if p ** 3 == x and x in pal)
    assert {(2, 27), (10, 343), (10, 1331)} <= cubes


def test_palindrome_counts_on_a_too_small_table_raise():
    table, ctx = build(1000), base_context(10)
    for count in (lambda: count_almost_prime_palindromes(ctx, 1001, 6, table=table),
                  lambda: count_kfree_palindromes(ctx, 3, 1001, table)):
        with pytest.raises(ValueError, match=r"^table limit 1000 too small for x = 1001$"):
            count()
    with pytest.raises(TypeError):
        count_almost_prime_palindromes(ctx, 1000, 6)


ROUGH_EXPONENTS = [0, 0.0476, 0.25, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.7, 1, 1.5]


@pytest.mark.parametrize("b", [2, 3, 10, 16])
@pytest.mark.parametrize("x", [0, 1, 2, 100, 10 ** 4, 12345, 10 ** 5])
def test_rough_filter_matches_trial_division_spf(b, x, table_1e5):
    # at x = 100 and 10^4 with e = 0.5, y = sqrt(x) exactly; with e = 1.5, y > x
    ctx = base_context(b)
    pal = enumerate_palindromes(ctx, x).tolist()
    spf = [1 if n == 1 else spf_trial(n) for n in pal]
    for e in ROUGH_EXPONENTS:
        want = sum(n == 1 or p >= x ** e for n, p in zip(pal, spf))
        got = count_almost_prime_palindromes(ctx, x, 64, rough_exponent=e, table=table_1e5)
        assert got == want, (b, x, e)


@pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf])
def test_rough_exponent_must_be_finite(e, table_1e5):
    with pytest.raises(ValueError, match="rough_exponent must be finite"):
        count_almost_prime_palindromes(base_context(10), 1000, 6, rough_exponent=e, table=table_1e5)


def test_sqrt_law_check():
    ctx = base_context(10)
    rows = sqrt_law_check(ctx, [10 ** j for j in range(2, 7)])
    for x, count, norm in rows:
        assert norm == pytest.approx(count / math.sqrt(x))
    star_rows = sqrt_law_check(ctx, [10 ** j for j in range(2, 7)], star=True)
    for (_, _, n1), (_, _, n2) in zip(star_rows, rows):
        assert n1 <= n2


@pytest.mark.parametrize("b", range(2, 37))
def test_palindrome_count_matches_enumeration_and_brute_force(b):
    top = 3 * 10 ** 6
    ctx = base_context(b)
    pal = enumerate_palindromes(ctx, top)
    powers = [b ** k + e for k in range(1, top.bit_length()) for e in (-1, 0, 1) if b ** k + e <= top]
    sample = np.random.default_rng(b).integers(0, top + 1, 300).tolist()
    for x in [-1, 0, 1, b - 1, b, b + 1, top, *powers, *sample]:
        assert experiments._palindrome_count(b, x) == np.searchsorted(pal, x, "right"), x
    brute = brute_force_palindromes(ctx, 1000)
    for x in range(-1, 1001):
        assert experiments._palindrome_count(b, x) == np.searchsorted(brute, x, "right"), x


@pytest.mark.parametrize("b", [2, 3, 10, 16])
@pytest.mark.parametrize("star", [False, True])
def test_sqrt_law_check_equals_its_per_x_enumeration(b, star):
    ctx = base_context(b)
    members = enumerate_palindromes(ctx, 10 ** 6, star=True)[::37].tolist()  # x in P*: cut after it
    xs = sorted({10 ** j for j in range(2, 7)} | set(members))
    want = []
    for x in xs:
        c = len(enumerate_palindromes(ctx, x, star))
        want.append((x, c, c / math.sqrt(x)))
    assert sqrt_law_check(ctx, xs, star) == want


def test_sqrt_law_check_counts_without_an_array(monkeypatch):
    ctx = base_context(10)
    monkeypatch.setattr(experiments, "enumerate_palindromes", None)  # any call fails
    sqrt_law_check(ctx, [10])
    tracemalloc.start()
    rows = sqrt_law_check(ctx, [10 ** j for j in (2, 4, 6, 8, 10, 30, 40)])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert [c for _, c, _ in rows] == [
        18, 198, 1998, 19998, 199998, 1999999999999998, 199999999999999999998]
    assert peak < 16 * 1024  # an enumeration to 10^10 alone holds 1.6 MB


def test_sqrt_law_check_refuses_an_x_past_a_float():
    ctx = base_context(10)
    top = 2 ** 1024 - 2 ** 970  # the least int that float() rounds past the largest double
    with pytest.raises(OverflowError):
        math.sqrt(top)
    [(_, c, ratio)] = sqrt_law_check(ctx, [top - 1])
    assert ratio == c / math.sqrt(top - 1)
    for x in (top, 10 ** 400):
        with pytest.raises(ValueError, match="overflows a float"):
            sqrt_law_check(ctx, [1, x])


def test_count_rev_kfree_primes_same_on_small_and_large_tables(table_1e6):
    ctx = base_context(10)
    small = count_rev_kfree_primes(ctx, 2, 3, build(10 ** 4))
    assert count_rev_kfree_primes(ctx, 2, 3, table_1e6) == small


def test_counting_reverses_each_tables_primes_once(monkeypatch):
    table = build(10 ** 6)
    inputs = []

    def recording_reverse_array(ns, c):
        inputs.append(ns)
        return reverse_array(ns, c)

    monkeypatch.setattr(experiments, "reverse_array", recording_reverse_array)
    for b, n_max in ((10, 6), (7, 7)):
        ctx = base_context(b)
        for N in range(1, n_max + 1):
            direct = reversed_primes_in_class_direct(ctx, N, table)
            # the in-class N-digit primes: reversal is an involution on B_N
            in_class = np.sort(reverse_array(np.sort(direct), ctx)).tolist()
            for k in (2, 3):
                inputs.clear()
                got = count_rev_kfree_primes(ctx, k, N, table).empirical
                assert got == int(np.count_nonzero(table.kfree_at(direct, k))), (b, N, k)
                assert np.sort(np.concatenate(inputs)).tolist() == in_class, (b, N, k)
            for d in (1, 13, 97):
                inputs.clear()
                got = rev_pi_star(ctx, N, d, table).empirical
                assert got == int(np.count_nonzero(direct % d == 0)), (b, N, d)
                # no reverse below b^N has a divisor d >= b^N, so none is read
                read = np.sort(np.concatenate([np.empty(0, np.int64), *inputs])).tolist()
                assert read == (in_class if d < b ** N else []), (b, N, d)
    assert table._memo == {}


def test_first_count_at_N_reverses_only_the_N_digit_primes(monkeypatch):
    table = build(10 ** 6)
    reversed_inputs = []

    def recording_reverse_array(ns, c):
        reversed_inputs.append(ns.tolist())
        return reverse_array(ns, c)

    monkeypatch.setattr(experiments, "reverse_array", recording_reverse_array)
    ctx = base_context(10)
    direct = reversed_primes_in_class_direct(ctx, 3, table)
    got = count_rev_kfree_primes(ctx, 2, 3, table).empirical
    assert got == int(np.count_nonzero(table.kfree_at(direct, 2)))
    ps = table.primes(100, 1000).tolist()
    assert reversed_inputs == [[p for p in ps if p // 100 == d] for d in (1, 3, 7, 9)]
    assert table._memo == {}


def test_reversed_primes_in_class_match_direct_in_every_base(table_1e5):
    # the digit-invariant filter is gcd(v, b^3 - b) == 1; at 100 and 210 the
    # prime q = b + 1 dividing b^2 - 1 has two digits
    for b in [*range(2, 37), 100, 210, 1000]:
        ctx = base_context(b)
        N = 1
        while b ** N - 1 <= 10 ** 5:
            got = np.sort(np.concatenate(list(experiments._reversed_primes_in_class(ctx, N, table_1e5))))
            direct = reversed_primes_in_class_direct(ctx, N, table_1e5)
            assert got.tolist() == np.sort(direct).tolist(), (b, N)
            vals = reversed_prime_values(ctx, b ** N - 1, table_1e5)
            vals = vals[np.searchsorted(vals, b ** (N - 1)):]
            assert np.array_equal(got, vals[np.gcd(vals, ctx.b3mb) == 1]), (b, N)
            N += 1


@pytest.mark.parametrize("b", [*range(2, 17), 100, 210, 1000])
def test_counts_match_oracles_across_span_edges(b, table_1e5, monkeypatch):
    # 4-byte chunks (64 integers, from byte lo // 16) split each leading digit's
    # range once b^(N-1) > 64; at b = 100 and 210 the chunk holding b holds the
    # prime q = b + 1 | b^3 - b
    monkeypatch.setattr(sieve, "_UNPACK", 4)
    ctx = base_context(b)
    N = 1
    while b ** N - 1 <= table_1e5.limit:
        direct = reversed_primes_in_class_direct(ctx, N, table_1e5)
        for k in (2, 3):
            got = count_rev_kfree_primes(ctx, k, N, table_1e5).empirical
            assert got == int(np.count_nonzero(table_1e5.kfree_at(direct, k))), (b, N, k)
            assert got == count_rev_kfree_primes_via_kfree(ctx, k, N, table_1e5), (b, N, k)
        for d in (1, 13, 97):
            if math.gcd(d, ctx.b3mb) == 1:
                got = rev_pi_star(ctx, N, d, table_1e5).empirical
                assert got == int(np.count_nonzero(direct % d == 0)), (b, N, d)
        N += 1


@pytest.mark.parametrize("N", [7, 8])
def test_count_rev_kfree_primes_memory_does_not_grow_with_the_block(N):
    # the N = 8 block holds 5,096,876 primes, 40 MB as int64
    table = build(10 ** N)
    tracemalloc.start()
    try:
        count_rev_kfree_primes(base_context(10), 2, N, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


def test_reversed_prime_counts_hold_one_span_at_a_time():
    # each leading digit d reads the about 66,000 primes of [d 10^6, (d + 1) 10^6) as one
    # span; the peak is inside reverse_array's build of a span: 606 KB when nothing else
    # holds one, 748 KB when a suspended generator frame keeps the previous one alive
    table, ctx = build(10 ** 7), base_context(10)
    count_rev_kfree_primes(ctx, 2, 7, table)  # fill the digit tables outside the trace
    for count in (lambda: count_rev_kfree_primes(ctx, 2, 7, table), lambda: rev_pi_star(ctx, 7, 13, table)):
        tracemalloc.start()
        try:
            count()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 680_000, peak


def test_counting_on_a_too_small_table_raises_before_reversing():
    table = build(10 ** 4)
    ctx = base_context(10)
    for count in (lambda: count_rev_kfree_primes(ctx, 2, 5, table),
                  lambda: rev_pi_star(ctx, 5, 7, table)):
        with pytest.raises(ValueError, match=r"^table limit 10000 too small for b\^N = 100000$"):
            count()
    assert table._memo == {}


def test_rev_pi_star_with_d_past_b_to_the_N_checks_the_table_and_reverses_nothing(monkeypatch):
    def no_reverse_array(ns, c):
        raise AssertionError("reverse_array called")

    monkeypatch.setattr(experiments, "reverse_array", no_reverse_array)
    ctx = base_context(10)
    assert rev_pi_star(ctx, 7, 10 ** 20 + 1, build(10 ** 7)).empirical == 0
    with pytest.raises(ValueError, match=r"^table limit 10000 too small for b\^N = 10000000$"):
        rev_pi_star(ctx, 7, 10 ** 20 + 1, build(10 ** 4))


@pytest.mark.parametrize("N", [0, -1, -3])
def test_reversed_prime_counts_reject_N_below_1_before_the_table(N):
    # b^N is a float for N < 0, so a table read would fail as a TypeError
    table = build(100)
    ctx = base_context(10)
    for count in (lambda: count_rev_kfree_primes(ctx, 2, N, table),
                  lambda: rev_pi_star(ctx, N, 7, table)):
        with pytest.raises(ValueError, match=f"^N must be >= 1, got {N}$"):
            count()
    assert table._memo == {}


@pytest.mark.parametrize("d", [0, -1, -2, -7])
def test_rev_pi_star_rejects_d_below_1_before_counting(d, table_1e5, monkeypatch):
    # the sign is checked first: -1 and -7 pass the gcd test, 0 and -2 fail it
    monkeypatch.setattr(experiments, "_reversed_primes_in_class", None)
    with pytest.raises(ValueError, match=f"^d must be >= 1, got {d}$"):
        rev_pi_star(base_context(10), 3, d, table_1e5)


def test_report_serialization_round_trip(table_1e5):
    ctx = base_context(10)
    rep = count_rev_kfree_primes(ctx, 2, 3, table_1e5)
    parsed = json.loads(render([rep], "json"))
    assert parsed == [rep.to_dict()]
    csv_text = render([rep], "csv")
    lines = csv_text.strip().split("\n")
    assert lines[0] == "label,b,k,N_or_x,d,empirical,main_term,ratio"
    assert len(lines) == 2
    assert lines[1].startswith(f"rev_kfree_primes,10,2,3,,{rep.empirical}")
