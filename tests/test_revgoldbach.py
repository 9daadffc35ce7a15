import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import reversed_prime_values, reversed_prime_values_direct, scan_exceptions_mask
from revpal import experiments, revgoldbach, sieve
from revpal.digits import base_context, reverse, reverse_array, to_digits
from revpal.revgoldbach import (
    TargetClass,
    estermann_count,
    parity_class,
    prime_bound,
    representations,
    scan_exceptions,
)
from revpal.sieve import build, load_cache, save_cache


def test_parity_class():
    assert parity_class(base_context(10)) is TargetClass.ALL_TARGETS
    assert parity_class(base_context(2)) is TargetClass.EVEN_TARGETS_ONLY
    assert parity_class(base_context(3)) is TargetClass.EVEN_TARGETS_ONLY
    assert parity_class(base_context(16)) is TargetClass.ALL_TARGETS


def test_representations_examples(table_1e5):
    ctx = base_context(10)
    assert representations(ctx, 4, table_1e5) == 1   # (2, 2)
    assert representations(ctx, 5, table_1e5) == 2   # (2, 3) and (3, 2)
    assert representations(ctx, 11, table_1e5) == 0


def test_representations_symmetric_pipeline(table_1e5):
    # iterating p2 instead of p1 must give the same count
    ctx = base_context(10)
    flags = table_1e5.is_prime(np.arange(10 ** 5 + 1))
    all_rev = set(reversed_prime_values(ctx, 10 ** 4, table_1e5).tolist())
    for M in (4, 5, 6, 11, 100, 1234, 9999):
        by_p2 = sum(
            1 for p2 in np.nonzero(flags[: M - 1])[0].tolist()
            if p2 >= 2 and (M - p2) in all_rev
        )
        assert representations(ctx, M, table_1e5) == by_p2


def test_representations_match_prime_flags_count(table_1e5):
    # reverses of every prime in the table, not only those below prime_bound
    ctx = base_context(10)
    flags = table_1e5.is_prime(np.arange(10 ** 5 + 1))
    ps = np.flatnonzero(flags)
    revs = reverse_array(ps[ps % 10 != 0], ctx)
    rng = np.random.default_rng(5)
    targets = [2, 3, 4, 11, 1001, 1002, 10003, 99999, 10 ** 5]
    targets += rng.integers(2, 10 ** 5 + 1, size=20).tolist()
    for M in targets:
        direct = int(np.count_nonzero(flags[M - revs[revs <= M - 2]]))
        assert representations(ctx, M, table_1e5) == direct, M


@pytest.mark.parametrize("b", range(2, 37))
def test_prime_bound_is_largest_n_reversing_below_cap(b):
    ctx = base_context(b)
    cap_max = 2000
    best = np.ones(cap_max + 1, dtype=np.int64)  # 1: no n > 1 qualifies
    for n in range(1, b ** len(to_digits(cap_max, b))):
        r = reverse(n, ctx) if n % b else cap_max + 1
        if r <= cap_max:
            best[r] = max(best[r], n)
    best = np.maximum.accumulate(best)
    assert [prime_bound(ctx, cap) for cap in range(1, cap_max + 1)] == best[1:].tolist()
    assert prime_bound(ctx, 0) == prime_bound(ctx, -3) == 1


def test_prime_bound_just_past_a_power_of_the_base():
    ctx = base_context(10)
    assert prime_bound(ctx, 1000001) == 1000001
    assert prime_bound(ctx, 10 ** 6) == 999999
    assert prime_bound(ctx, 999999) == 999999


def test_scan_small_base10(table_1e5):
    ctx = base_context(10)
    res = scan_exceptions(ctx, 10, table_1e5)
    assert res.exceptions == ()
    res = scan_exceptions(ctx, 1000, table_1e5)
    assert res.exceptions == (11,)
    assert res.parity_class is TargetClass.ALL_TARGETS
    assert res.scanned_from == 4


def test_scan_base2_even_targets_only(table_1e5):
    ctx = base_context(2)
    res = scan_exceptions(ctx, 100, table_1e5)
    assert res.parity_class is TargetClass.EVEN_TARGETS_ONLY
    assert all(e % 2 == 0 for e in res.exceptions)
    # every listed exception really has no representation
    for e in res.exceptions:
        assert representations(ctx, e, table_1e5) == 0


def test_scan_consistency_random_targets(table_1e6):
    ctx = base_context(10)
    res = scan_exceptions(ctx, 10 ** 4, table_1e6)
    rng = np.random.default_rng(11)
    for M in rng.integers(4, 10 ** 4 + 1, size=100).tolist():
        has_rep = representations(ctx, int(M), table_1e6) > 0
        assert has_rep == (M not in res.exceptions)


@pytest.mark.parametrize("b", range(2, 37))
def test_scan_matches_representations_every_base(b, table_1e5):
    ctx = base_context(b)
    even_only = parity_class(ctx) is TargetClass.EVEN_TARGETS_ONLY
    unrepresented = [M for M in range(2, 334)
                     if not (even_only and M % 2)
                     and representations(ctx, M, table_1e5) == 0]
    # every limit up to 50, so each target is once the last, where a target
    # whose one representation is (rev(p1), 2) must not be skipped
    for limit in [*range(2, 51), 333]:
        res = scan_exceptions(ctx, limit, table_1e5)
        assert res.exceptions == tuple(M for M in unrepresented if 4 <= M <= limit), limit


def _scan_outcome(scan, ctx, limit, table):
    try:
        return scan(ctx, limit, table)
    except ValueError as exc:
        return type(exc)


# _SPARSE_RATIO settings: the scan's own, a switch to the sparse tail at the
# first check, and none while a target is pending (any count of nonzero bytes
# times 2^40 exceeds every n here)
SWITCHES = (revgoldbach._SPARSE_RATIO, 0, 2 ** 40)


# window sizes in bytes per half: 1 to 16 bytes put 16 to 256 targets in a
# window, so the limits around 64 and 1000 cross up to 63 window edges; 2^10
# bytes hold 16384 targets, so the limits around 2 * 10^4 cross one.  Those
# limits run only there: they take about 10 s a base in 1-byte windows
WINDOWS = (1, 2, 16, 2 ** 10)


def _oracle_limits(window=2 ** 10):
    # limits at every residue mod 16 around 64, 1000 and 2 * 10^4, so the last
    # packed byte of each half holds 1 to 8 targets, and limits -3 to 3, below
    # or at the first targets
    centres = (64, 1000, 2 * 10 ** 4) if window >= 2 ** 10 else (64, 1000)
    return [c + d for c in centres for d in range(-8, 8)] + [-3, 0, 1, 2, 3]


@pytest.mark.parametrize("b", range(2, 37))
def test_scan_matches_mask_oracle_every_base(b, table_1e6, monkeypatch):
    ctx = base_context(b)
    for ratio in SWITCHES:
        monkeypatch.setattr(revgoldbach, "_SPARSE_RATIO", ratio)
        for limit in _oracle_limits():
            args = (ctx, limit, table_1e6)
            assert _scan_outcome(scan_exceptions, *args) == \
                _scan_outcome(scan_exceptions_mask, *args), (ratio, limit)


@pytest.mark.parametrize("b", range(2, 37))
def test_scan_matches_mask_oracle_in_small_windows(b, table_1e6, monkeypatch):
    # a 1-byte lead hands every window off to the sparse tail at its first value
    # r >= 31, and small windows put window edges all through the limits
    ctx = base_context(b)
    want = {limit: _scan_outcome(scan_exceptions_mask, ctx, limit, table_1e6)
            for limit in _oracle_limits()}
    monkeypatch.setattr(revgoldbach, "_LEAD", 1)
    for window in WINDOWS:
        monkeypatch.setattr(revgoldbach, "_WINDOW", window)
        for ratio in SWITCHES:
            monkeypatch.setattr(revgoldbach, "_SPARSE_RATIO", ratio)
            for limit in _oracle_limits(window):
                assert _scan_outcome(scan_exceptions, ctx, limit, table_1e6) == want[limit], \
                    (window, ratio, limit)


@pytest.mark.parametrize("b", [2, 3, 10, 16])
def test_scan_switches_to_the_sparse_tail_by_itself_at_1e6(b, monkeypatch):
    # with the scan's own window, 2^20 targets, and with 2^12 bytes, 16 windows
    # at 10^6: some window switches by itself, and the one sparse tail reads on
    ctx = base_context(b)
    limit = 10 ** 6
    table = build(revgoldbach.table_limit(ctx, limit, limit - 2))
    want = scan_exceptions_mask(ctx, limit, table)
    switched = []
    tail = revgoldbach._sparse_tail

    def spy(pending, rs, prime):
        # rs reads on from the least switch of any window, () without one
        switched.append(rs != ())
        return tail(pending, rs, prime)

    monkeypatch.setattr(revgoldbach, "_sparse_tail", spy)
    for window in (revgoldbach._WINDOW, 2 ** 12):
        monkeypatch.setattr(revgoldbach, "_WINDOW", window)
        switched.clear()
        assert scan_exceptions(ctx, limit, table) == want
        assert switched == [True], window


def test_scan_runs_the_sparse_tail_at_most_once_per_call(table_1e6, monkeypatch):
    calls = []
    tail = revgoldbach._sparse_tail

    def counting(pending, rs, prime):
        calls.append(pending.size)
        return tail(pending, rs, prime)

    monkeypatch.setattr(revgoldbach, "_sparse_tail", counting)
    for window in (1, 16, revgoldbach._WINDOW):
        monkeypatch.setattr(revgoldbach, "_WINDOW", window)
        for ratio in SWITCHES:
            monkeypatch.setattr(revgoldbach, "_SPARSE_RATIO", ratio)
            for b in (2, 3, 10, 36):
                for limit in (-3, 3, 4, 100, 1000, 5000):
                    calls.clear()
                    scan_exceptions(base_context(b), limit, table_1e6)
                    assert len(calls) <= 1, (window, ratio, b, limit)


class _CountingValues:
    """Iterable over an array that counts the values read from it."""

    def __init__(self, vals):
        self.vals, self.read = vals, 0

    def __iter__(self):
        for r in self.vals:
            self.read += 1
            yield r


def _reads_expected(vals, pending, n, ratio, window, lead, is_prime):
    """How many values the scan reads: window by window from the first value, up to the
    first r >= 16 c1 or a switch (at the first r with (r + 1) >> 4 > lead, which the window
    reads but does not apply, or every 8 values, once at most the window's targets / ratio
    of its bytes are nonzero), then the one tail from the least switch, up to the first
    r > max pending - 2 over all windows."""
    reads, starts, left = 0, [], set()
    for c0 in range(0, -(-n // 16), window):
        c1 = min(c0 + window, -(-n // 16))
        here = {t for t in pending if 16 * c0 <= t < 16 * c1}
        for i, r in enumerate(vals):
            reads = max(reads, i + 1)
            if r >= 16 * c1:
                break
            if (r + 1) >> 4 > lead:
                starts.append(i)
                break
            here = {t for t in here if t < r + 2 or not is_prime[t - r]}
            if i % 8 == 7 and len({(t % 2, t // 16) for t in here}) * ratio <= min(n, 16 * c1) - 16 * c0:
                starts.append(i + 1)
                break
        left |= here
    for i in range(min(starts, default=len(vals)), len(vals)):
        reads = max(reads, i + 1)
        if vals[i] > max(left, default=0) - 2:
            break
        left = {t for t in left if t < vals[i] + 2 or not is_prime[t - vals[i]]}
    return reads


@pytest.mark.parametrize("b", range(2, 37))
def test_scan_stops_at_first_value_past_the_last_pending_byte(b, table_1e5, monkeypatch):
    # each window reads the values again from the first, and every 8 of them
    # counts its own nonzero bytes; once they are at most its targets /
    # _SPARSE_RATIO it switches, and the one sparse tail reads on from the least
    # switch up to the first r > max pending - 2.  A window with no switch stops
    # at its first r >= 16 c1, or when the values run out.  Reading on would
    # change no result, so only the count of values read shows it.  A window
    # also switches at its first r past its lead bytes, unapplied: with a
    # 1-byte lead at r >= 31, with the scan's own at none here.  Each limit runs
    # at every setting of SWITCHES, in windows of 1 and 16 bytes and the scan's
    # own, which holds every limit here
    ctx = base_context(b)
    is_prime = table_1e5.is_prime(np.arange(10 ** 5 + 1))
    even_only = parity_class(ctx) is TargetClass.EVEN_TARGETS_ONLY
    seen = []
    blocks = revgoldbach._reversed_blocks

    def counting(ctx, target, cap, table):
        # the blocks joined into one counted iterable, which the scan chains
        seen.append(_CountingValues(np.concatenate([np.empty(0, np.int64),
                                                    *blocks(ctx, target, cap, table)])))
        return [seen[-1]]

    monkeypatch.setattr(revgoldbach, "_reversed_blocks", counting)
    for lead, window in itertools.product((revgoldbach._LEAD, 1), (1, 16, revgoldbach._WINDOW)):
        monkeypatch.setattr(revgoldbach, "_LEAD", lead)
        monkeypatch.setattr(revgoldbach, "_WINDOW", window)
        for ratio in SWITCHES:
            monkeypatch.setattr(revgoldbach, "_SPARSE_RATIO", ratio)
            for limit in [*range(5, 41), 64, 67, 200, 1000, 1003]:
                scan_exceptions(ctx, limit, table_1e5)
                vals = seen[-1].vals.tolist()
                pending = {t for t in range(4, limit + 1) if not (even_only and t % 2)}
                assert max(vals, default=0) <= limit - 2
                assert seen[-1].read == _reads_expected(vals, pending, limit + 1, ratio, window, lead,
                                                        is_prime), (lead, window, ratio, limit)


def test_scan_to_1e7_builds_no_block_past_4_digits():
    table = build(10 ** 7)
    assert scan_exceptions(base_context(10), 10 ** 7, table).exceptions == (11,)
    assert sorted(table._memo) == [(10, N) for N in range(1, 5)]


def test_scan_to_1e8_on_a_fresh_table_finds_only_11():
    ctx = base_context(10)
    table = build(revgoldbach.table_limit(ctx, 10 ** 8, 10 ** 8 - 2))
    assert scan_exceptions(ctx, 10 ** 8, table).exceptions == (11,)


def test_scan_memory_does_not_grow_with_the_limit():
    # the buffers of one window, about 0.7 MB at 2^16 bytes per half, at any
    # limit; masks of the whole range would take n/8 + n/2 bytes, 6.9 MB here
    table = build(10 ** 7)
    tracemalloc.start()
    try:
        res = scan_exceptions(base_context(10), 10 ** 7, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exceptions == (11,)
    assert peak < 2 * 10 ** 6


def test_scan_memory_is_a_few_bytes_per_target(table_1e6):
    # a 1-byte mask per target, not int64 target arrays and temporaries
    limit = 10 ** 6
    tracemalloc.start()
    try:
        res = scan_exceptions(base_context(10), limit, table_1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exceptions == (11,)
    assert peak < 16 * limit


def test_scan_memory_is_under_3_bytes_per_target(table_1e6):
    # one bit per pending target and 8 shifted packed copies of the odd mask,
    # one bit per odd number: about 0.7 bytes per target, 1.0 when the
    # reversed primes are built
    limit = 10 ** 6
    tracemalloc.start()
    try:
        res = scan_exceptions(base_context(10), limit, table_1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exceptions == (11,)
    assert peak < 3 * limit


def test_estermann_examples(table_1e5):
    ctx = base_context(10)
    assert estermann_count(ctx, 1, table_1e5) == 0
    assert estermann_count(ctx, 4, table_1e5) == 2  # p in {2, 3}, both leave squarefree


def test_estermann_counts_squarefree_differences(table_1e5):
    ctx = base_context(10)
    rev_vals = reversed_prime_values(ctx, 999, table_1e5).tolist()
    squarefree = table_1e5.kfree_at(np.arange(10 ** 5 + 1), 2)
    for M in (50, 314, 1000):
        direct = sum(1 for r in rev_vals if r <= M - 1 and squarefree[M - r])
        assert estermann_count(ctx, M, table_1e5) == direct


@pytest.mark.parametrize("b", [2, 3, 5, 7])
def test_parity_soundness_of_reversed_primes(b, table_1e6):
    # for b odd or b = 2, the reverse of every odd prime is odd
    ps = table_1e6.primes(0, 10 ** 6 + 1)
    ps = ps[(ps % b != 0) & (ps != 2)]
    rev_vals = reverse_array(ps, base_context(b))
    assert np.all(rev_vals % 2 == 1)


def test_reversed_prime_values_sorted_and_correct(table_1e5):
    ctx = base_context(10)
    vals = reversed_prime_values(ctx, 500, table_1e5)
    assert np.all(np.diff(vals) > 0)
    expected = sorted(
        reverse(p, ctx)
        for p in table_1e5.primes(2, 1000).tolist()
        if p % 10 != 0 and reverse(p, ctx) <= 500
    )
    assert vals.tolist() == expected


@pytest.mark.parametrize("b", range(2, 37))
def test_reversed_prime_values_match_direct_oracle(b):
    # ascending caps build one more block at each new digit count, descending
    # caps build every block on the first call and reuse them, random caps do
    # both; a result is a new array, and writing to it leaves the memo intact
    ctx = base_context(b)
    limit = 10 ** 5
    rng = np.random.default_rng(b)
    caps = [c for c in rng.integers(-2, 3 * 10 ** 4, size=24).tolist()
            if prime_bound(ctx, c) <= limit]
    caps += [0, 1, 2, b - 1, b, b + 1, b * b]
    for order in (sorted(caps), sorted(caps, reverse=True), caps):
        table = build(limit)
        for cap in order:
            got = reversed_prime_values(ctx, cap, table)
            assert got.dtype == np.int64
            assert np.array_equal(got, reversed_prime_values_direct(ctx, cap, table)), cap
            for block in table._memo.values():
                assert not block.flags.writeable, cap
                assert not np.shares_memory(got, block), cap
            got += 1
            assert np.array_equal(reversed_prime_values(ctx, cap, table),
                                  reversed_prime_values_direct(ctx, cap, table)), cap


def _blocks_direct(b: int, table) -> dict:
    """Every block of the memo in base b, reversed one prime at a time: for
    each digit count N, the sorted reverses of the N-digit primes <= limit."""
    ctx, blocks = base_context(b), {}
    for p in table.primes(0, table.limit + 1).tolist():
        if p % b:
            blocks.setdefault((b, len(to_digits(p, b))), []).append(reverse(p, ctx))
    return {key: sorted(vals) for key, vals in blocks.items()}


def test_memo_holds_every_prime_up_to_the_table_limit():
    # block N holds the N-digit primes up to the limit, built on first read:
    # 54321 cuts block 5 at the limit, and block 6 of 10^5 holds no prime
    ctx = base_context(10)
    for limit in (10 ** 5, 54321):
        table = build(limit)
        rev_vals = reversed_prime_values_direct(ctx, 998, table)
        want = int(np.count_nonzero(table.is_prime(1000 - rev_vals)))
        assert representations(ctx, 1000, table) == want
        assert sorted(table._memo) == [(10, 1), (10, 2), (10, 3)]
        expected = _blocks_direct(10, table)
        for N in range(1, 7):
            vals = revgoldbach.reversed_prime_block(ctx, N, table)
            assert vals.tolist() == expected.get((10, N), []), (limit, N)
        assert {k: v.tolist() for k, v in table._memo.items() if v.size} == expected
        assert sum(map(len, expected.values())) == table.primes(0, limit + 1).size


def test_reverse_array_runs_once_per_table_base_and_block(monkeypatch):
    tables = build(10 ** 6), build(10 ** 6)
    calls = []

    def counting_reverse_array(ns, c):
        calls.append((c.b, ns.size))
        return reverse_array(ns, c)

    # the memo's spans are reversed through experiments.reverse_array
    monkeypatch.setattr(experiments, "reverse_array", counting_reverse_array)
    targets = [5000, 120, 900000, 3000, 900001, 40000]
    for table in tables:
        for b in (10, 31):
            ctx = base_context(b)
            counts = {M: (representations(ctx, M, table), estermann_count(ctx, M, table))
                      for M in targets}
            scan_exceptions(ctx, 10 ** 5, table)
            for M, (r, h) in counts.items():
                rev_r = reversed_prime_values_direct(ctx, M - 2, table)
                rev_h = reversed_prime_values_direct(ctx, M - 1, table)
                assert r == int(np.count_nonzero(table.is_prime(M - rev_r))), (b, M)
                assert h == int(np.count_nonzero(table.kfree_at(M - rev_h, 2))), (b, M)
    # blocks in the order first read: digit counts 1 to that of 900001,
    # 6 in base 10 and 4 in base 31, each reversed once per table and base,
    # one call per chunk of 16 * _UNPACK integers, the first from byte lo // 16
    ps = tables[0].primes(0, 10 ** 6 + 1)
    span = 16 * sieve._UNPACK
    sizes = {b: [int(np.count_nonzero((ps % b != 0) & (max(s, lo) <= ps) & (ps < min(s + span, b ** N))))
                 for N in range(1, len(to_digits(900001, b)) + 1)
                 for lo in [b ** (N - 1)]
                 for s in range(16 * (lo // 16), min(b ** N, 10 ** 6 + 1), span)]
             for b in (10, 31)}
    assert len(sizes[10]) == 9 and len(sizes[31]) == 7  # blocks 6 and 4 take four spans
    assert sum(sizes[10]) == ps.size and sum(sizes[31]) == np.count_nonzero(ps < 31 ** 4) - 1
    assert calls == [(b, size) for b in (10, 31) for size in sizes[b]] * 2


def test_reversed_prime_memo_build_memory():
    # each block costs its output, the index of the primes it reverses and at
    # most 1 MB of temporaries: reverse_array's two scratch slices and its
    # table of padded reversals.  No whole-block prime mask fits: at 10^7 it
    # would be 9 MB
    ctx = base_context(10)
    for digits in (6, 7):
        table = build(10 ** digits)
        n_primes = table.primes(0, 10 ** digits + 1).size
        tracemalloc.start()
        try:
            for N in range(1, digits + 1):
                revgoldbach.reversed_prime_block(ctx, N, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        memo = sum(v.nbytes for v in table._memo.values())
        largest = max(v.size for v in table._memo.values())
        assert sum(v.size for v in table._memo.values()) == n_primes  # no prime is divisible by 10
        assert peak <= memo + 8 * largest + 2 ** 20, digits


def test_nine_digit_block_is_exact_in_four_bytes():
    # the reversal kernel's padded accumulator reaches 10^12 on 9-digit values,
    # so it must stay int64 even though the block it fills is uint32
    ctx = base_context(10)
    table = build(10 ** 8 + 10 ** 4)
    vals = revgoldbach.reversed_prime_block(ctx, 9, table)
    assert vals.dtype == np.uint32
    want = sorted(reverse(p, ctx) for p in table.primes(10 ** 8, 10 ** 9).tolist())
    assert len(want) > 500 and vals.tolist() == want
    assert vals[:2].tolist() == [100500001, 101700001]


def test_block_past_two_to_the_32_is_int64_and_exact():
    # b = 70001 is prime: block 2 holds rev(p) = (p mod b) b + p // b for the
    # primes b < p <= 3 10^6, up to about 4.9e9
    ctx, table = base_context(70001), build(3 * 10 ** 6)
    assert revgoldbach.reversed_prime_block(ctx, 1, table).dtype == np.uint32
    vals = revgoldbach.reversed_prime_block(ctx, 2, table)
    want = sorted((p % 70001) * 70001 + p // 70001 for p in table.primes(70002, table.limit + 1).tolist())
    assert vals.dtype == np.int64 and vals.tolist() == want
    assert int(vals[-1]) > 2 ** 32
    # the table covers the targets below b, and b + t for t <= 44, which cut
    # block 2 at rev(p) = b + a <= b + t - 2, that is p = a b + 1 (prime at
    # a = 18, 30 and 42)
    rng = np.random.default_rng(70001)
    checked = 0
    for M in [*rng.integers(2, 70001, size=8).tolist(), *range(70001, 70050)]:
        if max(prime_bound(ctx, M - 1), M) > table.limit:
            continue
        rev = reversed_prime_values_direct(ctx, M - 2, table)
        assert representations(ctx, M, table) == int(np.count_nonzero(table.is_prime(M - rev))), M
        rev = reversed_prime_values_direct(ctx, M - 1, table)
        assert estermann_count(ctx, M, table) == int(np.count_nonzero(table.kfree_at(M - rev, 2))), M
        checked += 1
    assert checked >= 50 and rev[-3:].tolist() == [70019, 70031, 70043]


@pytest.mark.parametrize("b", [2, 3, 10, 16, 31, 100, 210])
def test_memo_blocks_match_direct_across_span_edges(b, monkeypatch):
    # 4-byte chunks (64 integers, from byte lo // 16) split every block from
    # b^(N-1) > 64 on; block 2 starts at b, the prime the block drops in bases
    # 2, 3 and 31 and a composite in bases 10, 16, 100 and 210
    monkeypatch.setattr(sieve, "_UNPACK", 4)
    ctx, table = base_context(b), build(20000)
    expected = _blocks_direct(b, table)
    for N in range(1, len(to_digits(table.limit, b)) + 1):
        vals = revgoldbach.reversed_prime_block(ctx, N, table)
        assert vals.tolist() == expected.get((b, N), []), (b, N)


def test_representations_temporaries_do_not_grow_with_the_block():
    # after the blocks are built, each call gathers fixed slices of _GATHER
    # values; a whole-block difference and prime index would be 9.5 MB at 10^7,
    # and a Python-int searchsorted key would copy block 7 to int64 (4.7 MB)
    ctx = base_context(10)
    table = build(10 ** 7)
    M = 9999998
    counts = representations(ctx, M, table), estermann_count(ctx, M, table)
    for call, want in zip((representations, estermann_count), counts):
        tracemalloc.start()
        try:
            got = call(ctx, M, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want and peak < 2 ** 20, call.__name__
    assert revgoldbach.reversed_prime_block(ctx, 7, table).dtype == np.uint32


@pytest.mark.parametrize("b", range(2, 37))
def test_block_sums_match_direct_at_powers_of_the_base(b, table_1e5):
    # caps b^j - 1, b^j and b^j + 1 end a block, start one and cut one;
    # representations(M) reads cap M - 2, estermann_count(M) cap M - 1
    ctx = base_context(b)
    checked = 0
    for j in range(1, len(to_digits(10 ** 5, b)) + 1):
        for cap in (b ** j - 1, b ** j, b ** j + 1):
            if max(prime_bound(ctx, cap), cap + 2) > table_1e5.limit:
                continue
            rev = reversed_prime_values_direct(ctx, cap, table_1e5)
            want = int(np.count_nonzero(table_1e5.is_prime(cap + 2 - rev)))
            assert representations(ctx, cap + 2, table_1e5) == want, (b, cap)
            want = int(np.count_nonzero(table_1e5.kfree_at(cap + 1 - rev, 2)))
            assert estermann_count(ctx, cap + 1, table_1e5) == want, (b, cap)
            checked += 1
    assert checked >= 9


def test_loaded_table_agrees_with_built(tmp_path):
    built = build(10 ** 5)
    save_cache(built, tmp_path / "sieve.bin")
    loaded = load_cache(tmp_path / "sieve.bin")
    rng = np.random.default_rng(5)
    for b in range(2, 37):
        ctx = base_context(b)
        limit = 10 ** 5
        if prime_bound(ctx, limit - 2) > limit:
            limit = b ** (len(to_digits(limit, b)) - 1)
        assert scan_exceptions(ctx, limit, loaded) == scan_exceptions(ctx, limit, built), b
        for M in rng.integers(2, limit + 1, size=8).tolist():
            assert representations(ctx, M, loaded) == representations(ctx, M, built), (b, M)
            assert estermann_count(ctx, M, loaded) == estermann_count(ctx, M, built), (b, M)


def test_memo_is_saved_but_not_shown_or_compared(tmp_path):
    fresh, used = build(10 ** 5), build(10 ** 5)
    ctx = base_context(10)
    scan_exceptions(ctx, 10 ** 4, used)
    estermann_count(ctx, 10 ** 5, used)
    assert sorted(used._memo) == [(10, N) for N in range(1, 6)] and not fresh._memo
    save_cache(fresh, tmp_path / "fresh.bin")
    save_cache(used, tmp_path / "used.bin")
    loaded = load_cache(tmp_path / "used.bin")
    assert not load_cache(tmp_path / "fresh.bin")._memo
    assert loaded._memo.keys() == used._memo.keys()
    for key, vals in used._memo.items():
        assert loaded._memo[key].dtype == vals.dtype and np.array_equal(loaded._memo[key], vals), key
    assert "_memo" not in repr(used) and repr(used) == repr(fresh) == repr(loaded)
    twin = sieve.FactorTable(limit=used.limit, prime_bits=used.prime_bits, sqf_bits=used.sqf_bits)
    assert twin == used and not twin._memo  # the same arrays, another memo


def _all_blocks(ctx, table):
    """Every block of the memo that has primes in the table: N with b^(N-1) <= limit."""
    return [revgoldbach.reversed_prime_block(ctx, N, table)
            for N in range(1, len(to_digits(table.limit, ctx.b)) + 1)]


def test_memo_round_trips_through_the_cache_for_every_base(tmp_path, monkeypatch):
    built = build(10 ** 5)
    calls = {}
    for b in range(2, 37):
        ctx = base_context(b)
        target = b ** (len(to_digits(10 ** 5, b)) - 1)  # the table covers every reverse below it
        calls[b] = [(fn, target) for fn in (scan_exceptions, representations, estermann_count)]
        _all_blocks(ctx, built)
    expected = {b: [fn(base_context(b), M, built) for fn, M in calls[b]] for b in calls}
    save_cache(built, tmp_path / "sieve.bin")
    loaded = load_cache(tmp_path / "sieve.bin")
    assert loaded._memo.keys() == built._memo.keys()
    for key, vals in built._memo.items():
        got = loaded._memo[key]
        assert (got.dtype, got.flags.writeable) == (vals.dtype, vals.flags.writeable) == (vals.dtype, False), key
        assert np.array_equal(got, vals), key
    monkeypatch.setattr(revgoldbach, "reversed_prime_spans",
                        lambda *args: pytest.fail("a memo block was rebuilt"))
    assert {b: [fn(base_context(b), M, loaded) for fn, M in calls[b]] for b in calls} == expected


def test_int64_memo_block_round_trips(tmp_path):
    # b^2 = 4.9e9 is past 2^32, so block (70000, 2) is int64; block 1 stays uint32
    ctx, built = base_context(70000), build(10 ** 5)
    blocks = _all_blocks(ctx, built)
    assert [v.dtype for v in blocks] == [np.uint32, np.int64]
    assert blocks[1].size == built.count_primes(70000, 10 ** 5 + 1) > 0
    save_cache(built, tmp_path / "sieve.bin")
    loaded = load_cache(tmp_path / "sieve.bin")
    for N, vals in enumerate(blocks, 1):
        got = loaded._memo[70000, N]
        assert got.dtype == vals.dtype and not got.flags.writeable and np.array_equal(got, vals), N
    # reverses <= 70001 come from primes <= 70001 and read block 2 up to 70001 = rev(70001)
    for fn, M in ((representations, 70003), (estermann_count, 70002)):
        assert fn(ctx, M, loaded) == fn(ctx, M, build(10 ** 5)) > 0, fn


def test_table_too_small_errors(table_1e5):
    ctx = base_context(10)
    with pytest.raises(ValueError):
        scan_exceptions(ctx, 10 ** 6, table_1e5)
    with pytest.raises(ValueError):
        representations(ctx, 10 ** 6, table_1e5)


def test_too_small_table_raises_before_building_a_block():
    # every target is within the table, but reverses <= 4000 come from
    # primes up to 9993, beyond it
    table = build(5000)
    ctx = base_context(10)
    for target, call in ((0, lambda: reversed_prime_values(ctx, 4000, table)),
                         (4002, lambda: representations(ctx, 4002, table)),
                         (4001, lambda: estermann_count(ctx, 4001, table)),
                         (4002, lambda: scan_exceptions(ctx, 4002, table))):
        msg = rf"^table limit 5000 too small; need 9993 for target {target} and reverses <= 4000$"
        with pytest.raises(ValueError, match=msg):
            call()
    assert table._memo == {}


def test_scan_result_json(table_1e5):
    ctx = base_context(10)
    res = scan_exceptions(ctx, 1000, table_1e5)
    assert res.to_dict() == {
        "base": 10, "limit": 1000, "scanned_from": 4,
        "parity_class": "all_targets", "exceptions": [11],
    }
