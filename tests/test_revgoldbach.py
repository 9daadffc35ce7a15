import tracemalloc

import numpy as np
import pytest

from oracles import reversed_prime_values, reversed_prime_values_direct, scan_exceptions_mask
from revpal import revgoldbach
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
    flags = table_1e5.omega_total == 1
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
    flags = table_1e5.omega_total == 1
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


@pytest.mark.parametrize("b", range(2, 37))
def test_scan_matches_mask_oracle_every_base(b, table_1e6, monkeypatch):
    # limits at every residue mod 16 around 64, 1000 and 2 * 10^4, so the last
    # packed byte of each half holds 1 to 8 targets, and limits -3 to 3, below
    # or at the first targets
    ctx = base_context(b)
    limits = [c + d for c in (64, 1000, 2 * 10 ** 4) for d in range(-8, 8)]
    limits += [-3, 0, 1, 2, 3]
    for ratio in SWITCHES:
        monkeypatch.setattr(revgoldbach, "_SPARSE_RATIO", ratio)
        for limit in limits:
            args = (ctx, limit, table_1e6)
            assert _scan_outcome(scan_exceptions, *args) == \
                _scan_outcome(scan_exceptions_mask, *args), (ratio, limit)


@pytest.mark.parametrize("b", [3, 10])
def test_scan_switches_to_the_sparse_tail_by_itself_at_1e6(b, monkeypatch):
    ctx = base_context(b)
    limit = 10 ** 6
    table = build(revgoldbach.table_limit(ctx, limit, limit - 2))
    switched = []
    tail = revgoldbach._sparse_tail

    def spy(live, top, rs, omega):
        # rs is the scan's own iterator after a switch, () without one
        switched.append(rs != ())
        return tail(live, top, rs, omega)

    monkeypatch.setattr(revgoldbach, "_sparse_tail", spy)
    assert scan_exceptions(ctx, limit, table) == scan_exceptions_mask(ctx, limit, table)
    assert switched == [True]


class _CountingValues:
    """Iterable over an array that counts the values read from it."""

    def __init__(self, vals):
        self.vals, self.read = vals, 0

    def __iter__(self):
        for r in self.vals:
            self.read += 1
            yield r


@pytest.mark.parametrize("b", range(2, 37))
def test_scan_stops_at_first_value_past_the_last_pending_byte(b, table_1e5, monkeypatch):
    # the packed phase reads reversed values up to the first r > 16 * top + 14,
    # top the last byte of either half still holding a pending target; every
    # 8 values it counts the nonzero bytes, and once they are at most
    # n / _SPARSE_RATIO the sparse tail reads up to the first r > max pending - 2.
    # Reading on would change no result, so only the count of values read
    # shows it; each limit runs at every setting of SWITCHES
    ctx = base_context(b)
    is_prime = table_1e5.omega_total == 1
    even_only = parity_class(ctx) is TargetClass.EVEN_TARGETS_ONLY
    seen = []
    blocks = revgoldbach._reversed_blocks

    def counting(ctx, target, cap, table):
        # the blocks joined into one counted iterable, which the scan chains
        seen.append(_CountingValues(np.concatenate([np.empty(0, np.int64),
                                                    *blocks(ctx, target, cap, table)])))
        return [seen[-1]]

    monkeypatch.setattr(revgoldbach, "_reversed_blocks", counting)
    for ratio in SWITCHES:
        monkeypatch.setattr(revgoldbach, "_SPARSE_RATIO", ratio)
        for limit in [*range(5, 41), 64, 67, 200, 1000, 1003]:
            scan_exceptions(ctx, limit, table_1e5)
            vals = seen[-1].vals.tolist()
            pending = {t for t in range(4, limit + 1) if not (even_only and t % 2)}
            expected, sparse = len(vals), False
            for i, r in enumerate(vals):
                if sparse and r > max(pending, default=0) - 2 or \
                        not sparse and r > 16 * (max(pending, default=-16) // 16) + 14:
                    expected = i + 1
                    break
                pending = {t for t in pending if t < r + 2 or not is_prime[t - r]}
                nonzero_bytes = len({(t % 2, t // 16) for t in pending})
                sparse = sparse or i % 8 == 7 and nonzero_bytes * ratio <= limit + 1
            assert seen[-1].read == expected, (ratio, limit)


def test_last_nonzero_searches_down_across_chunk_edges():
    a = np.zeros((2, 5000), dtype=np.uint8)
    for h in (0, 1):
        for i in (0, 1, 1023, 1024, 2500, 4999):
            a[:] = 0
            a[h, i] = 1
            assert [revgoldbach._last_nonzero(a, top) for top in range(i, 5000)] == \
                [i] * (5000 - i), (h, i)
            assert revgoldbach._last_nonzero(a, i - 1) == -1, (h, i)


def test_scan_to_1e7_builds_no_block_past_4_digits():
    table = build(10 ** 7)
    assert scan_exceptions(base_context(10), 10 ** 7, table).exceptions == (11,)
    assert sorted(table._memo) == [(10, N) for N in range(1, 5)]


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
    # one bit per odd number: about 0.8 bytes per target, 0.93 when the
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
    for M in (50, 314, 1000):
        direct = sum(1 for r in rev_vals if r <= M - 1 and table_1e5.squarefree[M - r])
        assert estermann_count(ctx, M, table_1e5) == direct


@pytest.mark.parametrize("b", [2, 3, 5, 7])
def test_parity_soundness_of_reversed_primes(b, table_1e6):
    # for b odd or b = 2, the reverse of every odd prime is odd
    ps = np.flatnonzero(table_1e6.omega_total == 1)
    ps = ps[(ps % b != 0) & (ps != 2)]
    rev_vals = reverse_array(ps, base_context(b))
    assert np.all(rev_vals % 2 == 1)


def test_reversed_prime_values_sorted_and_correct(table_1e5):
    ctx = base_context(10)
    vals = reversed_prime_values(ctx, 500, table_1e5)
    assert np.all(np.diff(vals) > 0)
    expected = sorted(
        reverse(p, ctx)
        for p in range(2, 1000)
        if table_1e5.omega_total[p] == 1 and p % 10 != 0 and reverse(p, ctx) <= 500
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
    for p in np.flatnonzero(table.omega_total == 1).tolist():
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
        want = int(np.count_nonzero(table.omega_total[1000 - rev_vals] == 1))
        assert representations(ctx, 1000, table) == want
        assert sorted(table._memo) == [(10, 1), (10, 2), (10, 3)]
        expected = _blocks_direct(10, table)
        for N in range(1, 7):
            vals = revgoldbach.reversed_prime_block(ctx, N, table)
            assert vals.tolist() == expected.get((10, N), []), (limit, N)
        assert {k: v.tolist() for k, v in table._memo.items() if v.size} == expected
        assert sum(map(len, expected.values())) == np.count_nonzero(table.omega_total == 1)


def test_reverse_array_runs_once_per_table_base_and_block(monkeypatch):
    tables = build(10 ** 6), build(10 ** 6)
    calls = []

    def counting_reverse_array(ns, c):
        calls.append((c.b, ns.size))
        return reverse_array(ns, c)

    monkeypatch.setattr(revgoldbach, "reverse_array", counting_reverse_array)
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
                assert r == int(np.count_nonzero(table.omega_total[M - rev_r] == 1)), (b, M)
                assert h == int(np.count_nonzero(table.squarefree[M - rev_h])), (b, M)
    # blocks in the order first read: digit counts 1 to that of 900001,
    # 6 in base 10 and 4 in base 31, each reversed once per table and base
    ps = np.flatnonzero(tables[0].omega_total == 1)
    sizes = {b: [int(np.count_nonzero((ps % b != 0) & (b ** (N - 1) <= ps) & (ps < b ** N)))
                 for N in range(1, len(to_digits(900001, b)) + 1)]
             for b in (10, 31)}
    assert sum(sizes[10]) == ps.size and sum(sizes[31]) == np.count_nonzero(ps < 31 ** 4) - 1
    assert calls == [(b, size) for b in (10, 31) for size in sizes[b]] * 2


def test_reversed_prime_memo_build_memory():
    # each block costs its output, the index of the primes it reverses and at
    # most 1 MB of temporaries: the block's prime mask, or reverse_array's
    # two scratch slices and its table of padded reversals
    table = build(10 ** 6)
    ctx = base_context(10)
    n_primes = int(np.count_nonzero(table.omega_total == 1))
    tracemalloc.start()
    try:
        for N in range(1, 7):
            revgoldbach.reversed_prime_block(ctx, N, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    memo = sum(v.nbytes for v in table._memo.values())
    largest = max(v.size for v in table._memo.values())
    assert sum(v.size for v in table._memo.values()) == n_primes  # no prime is divisible by 10
    assert peak <= memo + 8 * largest + 2 ** 20


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
            want = int(np.count_nonzero(table_1e5.omega_total[cap + 2 - rev] == 1))
            assert representations(ctx, cap + 2, table_1e5) == want, (b, cap)
            want = int(np.count_nonzero(table_1e5.squarefree[cap + 1 - rev]))
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


def test_memo_is_not_saved_or_shown(tmp_path):
    fresh, used = build(10 ** 5), build(10 ** 5)
    ctx = base_context(10)
    scan_exceptions(ctx, 10 ** 4, used)
    estermann_count(ctx, 10 ** 5, used)
    assert used._memo and not fresh._memo
    save_cache(fresh, tmp_path / "fresh.bin")
    save_cache(used, tmp_path / "used.bin")
    assert (tmp_path / "fresh.bin").read_bytes() == (tmp_path / "used.bin").read_bytes()
    assert "_memo" not in repr(used) and repr(used) == repr(fresh)


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
