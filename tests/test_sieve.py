import math
import os
import re
import resource
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_divide_out, is_k_free, mobius_sum_oracle, mu_trial, spf_trial
from revpal import revgoldbach, sieve
from revpal.digits import base_context
from revpal.sieve import CacheVersionError, build, load_cache, save_cache


def test_build_small_examples():
    t = build(30)
    squarefree = t.kfree_at(np.arange(31), 2)
    assert squarefree[30]
    assert t.primes(0, 31).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not squarefree[12]
    assert not squarefree[0] and squarefree[1]


def test_build_rejects_bad_limits(monkeypatch):
    with pytest.raises(ValueError):
        build(1)
    monkeypatch.setattr(sieve, "DEFAULT_LIMIT_BUDGET", 5000)
    with pytest.raises(ValueError, match="exceeds memory budget 5000"):
        build(5001)
    assert build(5000).limit == 5000


def test_is_k_free_examples(table_1e5):
    assert not is_k_free(12, 2, table_1e5)
    assert is_k_free(12, 3, table_1e5)
    assert is_k_free(1, 2, table_1e5)
    assert is_k_free(1, 7, table_1e5)


def test_mobius_sum_oracle_examples():
    assert mobius_sum_oracle(4, 2) == 0
    assert mobius_sum_oracle(6, 2) == 1
    assert mobius_sum_oracle(72, 3) == 0


@settings(max_examples=400)
@given(st.integers(1, 10 ** 5), st.sampled_from([2, 3, 4]))
def test_kfree_matches_oracle_sampled(table_1e5, n, k):
    assert is_k_free(n, k, table_1e5) == (mobius_sum_oracle(n, k) == 1)


def test_squarefree_matches_kfree_status(table_1e5):
    flags = table_1e5.kfree_at(np.arange(10 ** 5 + 1), 2)
    assert flags.dtype == bool
    for n in range(1, 2000):
        assert flags[n] == is_k_free(n, 2, table_1e5)


def test_squarefree_count_1e6(table_1e6):
    count = int(np.count_nonzero(table_1e6.kfree_at(np.arange(10 ** 6 + 1), 2)))
    assert count == 607926
    assert abs(count / 10 ** 6 - 6 / math.pi ** 2) / (6 / math.pi ** 2) < 0.01


@settings(max_examples=200)
@given(st.integers(2, 300), st.integers(2, 300))
def test_squarefree_multiplicative_on_coprime_pairs(table_1e5, m, n):
    if math.gcd(m, n) == 1:
        flags = table_1e5.kfree_at(np.array([m * n, m, n]), 2)
        assert flags[0] == (flags[1] and flags[2])


def test_cache_round_trip(tmp_path):
    t = build(5000)
    path = tmp_path / "sieve_5000.bin"
    save_cache(t, path)
    t2 = load_cache(path)
    assert t2.limit == t.limit
    ns = np.arange(5001)
    assert np.array_equal(t2.kfree_at(ns, 2), t.kfree_at(ns, 2))
    assert np.array_equal(t2.is_prime(ns), t.is_prime(ns))


def test_cache_file_is_header_plus_little_endian_arrays(tmp_path):
    t = build(5000)
    path = tmp_path / "sieve_5000.bin"
    save_cache(t, path)
    # version 6: the header, then bit n of the square-free bytes for 0 <= n <= 5000
    # and bit j of the prime bytes for 2j + 1 <= 5000, both in little bit order,
    # then, from the next multiple of 8 bytes, the memo's block count: 0
    (prime, squarefree), _ = build_divide_out(5000)
    expected = (struct.pack("<4sIQ", b"RPFT", 6, 5000)
                + np.packbits(squarefree, bitorder="little").tobytes()
                + np.packbits(prime[1::2], bitorder="little").tobytes())
    expected += bytes(-len(expected) % 8) + struct.pack("<Q", 0)
    assert path.read_bytes() == expected
    assert len(expected) == 16 + (5000 // 8 + 1) + (5000 // 16 + 1) + 5 + 8


def _memo_file(tmp_path):
    """A 10^5 table's file with blocks (10, 1), uint32, and (70000, 2), int64, in that order;
    the offset of its block count; and the table."""
    t = build(10 ** 5)
    revgoldbach.reversed_prime_block(base_context(10), 1, t)
    revgoldbach.reversed_prime_block(base_context(70000), 2, t)
    path = tmp_path / "sieve_100000.bin"
    save_cache(t, path)
    return path, -(-(16 + t.sqf_bits.size + t.prime_bits.size) // 8) * 8, t


def test_cache_file_holds_the_memo_after_the_bits(tmp_path):
    # where an empty memo's file has its zero block count: the count, the index
    # rows (b, N, itemsize, size), then each block in that order, padded to 8
    # bytes: the 4 uint32 values of block (10, 1), and the int64 block (70000, 2)
    # of the primes in [70000, 10^5]
    path, start, t = _memo_file(tmp_path)
    ones, big = t._memo[10, 1], t._memo[70000, 2]
    primes = t.primes(70000, 10 ** 5 + 1).tolist()
    assert ones.dtype == np.uint32 and ones.tolist() == [2, 3, 5, 7]
    assert big.dtype == np.int64 and big.tolist() == sorted(p % 70000 * 70000 + p // 70000 for p in primes)
    save_cache(build(10 ** 5), tmp_path / "empty.bin")
    empty, data = (tmp_path / "empty.bin").read_bytes(), path.read_bytes()
    assert len(empty) == start + 8 and data[:start] == empty[:start] and empty[start:] == bytes(8)
    index = struct.pack("<Q8q", 2, 10, 1, 4, 4, 70000, 2, 8, big.size)
    blocks = ones.astype("<u4").tobytes() + big.astype("<i8").tobytes()
    assert data[start:] == index + blocks


@pytest.mark.parametrize("row, field, value", [
    (0, 2, 3),  # itemsize 3
    (1, 2, 2),  # itemsize 2
    (0, 0, 1),  # b = 1
    (1, 1, 0),  # N = 0
    (0, 3, -1),  # size -1
    (1, 0, 10),  # (10, 2) ...
])
def test_cache_rejects_a_corrupt_memo_index(tmp_path, row, field, value):
    path, start, _ = _memo_file(tmp_path)
    data = bytearray(path.read_bytes())
    at = start + 8 + 32 * row + 8 * field
    data[at:at + 8] = struct.pack("<q", value)
    if (row, field, value) == (1, 0, 10):  # ... and (10, 1) twice
        data[at + 8:at + 16] = struct.pack("<q", 1)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="sieve_100000.bin has a corrupt memo index$"):
        load_cache(path)


@pytest.mark.parametrize("edit, problem", [
    (lambda data, start: data[:-1], "is truncated"),
    (lambda data, start: data + b"\0", "is too long"),
    (lambda data, start: data[:start + 8 + 32] + bytes(8), "is truncated"),  # the index cut short
    (lambda data, start: data[:start] + struct.pack("<Q", 2 ** 64 - 1) + data[start + 8:], "is truncated"),
    (lambda data, start: data[:start] + struct.pack("<Q", 1) + data[start + 8:], "is too long"),
    (lambda data, start: data[:start + 24] + struct.pack("<q", 8) + data[start + 32:], "is truncated"),
    # a third row, read from the blocks' bytes: b = 3 << 32 | 2, itemsize 70001 (rev(70001))
    (lambda data, start: data[:start] + struct.pack("<Q", 3) + data[start + 8:], "has a corrupt memo index"),
])
def test_cache_rejects_a_memo_of_the_wrong_length(tmp_path, edit, problem):
    path, start, _ = _memo_file(tmp_path)
    path.write_bytes(edit(path.read_bytes(), start))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} {problem}"):
        load_cache(path)


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_cache_rejects_older_version_file(tmp_path, version):
    # version 1 held int32 spf before mu and Omega, 6 bytes per entry; version 2
    # held int8 mu before Omega, version 3 the square-free flags before Omega,
    # and version 4 the square-free flags before the prime flags, all 2 bytes
    # per entry: only the version tells them apart, not the length; version 5
    # held today's bits and no memo
    (prime, squarefree), omega = build_divide_out(5000)
    mu = np.where(squarefree, 1 - 2 * (omega & 1), 0).astype("<i1")
    arrays = {1: bytes(6 * 5001), 2: mu.tobytes() + omega.tobytes(),
              3: squarefree.tobytes() + omega.tobytes(),
              4: squarefree.tobytes() + prime.tobytes(),
              5: np.packbits(squarefree, bitorder="little").tobytes()
              + np.packbits(prime[1::2], bitorder="little").tobytes()}[version]
    path = tmp_path / "sieve_5000.bin"
    path.write_bytes(struct.pack("<4sIQ", b"RPFT", version, 5000) + arrays)
    with pytest.raises(CacheVersionError, match=f"sieve_5000.bin has unsupported cache version {version}"):
        load_cache(path)


def test_cache_rejects_truncated_file(tmp_path):
    path = tmp_path / "sieve_5000.bin"
    save_cache(build(5000), path)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temporary file left
    path.write_bytes(path.read_bytes()[:-1])
    # 16 header bytes, 5000 // 8 + 1 = 626 square-free bytes and 5000 // 16 + 1 = 313
    # prime bytes, padded to 960, and the 8 bytes of the memo's block count
    with pytest.raises(ValueError, match="sieve_5000.bin is truncated: limit 5000 and 0 memo blocks need 968 bytes, got 967"):
        load_cache(path)


def test_cache_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "sieve_5000.bin"
    save_cache(build(5000), path)
    with open(path, "ab") as fh:
        fh.write(b"\0")
    with pytest.raises(ValueError, match="sieve_5000.bin is too long: limit 5000 and 0 memo blocks need 968 bytes, got 969"):
        load_cache(path)


def test_loaded_table_is_read_only_and_equals_build(tmp_path):
    path = tmp_path / "sieve_5000.bin"
    save_cache(build(5000), path)
    loaded, built = load_cache(path), build(5000)
    for name in ("sqf_bits", "prime_bits"):
        arr = getattr(loaded, name)
        assert not arr.flags.writeable, name
        assert arr.dtype == getattr(built, name).dtype, name
        assert np.array_equal(arr, getattr(built, name)), name
        with pytest.raises(ValueError):
            arr[2] = 0


def test_loaded_table_kfree_at_equals_build(tmp_path):
    # the mapped bits are a uint8 view of the file's bytes
    path = tmp_path / "sieve_5000.bin"
    save_cache(build(5000), path)
    loaded, built = load_cache(path), build(5000)
    ns = np.arange(5001)
    for k in (2, 3, 4):
        assert np.array_equal(loaded.kfree_at(ns, k), built.kfree_at(ns, k)), k


def test_loaded_table_survives_a_save_over_its_file(tmp_path):
    path = tmp_path / "sieve_5000.bin"
    old = build(5000)
    save_cache(old, path)
    loaded = load_cache(path)
    # same limit, so the same file size; only the contents differ
    new = sieve.FactorTable(limit=5000, prime_bits=~old.prime_bits, sqf_bits=~old.sqf_bits)
    save_cache(new, path)
    ns = np.arange(5001)
    assert np.array_equal(loaded.kfree_at(ns, 2), old.kfree_at(ns, 2))
    assert np.array_equal(loaded.is_prime(ns), old.is_prime(ns))
    reloaded = load_cache(path)
    assert np.array_equal(reloaded.kfree_at(ns, 2), new.kfree_at(ns, 2))
    assert np.array_equal(reloaded.is_prime(ns), new.is_prime(ns))


def test_cache_rejects_garbage(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOPE" + b"\0" * 20)
    with pytest.raises(ValueError):
        load_cache(p)


def test_range_check(table_1e5):
    with pytest.raises(ValueError):
        is_k_free(10 ** 5 + 1, 2, table_1e5)
    with pytest.raises(ValueError):
        is_k_free(10, 1, table_1e5)


def _trial_row(n: int) -> tuple[bool, bool]:
    """(square-free, prime) of n >= 1 by trial division."""
    return mu_trial(n) != 0, n > 1 and spf_trial(n) == n


def test_build_matches_trial_division_around_prime_squares():
    # every limit from 2 to 300 puts the table's end on each side of the
    # p^2 boundaries, where p joins the sieve of [0, isqrt(limit)] and the
    # primes that clear the chunks above it
    expected = [_trial_row(n) for n in range(1, 301)]
    for limit in range(2, 301):
        t = build(limit)
        ns = np.arange(limit + 1)
        rows = list(zip(t.kfree_at(ns, 2).tolist(), t.is_prime(ns).tolist()))
        assert rows[1:] == expected[:limit], limit


def test_prime_flags_match_eratosthenes(table_1e5):
    flags = np.ones(10 ** 5 + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(10 ** 5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    assert np.array_equal(table_1e5.is_prime(np.arange(10 ** 5 + 1)), flags)


def test_kfree_flags_match_oracles():
    # 4096 = 64^2 = 16^3 = 8^4: for each k the largest d^k is the limit itself
    t = build(4096)
    ns = np.arange(4097)
    for k in (2, 3, 4):
        flags = t.kfree_at(ns, k)
        assert flags.shape == (4097,) and not flags[0] and not flags[4096]
        for n in range(1, 4097):
            assert flags[n] == (mobius_sum_oracle(n, k) == 1) == is_k_free(n, k, t), (n, k)
    with pytest.raises(ValueError):
        t.kfree_at(ns, 1)


def test_kfree_at_edge_where_2_to_the_k_passes_the_largest_value():
    # 4096 = 2^12 is the largest value, the only one besides 0 that is not
    # 12-free; every n >= 1 up to it is k-free for k >= 13, where no p^k is formed
    t = build(4096)
    ns = np.arange(4097)
    assert np.flatnonzero(~t.kfree_at(ns, 12)).tolist() == [0, 4096]
    for k in (13, 64):
        assert t.kfree_at(ns, k).tolist() == [False] + [True] * 4096, k


_HUGE_K = """
import contextlib, io, json
import numpy as np
from revpal import cli, sieve
assert sieve.build(1000).kfree_at(np.array([343]), 10 ** 12).tolist() == [True]
rows = []
for k in (40, 10 ** 12):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["count-palin-kfree", "--k", str(k), "--x", "1000"]) == 0
    [row] = json.loads(out.getvalue())
    assert row.pop("k") == k
    rows.append(row)
assert rows[0] == rows[1], rows
"""


def test_huge_k_forms_no_huge_power():
    # p^k for k = 10^12 would grow without bound, so the check runs in a child
    # capped at 1 GiB of address space and 60 s, which fails alone if it regresses
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    res = subprocess.run([sys.executable, "-c", _HUGE_K], env=env, preexec_fn=cap_memory,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr


def _assert_same_table(t, ref):
    # is_prime and kfree_at(., 2) against the oracle's flags, byte for byte, so
    # each gathered flag is 0 or 1; primes against the oracle's prime list
    prime, squarefree = ref
    ns = np.arange(t.limit + 1)
    assert t.is_prime(ns).tobytes() == prime.tobytes(), t.limit
    assert t.kfree_at(ns[1:], 2).tobytes() == squarefree[1:].tobytes(), t.limit
    assert np.array_equal(t.primes(0, t.limit + 1), np.flatnonzero(prime)), t.limit


_C = sieve._CHUNK


@pytest.mark.parametrize("limit", sorted({
    _C - 1, _C, _C + 1, _C + 1024, _C + 1025, 2 * _C - 1, 2 * _C, 2 * _C + 1, 2 * _C + 7,
    2 * _C + 1448, 2 * _C + 1449, 3 * _C + 5, 2 ** 18 - 1, 2 ** 18, 2 ** 18 + 1, 2 ** 19 + 7,
    3 * 2 ** 18 + 5, 10 ** 6}))
def test_build_matches_divide_out_oracle(limit):
    # the square-free bits are sieved in chunks of _C integers and the prime bits
    # in chunks of _C odd ones, so limits on each side of _C and 2 * _C end a
    # chunk of each; from 2 * _C on, the squares of the primes above 1024 exceed
    # _C and clear a chunk at most once each
    _assert_same_table(build(limit), build_divide_out(limit)[0])


def test_build_matches_divide_out_oracle_at_every_small_limit():
    # every table end from 2 to 2000, even and odd, so on each side of each
    # multiple at which a prime's strided clear stops; the prime flags must
    # be the oracle's Omega = 1
    for limit in range(2, 2001):
        _assert_same_table(build(limit), build_divide_out(limit)[0])


@pytest.mark.parametrize("limit", [4998, 4999, 2 * _C + 1])
def test_primes_and_gathers_match_divide_out_oracle_at_range_edges(limit):
    # 4999 is prime, so the last odd bit of its table is set; 2 * _C + 1 spans
    # four chunks of primes' unpacking, one for every 16 * _UNPACK integers
    t = build(limit)
    (prime, squarefree), _ = build_divide_out(limit)
    ends = [0, 1, 2, limit]
    assert t.is_prime(np.array(ends)).tolist() == prime[ends].tolist()
    assert t.kfree_at(np.array(ends), 2).tolist() == squarefree[ends].tolist()
    span = 16 * sieve._UNPACK
    ranges = [(lo, hi) for lo in (0, 1, 2, 3) for hi in (2, 3, 4)]
    ranges += [(10, 10), (11, 5), (8, 9), (-7, 0), (limit, limit)]  # empty
    ranges += [(0, limit + 2), (limit - 37, limit + 2 ** 20), (limit, limit + 1)]  # hi > limit + 1
    ranges += [(17, 4099), (1001, 1013), (4095, 4097), (span - 5, span + 45), (33, 3 * span + 99)]
    for lo, hi in ranges:
        want = np.flatnonzero(prime[:max(hi, 0)])
        got = t.primes(lo, hi)
        assert got.dtype == np.int64 and got.tolist() == want[want >= lo].tolist(), (lo, hi)


def test_primes_and_count_primes_match_a_flatnonzero_oracle_on_random_ranges():
    # about 3000 ranges of a 10^7 table: random ends and widths, ends on each
    # side of the 16 * _UNPACK-integer chunk edges, lo < 0, hi past the limit
    # and hi <= lo (empty); prime_chunks yields chunk i of _UNPACK bytes from
    # byte lo // 16, each array ascending int64 and inside its chunk
    limit = 10 ** 7
    t = build(limit)
    odd = np.flatnonzero(np.unpackbits(t.prime_bits, bitorder="little")[:(limit + 1) // 2])
    ps = np.concatenate(([2], 2 * odd + 1))
    rng = np.random.default_rng(25)
    span = 16 * sieve._UNPACK
    edges = [k * span + e for k in range(limit // span + 2) for e in (-3, -1, 0, 1, 2)]
    los = [*rng.integers(-100, limit + 100, size=1500).tolist(), *rng.choice(edges, size=1000).tolist(),
           -5, -1, 0, 1, 2, 3, limit - 1, limit, limit + 1]
    widths = np.rint(np.expm1(rng.uniform(0, np.log(3 * span), size=len(los)))).astype(int)
    ranges = [(lo, lo + w) for lo, w in zip(los, widths.tolist())]
    ranges += [(lo, lo - w) for lo, w in zip(los[:300], widths[:300].tolist())]  # hi <= lo
    ranges += [(e, e2) for e, e2 in zip(rng.choice(edges, 200).tolist(), rng.choice(edges, 200).tolist())]
    ranges += [(-7, limit + 5), (0, limit + 1), (limit - 40, 2 * limit), (3, 3), (2, 3)]
    assert len(ranges) >= 3000
    for lo, hi in ranges:
        want = ps[np.searchsorted(ps, lo):max(np.searchsorted(ps, hi), np.searchsorted(ps, lo))]
        got = t.primes(lo, hi)
        assert got.dtype == np.int64 and np.array_equal(got, want), (lo, hi)
        assert t.count_primes(lo, hi) == want.size, (lo, hi)
        chunks = list(t.prime_chunks(lo, hi))
        for i, c in enumerate(chunks):
            assert c.dtype == np.int64 and np.all(np.diff(c) > 0), (lo, hi, i)
            assert np.all(((c >> 4) - max(lo, 0) // 16) // sieve._UNPACK == i), (lo, hi, i)
        assert np.array_equal(np.concatenate([np.empty(0, np.int64), *chunks]), want), (lo, hi)


def test_build_memory_is_under_2_2_bytes_per_entry():
    # the table itself is limit / 16 + limit / 8 bytes; build keeps one chunk
    # buffer of _C bools and its packed bytes beside it, and no full-length row
    limit = 10 ** 7
    tracemalloc.start()
    try:
        build(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit // 16 + limit // 8 + 2 + 2 * _C


def test_squarefree_flags_match_stride_loop(table_1e5):
    flags = np.ones(10 ** 5 + 1, dtype=bool)
    flags[0] = False
    for d in range(2, math.isqrt(10 ** 5) + 1):
        flags[d * d :: d * d] = False
    assert np.array_equal(table_1e5.kfree_at(np.arange(10 ** 5 + 1), 2), flags)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_kfree_at_gathered_values_near_prime_powers(k, table_1e5):
    # when max(ns) is p^k itself, p must still be among the primes tried
    ps = [p for p in table_1e5.primes(2, 50).tolist() if p ** k <= 10 ** 5]
    for p in ps:
        for n in (p ** k - 1, p ** k, p ** k + 1, 2 * p ** k):
            if n <= 10 ** 5:
                got = table_1e5.kfree_at(np.array([1, n]), k)
                assert got.tolist() == [True, is_k_free(n, k, table_1e5)], (p, n)
    rng = np.random.default_rng(k)
    ns = rng.integers(0, 10 ** 5 + 1, size=2000)
    want = [n >= 1 and is_k_free(int(n), k, table_1e5) for n in ns]
    assert table_1e5.kfree_at(ns, k).tolist() == want
