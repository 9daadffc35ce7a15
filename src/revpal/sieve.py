"""Bulk arithmetic oracles on [1, limit]: prime and square-free bits, k-free tests.

Memory layout: read-only uint8 arrays in little bit order.  Bit j of prime_bits says 2j + 1
is prime (limit // 16 + 1 bytes, so n >> 1 is in range for every n <= limit; the readers
add 2); bit n of sqf_bits says n >= 1 is square-free (limit // 8 + 1 bytes).  That is about
0.19 bytes per entry, and DEFAULT_LIMIT_BUDGET guards memory alone.  A table from load_cache
is a read-only map of its file, memo included: only the pages a call reads become resident.
"""

import mmap
import os
import struct
from dataclasses import dataclass, field
from itertools import accumulate
from math import isqrt
from pathlib import Path

import numpy as np

DEFAULT_LIMIT_BUDGET = 2 ** 31

_CACHE_MAGIC = b"RPFT"
_CACHE_VERSION = 6
_MEMO_DTYPES = {4: np.dtype("<u4"), 8: np.dtype("<i8")}  # a memo block's type by its itemsize

_CHUNK = 2 ** 20  # entries per chunk of _packed_sieve, a multiple of 8
_UNPACK = 2 ** 14  # bytes per chunk that prime_chunks unpacks: 2^18 integers


class CacheVersionError(ValueError):
    """A cache file of another format version: stale, not corrupt."""


def check_k(k: int | None, least: int = 2) -> None:
    """The one check of a k-free count's k: k >= least (2, or 3 for palindromes), or None."""
    if k is not None and k < least:
        raise ValueError(f"k must be >= {least}, got {k}")


@dataclass(frozen=True)
class FactorTable:
    """Immutable sieve output over [0, limit], packed in bits (see the module docstring).

    _memo maps (b, N) to a sorted reversed-prime block of the reverse-Goldbach calls, 4 bytes a value
    below 2^32 (see revgoldbach.reversed_prime_block; the counts stream theirs); save_cache writes
    it, load_cache maps it back read-only, and it is never compared or shown.
    """

    limit: int
    prime_bits: np.ndarray  # uint8, bit j: 2j + 1 is prime
    sqf_bits: np.ndarray  # uint8, bit n: n >= 1 with no p^2 | n
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def is_prime(self, ns: np.ndarray) -> np.ndarray:
        """Boolean array over the integer array ns of values in [0, limit], True at the primes.
        n's low byte places its bit, so the byte index is the one temporary as wide as ns."""
        low = ns.astype(np.uint8)  # bit 0: n is odd
        return (self.prime_bits[ns >> 4] >> (low >> 1 & 7) & low & 1).view(bool) | (ns == 2)

    def _odd_prime_flags(self, lo: int, hi: int):
        """(j, flags) per _UNPACK bytes of prime_bits: flags[i] says 2(j + i) + 1 in [lo, hi) is prime."""
        j0 = max(lo, 0) // 2
        j1 = max(min(hi, self.limit + 1) // 2, j0)
        end = -(-j1 // 8)
        for a in range(j0 >> 3, end, _UNPACK):  # bool: 4x faster; no local holds a chunk at the yield
            yield max(8 * a, j0), np.unpackbits(self.prime_bits[a:min(a + _UNPACK, end)],
                                                bitorder="little").view(bool)[max(j0 - 8 * a, 0):j1 - 8 * a]

    def count_primes(self, lo: int, hi: int) -> int:
        """The number of primes p with lo <= p < hi and p <= limit."""
        return int(lo <= 2 < hi) + sum(int(np.count_nonzero(f)) for _, f in self._odd_prime_flags(lo, hi))

    def prime_chunks(self, lo: int, hi: int):
        """The primes p with lo <= p < hi and p <= limit, as ascending int64 arrays, one per chunk of
        _odd_prime_flags (the first starts at byte lo // 16), each unpacked once; 2 leads the first."""
        two = lo <= 2 < hi
        for j, flags in self._odd_prime_flags(lo, hi):
            ps = 2 * np.flatnonzero(flags) + (2 * j + 1)
            del flags  # free the unpacked chunk before the yield
            yield np.concatenate(([2], ps)) if two else ps
            two = False

    def primes(self, lo: int, hi: int) -> np.ndarray:
        """The primes p with lo <= p < hi and p <= limit, as one ascending int64 array."""
        return np.concatenate([np.empty(0, np.int64), *self.prime_chunks(lo, hi)])

    def kfree_at(self, ns: np.ndarray, k: int) -> np.ndarray:
        """Boolean array over the int64 array ns of values in [0, limit], True
        at n >= 1 with no d^k | n, d >= 2; for k = 2 the square-free bits.
        A square-free n is k-free for every k, so for k >= 3 only the other
        values are tried, against p^k for the primes p with p^k <= their max;
        there are none once 2^k > max, and p^k is never formed then."""
        check_k(k)
        flags = (self.sqf_bits[ns >> 3] >> (ns.astype(np.uint8) & 7) & 1).view(bool)  # bit n & 7 of its byte
        if k == 2:
            return flags
        at = np.flatnonzero(~flags)
        rest = ns[at]
        top = int(rest.max(initial=0))
        keep = rest >= 1
        root = isqrt(top) if k < top.bit_length() else 0  # else 2^k > top
        for p in self.primes(0, root + 1).tolist():
            if p ** k > top:
                break
            keep &= rest % p ** k != 0
        flags[at] = keep
        return flags


def _packed_sieve(nbytes: int, size: int, firsts: list[int], steps: list[int], pre: int) -> np.ndarray:
    """nbytes of read-only little-order bits, those 0 < i < size set but at firsts[t] + m steps[t], m >= 0.

    The steps ascend.  Chunks [a, a + _CHUNK) are sieved in one reused bool buffer and packed,
    so each progression passes over a chunk in cache and no full-length bool array exists.
    Each chunk starts from one period of the first pre progressions (coprime steps) run down
    to their least terms, which are set back; any other term below firsts[t] must be cleared
    anyway (see build).  The loop over the rest is Python, so the chunk is large (at 2^18
    entries build(10**9) took twice as long); steps >= _CHUNK hit a chunk at most once, in one gather.
    """
    out, buf = np.zeros(nbytes, dtype=np.uint8), np.empty(min(_CHUNK, size), dtype=bool)
    least = [first % step for first, step in zip(firsts[:pre], steps[:pre])]
    period = np.ones(np.prod(steps[:pre]), dtype=bool)
    for r, step in zip(least, steps[:pre]):
        period[r::step] = False
    few = sum(step < _CHUNK for step in steps)
    big_first, big_step = np.array(firsts[few:], dtype=np.int64), np.array(steps[few:], dtype=np.int64)
    for a in range(0, size, _CHUNK):
        seg = buf[:size - a]
        fill, whole = np.roll(period, -(a % period.size)), seg.size - seg.size % period.size
        seg[:whole].reshape(-1, period.size)[:] = fill
        seg[whole:] = fill[:seg.size - whole]
        if a == 0:
            seg[[r for r in least if r < seg.size]] = True
        for first, step in zip(firsts[pre:few], steps[pre:few]):
            seg[max(first - a, (first - a) % step)::step] = False
        at = np.maximum(big_first - a, (big_first - a) % big_step)
        seg[at[at < seg.size]] = False
        out[a // 8:a // 8 + -(-seg.size // 8)] = np.packbits(seg, bitorder="little")
    out[0] &= 0xFE  # 1 is not prime, 0 is not square-free
    out.setflags(write=False)
    return out


def build(limit: int) -> FactorTable:
    """Prime and square-free bits for 0 <= n <= limit.

    A sieve of Eratosthenes on [0, isqrt(limit)] gives the small primes p.  The odd ones clear
    the odd entries j with 2j + 1 = p^2 + 2mp, and every p^2 clears its multiples from the
    square-free bits; no larger p^2 fits.  The densest strides, 3 to 13 (period 15015 odd
    entries) and 4 to 49 (period 44100), are pre-sieved at every limit.  Below p^2 that adds 0
    for the squares, and for odd p the odd m p < p^2: p, set back, and those with 3 <= m < p,
    which their least prime factor r clears anyway, as r^2 <= m p.  DEFAULT_LIMIT_BUDGET caps limit.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if limit > DEFAULT_LIMIT_BUDGET:
        raise ValueError(f"limit {limit} exceeds memory budget {DEFAULT_LIMIT_BUDGET}")

    root = isqrt(limit)
    flags = np.ones(root + 1, dtype=bool)
    for d in range(2, isqrt(root) + 1):
        flags[d * d::d] = False
    small = [p for p in (np.flatnonzero(flags[2:]) + 2).tolist() if p > 13]
    odd, squares = [3, 5, 7, 11, 13, *small], [p * p for p in (2, 3, 5, 7, 11, 13, *small)]
    prime_bits = _packed_sieve(limit // 16 + 1, (limit + 1) // 2, [q // 2 for q in squares[1:]], odd, 5)
    sqf_bits = _packed_sieve(limit // 8 + 1, limit + 1, squares, squares, 4)
    return FactorTable(limit=limit, prime_bits=prime_bits, sqf_bits=sqf_bits)


def save_cache(table: FactorTable, path: str | Path):
    """Binary cache, version 6, little-endian: magic + version + limit header, the square-free and
    prime bits, then from the next multiple of 8 bytes the memo's block count, an int64 row (b, N,
    itemsize, size) per block and the blocks, each padded to 8 bytes.  Written beside path and
    renamed over it, so a table mapped from path may be saved back to it, read from the old file."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    blocks = list(table._memo.items())
    try:
        with open(tmp, "wb") as fh:
            fh.write(struct.pack("<4sIQ", _CACHE_MAGIC, _CACHE_VERSION, table.limit))
            fh.write(memoryview(table.sqf_bits))
            fh.write(memoryview(table.prime_bits))
            index = [len(blocks), *(x for (b, N), v in blocks for x in (b, N, v.itemsize, v.size))]
            fh.write(bytes(-fh.tell() % 8) + np.array(index, "<i8").tobytes())
            for _, vals in blocks:
                fh.write(memoryview(vals.astype(_MEMO_DTYPES[vals.itemsize], copy=False)))
                fh.write(bytes(-fh.tell() % 8))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_cache(path: str | Path) -> FactorTable:
    """Table of a save_cache file, its arrays and memo blocks read-only views of a map of it.

    The file must be version 6 (another version raises CacheVersionError), with limit // 8 + 1
    square-free bytes, limit // 16 + 1 prime bytes, a memo index whose rows have b >= 2, N >= 1,
    distinct (b, N), itemsize 4 or 8 and size >= 0, and exactly their blocks' bytes.  The map
    outlives the file's name: save_cache replaces a file by renaming a new one over it, so a
    loaded table, memo too, keeps reading the old contents.  Never rewrite a cache file in place.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise ValueError(f"{path} is truncated: no complete cache header")
        magic, version, limit = struct.unpack("<4sIQ", header)
        if magic != _CACHE_MAGIC:
            raise ValueError(f"{path} is not a sieve cache file")
        if version != _CACHE_VERSION:
            raise CacheVersionError(f"{path} has unsupported cache version {version}")
        n_sqf, n_prime, got = limit // 8 + 1, limit // 16 + 1, os.fstat(fh.fileno()).st_size
        at = fh.seek(-(-(16 + n_sqf + n_prime) // 8) * 8)  # the memo's block count, then its index
        count = int.from_bytes(fh.read(8), "little")  # read short only if the file ends first
        at += 8 + 32 * count  # the first block; past the end, the file is truncated (found below)
        index = np.frombuffer(fh.read(32 * count) if at <= got else b"", "<i8").reshape(-1, 4).tolist()
        valid = {(b, N) for b, N, item, n in index if b > 1 and N > 0 and n >= 0 and item in _MEMO_DTYPES}
        if len(valid) < len(index):  # a bad row, or a (b, N) twice
            raise ValueError(f"{path} has a corrupt memo index")
        starts = list(accumulate((-(-item * n // 8) * 8 for *_, item, n in index), initial=at))
        if got != starts[-1]:
            problem = "truncated" if got < starts[-1] else "too long"
            raise ValueError(f"{path} is {problem}: limit {limit} and {count} memo blocks need "
                             f"{starts[-1]} bytes, got {got}")
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    sqf_bits, prime_bits = np.split(np.frombuffer(data, np.uint8, n_sqf + n_prime, 16), [n_sqf])
    table = FactorTable(limit=int(limit), prime_bits=prime_bits, sqf_bits=sqf_bits)
    table._memo.update(((b, N), np.frombuffer(data, _MEMO_DTYPES[item], n, start))
                       for (b, N, item, n), start in zip(index, starts))
    return table
