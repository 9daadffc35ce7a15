"""Reverse-Goldbach experiments: counting representations M = rev(p1) + p2,
scanning for unrepresentable targets, and the prime-plus-squarefree variant.
"""

from dataclasses import asdict, dataclass
from enum import Enum
from itertools import chain, islice, takewhile

import numpy as np

from .digits import BaseContext, to_digits
from .experiments import reversed_prime_spans
from .sieve import FactorTable

_SPARSE_RATIO = 1024  # a scan window's packed phase ends at <= its targets / _SPARSE_RATIO nonzero bytes
_GATHER = 2 ** 15  # reversed primes per slice that _reversed_blocks yields
_TAIL = 16  # values per is_prime gather of a window's sparse tail
_WINDOW = 2 ** 16  # bytes of each parity half in one scan window: 2^20 targets
_LEAD = 2 ** 8  # bytes below a window that its mask copies hold: values r <= 16 _LEAD + 14 = 4110 read them;
# a window reads q = (r + 1) >> 4 <= 63 in base 10 to 10^9 and bases 2-36 at 10^6, a 4x margin


class TargetClass(Enum):
    EVEN_TARGETS_ONLY = "even_targets_only"
    ALL_TARGETS = "all_targets"


@dataclass(frozen=True)
class ScanResult:
    base: int
    limit: int
    scanned_from: int
    parity_class: TargetClass
    exceptions: tuple[int, ...]

    def to_dict(self) -> dict:
        return {**asdict(self), "parity_class": self.parity_class.value,
                "exceptions": list(self.exceptions)}


def parity_class(ctx: BaseContext) -> TargetClass:
    """Odd bases and base 2 force even sums rev(p1) + p2 for odd primes, so
    only even targets are expected representable; even bases > 2 have no such
    obstruction."""
    if ctx.b % 2 == 1 or ctx.b == 2:
        return TargetClass.EVEN_TARGETS_ONLY
    return TargetClass.ALL_TARGETS


def prime_bound(ctx: BaseContext, cap: int) -> int:
    """Largest n with b not dividing n and rev(n) <= cap (1 for cap < 1): the
    largest prime whose reverse a count or scan up to cap can read.

    Reversal keeps the digit count of such n, so n = rev(m) for some m <= cap
    with as many digits as cap and a nonzero last digit.  The greedy pass picks
    the digits of m from the least significant up, each as large as still
    leaves room for a leading digit 1; that maximizes n, whose leading digit is
    m's last.  When cap = b^(d-1) no such m exists, and every n below cap counts.
    """
    b = ctx.b
    if cap < 1:
        return 1
    d = len(to_digits(cap, b))
    top = b ** (d - 1)
    if d > 1 and cap == top:
        return top - 1
    low = n = 0
    for k in range(d):
        room = cap - low - (top if k < d - 1 else 0)
        digit = min(b - 1, room // b ** k)
        low += digit * b ** k
        n = n * b + digit
    return n


def reversed_prime_block(ctx: BaseContext, N: int, table: FactorTable) -> np.ndarray:
    """Block N of the table's reversed-prime memo in base b, read-only: the sorted rev(p) over the
    N-digit primes p <= table.limit but b, the only one with a trailing zero.  table._memo maps
    (b, N) to it, built on its first read by a reverse-Goldbach call; sieve.save_cache writes it
    into the cache file and sieve.load_cache maps it back, a map that outlives a rename over the
    file.  It is uint32 when max(table.limit + 1, b^N) < 2^32 (values are below b^N, cuts at most
    table.limit + 1), else int64, filled from reversed_prime_spans: its build holds the block and one span."""
    b = ctx.b
    vals = table._memo.get((b, N))
    if vals is None:
        lo, hi = b ** (N - 1), b ** N
        dtype = np.uint32 if max(table.limit + 1, hi) < 2 ** 32 else np.int64
        vals, k = np.empty(table.count_primes(lo, hi), dtype), 0
        for rev in reversed_prime_spans(ctx, lo, hi, table, (b,)):
            vals[k:k + rev.size] = rev
            k += rev.size
        vals = vals[:k]  # less b, where b is prime
        vals.sort()  # in place: a sorted copy would add the block to the peak
        vals.setflags(write=False)
        table._memo[b, N] = vals
    return vals


def table_limit(ctx: BaseContext, target: int, cap: int) -> int:
    """The least table limit that covers target and every prime whose reverse is at most cap."""
    return max(target, prime_bound(ctx, cap))


def _reversed_blocks(ctx: BaseContext, target: int, cap: int, table: FactorTable):
    """Blocks 1 to d of the memo, d the digit count of cap, the last cut at cap, as lazy
    slices of at most _GATHER values, so no caller's temporary grows with a block: together
    the sorted rev(p) <= cap over primes p <= prime_bound(ctx, cap) with b not dividing p.
    The table must reach table_limit(ctx, target, cap), checked before any block is built,
    so the cut is exact and every M - rev(p) of a target M is in the table."""
    need = table_limit(ctx, target, cap)
    if need > table.limit:
        raise ValueError(
            f"table limit {table.limit} too small; "
            f"need {need} for target {target} and reverses <= {cap}"
        )
    d = len(to_digits(cap, ctx.b)) if cap >= 1 else 0
    blocks = (reversed_prime_block(ctx, N, table) for N in range(1, d + 1))
    # a key of the block's own type: a Python int would cast a uint32 block to int64 whole
    cut = (vals[: np.searchsorted(vals, vals.dtype.type(cap), "right")] for vals in blocks)
    return (vals[i:i + _GATHER] for vals in cut for i in range(0, vals.size, _GATHER))


def _check_target(M: int, least: int) -> None:
    """The one check of a representation count's target M: M >= least (2, or 1 for estermann_count)."""
    if M < least:
        raise ValueError(f"target must be >= {least}, got {M}")


def representations(ctx: BaseContext, M: int, table: FactorTable) -> int:
    """Number of ordered pairs (p1, p2) of primes with b not dividing p1 and
    M = rev(p1) + p2."""
    _check_target(M, 2)
    return sum(int(np.count_nonzero(table.is_prime(np.subtract(M, vals, dtype=np.int64))))
               for vals in _reversed_blocks(ctx, M, M - 2, table))


def _sparse_tail(pending: np.ndarray, rs, table: FactorTable) -> np.ndarray:
    """The sorted targets pending, less each t >= r + 2 with t - r prime for the values r of rs.
    It reads rs while r <= max pending - 2, _TAIL values to one 2-D is_prime gather."""
    rs = takewhile(lambda r: r <= pending[-1] - 2, rs)
    while pending.size and (vals := np.fromiter(islice(rs, _TAIL), np.int64)).size:
        pending = pending[~table.is_prime(np.maximum(pending[:, None] - vals, 0)).any(axis=1)]
    return pending


def scan_exceptions(ctx: BaseContext, limit: int, table: FactorTable) -> ScanResult:
    """All in-class targets in [4, limit] with no representation; 4 = rev(2) + 2 is the least sum.

    Parity rule: t - r is an odd prime only if t and r differ in parity, so r clears
    odd primes in the half h = 1 - r % 2 alone.  Bit i of half h is target t = 2i + h;
    the odd mask is the complement of the table's prime bits, so its bit j says 2j + 1
    is not prime (bit 0 is set), and copy s of it is moved up s bits with ones shifted
    in.  As t - r = 2(i - c) + 1 for c = (r + 1) // 2 = 8q + s, one AND of the half's
    bytes g >= q with bytes g - q of copy s clears those t (t <= r meets the shifted-in
    ones, t = r + 1 reads 1); p = 2 clears the one bit t = r + 2 <= limit.  The mask's bits
    past limit (inverted padding, or a larger table's primes) are read only for targets
    t > limit, whose live bits are 0: a pending t <= limit reads the bit of t - r <= t.

    Windows: bytes [c0, c1) of both halves are live at a time, c1 - c0 <= _WINDOW, with bytes
    c0 - _LEAD .. c1 - 1 of each copy.  A window applies the values from the first until
    r >= 16 c1 (r + 2 is past its targets) or the values run out, or it switches after a
    values: the next has q > _LEAD (it would read below the copies), or, every 8 values, at
    most (its targets) / _SPARSE_RATIO of its bytes are nonzero.  Its pending targets have
    then met the first a values it applied, and _sparse_tail reads on from value a + 1 over
    them alone, _TAIL values to a batch, until the first r > max pending - 2.  A batch value
    r > max pending - 2, with max pending as its earlier values leave it, clears no target,
    as t - r < 2; the values ascend, so none past the stop clears one either, and the window
    keeps exactly its targets that no value clears.  Each AND runs to the end of its window:
    ending it at the last nonzero byte saves work only while many bytes stay nonzero, all low.
    """
    parity = parity_class(ctx)
    blocks = _reversed_blocks(ctx, limit, limit - 2, table)  # checks the table first
    rs = []  # the values read so far, which each window reads again from the first
    more = (rs.append(r) or r for r in map(int, chain.from_iterable(blocks)))
    n = max(limit + 1, 0)
    m = -(-n // 16)  # bytes per half
    live = np.empty((2, min(_WINDOW, m)), dtype=np.uint8)
    shifted = np.empty((8, live.shape[1] + _LEAD + 1), dtype=np.uint8)
    exceptions = []
    for c0 in range(0, m, _WINDOW):
        c1, w = min(c0 + _WINDOW, m), min(_WINDOW, m - c0)
        for h, bits in enumerate(((n + 1) // 2, n // 2 if parity is TargetClass.ALL_TARGETS else 0)):
            full = bits // 8 - c0  # bytes before the one of bit `bits`, the first target past limit
            live[h, :w] = 0
            live[h, :min(max(full, 0), w)] = 0xFF
            if 0 <= full < w:
                live[h, full] = (1 << bits % 8) - 1
        live[:, :int(c0 == 0)] &= 0xFC  # targets 0..3
        base, pad = shifted[0, :w + _LEAD + 1], max(_LEAD + 1 - c0, 0)  # ~prime_bits[c0 - _LEAD - 1:c1]
        base[:pad] = 0xFF  # the bytes below byte 0
        np.invert(table.prime_bits[max(c0 - _LEAD - 1, 0):c1], out=base[pad:])
        for s in range(1, 8):  # column j: byte c0 - _LEAD - 1 + j; x << s as x * 2^s, 7x faster in numpy
            np.multiply(base[1:], np.uint8(1 << s), out=shifted[s, 1:w + _LEAD + 1])
            shifted[s, 1:w + _LEAD + 1] |= base[:-1] >> (8 - s)
        halves, off = (live[0, :w], live[1, :w]), _LEAD + 1 - c0  # byte k of a copy: column k + off
        done = 0  # the values applied: the window's sparse tail reads on from rs[done]
        for r in chain(rs, more):
            q, s = divmod((r + 1) >> 1, 8)
            if r >= 16 * c1 or q > _LEAD:  # r + 2 is past the targets, or r would read below the copies
                break
            g = max(q, c0)
            halves[1 - (r & 1)][g - c0:] &= shifted[s, g - q + off:c1 - q + off]
            if c0 <= (r + 2) >> 4 < c1:
                halves[r & 1][((r + 2) >> 4) - c0] &= 0xFF ^ 1 << ((r + 2) >> 1 & 7)
            done += 1
            if done & 7 == 0 and np.count_nonzero(live[:, :w]) * _SPARSE_RATIO <= min(n, 16 * c1) - 16 * c0:
                break
        h, i = np.divmod(np.flatnonzero(live[:, :w] != 0), w)  # 2-D or uint8 nonzero is slower
        bits = np.flatnonzero(np.unpackbits(live[h, i], bitorder="little"))
        pending = np.sort(16 * (c0 + i[bits >> 3]) + 2 * (bits & 7) + h[bits >> 3])
        exceptions += _sparse_tail(pending, chain(rs[done:], more), table).tolist()
    return ScanResult(base=ctx.b, limit=limit, scanned_from=4, parity_class=parity,
                      exceptions=tuple(exceptions))


def estermann_count(ctx: BaseContext, M: int, table: FactorTable) -> int:
    """h_b(M): primes p with b not dividing p, rev(p) <= M - 1, and
    M - rev(p) square-free."""
    _check_target(M, 1)
    return sum(int(np.count_nonzero(table.kfree_at(np.subtract(M, vals, dtype=np.int64), 2)))
               for vals in _reversed_blocks(ctx, M, M - 1, table))
