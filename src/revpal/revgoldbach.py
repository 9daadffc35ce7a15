"""Reverse-Goldbach experiments: counting representations M = rev(p1) + p2,
scanning for unrepresentable targets, and the prime-plus-squarefree variant.
"""

from dataclasses import asdict, dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .digits import BaseContext, reverse_array, to_digits
from .sieve import FactorTable

_SPARSE_RATIO = 1024  # scan_exceptions's packed phase ends at <= n / _SPARSE_RATIO nonzero bytes


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
    """Block N of the table's reversed-prime memo in base b, read-only: the
    sorted rev(p) over the N-digit primes p <= table.limit but b, the only
    one with a trailing zero.  table._memo maps (b, N) to this block, built
    on its first read and kept for the table's lifetime."""
    b = ctx.b
    vals = table._memo.get((b, N))
    if vals is None:
        lo = b ** (N - 1)
        ps = np.flatnonzero(table.omega_total[lo: min(lo * b, table.limit + 1)] == 1)
        ps += lo
        vals = reverse_array(ps[1:] if ps[:1].tolist() == [b] else ps, ctx)
        vals.sort()  # in place: a sorted copy would add the block to the peak
        vals.setflags(write=False)
        table._memo[b, N] = vals
    return vals


def table_limit(ctx: BaseContext, target: int, cap: int) -> int:
    """The least table limit that covers target and every prime whose
    reverse is at most cap."""
    return max(target, prime_bound(ctx, cap))


def _reversed_blocks(ctx: BaseContext, target: int, cap: int, table: FactorTable):
    """Blocks 1 to d of the memo, d the digit count of cap, the last cut at
    cap, as a lazy iterator: together the sorted rev(p) <= cap over primes
    p <= prime_bound(ctx, cap) with b not dividing p.  The table must reach
    table_limit(ctx, target, cap), checked before any block is built, so the
    cut is exact and every M - rev(p) of a target M is in the table."""
    need = table_limit(ctx, target, cap)
    if need > table.limit:
        raise ValueError(
            f"table limit {table.limit} too small; "
            f"need {need} for target {target} and reverses <= {cap}"
        )
    d = len(to_digits(cap, ctx.b)) if cap >= 1 else 0
    blocks = (reversed_prime_block(ctx, N, table) for N in range(1, d + 1))
    return (vals[: np.searchsorted(vals, cap, "right")] for vals in blocks)


def representations(ctx: BaseContext, M: int, table: FactorTable) -> int:
    """Number of ordered pairs (p1, p2) of primes with b not dividing p1 and
    M = rev(p1) + p2."""
    if M < 2:
        raise ValueError(f"target must be >= 2, got {M}")
    return sum(int(np.count_nonzero(table.omega_total[M - vals] == 1))
               for vals in _reversed_blocks(ctx, M, M - 2, table))


def _last_nonzero(a: np.ndarray, top: int) -> int:
    """Largest i <= top with a[:, i] not all zero, or -1, in about the time to skip i + 1..top."""
    while top >= 0:
        lo = max(top - 1023, 0)
        nz = np.flatnonzero(a[:, lo:top + 1].any(axis=0))
        if nz.size:
            return lo + int(nz[-1])
        top = lo - 1
    return -1


def _sparse_tail(live: np.ndarray, top: int, rs, omega: np.ndarray) -> np.ndarray:
    """The sorted targets 2i + h of the bits i of live[h, :top + 1], unpacked from nonzero bytes,
    less each t with t - r prime for the further values r of rs, read until r > max pending - 2;
    each r tests the entries >= r + 2 and compacts them in place, in buffers allocated once."""
    h, q = np.divmod(np.flatnonzero(live[:, :top + 1] != 0), top + 1)  # 2-D nonzero is slower
    bits = np.flatnonzero(np.unpackbits(live[h, q], bitorder="little"))
    pending = np.sort(16 * q[bits >> 3] + 2 * (bits & 7) + h[bits >> 3])
    size = pending.size
    diff, at, kept = np.empty_like(pending), np.empty(size, omega.dtype), np.empty(size, bool)
    for r in rs:
        if size == 0 or r > pending[size - 1] - 2:
            break
        lo = int(np.searchsorted(pending[:size], r + 2))
        k = size - lo
        np.take(omega, np.subtract(pending[lo:size], r, out=diff[:k]), out=at[:k], mode="clip")
        np.not_equal(at[:k], 1, out=kept[:k])
        size = lo + np.count_nonzero(kept[:k])
        pending[lo:size] = np.compress(kept[:k], pending[lo:lo + k], out=diff[:size - lo])
    return pending[:size]


def scan_exceptions(ctx: BaseContext, limit: int, table: FactorTable) -> ScanResult:
    """All in-class targets in [4, limit] with no representation; 4 = rev(2) + 2 is the least sum.

    Parity rule: t - r is an odd prime only if t and r differ in parity, so r clears
    odd primes in the half h = 1 - r % 2 alone.  Bit i of live[h] is target t = 2i + h;
    bit j of the odd mask says 2j + 1 is not prime (bit 0 is set), and copy s of it is
    moved up s bits with ones shifted in.  As t - r = 2(i - c) + 1 for c = (r + 1) // 2
    = 8q + s, one AND of live[h, q:] with copy s clears those t (t <= r meets the
    shifted-in ones, t = r + 1 reads 1); p = 2 clears the one bit t = r + 2 <= limit.

    Stop rules: the ANDs end at `top`, the last byte nonzero in either half, and stop once
    r > 16 * top + 14, when they would start past it.  Every 8 ANDs, once at most n /
    _SPARSE_RATIO bytes are nonzero (n = limit + 1), _sparse_tail stops once r > max pending - 2.
    """
    parity = parity_class(ctx)
    rev_vals = map(int, chain.from_iterable(_reversed_blocks(ctx, limit, limit - 2, table)))
    n = max(limit + 1, 0)
    m = -(-n // 16)  # bytes per half
    live = np.zeros((2, m), dtype=np.uint8)
    for h, bits in enumerate(((n + 1) // 2, n // 2 if parity is TargetClass.ALL_TARGETS else 0)):
        live[h, :bits // 8] = 0xFF  # bits of targets 2i + h <= limit
        live[h, bits // 8:bits // 8 + 1] = (1 << bits % 8) - 1
    live[:, :1] &= 0xFC  # targets 0..3
    odd, chunk = table.omega_total[1:n:2], np.empty(2 ** 16, dtype=bool)
    shifted = np.zeros((8, m), dtype=np.uint8)
    for lo in range(0, odd.size, 2 ** 16):
        part = np.not_equal(odd[lo:lo + 2 ** 16], 1, out=chunk[:odd.size - lo])
        shifted[0, lo // 8:(lo + part.size + 7) // 8] = np.packbits(part, bitorder="little")
    for s in range(1, 8):
        np.left_shift(shifted[0], s, out=shifted[s])
        shifted[s, 1:] |= shifted[0, :-1] >> (8 - s)
        shifted[s, :1] |= (1 << s) - 1

    top, tail = _last_nonzero(live, m - 1), ()
    for k, r in enumerate(rev_vals):
        if r > 16 * top + 14:
            break
        q, s = divmod((r + 1) // 2, 8)
        live[1 - r % 2, q:top + 1] &= shifted[s, :top + 1 - q]
        live[r % 2, (r + 2) >> 4] &= 0xFF ^ 1 << ((r + 2) >> 1 & 7)
        top = _last_nonzero(live, top)
        if k % 8 == 7 and np.count_nonzero(live[:, :top + 1]) * _SPARSE_RATIO <= n:
            tail = rev_vals
            break
    exceptions = _sparse_tail(live, top, tail, table.omega_total).tolist()
    return ScanResult(base=ctx.b, limit=limit, scanned_from=4, parity_class=parity,
                      exceptions=tuple(exceptions))


def estermann_count(ctx: BaseContext, M: int, table: FactorTable) -> int:
    """h_b(M): primes p with b not dividing p, rev(p) <= M - 1, and
    M - rev(p) square-free."""
    if M < 1:
        raise ValueError(f"target must be >= 1, got {M}")
    return sum(int(np.count_nonzero(table.kfree_at(M - vals, 2)))
               for vals in _reversed_blocks(ctx, M, M - 1, table))
