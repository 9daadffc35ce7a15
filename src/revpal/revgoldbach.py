"""Reverse-Goldbach experiments: counting representations M = rev(p1) + p2,
scanning for unrepresentable targets, and the prime-plus-squarefree variant.
"""

from dataclasses import asdict, dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .digits import BaseContext, to_digits
from .experiments import reversed_prime_spans
from .sieve import FactorTable

_SPARSE_RATIO = 1024  # scan_exceptions's packed phase ends at <= n / _SPARSE_RATIO nonzero bytes
_GATHER = 2 ** 15  # reversed primes per slice that _reversed_blocks yields


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
    one with a trailing zero.  table._memo maps (b, N) to this block, built on
    its first read by a reverse-Goldbach call and kept for the table's lifetime.  It is uint32
    when max(table.limit + 1, b^N) < 2^32 (values are below b^N, cuts at most table.limit + 1),
    else int64, filled from reversed_prime_spans: its build holds the block and one span."""
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
    """The least table limit that covers target and every prime whose
    reverse is at most cap."""
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


def representations(ctx: BaseContext, M: int, table: FactorTable) -> int:
    """Number of ordered pairs (p1, p2) of primes with b not dividing p1 and
    M = rev(p1) + p2."""
    if M < 2:
        raise ValueError(f"target must be >= 2, got {M}")
    return sum(int(np.count_nonzero(table.is_prime(np.subtract(M, vals, dtype=np.int64))))
               for vals in _reversed_blocks(ctx, M, M - 2, table))


def _sparse_tail(live: np.ndarray, rs, table: FactorTable) -> np.ndarray:
    """The sorted targets 2i + h of the bits i of live[h], less each t >= r + 2 with t - r
    prime for the further values r of rs, read until r > max pending - 2."""
    h, q = np.divmod(np.flatnonzero(live != 0), live.shape[1])  # 2-D or uint8 nonzero is slower
    bits = np.flatnonzero(np.unpackbits(live[h, q], bitorder="little"))
    pending = np.sort(16 * q[bits >> 3] + 2 * (bits & 7) + h[bits >> 3])
    for r in rs:
        if pending.size == 0 or r > pending[-1] - 2:
            break
        lo = int(np.searchsorted(pending, r + 2))
        pending = np.concatenate((pending[:lo], pending[lo:][~table.is_prime(pending[lo:] - r)]))
    return pending


def scan_exceptions(ctx: BaseContext, limit: int, table: FactorTable) -> ScanResult:
    """All in-class targets in [4, limit] with no representation; 4 = rev(2) + 2 is the least sum.

    Parity rule: t - r is an odd prime only if t and r differ in parity, so r clears
    odd primes in the half h = 1 - r % 2 alone.  Bit i of live[h] is target t = 2i + h;
    the odd mask is the complement of the table's prime bits, so its bit j says 2j + 1
    is not prime (bit 0 is set), and copy s of it is moved up s bits with ones shifted
    in.  As t - r = 2(i - c) + 1 for c = (r + 1) // 2 = 8q + s, one AND of live[h, q:]
    with copy s clears those t (t <= r meets the shifted-in ones, t = r + 1 reads 1);
    p = 2 clears the one bit t = r + 2 <= limit.  The mask's bits past limit (inverted
    padding, or a larger table's primes) are read only for targets t > limit, whose live
    bits are 0: a pending t <= limit reads the bit of t - r <= t.

    Stop rule: every 8 values, once at most n / _SPARSE_RATIO bytes of live are nonzero
    (n = limit + 1), _sparse_tail takes over, and it stops once r > max pending - 2; without
    the switch every value r <= limit - 2 is read.  Each AND runs to the end of its half:
    ending it at the last nonzero byte would save work only while more than n / _SPARSE_RATIO
    bytes stay nonzero and every one of them sits low; then n < _SPARSE_RATIO * (nonzero
    bytes), so an AND, at most n / 16 + 1 bytes, is short.
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
    shifted = np.empty((8, m), dtype=np.uint8)
    np.invert(table.prime_bits[:m], out=shifted[0])
    for s in range(1, 8):
        np.left_shift(shifted[0], s, out=shifted[s])
        shifted[s, 1:] |= shifted[0, :-1] >> (8 - s)
        shifted[s, :1] |= (1 << s) - 1

    tail = ()
    for k, r in enumerate(rev_vals):
        q, s = divmod((r + 1) // 2, 8)
        live[1 - r % 2, q:] &= shifted[s, :m - q]
        live[r % 2, (r + 2) >> 4] &= 0xFF ^ 1 << ((r + 2) >> 1 & 7)
        if k % 8 == 7 and np.count_nonzero(live) * _SPARSE_RATIO <= n:
            tail = rev_vals
            break
    del shifted  # the tail's bool copy of live reuses these pages
    exceptions = _sparse_tail(live, tail, table).tolist()
    return ScanResult(base=ctx.b, limit=limit, scanned_from=4, parity_class=parity,
                      exceptions=tuple(exceptions))


def estermann_count(ctx: BaseContext, M: int, table: FactorTable) -> int:
    """h_b(M): primes p with b not dividing p, rev(p) <= M - 1, and
    M - rev(p) square-free."""
    if M < 1:
        raise ValueError(f"target must be >= 1, got {M}")
    return sum(int(np.count_nonzero(table.kfree_at(np.subtract(M, vals, dtype=np.int64), 2)))
               for vals in _reversed_blocks(ctx, M, M - 1, table))
