"""Reverse-Goldbach experiments: counting representations M = rev(p1) + p2,
scanning for unrepresentable targets, and the prime-plus-squarefree variant.
"""

from dataclasses import asdict, dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .digits import BaseContext, reverse_array, to_digits
from .sieve import FactorTable


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
    """Largest i <= top with a[i] != 0, or -1; searched downward from top in
    chunks of 1024 entries, so it costs about the entries skipped, not a.size."""
    while top >= 0:
        lo = max(top - 1023, 0)
        nz = np.flatnonzero(a[lo:top + 1])
        if nz.size:
            return lo + int(nz[-1])
        top = lo - 1
    return -1


def scan_exceptions(ctx: BaseContext, limit: int, table: FactorTable) -> ScanResult:
    """All in-class targets in [4, limit] with no representation; 4 = rev(2) + 2 is the least sum.

    Target t is bit t % 8 of byte t // 8 of the pending set `live` (little
    bit order).  Copy s of the packed composite mask omega_total[:limit+1] != 1
    is that mask moved up s bits, with ones shifted in below index 0, so a
    reversed value r = 8q + s clears every pending t with t - r prime by one
    in-place AND of live[q:] with copy s.  Targets t < r meet the shifted-in
    ones and are never touched, and t - r in {0, 1} reads not-prime, so the
    rule t >= r + 2 needs no special case.

    `top`, the last nonzero byte of live, is found after each AND by a chunked
    search down from its old value.  The ANDs end at byte top, and the scan
    stops once r > 8 * top + 5, when r + 2 exceeds every pending target.  Only
    an upper bound is needed: a stale, too-high top would cost extra ANDs and
    never change the result.
    """
    parity = parity_class(ctx)
    rev_vals = chain.from_iterable(_reversed_blocks(ctx, limit, limit - 2, table))
    n = max(limit + 1, 0)
    live = np.full(-(-n // 8), 0x55 if parity is TargetClass.EVEN_TARGETS_ONLY else 0xFF,
                   dtype=np.uint8)
    live[:1] &= 0xF0  # targets 0..3
    live[-1:] &= 0xFF >> (-n % 8)  # bits past limit
    shifted = np.empty((8, live.size), dtype=np.uint8)
    shifted[0] = np.packbits(table.omega_total[:n] != 1, bitorder="little")
    for s in range(1, 8):
        np.left_shift(shifted[0], s, out=shifted[s])
        shifted[s, 1:] |= shifted[0, :-1] >> (8 - s)
        shifted[s, :1] |= (1 << s) - 1

    top = _last_nonzero(live, live.size - 1)
    for r in map(int, rev_vals):
        if r > 8 * top + 5:
            break
        q, s = divmod(r, 8)
        live[q:top + 1] &= shifted[s, :top + 1 - q]
        top = _last_nonzero(live, top)
    exceptions = np.flatnonzero(np.unpackbits(live[:top + 1], bitorder="little"))
    return ScanResult(
        base=ctx.b, limit=limit, scanned_from=4,
        parity_class=parity, exceptions=tuple(exceptions.tolist()),
    )


def estermann_count(ctx: BaseContext, M: int, table: FactorTable) -> int:
    """h_b(M): primes p with b not dividing p, rev(p) <= M - 1, and
    M - rev(p) square-free."""
    if M < 1:
        raise ValueError(f"target must be >= 1, got {M}")
    return sum(int(np.count_nonzero(table.kfree_at(M - vals, 2)))
               for vals in _reversed_blocks(ctx, M, M - 1, table))
