"""Reference implementations that the tests compare production code against."""

from math import gcd, isqrt, pi, sin

import numpy as np

from revpal import revgoldbach
from revpal.digits import BaseContext, reverse, reverse_array
from revpal.revgoldbach import ScanResult, TargetClass, parity_class, prime_bound
from revpal.sieve import FactorTable
from revpal.verifier import _cap_reciprocal

# the least k for which zeta's tail term k(k+1)(k+2)/720 would not fit a float
ZETA_OVERFLOW_K = int("5643803094122362077939707069896083707827438283144585224311014275783412"
                      "180059929638814564872415160725735")


def build_divide_out(limit: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """(prime flags, square-free flags), and Omega, over [0, limit] by division: one
    loop over the primes p <= isqrt(limit) fills the square-free flags and Omega
    and divides every p^k out of an int32 cofactor array; what is left of n is 1
    or its one prime factor above isqrt(limit).  The prime flags are Omega = 1."""
    squarefree = np.ones(limit + 1, dtype=bool)
    squarefree[0] = False
    omega = np.zeros(limit + 1, dtype=np.int8)
    rest = np.arange(limit + 1, dtype=np.int32)
    for p in range(2, isqrt(limit) + 1):
        if omega[p]:  # a smaller prime divides p
            continue
        squarefree[p * p :: p * p] = False
        pk = p
        while pk <= limit:
            omega[pk::pk] += 1
            rest[pk::pk] //= p
            pk *= p
    omega[rest > 1] += 1
    return (omega == 1, squarefree), omega


def is_k_free(n: int, k: int, table: FactorTable) -> bool:
    """True iff no prime power p^k divides n; factors n by trial division.
    The table only bounds n; none of its arrays is read."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not 1 <= n <= table.limit:
        raise ValueError(f"n = {n} outside table range [1, {table.limit}]")
    p = 2
    while p ** k <= n:  # a p^k dividing n leaves p^k <= n after smaller primes go
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e >= k:
            return False
        p += 1
    return True


def spf_trial(n: int) -> int:
    """Smallest prime factor of n >= 2 by trial division."""
    return next((p for p in range(2, isqrt(n) + 1) if n % p == 0), n)


def mu_trial(d: int) -> int:
    """Mobius via trial division; independent of any sieve."""
    if d == 1:
        return 1
    sign = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            sign = -sign
        p += 1 if p == 2 else 2
    if d > 1:
        sign = -sign
    return sign


def mobius_sum_oracle(n: int, k: int) -> int:
    """Sum of mu(d) over d with d^k | n, by explicit divisor enumeration.

    This is the cross-check oracle for is_k_free; it never touches a table.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    total = 0
    d = 1
    while d ** k <= n:
        if n % (d ** k) == 0:
            total += mu_trial(d)
        d += 1
    return total


def is_palindrome(n: int, ctx: BaseContext) -> bool:
    """True iff b does not divide n and n equals its digital reverse."""
    if n < 1:
        raise ValueError("palindrome test is defined for n >= 1 only")
    if n % ctx.b == 0:
        return False
    return reverse(n, ctx) == n


def in_b_star(n: int, ctx: BaseContext) -> bool:
    """True iff n is coprime to b^3 - b."""
    if n < 1:
        raise ValueError("membership is defined for n >= 1 only")
    return gcd(n, ctx.b3mb) == 1


def brute_force_palindromes(ctx: BaseContext, x: int, star: bool = False) -> list[int]:
    """Scan every n <= x with the digit-level palindrome test."""
    return [n for n in range(1, x + 1)
            if is_palindrome(n, ctx) and (not star or in_b_star(n, ctx))]


def reversed_primes_in_class_direct(ctx: BaseContext, N: int, table: FactorTable) -> np.ndarray:
    """rev(p) for the primes p in B_N with reverse in B*_N, reversing them on
    each call from a mask of the N-digit range, without the table's memo."""
    b = ctx.b
    lo, hi = b ** (N - 1), b ** N
    if hi - 1 > table.limit:
        raise ValueError(f"table limit {table.limit} too small for b^N = {hi}")
    ps = table.primes(lo, hi)
    rev = reverse_array(ps[ps % b != 0], ctx)
    return rev[np.gcd(rev, ctx.b3mb) == 1]


def count_rev_kfree_primes_via_kfree(ctx: BaseContext, k: int, N: int, table: FactorTable) -> int:
    """Independent pipeline for r_{b,k}(N): iterate k-free m in B*_N and test
    whether reverse(m) is prime.  Reversal is a bijection on B_N, so this must
    agree with count_rev_kfree_primes."""
    lo, hi = ctx.b ** (N - 1), ctx.b ** N
    if hi - 1 > table.limit:
        raise ValueError(f"table limit {table.limit} too small for b^N = {hi}")
    ms = np.arange(lo, hi, dtype=np.int64)
    ms = ms[np.gcd(ms, ctx.b3mb) == 1]
    prime = table.is_prime(np.arange(hi))
    count = 0
    for m in ms.tolist():
        if is_k_free(m, k, table) and prime[reverse(m, ctx)]:
            count += 1
    return count


def reversed_prime_values(ctx: BaseContext, cap: int, table: FactorTable) -> np.ndarray:
    """The memo blocks that revgoldbach reads for cap, joined into one new
    array: sorted rev(p) <= cap over primes p <= prime_bound(ctx, cap) with b
    not dividing p.  It builds the blocks it reads, as the reverse-Goldbach calls do."""
    return np.concatenate([np.empty(0, dtype=np.int64),
                           *revgoldbach._reversed_blocks(ctx, 0, cap, table)])


def reversed_prime_values_direct(ctx: BaseContext, cap: int, table: FactorTable) -> np.ndarray:
    """Sorted rev(p) <= cap over primes p <= prime_bound(ctx, cap) with b not
    dividing p, reversing every such prime on each call, without a memo."""
    b = ctx.b
    if cap < 1:
        return np.empty(0, dtype=np.int64)
    bound = prime_bound(ctx, cap)
    if bound > table.limit:
        raise ValueError(
            f"table limit {table.limit} too small; "
            f"need primes up to {bound} to cover reverses <= {cap}"
        )
    ps = table.primes(0, bound + 1)
    ps = ps[ps % b != 0]
    vals = reverse_array(ps, ctx)
    vals = vals[vals <= cap]
    vals.sort()
    return vals


def scan_exceptions_mask(ctx: BaseContext, limit: int, table: FactorTable) -> ScanResult:
    """revgoldbach.scan_exceptions by a 1-byte mask of the pending targets 4..limit,
    one slice AND per reversed value r, until fewer than limit / 8 remain; then
    by a sorted int64 array of them, filtered by t - r composite.  It stops
    once no later reversed value reaches the largest pending target."""
    if limit > table.limit:
        raise ValueError(f"table limit {table.limit} too small for scan limit {limit}")
    parity = parity_class(ctx)
    rev_vals = reversed_prime_values(ctx, limit - 2, table)
    alive = np.zeros(max(limit + 1, 0), dtype=bool)
    not_prime = ~table.is_prime(np.arange(alive.size))
    alive[4:] = True
    if parity is TargetClass.EVEN_TARGETS_ONLY:
        alive[1::2] = False

    rs = map(int, rev_vals)
    for r in rs:
        alive[r + 2:] &= not_prime[2:limit + 1 - r]
        if 8 * np.count_nonzero(alive) <= limit:
            break
    pending = np.flatnonzero(alive)
    for r in rs:
        if pending.size == 0 or r > pending[-1] - 2:
            break
        i = np.searchsorted(pending, r + 2)
        tail = pending[i:]
        pending = np.concatenate((pending[:i], tail[not_prime[tail - r]]))
    return ScanResult(
        base=ctx.b, limit=limit, scanned_from=4,
        parity_class=parity, exceptions=tuple(int(t) for t in pending),
    )


def f_h_term(b: int, h: int, theta: float) -> float:
    """One term min(b, 1/|sin pi(h/b + theta)|) of f, in scalar math."""
    s = abs(sin(pi * (h / b + theta)))
    return float(b) if s * b <= 1 else 1 / s


# grid points per block of segment_bounds
_BLOCK = 2 ** 15


def segment_bounds(ctx: BaseContext, K: int) -> np.ndarray:
    """Certified upper bound of f on each segment [i/(Kb), (i+1)/(Kb)],
    i = 0..K-1, by summing per-term endpoint maxima on the shared grid.

    Evaluates the left ceil(K/2) segments, _BLOCK grid points at a time,
    and mirrors them (bounds[K-1-i] == bounds[i]): the oracle of
    revpal.verifier.candidate_bounds.  That kernel evaluates only the
    candidate segments, one grid column at a time, with its own row factors,
    the cap on rows 0 and b - 1 alone and one pairwise sum over all b rows per
    segment; this one caps every row and adds its block sums one after
    another.  See that module's docstring for the error sources.
    """
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    b = ctx.b
    N = (K + 1) // 2
    h = np.arange(b)
    sin_h = np.sin(np.pi * np.minimum(h, b - h) / b)
    cos_h = np.cos(np.pi * h / b)
    t = np.pi * np.arange(N + 1) / (K * b)
    cos_i, sin_i = np.cos(t), np.sin(t)
    left = np.zeros(N)
    step = max(1, _BLOCK // (N + 1))
    # two buffers for every block: a fresh block-sized array per block is a
    # fresh mmap and page faults each time
    x = np.empty((N + 1, min(step, b)))
    y = np.empty_like(x)
    for h0 in range(0, b, step):
        w = min(step, b - h0)
        xs, ys = x[:, :w], y[:, :w]
        # xs[i, h - h0] = sin pi(h/b + i/(Kb)); h runs along the contiguous
        # axis, so the sum over it is pairwise
        np.multiply.outer(cos_i, sin_h[h0:h0 + w], out=xs)
        xs += np.multiply.outer(sin_i, cos_h[h0:h0 + w], out=ys)
        g = _cap_reciprocal(xs, b)
        left += np.maximum(g[:-1], g[1:], out=ys[:-1]).sum(axis=1)
    return np.concatenate((left, left[:K - N][::-1]))
