"""Counting experiments: reversed k-free primes, palindrome enumeration and
its derived counts, each paired with a theoretical main term where one exists.
"""

import math
from dataclasses import asdict, dataclass
from math import isqrt

import numpy as np

from . import densities, revgoldbach
from .digits import BaseContext, reverse, reverse_array
from .sieve import FactorTable, check_k


@dataclass(frozen=True)
class CountReport:
    label: str
    b: int
    k: int | None
    N_or_x: int
    d: int | None
    empirical: int
    main_term: float

    @property
    def ratio(self) -> float | None:
        """empirical / main_term, None where main_term <= 0."""
        return self.empirical / self.main_term if self.main_term > 0 else None

    def to_dict(self) -> dict:
        return {**asdict(self), "ratio": self.ratio}


# ---------------------------------------------------------------------------
# palindrome enumeration
# ---------------------------------------------------------------------------

def enumerate_palindromes(ctx: BaseContext, x: int, star: bool = False) -> np.ndarray:
    """P_b(x), or its subset P*_b(x) coprime to b^3 - b, as an ascending int64 array.

    The n-digit palindromes are built together from their leading h = ceil(n/2)
    digits v: for n > 1 the palindrome is v b^(n-h) + rev(v // b^(2h-n)), its
    first n - h digits mirrored by reverse_array.  Prefixes above x // b^(n-h)
    are skipped, since every palindrome they start exceeds x.  P* is tested one
    prime of b^3 - b at a time: the product overflows int64 past b = 2^21.
    """
    b = ctx.b
    blocks = [np.empty(0, dtype=np.int64)]
    n = 1
    while b ** (n - 1) <= x:
        h = (n + 1) // 2
        v = np.arange(b ** (h - 1), min(b ** h, x // b ** (n - h) + 1), dtype=np.int64)
        if n > 1:
            v = v * b ** (n - h) + reverse_array(v // b ** (2 * h - n), ctx)
        blocks.append(v[v <= x])
        n += 1
    pal = np.concatenate(blocks)
    if star:
        for p in ctx.primes_b3mb:
            pal = pal[pal % p != 0]
    return pal


def count_palindromes_div_by(ctx: BaseContext, x: int, d: int, star: bool = False) -> int:
    """#{n in P_b(x) (or P*_b(x)) : d | n}; 0 for d > x, which no n reaches."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d > x:
        return 0
    return int(np.count_nonzero(enumerate_palindromes(ctx, x, star) % d == 0))


def sqrt_law_check(ctx: BaseContext, x_values: list[int], star: bool = False) -> list[tuple[int, int, float]]:
    """For each x, the palindrome count and its ratio to sqrt(x)."""
    if any(b > a for a, b in zip(x_values[1:], x_values)):
        raise ValueError("x_values must be ascending")
    out = []
    for x in x_values:
        c = len(enumerate_palindromes(ctx, x, star))
        out.append((x, c, c / math.sqrt(x) if x >= 1 else 0.0))
    return out


# ---------------------------------------------------------------------------
# reversed primes
# ---------------------------------------------------------------------------

def _reversed_primes_in_class(ctx: BaseContext, N: int, table: FactorTable) -> np.ndarray:
    """rev(p) for the primes p in B_N (N base-b digits, not divisible by b)
    whose reverse is in B*_N (also coprime to b^3 - b), in ascending order.

    Reversal maps B_N onto itself, so these are block N of the table's memo
    of reversed primes v = rev(p), less those sharing a prime with
    (b-1)b(b+1).  v mod b is the leading digit of p, and v = p (mod b-1),
    v = (-1)^(N-1) p (mod b+1), as b = 1 and b = -1 there.  So v is kept iff
    gcd(v mod b, b) = 1 and p is not a prime q | b^2 - 1, all q <= b + 1.
    """
    hi = ctx.b ** N
    if hi - 1 > table.limit:
        raise ValueError(f"table limit {table.limit} too small for b^N = {hi}")
    rev = revgoldbach.reversed_prime_block(ctx, N, table)
    keep = (np.gcd(np.arange(ctx.b), ctx.b) == 1)[rev % ctx.b]
    qs = [q for q in ctx.primes_b3mb if ctx.b % q and hi // ctx.b <= q < hi]  # in B_N
    keep[np.searchsorted(rev, [reverse(q, ctx) for q in qs])] = False
    return rev[keep]


def count_rev_kfree_primes(ctx: BaseContext, k: int, N: int, table: FactorTable) -> CountReport:
    """r_{b,k}(N): primes p in B_N with reverse in B*_N and reverse k-free."""
    main_term = densities.rev_kfree_main_term(ctx, k, N)  # checks k and N before the table
    rev = _reversed_primes_in_class(ctx, N, table)
    count = int(np.count_nonzero(table.kfree_at(rev, k)))
    return CountReport(
        label="rev_kfree_primes", b=ctx.b, k=k, N_or_x=N, d=None,
        empirical=count, main_term=main_term,
    )


def rev_pi_star(ctx: BaseContext, N: int, d: int, table: FactorTable) -> CountReport:
    """pi*_N(0, d): primes p in B_N with reverse in B*_N and d | reverse(p)."""
    main_term = densities.rev_pi_main_term(ctx, d, N)  # checks d and N before the table
    rev = _reversed_primes_in_class(ctx, N, table)
    count = int(np.count_nonzero(rev % d == 0)) if d < ctx.b ** N else 0  # every rev < b^N
    return CountReport(
        label="rev_pi_star", b=ctx.b, k=None, N_or_x=N, d=d,
        empirical=count, main_term=main_term,
    )


# ---------------------------------------------------------------------------
# k-free and almost-prime palindromes
# ---------------------------------------------------------------------------

def count_kfree_palindromes(ctx: BaseContext, k: int, x: int, table: FactorTable) -> CountReport:
    """p_{k,b}(x): k-free members of P*_b(x), with the Theorem-2-style main term."""
    check_k(k, 3)
    if x > table.limit:
        raise ValueError(f"table limit {table.limit} too small for x = {x}")
    pstar = enumerate_palindromes(ctx, x, star=True)
    count = int(np.count_nonzero(table.kfree_at(pstar, k)))
    return CountReport(
        label="kfree_palindromes", b=ctx.b, k=k, N_or_x=x, d=None,
        empirical=count,
        main_term=densities.palin_kfree_main_term(ctx, k, len(pstar)),
    )


def _check_almost_prime(omega_max: int, kfree_k: int | None, rough_exponent: float | None):
    """The argument checks of count_almost_prime_palindromes that need no table."""
    if omega_max < 0:
        raise ValueError("omega_max must be >= 0")
    if rough_exponent is not None and not math.isfinite(rough_exponent):
        raise ValueError(f"rough_exponent must be finite, got {rough_exponent}")
    check_k(kfree_k)


def count_almost_prime_palindromes(
    ctx: BaseContext,
    x: int,
    omega_max: int,
    kfree_k: int | None = None,
    rough_exponent: float | None = None,
    *,
    table: FactorTable,
) -> int:
    """#{n in P_b(x) : Omega(n) <= omega_max}, optionally also k-free and rough:
    n = 1, or its smallest prime factor spf(n) >= y = x^rough_exponent.  For
    2 <= n <= x, that is n >= y with no prime p < y, p <= isqrt(x) dividing n:
    a composite n has spf(n) <= isqrt(n) <= isqrt(x); a prime n has spf(n) = n."""
    _check_almost_prime(omega_max, kfree_k, rough_exponent)
    if x > table.limit:
        raise ValueError(f"table limit {table.limit} too small for x = {x}")
    pal = enumerate_palindromes(ctx, x)
    keep = table.omega_total[pal] <= omega_max
    if kfree_k is not None:
        keep &= table.kfree_at(pal, kfree_k)
    if rough_exponent is not None:
        rough = pal == 1
        if x >= 2 and rough_exponent <= 1:  # else y > x, or P_b(x) is at most {1}
            y = x ** rough_exponent
            ps = np.flatnonzero(table.omega_total[: isqrt(x) + 1] == 1)
            rest = pal[keep & (pal >= y)]  # divide only what is still kept
            for p in ps[ps < y].tolist():
                rest = rest[rest % p != 0]
            rough[np.searchsorted(pal, rest)] = True  # pal is ascending, no repeats
        keep &= rough
    return int(np.count_nonzero(keep))
