"""Counting experiments: reversed k-free primes, palindrome enumeration and
its derived counts, each paired with a theoretical main term where one exists.
"""

import math
from dataclasses import asdict, dataclass
from itertools import chain
from math import isqrt

import numpy as np

from . import densities
from .digits import BaseContext, reverse_array, to_digits
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


def _palindrome_count(b: int, x: int) -> int:
    """|P_b(x)| from the D base-b digits m of x, most significant first; 0 for x < 1.
    With t = floor(D/2), h = D - t: the n-digit palindromes, fixed by their (b-1) b^(ceil(n/2)-1)
    leading halves, number b^j - b^(j-1) at n = 2j - 1 and at 2j, so b^t + b^(h-1) - 2 have under
    D digits.  A D-digit one led by u is <= x iff u < v = x // b^t (v - b^(h-1) such u), or u = v
    and its tail, m[:t] reversed, is <= x's, m[h:] (equal-length tuples order as numbers)."""
    if x < 1:
        return 0
    m = to_digits(x, b)[::-1]
    t = len(m) // 2
    return b ** t + x // b ** t - 2 + (m[len(m) - t:] >= m[:t][::-1])


def sqrt_law_check(ctx: BaseContext, x_values: list[int], star: bool = False) -> list[tuple[int, int, float]]:
    """For each x, |P_b(x)| from the digits of x, or |P*_b(x)| cut by a binary search from one
    enumeration at the largest x, and its ratio to sqrt(x), 0.0 for x < 1."""
    if any(b > a for a, b in zip(x_values[1:], x_values)):
        raise ValueError("x_values must be ascending")
    if x_values and x_values[-1] >= 2 ** 1024 - 2 ** 970:  # the least int float() rounds past the top
        raise ValueError(f"x of {x_values[-1].bit_length()} bits overflows a float")
    pal = enumerate_palindromes(ctx, max(x_values, default=0), star=True) if star else None
    counts = (int(np.searchsorted(pal, x, "right")) if star else _palindrome_count(ctx.b, x) for x in x_values)
    return [(x, c, c / math.sqrt(x) if x >= 1 else 0.0) for x, c in zip(x_values, counts)]


# ---------------------------------------------------------------------------
# reversed primes
# ---------------------------------------------------------------------------

def reversed_prime_spans(ctx: BaseContext, lo: int, hi: int, table: FactorTable, drop: tuple[int, ...]):
    """rev(p) per table.prime_chunks array of the primes lo <= p < hi, but those in drop (all <= b + 1)."""
    for ps in table.prime_chunks(lo, hi):
        yield reverse_array(ps[~np.isin(ps, drop)] if ps.size and ps[0] <= ctx.b + 1 else ps, ctx)


def _reversed_primes_in_class(ctx: BaseContext, N: int, table: FactorTable):
    """Unsorted chunks of rev(p) over the primes p in B_N (N base-b digits, not divisible by b)
    with reverse in B*_N (also coprime to b^3 - b), read one leading digit d at a time.

    v = rev(p) has v mod b = d, v = p (mod b-1) and v = (-1)^(N-1) p (mod b+1), as b = 1 and
    b = -1 there.  So v is kept iff gcd(d, b) = 1 and p is not a prime q | b^3 - b, all q <= b + 1
    (q = b is the one N-digit prime divisible by b).  Each d's primes are read by
    reversed_prime_spans.  The table limit is checked on the call, before any chunk is read.
    """
    b, top = ctx.b, ctx.b ** (N - 1)
    if b * top - 1 > table.limit:
        raise ValueError(f"table limit {table.limit} too small for b^N = {b * top}")
    return chain.from_iterable(reversed_prime_spans(ctx, d * top, (d + 1) * top, table, ctx.primes_b3mb)
                               for d in range(1, b) if math.gcd(d, b) == 1)


def count_rev_kfree_primes(ctx: BaseContext, k: int, N: int, table: FactorTable) -> CountReport:
    """r_{b,k}(N): primes p in B_N with reverse in B*_N and reverse k-free."""
    main_term = densities.rev_kfree_main_term(ctx, k, N)  # checks k and N before the table
    revs = _reversed_primes_in_class(ctx, N, table)  # map: a generator expression's frame holds a span
    count = sum(map(lambda rev: int(np.count_nonzero(table.kfree_at(rev, k))), revs))
    return CountReport(
        label="rev_kfree_primes", b=ctx.b, k=k, N_or_x=N, d=None,
        empirical=count, main_term=main_term,
    )


def rev_pi_star(ctx: BaseContext, N: int, d: int, table: FactorTable) -> CountReport:
    """pi*_N(0, d): primes p in B_N with reverse in B*_N and d | reverse(p)."""
    main_term = densities.rev_pi_main_term(ctx, d, N)  # checks d and N before the table
    revs = _reversed_primes_in_class(ctx, N, table)  # checks the table; every rev < b^N
    count = sum(map(lambda rev: int(np.count_nonzero(rev % d == 0)), revs)) if d < ctx.b ** N else 0
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


def _omega(ns: np.ndarray, x: int, ps: np.ndarray, table: FactorTable) -> np.ndarray:
    """Omega(n) at each n in [1, x] of ns, ps the primes <= isqrt(x): each p with p^3 <= x is
    divided out with multiplicity.  The cofactor m <= x then has only prime factors > x^(1/3),
    so at most two: Omega(m) is 0 for m = 1, 1 for m prime, else 2.  The cofactors are held
    in the narrowest unsigned type that holds x, where division is fastest."""
    m, omega = ns.astype(np.min_scalar_type(x)), np.zeros(ns.size, dtype=np.int64)
    for p in ps[ps ** 3 <= x].tolist():
        at = np.flatnonzero(m % p == 0)
        while at.size:
            m[at] //= p
            omega[at] += 1
            at = at[m[at] % p == 0]
    return omega + np.where(m == 1, 0, 2 - table.is_prime(m))


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
    ps = table.primes(0, isqrt(max(x, 0)) + 1)
    keep = _omega(pal, x, ps, table) <= omega_max
    if kfree_k is not None:
        keep &= table.kfree_at(pal, kfree_k)
    if rough_exponent is not None:
        rough = pal == 1
        if x >= 2 and rough_exponent <= 1:  # else y > x, or P_b(x) is at most {1}
            y = x ** rough_exponent
            rest = pal[keep & (pal >= y)]  # divide only what is still kept
            for p in ps[ps < y].tolist():
                rest = rest[rest % p != 0]
            rough[np.searchsorted(pal, rest)] = True  # pal is ascending, no repeats
        keep &= rough
    return int(np.count_nonzero(keep))
