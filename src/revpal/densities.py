"""Closed-form main terms: zeta values, restricted Euler products, and the
leading asymptotics for the reversed-prime and palindrome counting functions.
"""

import math

from .digits import BaseContext
from .sieve import check_k


def zeta(k: int) -> float:
    """zeta(k) for integer k >= 2, via partial sum plus Euler-Maclaurin tail.

    With cutoff M = 1000 the correction terms leave an error far below
    double precision for every k >= 2.  From k = 54 it is 1.0, the nearest double:
    zeta(k) - 1 < 2^-k + (integral of x^-k over x >= 2) = 2^-k (1 + 2/(k - 1)) < 2^-53.
    """
    check_k(k)
    if k >= 54:
        return 1.0
    M = 1000
    s = sum(n ** -float(k) for n in range(M - 1, 0, -1))
    # tail: integral term, half-step correction, two Bernoulli corrections
    s += M ** (1.0 - k) / (k - 1)
    s += 0.5 * M ** (-float(k))
    s += (k / 12.0) * M ** (-(k + 1.0))
    s -= (k * (k + 1) * (k + 2) / 720.0) * M ** (-(k + 3.0))
    return s


def kfree_density(ctx: BaseContext, k: int) -> float:
    """Density of k-free integers among those coprime to b^3 - b:
    (1/zeta(k)) * prod_{p | b^3-b} (1 - p^-k)^-1.
    """
    z = zeta(k)  # checks k first
    prod = 1.0
    for p in ctx.primes_b3mb:
        prod /= 1.0 - p ** -float(min(k, 54))  # p^-k <= 2^-54 rounds 1 - p^-k to 1.0
    return prod / z


def _prime_main_term(ctx: BaseContext, log_factor: float, N: int) -> float:
    """e^log_factor (phi(b)/b) b^N / (N log b), the expected prime count over
    N-digit numbers whose reverse is coprime to b, scaled; a ValueError where
    it overflows a float."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    logb = math.log(ctx.b)
    try:
        return math.exp(log_factor + (math.log(ctx.phi_b / ctx.b) + N * logb - math.log(N * logb)))
    except OverflowError:
        raise ValueError(f"the main term at N = {N} overflows a float") from None


def rev_kfree_main_term(ctx: BaseContext, k: int, N: int) -> float:
    """Main term for the count of N-digit primes with k-free reverse."""
    return _prime_main_term(ctx, math.log(kfree_density(ctx, k)), N)


def palin_kfree_main_term(ctx: BaseContext, k: int, pstar_count: int) -> float:
    """Main term for k-free palindromes: |P*_b(x)| times the k-free density."""
    check_k(k, 3)
    if pstar_count < 0:
        raise ValueError("pstar_count must be >= 0")
    return pstar_count * kfree_density(ctx, k)


def rev_pi_main_term(ctx: BaseContext, d: int, N: int) -> float:
    """Main term for primes whose reverse is divisible by d, d coprime to b^3 - b."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if math.gcd(d, ctx.b3mb) != 1:
        raise ValueError(f"d = {d} shares a factor with b^3 - b = {ctx.b3mb}")
    return _prime_main_term(ctx, -math.log(d), N)
