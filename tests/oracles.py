"""Reference implementations that the tests compare production code against."""

from math import isqrt

import numpy as np

from revpal.digits import BaseContext, reverse_array
from revpal.revgoldbach import prime_bound
from revpal.sieve import FactorTable


def build_divide_out(limit: int) -> FactorTable:
    """Factor table by division: one loop over the primes p <= isqrt(limit)
    fills spf, mu and Omega and divides every p^k out of an int32 cofactor
    array; what is left of n is 1 or its one prime factor above isqrt(limit)."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    omega = np.zeros(limit + 1, dtype=np.int8)
    rest = np.arange(limit + 1, dtype=np.int32)
    for p in range(2, isqrt(limit) + 1):
        if spf[p]:
            continue
        block = spf[p::p]
        block[block == 0] = p
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        pk = p
        while pk <= limit:
            omega[pk::pk] += 1
            rest[pk::pk] //= p
            pk *= p
    np.copyto(spf[2:], rest[2:], where=spf[2:] == 0)
    big = rest > 1
    mu[big] *= -1
    omega[big] += 1
    return FactorTable(limit=limit, spf=spf, mu=mu, omega_total=omega)


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
    ps = np.flatnonzero(table.omega_total[: bound + 1] == 1).astype(np.int64)
    ps = ps[ps % b != 0]
    vals = reverse_array(ps, ctx)
    vals = vals[vals <= cap]
    vals.sort()
    return vals
