"""Base-b digit arithmetic: expansion and reversal."""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# entries per slice of reverse_array's scratch buffers
_REVERSE_SLICE = 2 ** 15


def _trial_factor(n: int) -> list[int]:
    """Distinct prime factors of n by trial division, ascending."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


@dataclass(frozen=True)
class BaseContext:
    """A base b with the derived constants used throughout.

    b3mb = b^3 - b = (b-1) b (b+1); its prime factors are found by factoring
    each of the three terms separately, so only primes up to b+1 are needed.
    """

    b: int
    b3mb: int = field(init=False)
    primes_b3mb: tuple[int, ...] = field(init=False)
    phi_b: int = field(init=False)

    def __post_init__(self):
        if self.b < 2:
            raise ValueError(f"base must be >= 2, got {self.b}")
        b = self.b
        object.__setattr__(self, "b3mb", b ** 3 - b)
        ps = sorted(set().union(*map(_trial_factor, (b - 1, b, b + 1))))  # _trial_factor(1) == []
        object.__setattr__(self, "primes_b3mb", tuple(ps))
        phi = b  # phi(b) = b * prod(1 - 1/p) over the primes p | b
        for p in ps:
            if b % p == 0:
                phi -= phi // p
        object.__setattr__(self, "phi_b", phi)


@lru_cache(maxsize=None)
def base_context(b: int) -> BaseContext:
    return BaseContext(b)


def to_digits(n: int, b: int) -> tuple[int, ...]:
    """Base-b digits of n >= 1, least-significant first, no leading zero."""
    if n < 1:
        raise ValueError("digit expansion is defined for n >= 1 only")
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    ds = []
    while n:
        n, d = divmod(n, b)
        ds.append(d)
    return tuple(ds)


def reverse(n: int, ctx: BaseContext) -> int:
    """Digital reverse of n in base ctx.b.

    Requires b to not divide n, so that the result has the same digit count
    and reversal is an involution.
    """
    b = ctx.b
    if n < 1:
        raise ValueError("reverse is defined for n >= 1 only")
    if n % b == 0:
        raise ValueError(f"{n} has a trailing zero digit in base {b}; reversal is not invertible")
    r = 0
    while n:
        n, d = divmod(n, b)
        r = r * b + d
    return r


@lru_cache(maxsize=None)
def _padded_reversals(b: int) -> tuple[int, np.ndarray | None]:
    """(k0, t): k0 the largest digit count with b^k0 <= 2^16, at least 1, and
    t[r] the reverse of r written with k0 base-b digits, leading zeros
    included, for 0 <= r < b^k0; None for k0 = 1, where t[r] = r."""
    k0 = max([k for k in range(2, 17) if b ** k <= 2 ** 16], default=1)
    if k0 == 1:
        return 1, None
    r, t = np.arange(b ** k0), np.zeros(b ** k0, dtype=np.int64)
    for _ in range(k0):
        t *= b
        t += r % b
        r //= b
    t.setflags(write=False)
    return k0, t


def reverse_array(ns: np.ndarray, ctx: BaseContext) -> np.ndarray:
    """Digital reverse of every entry of ns in base ctx.b.

    ns must be a non-decreasing int64 array of positive entries, such as
    FactorTable.primes(lo, hi); an entry divisible by b reverses
    as its digit string, so 120 gives 21 in base 10.  Entries with equal digit
    counts form contiguous blocks, found with np.searchsorted.  Each block is reversed
    into its slice of the output in slices of _REVERSE_SLICE entries, through
    two reused scratch buffers, so the temporaries stay a fixed size.  A step reverses
    k0 digits (see _padded_reversals) by one gather, each but the last after two
    floor_divides by b^k0, a multiply and a subtract (divmod is 4x slower).  An n-digit
    reverse comes out times b^(k0 ceil(n / k0) - n) <= b^(k0 - 1), which the last division
    removes, so the int64 accumulator stays below b^(n - 1 + k0), 2^16 times the entry if k0 > 1.
    """
    b = ctx.b
    k0, table = _padded_reversals(b)
    step = b ** k0
    out = np.zeros_like(ns)
    if not ns.size:
        return out
    n_max = len(to_digits(int(ns[-1]), b))
    edges = [0, *np.searchsorted(ns, [b ** j for j in range(1, n_max)]).tolist(), ns.size]
    m = np.empty(min(ns.size, _REVERSE_SLICE), dtype=ns.dtype)
    d = np.empty_like(m)
    for n_digits, (lo, hi) in enumerate(zip(edges, edges[1:]), start=1):
        steps = -(-n_digits // k0)
        for s in range(lo, hi, _REVERSE_SLICE):
            e = min(s + _REVERSE_SLICE, hi)
            q, r, acc = m[: e - s], d[: e - s], out[s:e]
            q[:] = ns[s:e]
            for k in range(steps):
                acc *= step
                if k < steps - 1:  # q mod step stays in q, q // step goes to r
                    np.floor_divide(q, step, out=r)
                    r *= step
                    q -= r
                    r //= step  # exact
                if table is not None:  # q < b^k0: "clip" is exact; "raise" would copy q
                    np.take(table, q, out=q, mode="clip")
                acc += q
                q, r = r, q
            acc //= b ** (k0 * steps - n_digits)
    return out
