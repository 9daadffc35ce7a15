import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import in_b_star, is_palindrome
from revpal import digits
from revpal.digits import (
    BaseContext,
    base_context,
    reverse,
    reverse_array,
    to_digits,
)
from revpal.sieve import DEFAULT_LIMIT_BUDGET


def test_to_digits_examples():
    assert to_digits(1234, 10) == (4, 3, 2, 1)
    assert to_digits(7, 10) == (7,)
    assert to_digits(8, 2) == (0, 0, 0, 1)


def test_to_digits_value_round_trip():
    for n in (1, 5, 99, 1000, 123456789):
        for b in (2, 3, 10, 16):
            ds = to_digits(n, b)
            assert sum(d * b ** i for i, d in enumerate(ds)) == n
            assert ds[-1] != 0


def test_to_digits_rejects_zero():
    with pytest.raises(ValueError):
        to_digits(0, 10)


def test_reverse_worked_examples():
    ctx = base_context(10)
    assert reverse(1234, ctx) == 4321
    assert reverse(878787, ctx) == 787878
    assert reverse(7, ctx) == 7


def test_reverse_rejects_trailing_zero():
    ctx = base_context(10)
    with pytest.raises(ValueError):
        reverse(120, ctx)
    with pytest.raises(ValueError):
        reverse(10, ctx)


def test_is_palindrome_examples():
    ctx = base_context(10)
    assert is_palindrome(121, ctx)
    assert not is_palindrome(120, ctx)
    assert is_palindrome(5, base_context(2))  # binary 101


def test_in_b_star():
    ctx = base_context(10)
    assert in_b_star(7, ctx)
    assert not in_b_star(22, ctx)
    assert in_b_star(1, ctx)
    assert in_b_star(1, base_context(2))


def test_base_context_constants():
    ctx = base_context(10)
    assert ctx.b * ctx.b - 1 == 99
    assert ctx.b3mb == 990
    assert ctx.primes_b3mb == (2, 3, 5, 11)
    assert ctx.phi_b == 4


@given(b=st.integers(2, 300))
def test_base_context_invariants(b):
    ctx = BaseContext(b)
    assert ctx.b3mb == b * (b * b - 1)
    n = ctx.b3mb
    for p in ctx.primes_b3mb:
        assert n % p == 0
        while n % p == 0:
            n //= p
    assert n == 1  # no prime factor outside the list
    assert ctx.phi_b == sum(1 for i in range(1, b + 1) if math.gcd(i, b) == 1)


# n in B_N: N digits in base b, last digit nonzero
def members_of_b_n(draw_b=st.integers(2, 64), max_digits=12):
    @st.composite
    def strat(draw):
        b = draw(draw_b)
        n_digits = draw(st.integers(1, max_digits))
        last = draw(st.integers(1, b - 1))
        lead = draw(st.integers(1, b - 1))
        if n_digits == 1:
            return b, last
        mid = [draw(st.integers(0, b - 1)) for _ in range(n_digits - 2)]
        digits = [last] + mid + [lead]  # little-endian
        n = 0
        for d in reversed(digits):
            n = n * b + d
        return b, n

    return strat()


@given(members_of_b_n())
def test_involution(bn):
    b, n = bn
    ctx = base_context(b)
    assert reverse(reverse(n, ctx), ctx) == n


@given(members_of_b_n())
def test_congruence_mod_b2m1(bn):
    b, n = bn
    ctx = base_context(b)
    N = len(to_digits(n, b))
    b2m1 = b * b - 1
    assert reverse(n, ctx) % b2m1 == (pow(b, N - 1, b2m1) * n) % b2m1


@given(members_of_b_n())
def test_gcd_equivalence_mod_b2m1(bn):
    b, n = bn
    ctx = base_context(b)
    b2m1 = b * b - 1
    assert (math.gcd(n, b2m1) > 1) == (math.gcd(reverse(n, ctx), b2m1) > 1)


@given(members_of_b_n())
def test_digit_count_preserved(bn):
    b, n = bn
    ctx = base_context(b)
    assert len(to_digits(reverse(n, ctx), b)) == len(to_digits(n, b))


@settings(max_examples=200)
@given(st.integers(2, 32), st.integers(1, 10 ** 6))
def test_palindromes_are_fixed_points(b, n):
    ctx = base_context(b)
    if is_palindrome(n, ctx):
        assert reverse(n, ctx) == n


@st.composite
def ascending_arrays_not_divisible_by_b(draw):
    """(b, ns): ns ascending, of mixed digit counts, no entry divisible by b,
    every entry within the sieve's table budget."""
    b = draw(st.integers(2, 36))
    ns = []
    for n_digits in draw(st.lists(st.integers(1, len(to_digits(DEFAULT_LIMIT_BUDGET, b))), max_size=40)):
        lo, hi = b ** (n_digits - 1), min(b ** n_digits - 1, DEFAULT_LIMIT_BUDGET)
        ns.append(draw(st.integers(lo, hi).filter(lambda n: n % b)))
    return b, np.array(sorted(ns), dtype=np.int64)


@settings(max_examples=200)
@given(ascending_arrays_not_divisible_by_b())
def test_reverse_array_matches_scalar_reverse(b_ns):
    b, ns = b_ns
    ctx = base_context(b)
    assert reverse_array(ns, ctx).tolist() == [reverse(n, ctx) for n in ns.tolist()]


def _straddling(b: int, size: int, below: int) -> np.ndarray:
    """`size` ascending values not divisible by b: the first `below` of them
    have D base-b digits, the rest D + 1, for the smallest power b^D at least
    4 (size + b), so both digit counts have room."""
    top = b
    while top < 4 * (size + b):
        top *= b
    lo, hi = np.arange(top // b, top), np.arange(top, 2 * top)
    lo, hi = lo[lo % b != 0], hi[hi % b != 0]
    return np.concatenate((lo[lo.size - below:], hi[: size - below])).astype(np.int64)


@pytest.mark.parametrize("b", [2, 10, 36])
@pytest.mark.parametrize("size", [0, 1, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1, 3 * 2 ** 15 + 5])
def test_reverse_array_slice_edges(b, size):
    # a digit-count boundary inside a slice and, where the array is long
    # enough, on the edge between two slices
    slice_ = digits._REVERSE_SLICE
    assert slice_ == 2 ** 15
    ctx = base_context(b)
    for below in sorted({size // 2 + 3 if size > 6 else 0, slice_ if size > slice_ else size}):
        ns = _straddling(b, size, below)
        assert ns.size == size and np.all(np.diff(ns) > 0)
        got = reverse_array(ns, ctx)
        assert got.dtype == np.int64
        assert got.tolist() == [reverse(n, ctx) for n in ns.tolist()], below


# bases 2 to 36, and around the 2^16-entry table: b^2 just below, at and
# above 2^16, then bases whose single digit is that large or larger
_KERNEL_BASES = [*range(2, 37), 255, 256, 257, 31698, 65535, 65536, 65537]


@pytest.mark.parametrize("b", _KERNEL_BASES)
def test_reverse_array_at_every_digit_count_edge(b):
    # the first and last values of each digit count up to the table budget,
    # those around the first carry into the second digit, and a few at random
    ctx = base_context(b)
    rng = np.random.default_rng(b)
    ns = set()
    for j in range(1, len(to_digits(DEFAULT_LIMIT_BUDGET, b)) + 1):
        lo, hi = b ** (j - 1), min(b ** j, DEFAULT_LIMIT_BUDGET + 1)
        ns.update(range(lo, min(lo + 3, hi)), range(max(hi - 3, lo), hi))
        ns.update(n for n in range(lo + b - 2, lo + b + 3) if n < hi)
        ns.update(rng.integers(lo, hi, size=20).tolist())
    ns = np.array(sorted(n for n in ns if n % b), dtype=np.int64)
    assert reverse_array(ns, ctx).tolist() == [reverse(n, ctx) for n in ns.tolist()]


@pytest.mark.parametrize("b", [*_KERNEL_BASES, 2 ** 20])
def test_padded_reversal_tables_hold_at_most_2_16_entries(b):
    k0, table = digits._padded_reversals(b)
    assert k0 >= 1 and b ** (k0 + 1) > 2 ** 16
    if k0 == 1:
        assert table is None
        return
    assert table.size == b ** k0 <= 2 ** 16
    assert not table.flags.writeable
    for r in {0, 1, b - 1, b, b + 1, b ** k0 // 3, b ** k0 - 1}:
        padded = [(r // b ** i) % b for i in range(k0)]
        assert table[r] == sum(d * b ** (k0 - 1 - i) for i, d in enumerate(padded)), r


@pytest.mark.parametrize("b", [2, 10])
def test_reverse_array_memory_is_the_output_and_fixed_buffers(b):
    # every prime below 10^6: beyond the output, only the two scratch slices
    # and the base's table of padded reversals, built here from a cold cache
    from revpal.sieve import build
    ps = build(10 ** 6).primes(0, 10 ** 6 + 1)
    ps = ps[ps % b != 0]
    digits._padded_reversals.cache_clear()
    tracemalloc.start()
    try:
        out = reverse_array(ps, base_context(b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.size == ps.size
    assert peak <= out.nbytes + 2 * 8 * digits._REVERSE_SLICE + 8 * 2 ** 16 + 2 ** 16
