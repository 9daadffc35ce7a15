"""References the benchmark checks results against, none of them computed on
the timed path.

Fixed parameters use stored constants. r_{10,2}(7) = 250848 is the golden of
acceptance criterion 8; the two palindrome counts at x = 10^7 were confirmed
when this file was written by mirroring decimal strings and testing each
palindrome with ``sieve.mobius_sum_oracle`` (k-free) and trial division
(Omega, roughness). Seeded inputs are checked against a plain Eratosthenes
sieve written here and the scalar ``digits.reverse``.
"""

import math

import numpy as np

from revpal.digits import base_context, reverse

RTOL = 1e-9  # relative tolerance for floats: the verifier's own default slack

BASE = 10
B3MB = BASE ** 3 - BASE       # 990 = 2 * 3^2 * 5 * 11
PRIMES_B3MB = (2, 3, 5, 11)
PHI_B = 4
ZETA3 = 1.2020569031595942853997381615114499907649862923405  # Apery's constant

REV_KFREE_10_2_7 = 250848
PSTAR_COUNT_1E7 = 2689           # |P*_10(10^7)|
KFREE_PALINDROMES_10_3_1E7 = 2680
ALMOST_PRIME_PALINDROMES_1E7 = 5787  # Omega <= 6, cube-free, spf >= x^0.0476
HCABDLOG_1E7 = (b'{"base": 10, "limit": 10000000, "scanned_from": 4, '
                b'"parity_class": "all_targets", "exceptions": [11]}\n')


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL)


def palindrome_count_pow10(j: int) -> int:
    """|P_10(10^j)|: 9 * 10^(ceil(n/2) - 1) palindromes with n digits, n <= j."""
    return sum(9 * 10 ** ((n + 1) // 2 - 1) for n in range(1, j + 1))


def _prime_term(N: int) -> float:
    return (PHI_B / BASE) * BASE ** N / (N * math.log(BASE))


def _kfree_density(k: float, zeta_k: float) -> float:
    return math.prod(1.0 / (1.0 - p ** -k) for p in PRIMES_B3MB) / zeta_k


def rev_kfree_main_term_2(N: int) -> float:
    return _kfree_density(2, math.pi ** 2 / 6) * _prime_term(N)


def rev_pi_main_term(N: int, d: int) -> float:
    return _prime_term(N) / d


def palin_kfree_main_term_3(pstar_count: int) -> float:
    return pstar_count * _kfree_density(3, ZETA3)


def prime_flags(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def squarefree_flags(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[0] = False
    for p in np.nonzero(prime_flags(math.isqrt(limit)))[0].tolist():
        flags[p * p :: p * p] = False
    return flags


def reversed_primes(flags: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """digits.reverse(p), ascending, for primes lo <= p < hi not divisible by 10."""
    ctx = base_context(BASE)
    ps = np.nonzero(flags[lo:hi])[0] + lo
    revs = [reverse(p, ctx) for p in ps.tolist() if p % BASE]
    return np.sort(np.array(revs, dtype=np.int64))
