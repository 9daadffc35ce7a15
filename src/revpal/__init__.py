"""revpal: digit reversal, power-free sieving, palindrome counting, restricted
Euler products, exponential-sum certification, and reverse-Goldbach scans."""

from .digits import BaseContext, base_context, reverse, to_digits
from .sieve import FactorTable, build
from .densities import kfree_density, palin_kfree_main_term, rev_kfree_main_term, rev_pi_main_term, zeta
from .experiments import (
    CountReport,
    count_almost_prime_palindromes,
    count_kfree_palindromes,
    count_palindromes_div_by,
    count_rev_kfree_primes,
    enumerate_palindromes,
    rev_pi_star,
    sqrt_law_check,
)
from .verifier import Certificate, certify_base, certify_range, f_eval, find_min_K
from .revgoldbach import (
    ScanResult,
    TargetClass,
    estermann_count,
    parity_class,
    representations,
    scan_exceptions,
)

__version__ = "0.1.0"
