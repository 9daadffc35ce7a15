import math

import pytest

from oracles import ZETA_OVERFLOW_K, mu_trial
from revpal import densities
from revpal.densities import (
    kfree_density,
    palin_kfree_main_term,
    rev_kfree_main_term,
    rev_pi_main_term,
    zeta,
)
from revpal.digits import base_context


def test_zeta_closed_forms():
    assert zeta(2) == pytest.approx(math.pi ** 2 / 6, rel=1e-12)
    assert zeta(4) == pytest.approx(math.pi ** 4 / 90, rel=1e-12)
    # Apery's constant, partial sum to 1e6 terms plus integral tail bracket
    assert zeta(3) == pytest.approx(1.2020569031595943, abs=1e-12)


def test_zeta_rejects_small_k():
    with pytest.raises(ValueError):
        zeta(1)


def test_zeta_monotone_to_one():
    values = [zeta(k) for k in range(2, 20)]
    assert all(a > b > 1.0 for a, b in zip(values, values[1:]))


def test_kfree_density_base2_closed_form():
    # primes of b^3 - b = 6 are {2, 3}
    ctx = base_context(2)
    expected = (6 / math.pi ** 2) * (4 / 3) * (9 / 8)
    assert kfree_density(ctx, 2) == pytest.approx(expected, rel=1e-12)


def test_kfree_density_in_unit_interval_and_increasing_in_k():
    for b in (2, 3, 10, 16, 100):
        ctx = base_context(b)
        prev = 0.0
        for k in range(2, 12):
            v = kfree_density(ctx, k)
            assert 0.0 < v <= 1.0
            assert v > prev
            prev = v


def test_kfree_density_matches_truncated_dirichlet_sum():
    # sum over d <= D coprime to b^3-b of mu(d)/d^3; tail below 1e-9 at D = 1e4
    ctx = base_context(10)
    D = 10 ** 4
    s = sum(mu_trial(d) / d ** 3 for d in range(1, D + 1) if math.gcd(d, ctx.b3mb) == 1)
    assert kfree_density(ctx, 3) == pytest.approx(s, abs=1e-8)


def test_rev_kfree_main_term_formula():
    ctx = base_context(10)
    expected = kfree_density(ctx, 2) * (4 / 10) * 10 ** 8 / (8 * math.log(10))
    assert rev_kfree_main_term(ctx, 2, 8) == pytest.approx(expected, rel=1e-12)


def test_rev_kfree_main_term_monotone_in_N():
    ctx = base_context(10)
    vals = [rev_kfree_main_term(ctx, 2, N) for N in range(1, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_phi_over_b_factor_base2():
    ctx = base_context(2)
    assert ctx.phi_b / ctx.b == 0.5


def test_palin_kfree_main_term():
    ctx = base_context(2)
    assert palin_kfree_main_term(ctx, 3, 0) == 0.0
    v = palin_kfree_main_term(ctx, 3, 1000)
    assert v == pytest.approx(1000 * kfree_density(ctx, 3), rel=1e-12)
    assert v < 1000


def test_rev_pi_main_term():
    ctx = base_context(10)
    assert rev_pi_main_term(ctx, 7, 6) == pytest.approx(
        (1 / 7) * (4 / 10) * 10 ** 6 / (6 * math.log(10)), rel=1e-12)
    # d = 1 is the prime main term without any density factor
    assert rev_pi_main_term(ctx, 1, 6) == pytest.approx(
        rev_kfree_main_term(ctx, 2, 6) / kfree_density(ctx, 2), rel=1e-10)
    # scales as 1/d for coprime d
    assert rev_pi_main_term(ctx, 7, 6) == pytest.approx(
        7 * rev_pi_main_term(ctx, 49, 6), rel=1e-12)


def test_rev_pi_main_term_rejects_non_coprime_d():
    ctx = base_context(10)
    with pytest.raises(ValueError):
        rev_pi_main_term(ctx, 11, 6)


def test_main_terms_positive_finite():
    for b in (2, 10, 937):
        ctx = base_context(b)
        for k in (2, 3, 5):
            for N in (1, 5, 30):
                v = rev_kfree_main_term(ctx, k, N)
                assert v > 0 and math.isfinite(v)


def test_main_terms_that_overflow_a_float_raise_value_error():
    ctx = base_context(10)
    assert math.isfinite(rev_kfree_main_term(ctx, 2, 311))
    assert math.isfinite(rev_pi_main_term(ctx, 7, 312))
    assert zeta(ZETA_OVERFLOW_K - 1) == kfree_density(ctx, ZETA_OVERFLOW_K - 1) == 1.0
    for call in (lambda: rev_kfree_main_term(ctx, 2, 312),
                 lambda: rev_pi_main_term(ctx, 7, 313),
                 lambda: rev_kfree_main_term(ctx, 2, 10 ** 400),
                 lambda: zeta(ZETA_OVERFLOW_K),
                 lambda: kfree_density(ctx, 10 ** 400),
                 lambda: palin_kfree_main_term(ctx, 10 ** 400, 5)):
        with pytest.raises(ValueError, match="overflow"):
            call()


def test_kfree_density_checks_k_before_the_product():
    # at k = 0 the product would divide by 1 - p^0 = 0
    with pytest.raises(ValueError, match=r"^k must be >= 2, got 0$"):
        kfree_density(base_context(10), 0)
