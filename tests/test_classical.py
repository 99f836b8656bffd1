"""Eisenstein series, Bernoulli numbers, Miller bases, delta, hauptmoduls.

Reference values come from independent constructions: sympy's Bernoulli
numbers, the tangent numbers for p B_k mod p^R, the pentagonal number
theorem for eta products, and hand-checked small q-expansion coefficients.
"""

from __future__ import annotations

import pytest
import sympy

from katzexp import (
    QQ,
    QSeries,
    bernoulli,
    delta_series,
    dim_weight,
    eisenstein_series,
    hauptmodul_series,
    miller_form,
    qs_mul,
    qs_pow,
    qs_sub,
    qs_val,
)
from katzexp import classical, katz
from katzexp.classical import bernoulli_p_mod
from katzexp.errors import CrossCheckMismatch, InvalidWeight, NotAUnit, UnsupportedPrime
from katzexp.series import qs_reduce_mod
from oracles import bernoulli_even_tangent, delta_from_e4_e6, hauptmodul_by_factors, sigma_k


def eta_quotient_pentagonal(N):
    """prod_{n>=1} (1 - q^n) to precision N, via the pentagonal number theorem."""
    coeffs = [QQ(0)] * N
    k = 0
    while True:
        done = True
        for kk in (k, -k) if k else (0,):
            g = kk * (3 * kk - 1) // 2
            if g < N:
                coeffs[g] += QQ(-1) ** abs(kk)
                done = False
        if done:
            break
        k += 1
    return QSeries(coeffs)


# 1090 and 1876: the classical-limit weights of theorems F (p=11) and A;
# 2500 and 4000 lie past the tangent-number differential test in test_kernels
@pytest.mark.parametrize("k", [*range(0, 102, 2), 1090, 1876, 2500, 4000])
def test_bernoulli_matches_sympy(k):
    num, den = sympy.bernoulli(k).as_numer_denom()
    assert bernoulli(k) == QQ(int(num), int(den))


def test_bernoulli_rejects_odd_and_negative():
    for k in (1, 3, 17, -2):
        with pytest.raises(InvalidWeight):
            bernoulli(k)


@pytest.mark.parametrize("k", range(2, 62, 2))
def test_von_staudt_clausen(k):
    total = bernoulli(k)
    p = 2
    while p <= k + 1:
        if sympy.isprime(p) and k % (p - 1) == 0:
            total += QQ(1, p)
        p += 1
    assert total.denominator == 1


def test_bernoulli_p_mod_matches_the_tangent_numbers_to_2000():
    # every even k <= 2000 with (p - 1) | k, so v_p(k) reaches 4 at p = 5
    table = bernoulli_even_tangent(2000)
    for p in (5, 7, 11, 13):
        for k in range(p - 1, 2001, p - 1):
            pb = p * table[k // 2]
            for R in (1, 2, 3):
                m = p**R
                assert bernoulli_p_mod(k, p, R) == pb.numerator * pow(pb.denominator, -1, m) % m, (p, k, R)


def test_bernoulli_p_mod_rejects_weights_outside_its_domain():
    for k, p, R in ((6, 5, 2), (5, 5, 2), (0, 5, 2), (4, 5, 0), (4, 2, 2)):
        with pytest.raises(InvalidWeight):
            bernoulli_p_mod(k, p, R)


def test_bernoulli_p_mod_refuses_a_sum_that_breaks_von_staudt_clausen(monkeypatch):
    # one corrupted term of the sum moves p B_4 off -1 mod 5; it is raised,
    # never returned
    def corrupted_pow(x, e, m=None):
        return pow(x, e, m) + (x == 4 and e == 3)

    monkeypatch.setattr(classical, "pow", corrupted_pow, raising=False)
    with pytest.raises(CrossCheckMismatch, match="not -1"):
        bernoulli_p_mod(4, 5, 1)


def test_sigma_k():
    assert sigma_k(6, 1) == 12
    assert sigma_k(6, 3) == 252
    assert sigma_k(1, 9) == 1
    assert sigma_k(12, 0) == 6


def test_eisenstein_small_coefficients():
    e4 = eisenstein_series(4, 4)
    assert list(e4.coeffs) == [1, 240, 2160, 6720]
    e6 = eisenstein_series(6, 3)
    assert list(e6.coeffs) == [1, -504, -16632]
    e14 = eisenstein_series(14, 2)
    assert e14.coeffs[1] == -24


def test_eisenstein_multiplicative_coefficient():
    # a_n / a_1 = sigma_{k-1}(n)
    e8 = eisenstein_series(8, 13)
    assert e8.coeffs[12] == e8.coeffs[1] * sigma_k(12, 7)


def test_eisenstein_invalid_weights():
    for k in (0, 2, 5, -4):
        with pytest.raises(InvalidWeight):
            eisenstein_series(k, 10)


def test_delta_matches_eta_product():
    N = 60
    eta24 = qs_pow(eta_quotient_pentagonal(N), 24)
    shifted = QSeries([QQ(0)] + list(eta24.coeffs[: N - 1]))
    d = delta_series(N)
    assert d.coeffs == shifted.coeffs


def test_delta_first_coefficients():
    d = delta_series(6)
    assert list(d.coeffs) == [0, 1, -24, 252, -1472, 4830]


KNOWN_DIMS = {0: 1, 2: 0, 4: 1, 6: 1, 8: 1, 10: 1, 12: 2, 14: 1,
              16: 2, 18: 2, 20: 2, 22: 2, 24: 3, 26: 2, 48: 5, 50: 4}


@pytest.mark.parametrize("k,d", sorted(KNOWN_DIMS.items()))
def test_dim_weight(k, d):
    got_d, eps = dim_weight(k)
    assert got_d == d
    assert eps == (0 if k % 4 == 0 else 1)


@pytest.mark.parametrize("k", [12, 24, 36, 48, 50])
def test_miller_basis_unit_upper_triangular(k):
    d, _ = dim_weight(k)
    for j in range(d):
        g = miller_form(k, j, d + 5)
        for i in range(j):
            assert g.coeffs[i] == 0
        assert g.coeffs[j] == 1
        assert g.den == 1


def test_miller_form_is_product_of_generators():
    # weight 24, j = 1: delta * E4^3 (eps = 0, a = 3)
    g = miller_form(24, 1, 10)
    ref = qs_mul(delta_series(10), qs_pow(eisenstein_series(4, 10), 3))
    assert g.coeffs == ref.coeffs
    # weight 50, j = 2: delta^2 * E4^5 * E6
    g = miller_form(50, 2, 8)
    ref = qs_mul(
        qs_pow(delta_series(8), 2),
        qs_mul(qs_pow(eisenstein_series(4, 8), 5), eisenstein_series(6, 8)),
    )
    assert g.coeffs == ref.coeffs


def test_products_lie_in_miller_span():
    # E4 * E6 and E6^2 expand exactly over the Miller basis of the product weight
    for f, k in [
        (qs_mul(eisenstein_series(4, 12), eisenstein_series(6, 12)), 10),
        (qs_pow(eisenstein_series(6, 12), 2), 12),
        (qs_mul(delta_series(12), eisenstein_series(4, 12)), 16),
    ]:
        d, _ = dim_weight(k)
        rem = f
        for j in range(d):
            g = miller_form(k, j, 12)
            rem = qs_sub(rem, qs_mul(QSeries([rem.coeffs[j]] + [QQ(0)] * 11), g))
        assert all(c == 0 for c in rem.coeffs)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_eisenstein_weight_p_minus_1_is_1_mod_p(p):
    e = eisenstein_series(p - 1, 30)
    assert e.coeffs[0] == 1
    assert qs_val(qs_sub(e, QSeries([QQ(1)] + [QQ(0)] * 29)), p) >= 1


@pytest.mark.parametrize("p,n", [(5, 2), (5, 3), (7, 2), (7, 3)])
def test_eisenstein_power_congruence_mod_p_squared(p, n):
    # E_{n(p-1)} and E_{p-1}^n agree one level deeper than mod p
    a = eisenstein_series(n * (p - 1), 40)
    b = qs_pow(eisenstein_series(p - 1, 40), n)
    assert qs_val(qs_sub(a, b), p) >= 2


@pytest.mark.parametrize("p", [5, 7, 13])
def test_hauptmodul_matches_eta_quotient(p):
    N = 40
    e = 24 // (p - 1)
    eta = eta_quotient_pentagonal(N)
    eta_p = QSeries(
        [eta.coeffs[n // p] if n % p == 0 else QQ(0) for n in range(N)]
    )
    ratio = qs_pow(qs_mul(eta_p, qs_pow(eta, -1)), e)
    expect = QSeries([QQ(0)] + list(ratio.coeffs[: N - 1]))
    got = hauptmodul_series(p, N)
    assert got.coeffs == expect.coeffs


def test_hauptmodul_leading_coefficients():
    t5 = hauptmodul_series(5, 4)
    assert t5.coeffs[0] == 0
    assert t5.coeffs[1] == 1
    assert t5.coeffs[2] == 6


def test_hauptmodul_unsupported_prime():
    for p in (11, 17, 2, 3):
        with pytest.raises(UnsupportedPrime):
            hauptmodul_series(p, 10)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 37])
@pytest.mark.parametrize("M", [1, 2, 5])
def test_eisenstein_and_delta_at_a_modulus_equal_the_reduced_exact_series(p, M):
    """E_k mod p^M from the divisor sums reduced mod p^M equals the exact
    E_k reduced afterwards, for every even k from 4 to 198; where p divides
    the denominator of 2k/B_k both refuse. Delta likewise, and it equals
    the E_4/E_6 route at the same modulus."""
    m = p**M
    irregular = []
    for k in range(4, 200, 2):
        if (2 * k / bernoulli(k)).denominator % p == 0:
            irregular.append(k)
            with pytest.raises(NotAUnit):
                qs_reduce_mod(eisenstein_series(k, 30), m)
            with pytest.raises(NotAUnit):
                eisenstein_series(k, 30, m)
            continue
        got = eisenstein_series(k, 30, m)
        assert got.modulus == m
        assert got == qs_reduce_mod(eisenstein_series(k, 30), m)
    assert irregular == ([32, 68, 104, 140, 176] if p == 37 else [])
    got = delta_series(40, m)
    assert got.modulus == m
    assert got == qs_reduce_mod(delta_series(40), m) == delta_from_e4_e6(40, m)


def test_delta_matches_the_e4_e6_route():
    for N in range(1, 201):
        assert delta_series(N) == delta_from_e4_e6(N)


@pytest.mark.parametrize("m", [2**7, 3**4, 6**3, 2**10 * 3**5, 250])
def test_delta_at_a_modulus_not_prime_to_6_is_the_reduced_exact_series(m):
    # tau(n) are integers, so Delta is known mod every modulus; the E_4/E_6
    # route divides by 1728 and cannot reach these
    got = delta_series(12, m)
    assert got.modulus == m
    assert got == qs_reduce_mod(delta_series(12), m)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_hauptmodul_matches_the_in_place_factor_loops(p):
    for N in (1, 2, 19, 60, 200):
        assert hauptmodul_series(p, N) == hauptmodul_by_factors(p, N)


@pytest.mark.parametrize("k, p", [(32, 37), (12, 691)])
def test_eisenstein_at_a_modulus_refuses_an_irregular_pair(k, p):
    # p divides the numerator of B_k, so 2k/B_k is not p-integral; the
    # refusal names E_k and p, not the first coefficient it spoils
    want = f"^E_{k} is not integral mod {p**3}: {p} divides the numerator of B_{k}$"
    with pytest.raises(NotAUnit, match=want):
        eisenstein_series(k, 10, p**3)
    assert eisenstein_series(k, 10, 41**3).modulus == 41**3


def test_condition_sweep_builds_an_exact_eisenstein_series_only_to_redo_a_split(monkeypatch):
    # at p = 13 only n = 1 is redone; its exact split needs E_12 twice (the
    # form and E_{p-1}) and the window forms' E_4 and E_6, and nothing else
    # is built exactly
    calls = []

    def counting(*args):
        calls.append(args)
        return eisenstein_series(*args)

    monkeypatch.setattr(katz, "eisenstein_series", counting)
    sweep = list(katz.eisenstein_sweep(13, 17))
    assert [redone for _, redone in sweep] == [True] + [False] * 12
    assert sorted(k for k, _, *m in calls if m in ([], [None])) == [4, 6, 12, 12]
