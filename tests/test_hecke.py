"""Hecke operators, weight twists, and projector polynomial iteration.

The depth figures for the projector orbits were computed once at the stated
precisions and are kept as regression values; the eigen-identities are exact
coefficient statements and need no tolerance.
"""

from __future__ import annotations

import random

import pytest

from katzexp import QQ, INF, eisenstein_series, qs_sub, qs_truncate
from katzexp.errors import EllEqualsP, InvalidWeight, PrecisionTooLow
from katzexp.family import eis_ratio
from katzexp.hecke import (
    HPolynomial,
    U_POLY,
    apply_hpoly,
    apply_hpoly_twisted,
    hecke_T_ell,
    iterate_H,
    projector_poly,
    t_p_n_one,
    twisted_T_ell,
    twisted_U,
)
from katzexp.katz import certify_rate, katz_split_function
from katzexp.series import (
    QSeries,
    apply_U,
    apply_V,
    qs_add,
    qs_div,
    qs_mul,
    qs_pow,
    qs_scalar_mul,
)
from katzexp._rational import val
from oracles import strided_u_product


def const_one(N):
    return QSeries((QQ(1),) + (QQ(0),) * (N - 1))


def rand_series(rng, N, den=1):
    coeffs = tuple(
        QQ(rng.randrange(-30, 31), rng.randrange(1, den + 1)) for _ in range(N)
    )
    return QSeries(coeffs)


def min_val(f, p):
    best = INF
    for c in f.coeffs:
        if c:
            v = val(c, p)
            if v < best:
                best = v
    return best


# ---------------------------------------------------------------- T_ell


def test_T2_on_constant():
    for k in (4, 8, 12):
        out = hecke_T_ell(const_one(20), k, 2)
        assert out.coeffs[0] == QQ(1 + 2 ** (k - 1))
        assert all(c == 0 for c in out.coeffs[1:])
        assert out.prec == 10


def test_E4_is_T2_eigenform():
    E4 = eisenstein_series(4, 40)
    out = hecke_T_ell(E4, 4, 2)
    want = qs_scalar_mul(QQ(9), qs_truncate(E4, 20))
    assert out.coeffs == want.coeffs


def test_T_ell_divisor_term_uses_rational_scale_below_weight_one():
    # at k = 0 the divisor term carries 1/ell
    f = QSeries(tuple(QQ(i) for i in range(12)))
    out = hecke_T_ell(f, 0, 2)
    assert out.coeffs[1] == QQ(2)
    assert out.coeffs[2] == QQ(4) + QQ(1, 2) * QQ(1)
    assert out.coeffs[3] == QQ(6)


def test_T_ell_commutes_with_U():
    rng = random.Random(4)
    f = rand_series(rng, 210)
    a = hecke_T_ell(apply_U(f, 5), 4, 2)
    b = apply_U(hecke_T_ell(f, 4, 2), 5)
    assert a.coeffs == b.coeffs


def test_T_ell_rejects_bad_indices():
    f = const_one(20)
    with pytest.raises(InvalidWeight):
        hecke_T_ell(f, 4, 6)
    with pytest.raises(PrecisionTooLow):
        hecke_T_ell(QSeries((QQ(1),)), 4, 2)


# ---------------------------------------------------------------- twists


def test_twisted_U_with_n_zero_is_plain_U():
    rng = random.Random(8)
    f = rand_series(rng, 60)
    assert twisted_U(f, 0, 5).coeffs == apply_U(f, 5).coeffs


def test_twisted_eigen_identities():
    # e*_n is fixed by U_n and scaled by 1 + ell^(n(p-1)-1) under T_{ell,n}
    for p in (5, 7):
        for n in (1, 2, 3):
            _, es = eis_ratio(n, p, 84)
            u = twisted_U(es, n, p)
            assert u.coeffs == qs_truncate(es, u.prec).coeffs
            for ell in (2, 3):
                t = twisted_T_ell(es, ell, n, p)
                lam = QQ(1 + ell ** (n * (p - 1) - 1))
                want = qs_scalar_mul(lam, qs_truncate(es, t.prec))
                assert t.coeffs == want.coeffs


def test_twisted_T_ell_rejects_n_zero_and_ell_p():
    f = const_one(30)
    with pytest.raises(InvalidWeight):
        twisted_T_ell(f, 2, 0, 5)
    with pytest.raises(EllEqualsP):
        twisted_T_ell(f, 5, 1, 5)


def test_twisted_operators_commute():
    rng = random.Random(11)
    f = rand_series(rng, 210)
    a = twisted_T_ell(twisted_U(f, 2, 5), 3, 2, 5)
    b = twisted_U(twisted_T_ell(f, 3, 2, 5), 2, 5)
    assert a.coeffs == b.coeffs


def test_twisted_U_of_one_congruent_one():
    u1 = twisted_U(const_one(100), 2, 5)
    diff = qs_sub(u1, const_one(u1.prec))
    # the congruence promises mod p^2; the actual gap is much deeper
    assert min_val(diff, 5) == 8


def test_twisted_U_orbit_of_one_stays_close_to_first_step():
    # U_2^i(1) - U_2(1) lies in the rho = p/(p+1) overconvergent unit ball
    N = 1500
    cur = const_one(N)
    steps = []
    for _ in range(3):
        cur = twisted_U(cur, 2, 5)
        steps.append(cur)
    for i in (1, 2):
        d = qs_sub(steps[i], qs_truncate(steps[0], steps[i].prec))
        ke = katz_split_function(d, 5, 8)
        finite = {t.index: t.val for t in ke.terms if t.val != INF}
        assert finite == {3: 15, 6: 15}
        assert all(
            t.val == INF or QQ(t.val) >= QQ(5 * t.index, 6) for t in ke.terms
        )


# ---------------------------------------------------------------- T_{p,n}(1)


def test_t_p_n_one_definition_at_n_one():
    E4 = eisenstein_series(4, 100)
    want = qs_div(
        qs_add(
            apply_U(qs_truncate(E4, 100), 5),
            qs_scalar_mul(QQ(125), qs_truncate(apply_V(E4, 5), 20)),
        ),
        qs_truncate(E4, 20),
    )
    got = t_p_n_one(1, 5, 100)
    assert got.coeffs == want.coeffs


def test_p_times_t_p_n_one_is_p_integral():
    for n in range(1, 11):
        t = t_p_n_one(n, 5, 120)
        assert all((5 * c).denominator % 5 != 0 for c in t.coeffs)


def test_t_p_n_one_rejects_n_zero():
    with pytest.raises(InvalidWeight):
        t_p_n_one(0, 5, 50)


def test_e_n_minus_t_p_overconverges():
    # e_n - T_{p,n}(1) has Katz valuations >= p i/(p+1); the index-0 term
    # is exactly the V-part, of valuation n(p-1) - 1
    for n in range(1, 7):
        e_n, _ = eis_ratio(n, 5, 60)
        d = qs_sub(e_n, t_p_n_one(n, 5, 300))
        ke = katz_split_function(d, 5, 8)
        vals = {t.index: t.val for t in ke.terms if t.val != INF}
        assert vals[0] == 4 * n - 1
        assert all(
            t.val == INF or QQ(t.val) >= QQ(5 * t.index, 6) for t in ke.terms
        )


def test_t_p_certifies_at_full_rate_when_digit_sum_caps():
    # delta_5(4n) = p - 1 for these n, so the rate 5/6 certificate with no
    # offset passes across the whole computed index range
    for n in (7, 32):
        ke = katz_split_function(t_p_n_one(n, 5, 400), 5, 12)
        cert = certify_rate(ke, QQ(5, 6), 0)
        assert set(cert.verdicts) == {"pass"}
        assert cert.first_failure is None
        assert cert.verdicts == ("pass",) * 13


# ---------------------------------------------------------------- HPolynomial


def test_hpoly_invariants():
    with pytest.raises(ValueError):
        HPolynomial(())
    with pytest.raises(ValueError):
        HPolynomial((1, QQ(0)))  # zero top coefficient
    assert HPolynomial((1, 0, 2)).coeffs == (1, 0, 2)  # an interior zero is fine
    with pytest.raises(ValueError):
        apply_hpoly(HPolynomial((1, QQ(2, 5))), const_one(50), 5)  # not 5-integral


def test_hpoly_p_integrality_check():
    h = HPolynomial((QQ(1, 5),))
    h.check_p_integral(7)
    with pytest.raises(ValueError):
        h.check_p_integral(5)


def test_hpoly_max_divisor():
    assert projector_poly(13).max_divisor(13) == 13 * 13
    assert HPolynomial((1, 0, 2)).max_divisor(5) == 5 ** 3


def test_stock_projectors():
    assert projector_poly(5) == U_POLY
    assert projector_poly(7) == U_POLY
    assert projector_poly(13).coeffs == (55, 11)
    assert str(projector_poly(13)) == "55*U + 11*U*U"
    assert str(HPolynomial((1, 0, QQ(2, 3)))) == "U + 2/3*U*U*U"
    with pytest.raises(InvalidWeight):
        projector_poly(11)


# ---------------------------------------------------------------- iteration


def strided_twisted(h, f, n, p):
    """H(f * E^n) / E^n by the oracle: each c_u U^u evaluated on the product
    at its stride, where apply_hpoly applies U once per degree."""
    N = f.prec
    E = eisenstein_series(p - 1, N)
    out_prec = N // p ** len(h.coeffs)
    acc = None
    for u, coeff in enumerate(h.coeffs, 1):
        if coeff:
            g = strided_u_product(f, qs_pow(E, n), p, u)
            g = qs_scalar_mul(coeff, qs_truncate(g, out_prec))
            acc = g if acc is None else qs_add(acc, g)
    return qs_mul(acc, qs_pow(qs_truncate(E, out_prec), -n))


def test_apply_hpoly_matches_twisted_fast_path():
    rng = random.Random(7)
    cases = [
        ("11*U*(U+5)", projector_poly(13), 1, 13, 360),
        ("U + 3*U^2", HPolynomial((1, 3)), 1, 7, 300),
        ("U + 2*U^3", HPolynomial((1, 0, 2)), 1, 5, 500),
    ]
    for text, h, n, p, N in cases:
        f = rand_series(rng, N, den=4)
        assert apply_hpoly_twisted(h, f, n, p).coeffs == strided_twisted(h, f, n, p).coeffs, text


def test_iterate_H_matches_composed_twisted_U():
    orbit = iterate_H(U_POLY, 2, 5, 2, 150)
    cur = const_one(150)
    for got in orbit:
        cur = twisted_U(cur, 2, 5)
        assert got.coeffs == cur.coeffs


def test_iterate_H_precision_budget():
    with pytest.raises(PrecisionTooLow):
        iterate_H(U_POLY, 2, 5, 3, 124)
    orbit = iterate_H(U_POLY, 2, 5, 3, 125)
    assert [g.prec for g in orbit] == [25, 5, 1]


def orbit_depths(h, n, p, iters, N):
    orbit = iterate_H(h, n, p, iters, N)
    _, target = eis_ratio(n, p, orbit[0].prec)
    return [min_val(qs_sub(qs_truncate(target, g.prec), g), p) for g in orbit]


def test_projector_orbit_converges_to_estar_p5():
    depths = orbit_depths(U_POLY, 2, 5, 3, 250)
    assert depths == [15, 22, 29]
    assert all(a <= b for a, b in zip(depths, depths[1:]))


def test_projector_orbit_p13_needs_unit_normalization():
    # Serre's raw polynomial has eigenvalue 66 on e*_1, a unit that is 1
    # only mod 13, so the raw orbit stalls at depth 1; dividing by 66
    # gives the projector normalization and restores convergence
    raw = projector_poly(13)
    normalized = HPolynomial((QQ(5, 6), QQ(1, 6)))
    assert orbit_depths(raw, 1, 13, 1, 2028) == [1]
    assert orbit_depths(normalized, 1, 13, 1, 2028) == [23]
