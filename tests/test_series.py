"""Core q-expansion arithmetic: exactness, precision tracking, U/V, valuations."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katzexp import (
    INF,
    QQ,
    QSeries,
    apply_U,
    apply_V,
    eisenstein_series,
    qs_add,
    qs_from_json,
    qs_inv,
    qs_mul,
    qs_one,
    qs_pow,
    qs_reduce_mod,
    qs_sub,
    qs_to_json,
    qs_val,
)
from katzexp.series import qs_from_nums, qs_truncate
from katzexp._rational import int_val, val
from katzexp.errors import NotAUnit, ZeroConstantTerm


def rand_series(rng, N, p=5, integral=True):
    """Random p-integral series with small numerators."""
    coeffs = []
    for _ in range(N):
        num = rng.randrange(-50, 51)
        den = rng.choice([1, 2, 3, 7, 9, 11]) if integral else rng.choice([1, p, p * p])
        coeffs.append(QQ(num, den))
    return QSeries(coeffs)


def test_mul_difference_of_squares():
    a = QSeries([1, 1, 0])
    b = QSeries([1, -1, 0])
    assert qs_mul(a, b).coeffs == (QQ(1), QQ(0), QQ(-1))


def test_mul_precision_is_min_of_inputs():
    a = QSeries([1] * 10)
    b = QSeries([1] * 4)
    assert qs_mul(a, b).prec == 4
    assert (a + b).prec == 4
    assert (a - b).prec == 4


def test_mul_unit_leading_constant_term():
    a = QSeries([1, 240, 2160])
    assert qs_mul(a, qs_mul(a, a)).coeffs[0] == 1


def test_inv_identity():
    one = qs_one(5)
    assert qs_inv(one).coeffs == one.coeffs


def test_inv_geometric_series():
    a = QSeries([1, -1, 0, 0])
    assert qs_inv(a).coeffs == (QQ(1), QQ(1), QQ(1), QQ(1))


def test_inv_round_trip():
    rng = random.Random(7)
    for _ in range(5):
        a = rand_series(rng, 30)
        if a.coeffs[0] == 0:
            continue
        prod = qs_mul(a, qs_inv(a))
        assert prod.coeffs == qs_one(30).coeffs


def test_inv_zero_constant_term_raises():
    with pytest.raises(ZeroConstantTerm):
        qs_inv(QSeries([0, 1, 2]))


def test_inv_of_one_unit_is_p_integral():
    # constant term 1 and p-integral input: the inverse stays p-integral
    rng = random.Random(11)
    a = QSeries([1] + [QQ(rng.randrange(-9, 10), rng.choice([1, 2, 3])) for _ in range(19)])
    b = qs_inv(a)
    assert all(c.denominator % 5 != 0 for c in b.coeffs)


def test_pow_zero_and_negative():
    a = QSeries([1, 3, 5, 7])
    assert qs_pow(a, 0).coeffs == qs_one(4).coeffs
    assert qs_pow(a, -2).coeffs == qs_inv(qs_mul(a, a)).coeffs


def test_pow_matches_repeated_mul():
    rng = random.Random(3)
    a = rand_series(rng, 15)
    acc = qs_one(15)
    for e in range(1, 6):
        acc = qs_mul(acc, a)
        assert qs_pow(a, e).coeffs == acc.coeffs


def test_apply_V_definition():
    f = QSeries([0, 1, 1] + [0] * 9)
    g = apply_V(f, 5)
    assert g.prec == 12
    assert [i for i, c in enumerate(g.coeffs) if c != 0] == [5, 10]


def test_apply_V_of_constant():
    assert apply_V(qs_one(8), 5).coeffs == qs_one(8).coeffs


def test_apply_U_definition():
    f = QSeries([0, 0, 0, 0, 0, 1] + [0] * 6)
    g = apply_U(f, 5)
    assert g.prec == 2
    assert g.coeffs == (QQ(0), QQ(1))


def test_U_V_composition_is_identity():
    rng = random.Random(19)
    for p in (5, 7):
        f = rand_series(rng, 40, p)
        back = apply_U(apply_V(f, p), p)
        assert back.coeffs == f.coeffs[: 40 // p]


def test_val_examples():
    assert qs_val(QSeries([0] * 4), 5) == INF
    assert qs_val(QSeries([0, 25, 5]), 5) == 1
    assert qs_val(QSeries([QQ(1, 5), 25]), 5) == -1


@pytest.mark.parametrize("read", [
    lambda p: int_val(12, p),
    lambda p: val(QQ(3, 4), p),
    lambda p: qs_val(eisenstein_series(12, 10), p),
], ids=["int_val", "val", "qs_val"])
@pytest.mark.parametrize("p", [1, 0, -1])
def test_val_refuses_p_below_two(read, p):
    with pytest.raises(ValueError, match="prime p >= 2"):
        read(p)


def test_val_submultiplicative():
    rng = random.Random(23)
    for _ in range(10):
        a = rand_series(rng, 12, integral=False)
        b = rand_series(rng, 12, integral=False)
        va, vb, vab = qs_val(a, 5), qs_val(b, 5), qs_val(qs_mul(a, b), 5)
        assert vab >= va + vb


def test_val_equality_against_unit_series():
    # unit series times a series whose minimal valuation sits alone at q^0
    rng = random.Random(29)
    u = QSeries([1] + [rng.randrange(-20, 21) for _ in range(11)])
    f = QSeries([QQ(1, 5)] + [rng.randrange(-20, 21) for _ in range(11)])
    assert qs_val(qs_mul(u, f), 5) == qs_val(f, 5) == -1


def test_V_preserves_val_U_does_not_decrease():
    rng = random.Random(31)
    for _ in range(8):
        f = rand_series(rng, 30, integral=False)
        # V keeps the source prefix whose images land below the precision cap
        kept = qs_truncate(f, 30 // 5 + 1)
        assert qs_val(apply_V(f, 5), 5) == qs_val(kept, 5)
        assert qs_val(apply_U(f, 5), 5) >= qs_val(f, 5)


def test_json_round_trip():
    f = QSeries([1, QQ(-3, 7), 0, QQ(22, 5)])
    d = qs_to_json(f)
    assert d == {"prec": 4, "coeffs": ["1", "-3/7", "0", "22/5"]}
    assert qs_from_json(d).coeffs == f.coeffs


def test_json_prec_mismatch_rejected():
    with pytest.raises(ValueError):
        qs_from_json({"prec": 3, "coeffs": ["1", "2"]})


def test_truncate():
    f = QSeries([1, 2, 3, 4, 5])
    assert qs_truncate(f, 3).coeffs == (QQ(1), QQ(2), QQ(3))
    assert qs_truncate(f, 9).coeffs == f.coeffs


def test_reduce_mod_rejects_a_denominator_that_is_not_a_unit():
    with pytest.raises(NotAUnit, match="q\\^1"):
        qs_reduce_mod(QSeries([1, QQ(1, 10), 2]), 25)


def test_reduce_mod_keeps_the_coarser_modulus():
    f = qs_reduce_mod(QSeries([1, 30, 7]), 25)
    assert f.modulus == 25 and f.nums == (1, 5, 7) and f.den == 1
    assert qs_reduce_mod(f, 5 ** 4) == f
    assert qs_reduce_mod(f, 5) == qs_from_nums((1, 0, 2), 1, 5)
    assert f != QSeries([1, 5, 7])


# p-integral coefficients with a unit constant term, so every operation
# below is defined both exactly and mod 5^M
_p_integral = st.builds(QQ, st.integers(-10**6, 10**6), st.sampled_from([1, 2, 3, 7]))
_unit = _p_integral.filter(lambda c: c.numerator % 5 != 0)
_series = st.integers(1, 14).flatmap(
    lambda N: st.builds(lambda c0, rest: QSeries([c0] + rest), _unit,
                        st.lists(_p_integral, min_size=N - 1, max_size=N - 1))
)


@settings(max_examples=60, deadline=None)
@given(a=_series, b=_series, M=st.integers(1, 5), K=st.integers(1, 5),
       p=st.sampled_from([2, 3, 5]), n=st.integers(0, 15))
def test_capped_arithmetic_commutes_with_reduction(a, b, M, K, p, n):
    """Reducing mod 5^M and then operating equals operating exactly and then
    reducing; a result is known to the coarser of its inputs' moduli, and
    exact inputs give an exact result."""
    m, k = 5 ** M, 5 ** K
    ra, rb = qs_reduce_mod(a, m), qs_reduce_mod(b, k)
    both = 5 ** min(M, K)
    for op in (qs_mul, qs_add, qs_sub):
        assert op(ra, rb) == qs_reduce_mod(op(a, b), both)
        assert op(ra, b) == qs_reduce_mod(op(a, b), m)
        assert op(a, b).modulus is None
    unary = (qs_inv, lambda f: apply_V(f, p), lambda f: apply_U(f, p), lambda f: qs_truncate(f, n))
    for op in unary:
        assert op(ra) == qs_reduce_mod(op(a), m)
        assert op(a).modulus is None


# an optional modulus: the laws hold exactly and mod 5^M alike
_modulus = st.one_of(st.none(), st.integers(1, 5).map(lambda M: 5**M))


def _capped(f, m):
    return f if m is None else qs_reduce_mod(f, m)


@settings(max_examples=60, deadline=None)
@given(a=_series, b=_series, c=_series, m=_modulus)
def test_ring_laws(a, b, c, m):
    a, b, c = (_capped(x, m) for x in (a, b, c))
    zero = qs_sub(a, a)
    assert not any(zero.nums) and zero.prec == a.prec
    assert qs_add(a, zero) == a
    assert qs_mul(a, qs_one(a.prec)) == a
    assert qs_add(a, b) == qs_add(b, a)
    assert qs_mul(a, b) == qs_mul(b, a)
    assert qs_add(qs_add(a, b), c) == qs_add(a, qs_add(b, c))
    assert qs_mul(qs_mul(a, b), c) == qs_mul(a, qs_mul(b, c))
    assert qs_mul(a, qs_add(b, c)) == qs_add(qs_mul(a, b), qs_mul(a, c))
    assert qs_sub(qs_add(a, b), b) == qs_truncate(a, min(a.prec, b.prec))
    # a unit constant term: the inverse is two-sided
    assert qs_mul(a, qs_inv(a)) == _capped(qs_one(a.prec), m)


@settings(max_examples=60, deadline=None)
@given(f=_series, p=st.sampled_from([2, 3, 5, 7]), m=_modulus)
def test_U_after_V_is_the_identity(f, p, m):
    f = _capped(f, m)
    assert apply_U(apply_V(f, p), p) == qs_truncate(f, f.prec // p)


@settings(max_examples=60, deadline=None)
@given(f=_series, q=st.sampled_from([5, 11, 13]), M=st.integers(1, 8))
def test_json_round_trip_keeps_the_modulus(f, q, M):
    capped = qs_reduce_mod(f, q**M)
    d = json.loads(json.dumps(qs_to_json(capped)))
    assert d["modulus"] == q**M
    assert qs_from_json(d) == capped
    assert "modulus" not in qs_to_json(f)
    assert qs_from_json(json.loads(json.dumps(qs_to_json(f)))) == f


@pytest.mark.parametrize("modulus, coeffs, message", [
    (1, ["0"], "modulus must be an integer > 1, got 1"),
    (25.0, ["0"], "modulus must be an integer > 1, got 25.0"),
    ("25", ["0"], "modulus must be an integer > 1, got '25'"),
    (True, ["0"], "modulus must be an integer > 1, got True"),
    (None, ["0"], "modulus must be an integer > 1, got None"),
    (25, ["1", "25"], "coefficient of q\\^1 is not a residue in \\[0, 25\\)"),
    (25, ["-1"], "coefficient of q\\^0 is not a residue"),
    (25, ["1/2"], "coefficient of q\\^0 is not a residue"),
])
def test_json_rejects_a_bad_modulus_or_residue(modulus, coeffs, message):
    with pytest.raises(ValueError, match=message):
        qs_from_json({"prec": len(coeffs), "coeffs": coeffs, "modulus": modulus})
