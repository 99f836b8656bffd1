"""The p-deprived Eisenstein series and the weight-(s,0) family member.

Cross-construction agreement is the central oracle here: the classical
Eisenstein series at a deeply congruent weight must reduce to the same
integers mod p^M as the direct Teichmuller-character divisor sums. The
frozen rationals and valuation patterns were computed once and guard the
normalization conventions.
"""

from __future__ import annotations

import pytest

from katzexp import QQ, INF, eisenstein_series, qs_reduce_mod
from katzexp.errors import (
    CrossCheckMismatch,
    InvalidWeight,
    NotAUnit,
)
from katzexp import family
from katzexp.family import (
    FamilyMember,
    agreement_depth,
    classical_limit_weight,
    delta_weight_sequence,
    eis_ratio,
    estar_family,
    estar_family_classical,
    estar_family_teichmuller,
    estar_k,
    gen_bernoulli_tau,
    teichmuller,
)
from katzexp.katz import certify_rate, katz_split_function
from katzexp.series import QSeries, apply_V, qs_inv, qs_mul, qs_sub
from katzexp._rational import val


def sigma_star(n, k1, p):
    return sum(d ** k1 for d in range(1, n + 1) if n % d == 0 and d % p != 0)


# ---------------------------------------------------------------- E*_k


def test_estar_constant_term_is_one():
    for k, p in ((4, 5), (12, 7), (24, 5)):
        assert estar_k(k, p, 30).coeffs[0] == QQ(1)


def test_estar_coefficients_are_deprived_divisor_sums():
    es = estar_k(4, 5, 40)
    assert es.coeffs[1] == QQ(-60, 31)
    for n in range(1, 40):
        assert es.coeffs[n] / es.coeffs[1] == QQ(sigma_star(n, 3, 5))
    # the q^p coefficient gets no d = p contribution
    assert es.coeffs[5] == es.coeffs[1]


def test_estar_congruent_to_classical():
    d = qs_sub(estar_k(8, 5, 50), eisenstein_series(8, 50))
    assert min(val(c, 5) for c in d.coeffs if c) == 8


def test_eis_ratio_degenerate_and_errors():
    e1, _ = eis_ratio(1, 5, 30)
    assert e1.coeffs == (QQ(1),) + (QQ(0),) * 29
    with pytest.raises(InvalidWeight):
        eis_ratio(0, 5, 30)


def test_elementary_congruence_sweep():
    # e_n = e*_n = 1 (mod p^2) coefficientwise, far past the first window
    for p in (5, 7, 11, 13):
        for n in range(1, 2 * p + 1):
            e, es = eis_ratio(n, p, 50)
            for f in (e, es):
                assert f.coeffs[0] == QQ(1)
                for c in f.coeffs[1:]:
                    if c:
                        assert c.denominator % p != 0
                        assert c.numerator % p ** 2 == 0


# ---------------------------------------------------------------- Teichmuller


def test_teichmuller_fixed_points_and_values():
    assert teichmuller(1, 5, 4) == 1
    assert teichmuller(2, 5, 2) == 7
    assert teichmuller(3, 5, 1) == 3
    # omega(p - 1) is the lift of -1
    assert teichmuller(4, 5, 3) == 5 ** 3 - 1
    assert teichmuller(6, 7, 2) == 7 ** 2 - 1


def test_teichmuller_is_multiplicative_root_of_unity():
    pm = 5 ** 4
    for d in range(1, 25):
        if d % 5 == 0:
            continue
        t = teichmuller(d, 5, 4)
        assert pow(t, 4, pm) == 1
        assert t % 5 == d % 5
    assert teichmuller(2, 5, 4) * teichmuller(3, 5, 4) % pm == teichmuller(6, 5, 4)


def test_teichmuller_rejects_non_units():
    with pytest.raises(NotAUnit):
        teichmuller(10, 5, 3)


# ------------------------------------------------------- generalized Bernoulli


def test_gen_bernoulli_frozen_values():
    assert [gen_bernoulli_tau(1, 5, M) for M in (1, 2, 3, 4)] == [
        QQ(179, 5), QQ(804, 5), QQ(5179, 5), QQ(30179, 5),
    ]


def test_gen_bernoulli_has_valuation_minus_one():
    for s in (1, 2, 3):
        for M in (1, 2, 3):
            assert val(gen_bernoulli_tau(s, 5, M), 5) == -1


def test_gen_bernoulli_stabilizes_padically():
    # successive M approximations agree mod p^(M+1), i.e. each value is
    # correct to at least M+1 digits
    for s in (1, 2, 3):
        vals = [gen_bernoulli_tau(s, 5, M) for M in (1, 2, 3, 4)]
        for M in (1, 2, 3):
            d = vals[M] - vals[M - 1]
            assert d == 0 or val(d, 5) >= M + 1


def test_gen_bernoulli_trivial_character_is_exact():
    # s divisible by p-1 makes the character trivial and the computation
    # exact: B_{s,triv} = B_s (1 - p^(s-1))
    assert gen_bernoulli_tau(4, 5, 2) == QQ(62, 15)
    assert gen_bernoulli_tau(4, 5, 4) == QQ(62, 15)


def test_gen_bernoulli_guard_digits():
    # s >= p: s!/p loses 1 + v_p(s!) digits, which the guard now covers, and
    # each result agrees mod p^(M+1) with one computed at higher precision
    for s, p in [(5, 5), (6, 5), (10, 5), (25, 5), (7, 7)]:
        deep = gen_bernoulli_tau(s, p, 6)
        for M in (1, 2, 3):
            B = gen_bernoulli_tau(s, p, M)
            assert val(B, p) == -1
            assert val(B - deep, p) >= M + 1
    with pytest.raises(InvalidWeight):
        gen_bernoulli_tau(0, 5, 2)


# ---------------------------------------------------------------- weights


def test_classical_limit_weight_tables():
    assert [classical_limit_weight(1, 5, M) for M in (1, 2, 3, 4)] == [16, 76, 376, 1876]
    assert [classical_limit_weight(2, 5, M) for M in (1, 2, 3, 4)] == [12, 52, 252, 1252]
    assert [classical_limit_weight(3, 5, M) for M in (1, 2, 3, 4)] == [8, 28, 128, 628]


def test_classical_limit_weight_congruences():
    for s in (1, 2, 3, 6):
        for p in (5, 7):
            for M in (1, 2, 3):
                k = classical_limit_weight(s, p, M)
                assert k >= 4
                assert k % (p - 1) == 0
                assert (k - s) % p ** M == 0


def test_delta_weight_sequence():
    assert delta_weight_sequence(1, 5, 3) == [76, 376, 1876]
    assert delta_weight_sequence(2, 5, 2, t=2) == [252, 1252]
    assert delta_weight_sequence(3, 7, 2) == [150, 1032]
    for m, k in enumerate(delta_weight_sequence(2, 5, 3), start=1):
        assert k % 4 == 0
        assert (k - 2) % 5 ** (m + 1) == 0
    with pytest.raises(InvalidWeight):
        delta_weight_sequence(4, 5, 2)


# ---------------------------------------------------------------- family


def test_direct_construction_is_p_deprived():
    member = estar_family_teichmuller(2, 5, 36, 3)
    coeffs = member.series.coeffs
    assert coeffs[0] == QQ(1)
    # sigma* sees only the prime-to-p part of the index
    for n in (1, 2, 3, 6, 7):
        assert coeffs[5 * n] == coeffs[n]


def test_direct_construction_with_trivial_character():
    for M in (1, 2, 3):
        fam = estar_family_teichmuller(4, 5, 40, M)
        ref = qs_reduce_mod(estar_k(4, 5, 40), 5 ** M)
        assert fam.series.coeffs == ref.coeffs


def test_cross_construction_agreement():
    for s in (1, 2, 3):
        for M in (1, 2, 3, 4):
            member = estar_family(s, 5, 50, M)
            assert member.escalations == ()
            assert member.construction == "cross-checked:classical-limit|teichmuller-direct"
            assert member.weight_used == classical_limit_weight(s, 5, M)
            assert member.pprec == M
            top = 5 ** M
            assert all(0 <= c < top and c.denominator == 1 for c in member.series.coeffs)


def test_cross_construction_mismatch_raises(monkeypatch):
    good = estar_family_teichmuller(1, 5, 20, 2)
    bad_coeffs = list(good.series.coeffs)
    bad_coeffs[3] = (bad_coeffs[3] + 1) % 25
    bad = FamilyMember(1, 5, QSeries(tuple(bad_coeffs)), 2, "teichmuller-direct")
    monkeypatch.setattr(family, "estar_family_teichmuller", lambda *a, **k: bad)
    with pytest.raises(CrossCheckMismatch):
        estar_family(1, 5, 20, 2, max_escalations=1)


def test_family_member_serialization():
    member = estar_family(2, 5, 12, 2)
    assert (member.s, member.p, member.pprec) == (2, 5, 2)
    assert member.weight_used == 52
    assert member.escalations == ()
    assert member.series.coeffs[0] == 1
    assert len(member.series.coeffs) == 12


# ------------------------------------------------- family overconvergence


def test_family_frobenius_ratio_katz_valuations():
    # V(E*_(1,0))/E*_(1,0) mod 5^4: the finite-precision realization of
    # the rate-(1/6) overconvergence statement
    member = estar_family(1, 5, 50, 4)
    g = member.series
    f = qs_reduce_mod(qs_mul(apply_V(g, 5), qs_inv(g)), 5 ** 4)
    ke = katz_split_function(f, 5, 24, pprec=4)
    finite = [(t.index, t.val) for t in ke.terms if t.index % 3 == 0]
    assert finite == [
        (0, 0), (3, 1), (6, 1), (9, 2), (12, 2),
        (15, INF), (18, 3), (21, INF), (24, INF),
    ]

    relaxed = certify_rate(ke, QQ(1, 6), 1)
    assert set(relaxed.verdicts) == {"pass"}

    shallow = certify_rate(ke, QQ(1, 9), 0)
    assert set(shallow.verdicts) == {"pass"}

    # at the sharp rate with no offset the last index needs 4 digits,
    # exactly the working precision, so it cannot be decided either way
    sharp = certify_rate(ke, QQ(1, 6), 0)
    assert set(sharp.verdicts) != {"pass"}
    assert sharp.first_failure is None
    assert sharp.verdicts.count("inconclusive") == 1
    assert sharp.verdicts[24] == "inconclusive"


def test_weight_scheme_ratios_deepen_agreement():
    # V(E_k)/E_k along the digit-sum weight scheme: consecutive terms
    # agree one digit deeper at each step
    ratios = []
    for k in delta_weight_sequence(1, 5, 3):
        E = eisenstein_series(k, 30)
        ratios.append(qs_mul(apply_V(E, 5), qs_inv(E)))
    d1 = agreement_depth(ratios[0], ratios[1], 5)
    d2 = agreement_depth(ratios[1], ratios[2], 5)
    assert (d1, d2) == (3, 4)


def test_agreement_depth_of_identical_series():
    E = eisenstein_series(4, 20)
    assert agreement_depth(E, E, 5) == INF
