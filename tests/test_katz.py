"""Katz decompositions, rate certificates, hauptmodul coefficient bounds.

Frozen numbers here were computed once with this package and cross-checked
against the published weight-24 example values; they guard against
regressions in the splitting and certification pipeline.
"""

from __future__ import annotations

import pytest

from katzexp import (
    INF,
    QQ,
    QSeries,
    delta_series,
    eisenstein_series,
    miller_form,
    qs_mul,
    qs_pow,
    qs_sub,
    qs_val,
)
from katzexp.errors import NotAModularForm, PrecisionTooLow
from katzexp import katz
from katzexp.katz import (
    KatzExpansion,
    certify_rate,
    expand_in_hauptmodul,
    hauptmodul_valuations,
    katz_split_classical,
    katz_split_function,
    rate_verdict,
    reconstruct,
    window_bounds,
)
from katzexp.reports import qprec_for_split
from katzexp.series import apply_V, qs_div, qs_scalar_mul
from oracles import split_dense

C1 = QQ(-340364160000, 236364091)
C2 = QQ(30710845440000, 236364091)


def e_ratio(n, p, N):
    """E_{n(p-1)} / E_{p-1}^n as a weight-0 q-expansion."""
    return qs_div(
        eisenstein_series(n * (p - 1), N),
        qs_pow(eisenstein_series(p - 1, N), n),
    )


def v_of_e24_over_e24(N):
    f = eisenstein_series(24, N)
    return qs_div(apply_V(f, 5), f)


def test_window_bounds_p5():
    assert [window_bounds(i, 5) for i in range(7)] == [
        (0, 1), (1, 1), (1, 1), (1, 2), (2, 2), (2, 2), (2, 3),
    ]


def test_weight_24_split_coordinates():
    ke = katz_split_classical(eisenstein_series(24, 8), 6, 5)
    assert ke.max_index == 6
    assert ke.term(0).miller_coords == (QQ(1),)
    assert ke.term(3).miller_coords == (C1,)
    assert ke.term(6).miller_coords == (C2,)
    assert [t.val for t in ke.terms] == [0, INF, INF, 4, INF, INF, 4]
    for i in (1, 2, 4, 5):
        assert ke.term(i).structural_zero
        assert all(c == 0 for c in ke.term(i).b.coeffs)


def test_weight_24_split_series_terms():
    # b_3 = c1 * delta, b_6 = c2 * delta^2 (the windows are delta-multiples)
    N = 10
    ke = katz_split_classical(eisenstein_series(24, N), 6, 5)
    d = delta_series(N)
    assert ke.term(3).b.coeffs == qs_scalar_mul(C1, d).coeffs
    assert ke.term(6).b.coeffs == qs_scalar_mul(C2, qs_pow(d, 2)).coeffs


def test_classical_reconstruct_is_exact():
    N = 9
    f = eisenstein_series(24, N)
    ke = katz_split_classical(f, 6, 5)
    e6 = qs_pow(eisenstein_series(4, N), 6)
    assert qs_mul(reconstruct(ke, N), e6).coeffs == f.coeffs


def test_greedy_matches_classical():
    N = 30
    ke_c = katz_split_classical(eisenstein_series(24, N), 6, 5)
    ke_g = katz_split_function(e_ratio(6, 5, N), 5, 6)
    for i in range(7):
        assert ke_c.term(i).b.coeffs == ke_g.term(i).b.coeffs
        assert ke_c.term(i).miller_coords == ke_g.term(i).miller_coords
    assert [t.val for t in ke_g.terms] == [t.val for t in ke_c.terms]


def test_greedy_reconstruct_on_warranted_prefix():
    N = 30
    f = v_of_e24_over_e24(N)
    I = 10
    ke = katz_split_function(f, 5, I)
    d_top = window_bounds(I, 5)[1]
    back = reconstruct(ke, N)
    assert back.coeffs[:d_top] == f.coeffs[:d_top]


def test_not_a_modular_form():
    # a change to any one coefficient, inside or above the windows, leaves
    # the weight-k span
    for k, n, p, N in [(24, 6, 5, 10), (48, 3, 17, 8)]:
        f = eisenstein_series(k, N)
        for m in range(N):
            bad = QSeries([c + (1 if i == m else 0) for i, c in enumerate(f.coeffs)])
            with pytest.raises(NotAModularForm):
                katz_split_classical(bad, n, p)


def test_split_builds_each_miller_form_once(monkeypatch):
    calls = []

    def counted(k, j, N):
        calls.append((k, j, N))
        return miller_form(k, j, N)

    monkeypatch.setattr(katz, "miller_form", counted)
    for n in range(1, 14):
        calls.clear()
        katz_split_classical(eisenstein_series(12 * n, qprec_for_split(13, n)), n, 13)
        assert calls and len(calls) == len(set(calls)), n


def test_split_precision_too_low():
    with pytest.raises(PrecisionTooLow):
        katz_split_classical(eisenstein_series(24, 2), 6, 5)


def test_rank_two_window_and_unimodularity():
    # weight 48 at p=17 reaches a rank-2 window at level 3
    ke = katz_split_classical(eisenstein_series(48, 8), 3, 17)
    assert ke.term(3).window == (3, 5)
    assert len(ke.term(3).miller_coords) == 2
    assert [t.val for t in ke.terms] == [0, 2, 2, 3]
    for t in ke.terms:
        if not t.structural_zero:
            assert t.val == min(qs_val(QSeries([c]), 17) for c in t.miller_coords)


def test_coordinate_vals_match_series_vals():
    # unimodular change of basis: coordinate and q-coefficient valuations agree
    for p, ke in [
        (5, katz_split_classical(eisenstein_series(24, 8), 6, 5)),
        (7, katz_split_classical(eisenstein_series(36, 8), 6, 7)),
        (17, katz_split_classical(eisenstein_series(48, 8), 3, 17)),
    ]:
        for t in ke.terms:
            if t.structural_zero:
                continue
            coord_val = min(qs_val(QSeries([c]), p) for c in t.miller_coords)
            assert t.val == coord_val


@pytest.mark.parametrize("p,n", [(5, 3), (5, 5), (7, 3), (7, 5)])
def test_congruence_transfer_to_expansion(p, n):
    # e_n = 1 + O(p^2) coefficient-wise, and the decomposition inherits it:
    # b_0 = 1 + O(p^2), all later terms O(p^2)
    N = 40
    ke = katz_split_function(e_ratio(n, p, N), p, n)
    one = QSeries([QQ(1)] + [QQ(0)] * (N - 1))
    assert qs_val(qs_sub(ke.term(0).b, one), p) >= 2
    for i in range(1, n + 1):
        assert ke.term(i).val >= 2


def test_expansion_stability_under_weight_congruence():
    # weights 12 and 32 agree mod (p-1)p at p=5, so the two ratios agree
    # mod 25 and so do their decompositions, term by term
    N = 40
    k3 = katz_split_function(e_ratio(3, 5, N), 5, 8)
    k8 = katz_split_function(e_ratio(8, 5, N), 5, 8)
    diffs = [qs_val(qs_sub(k3.term(i).b, k8.term(i).b), 5) for i in range(9)]
    assert all(d >= 2 for d in diffs)
    assert diffs[3] == 4 and diffs[6] == 5
    assert [t.val for t in k8.terms] == [0, INF, INF, 3, INF, INF, 5, INF, INF]


def test_alternative_complement_gives_same_certificate():
    # replace the level-3 window form delta by delta + 5*E4*E8; the shift is
    # an E4-multiple, so coordinates, valuations and verdicts are unchanged
    def alt_basis(i, p, N):
        if i != 3:
            return None
        shift = qs_scalar_mul(QQ(5), qs_mul(eisenstein_series(4, N), eisenstein_series(8, N)))
        return [delta_series(N) + shift]

    f = eisenstein_series(24, 12)
    ke_std = katz_split_classical(f, 6, 5)
    ke_alt = split_dense(f, 6, 5, window_basis=alt_basis)
    assert [t.val for t in ke_alt.terms] == [t.val for t in ke_std.terms]
    assert ke_alt.term(3).miller_coords == ke_std.term(3).miller_coords
    assert ke_alt.term(6).miller_coords == ke_std.term(6).miller_coords
    for rho, c in [(QQ(5, 6), QQ(1)), (QQ(5, 6), QQ(0))]:
        ca = certify_rate(ke_alt, rho, c)
        cs = certify_rate(ke_std, rho, c)
        assert ca.verdicts == cs.verdicts
        assert ca.first_failure == cs.first_failure
    e6 = qs_pow(eisenstein_series(4, 12), 6)
    assert qs_mul(reconstruct(ke_alt, 12), e6).coeffs == f.coeffs


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_greedy_split_matches_dense_solve(p):
    # the top-down dense joint solve is the reference for the greedy peel
    for n in range(1, p + 1):
        f = eisenstein_series(n * (p - 1), qprec_for_split(p, n))
        assert katz_split_classical(f, n, p) == split_dense(f, n, p), n


def test_certify_e6_function_examples():
    ke = katz_split_classical(eisenstein_series(24, 8), 6, 5)
    good = certify_rate(ke, QQ(5, 6), QQ(1))
    assert set(good.verdicts) == {"pass"} and good.first_failure is None
    bad = certify_rate(ke, QQ(5, 6), QQ(0))
    assert bad.first_failure == 6
    assert bad.verdicts[6] == "fail"
    assert set(bad.verdicts) != {"pass"}


def test_certify_zero_expansion_passes_everything():
    N = 10
    zero = QSeries([QQ(0)] * N)
    ke = katz_split_function(zero, 5, 6)
    for rho, c in [(QQ(1), QQ(0)), (QQ(5, 6), QQ(0)), (QQ(1, 6), QQ(2)), (QQ(0), QQ(0))]:
        assert set(certify_rate(ke, rho, c).verdicts) == {"pass"}


def test_rate_verdict_mechanics():
    assert rate_verdict(INF, QQ(100), INF, structural_zero=True) == "pass"
    assert rate_verdict(3, QQ(2), INF) == "pass"
    assert rate_verdict(1, QQ(2), INF) == "fail"
    # bound at or past the working p-adic precision is undecidable
    assert rate_verdict(10, QQ(4), 4) == "inconclusive"
    assert rate_verdict(1, QQ(5), 4) == "inconclusive"
    assert rate_verdict(1, QQ(3), 4) == "fail"


def test_certificate_json_shape():
    ke = katz_split_classical(eisenstein_series(24, 8), 6, 5)
    cert = certify_rate(ke, QQ(5, 6), QQ(1))
    d = cert.to_json()
    assert d["p"] == 5
    assert d["rho"] == "5/6"
    assert d["c"] == "1"
    assert d["max_index"] == 6
    assert d["first_failure"] is None
    assert d["verdicts"] == ["pass"] * 7


def test_v_of_e4_passes_sixth_rate():
    # V(E_4)/E_4 stays comfortably overconvergent at rate 1/6
    N = 50
    f = eisenstein_series(4, N)
    g = qs_div(apply_V(f, 5), f)
    ke = katz_split_function(g, 5, 10)
    assert [t.val for t in ke.terms] == [0, INF, INF, 1, INF, INF, 1, INF, INF, 5, INF]
    cert = certify_rate(ke, QQ(1, 6), QQ(0))
    assert set(cert.verdicts) == {"pass"}


def test_v_of_e24_fails_sixth_rate_at_thirty():
    # the first thirty indices of V(E_24)/E_24 satisfy the rate-1/6 bound,
    # then index 30 breaks it: a reminder that prefix checks never prove
    # membership on their own
    N = 40
    f = v_of_e24_over_e24(N)
    prefix = certify_rate(katz_split_function(f, 5, 10), QQ(1, 6), QQ(0))
    assert set(prefix.verdicts) == {"pass"}
    ke30 = katz_split_function(f, 5, 30)
    full = certify_rate(ke30, QQ(1, 6), QQ(0))
    assert full.first_failure == 30
    assert full.verdicts[30] == "fail"
    assert ke30.term(30).val == 4  # needed 30/6 = 5


def test_v_of_e24_passes_sixth_rate_with_offset():
    N = 45
    f = v_of_e24_over_e24(N)
    cert = certify_rate(katz_split_function(f, 5, 40), QQ(1, 6), QQ(1))
    assert set(cert.verdicts) == {"pass"}


def test_pprec_marks_deep_indices_inconclusive():
    N = 40
    f = v_of_e24_over_e24(N)
    ke = katz_split_function(f, 5, 30, pprec=5)
    assert ke.effective_pprec == 5
    cert = certify_rate(ke, QQ(1, 6), QQ(0))
    # threshold at i=30 is exactly 5 = pprec: undecidable, not a failure
    assert cert.verdicts[30] == "inconclusive"
    assert cert.first_failure is None
    assert set(cert.verdicts) != {"pass"}


def test_hauptmodul_expansion_of_simple_functions():
    N = 12
    one = QSeries([QQ(1)] + [QQ(0)] * (N - 1))
    assert expand_in_hauptmodul(one, 5, 6) == (1, 0, 0, 0, 0, 0)
    from katzexp import hauptmodul_series

    t = hauptmodul_series(5, N)
    assert expand_in_hauptmodul(t, 5, 6) == (0, 1, 0, 0, 0, 0)
    t2 = qs_mul(t, t)
    assert expand_in_hauptmodul(t2 + qs_scalar_mul(QQ(7), t), 5, 6) == (0, 7, 1, 0, 0, 0)


def test_hauptmodul_valuations_of_v_e24():
    # coefficient 10 has valuation 4, one short of the bound 5 that rate-5/6
    # membership would force; the same function already passed every window
    # check through index 10
    N = 12
    f = v_of_e24_over_e24(N)
    vals = hauptmodul_valuations(f, 5, 11)
    assert vals == [0, 1, 1, 3, 3, 4, 4, 5, 5, 6, 4]
    assert vals[10] == 4


def test_expansion_immutable():
    ke = katz_split_classical(eisenstein_series(24, 8), 6, 5)
    assert isinstance(ke, KatzExpansion)
    with pytest.raises(Exception):
        ke.max_index = 3
