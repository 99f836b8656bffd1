"""Katz decompositions, rate certificates, hauptmodul coefficient bounds.

Frozen numbers here were computed once with this package and cross-checked
against the published weight-24 example values; they guard against
regressions in the splitting and certification pipeline.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katzexp import (
    INF,
    QQ,
    QSeries,
    delta_series,
    eisenstein_series,
    qs_mul,
    qs_pow,
    qs_sub,
    qs_val,
)
from katzexp._rational import val
from katzexp.errors import NotAModularForm, PrecisionTooLow
from katzexp import classical, katz, reports, series
from katzexp.katz import (
    KatzExpansion,
    certify_rate,
    expand_in_hauptmodul,
    hauptmodul_valuations,
    katz_split_classical,
    katz_split_function,
    miller_windows,
    rate_verdicts,
    window_bounds,
)
from katzexp.reports import qprec_for_split
from katzexp.series import apply_V, qs_div, qs_from_nums, qs_inv, qs_reduce_mod, qs_scalar_mul
from oracles import hauptmodul_by_subtraction, reconstruct, split_dense, split_exact_windows

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
    assert ke.terms[0].miller_coords == (QQ(1),)
    assert ke.terms[3].miller_coords == (C1,)
    assert ke.terms[6].miller_coords == (C2,)
    assert [t.val for t in ke.terms] == [0, INF, INF, 4, INF, INF, 4]
    for i in (1, 2, 4, 5):
        assert ke.terms[i].structural_zero
        assert all(c == 0 for c in ke.terms[i].b.coeffs)


def test_weight_24_split_series_terms():
    # b_3 = c1 * delta, b_6 = c2 * delta^2 (the windows are delta-multiples)
    N = 10
    ke = katz_split_classical(eisenstein_series(24, N), 6, 5)
    d = delta_series(N)
    assert ke.terms[3].b.coeffs == qs_scalar_mul(C1, d).coeffs
    assert ke.terms[6].b.coeffs == qs_scalar_mul(C2, qs_pow(d, 2)).coeffs


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
        assert ke_c.terms[i].b.coeffs == ke_g.terms[i].b.coeffs
        assert ke_c.terms[i].miller_coords == ke_g.terms[i].miller_coords
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


def test_split_builds_each_window_form_once(monkeypatch):
    # At p = 13 the weight-12i window form of index j = i is Delta^j alone,
    # one product from Delta^(j-1) once Delta^1 is built. The sweep of
    # check-condition builds each form once for all n, so its products are
    # at most: one per form up to the top window, and per n one per level
    # moving the remainder up by E_12, one for E_12^(-n) from E_12^(-(n-1))
    # and one for f * E_12^(-n); plus five for Delta (four squarings and one
    # product in Euler's series to the 24th) and the exact split of n = 1
    # (see test_check_condition_redoes_only_the_split_of_one). Forms
    # built per split, or a Delta^j rebuilt from scratch, overrun it.
    calls = [0]

    def counted_mul(a, b):
        calls[0] += 1
        return qs_mul(a, b)

    for module in (series, classical, katz):
        monkeypatch.setattr(module, "qs_mul", counted_mul)
    reports.cmd_check_condition(13)
    forms = window_bounds(13, 13)[1]
    per_n = sum(n + 2 for n in range(1, 14))
    assert calls[0] <= forms + per_n + 12, calls[0]


def test_sweep_builds_windows_no_earlier_than_their_split(monkeypatch):
    # The first split of the p = 29 sweep reads windows 0 and 1 and takes 25
    # products. Building the windows of every later n up front takes 133, so
    # a serial sweep's budget check would wait for all of them.
    calls = [0]

    def counted_mul(a, b):
        calls[0] += 1
        return qs_mul(a, b)

    for module in (series, classical, katz):
        monkeypatch.setattr(module, "qs_mul", counted_mul)
    next(katz.eisenstein_sweep(29, 33))
    assert calls[0] <= 40, calls[0]


def test_split_precision_too_low():
    with pytest.raises(PrecisionTooLow):
        katz_split_classical(eisenstein_series(24, 2), 6, 5)
    with pytest.raises(PrecisionTooLow, match="max index 6 needs 3 coefficients, got 2"):
        katz_split_function(eisenstein_series(24, 2), 5, 6)
    with pytest.raises(PrecisionTooLow, match="need 3 coefficients, got 2"):
        expand_in_hauptmodul(eisenstein_series(24, 2), 5, 3)


def test_rank_two_window_and_unimodularity():
    # weight 48 at p=17 reaches a rank-2 window at level 3
    ke = katz_split_classical(eisenstein_series(48, 8), 3, 17)
    assert window_bounds(3, 17) == (3, 5)
    assert len(ke.terms[3].miller_coords) == 2
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
    assert qs_val(qs_sub(ke.terms[0].b, one), p) >= 2
    for i in range(1, n + 1):
        assert ke.terms[i].val >= 2


def test_expansion_stability_under_weight_congruence():
    # weights 12 and 32 agree mod (p-1)p at p=5, so the two ratios agree
    # mod 25 and so do their decompositions, term by term
    N = 40
    k3 = katz_split_function(e_ratio(3, 5, N), 5, 8)
    k8 = katz_split_function(e_ratio(8, 5, N), 5, 8)
    diffs = [qs_val(qs_sub(k3.terms[i].b, k8.terms[i].b), 5) for i in range(9)]
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
    assert ke_alt.terms[3].miller_coords == ke_std.terms[3].miller_coords
    assert ke_alt.terms[6].miller_coords == ke_std.terms[6].miller_coords
    for rho, c in [(QQ(5, 6), QQ(1)), (QQ(5, 6), QQ(0))]:
        ca = certify_rate(ke_alt, rho, c)
        cs = certify_rate(ke_std, rho, c)
        assert ca.verdicts == cs.verdicts
        assert ca.first_failure == cs.first_failure
    e6 = qs_pow(eisenstein_series(4, 12), 6)
    assert qs_mul(reconstruct(ke_alt, 12), e6).coeffs == f.coeffs


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
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
    def verdict(i, v, pprec, structural_zero=False):
        # one row at rho = 1, c = 0, so the threshold is the index i
        return rate_verdicts([(i, v, structural_zero)], QQ(1), QQ(0), pprec)[0][0]

    assert verdict(100, INF, INF, structural_zero=True) == "pass"
    assert verdict(2, 3, INF) == "pass"
    assert verdict(2, 1, INF) == "fail"
    # bound at or past the working p-adic precision is undecidable
    assert verdict(4, 10, 4) == "inconclusive"
    assert verdict(5, 1, 4) == "inconclusive"
    assert verdict(3, 1, 4) == "fail"


@pytest.mark.parametrize(
    "rho, c, message",
    [(QQ(3, 2), 0, "rate rho = 3/2 outside [0, 1]"), (QQ(-1), 0, "rate rho = -1 outside [0, 1]"),
     (QQ(1, 6), QQ(-1, 2), "offset c = -1/2 is negative")],
    ids=["rho-above-1", "rho-negative", "offset-negative"],
)
def test_rate_verdicts_refuse_rates_outside_the_range(rho, c, message):
    # certify_rate and revalidation share this check through rate_verdicts
    with pytest.raises(ValueError, match=re.escape(message)):
        rate_verdicts([(0, 0, False)], rho, c, INF)
    with pytest.raises(ValueError, match=re.escape(message)):
        certify_rate(katz_split_classical(eisenstein_series(8, 8), 2, 5), rho, c)


def test_certificate_json_shape():
    ke = katz_split_classical(eisenstein_series(24, 8), 6, 5)
    label = reports._rated("E_24, ", QQ(5, 6), QQ(1))
    layout = reports._cert(label, "claim", 5, QQ(5, 6), QQ(1), 6)
    entry = reports._fill(layout, [t.val for t in ke.terms], INF)
    assert entry["label"] == "E_24, rate 5/6, offset 1"
    assert entry["certificate"] == {
        "p": 5,
        "rho": "5/6",
        "c": "1",
        "max_index": 6,
        "first_failure": None,
        "verdicts": ["pass"] * 7,
    }


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
    assert ke30.terms[30].val == 4  # needed 30/6 = 5


def test_v_of_e24_passes_sixth_rate_with_offset():
    N = 45
    f = v_of_e24_over_e24(N)
    cert = certify_rate(katz_split_function(f, 5, 40), QQ(1, 6), QQ(1))
    assert set(cert.verdicts) == {"pass"}


def test_pprec_marks_deep_indices_inconclusive():
    N = 40
    f = qs_reduce_mod(v_of_e24_over_e24(N), 5 ** 5)
    ke = katz_split_function(f, 5, 30)
    assert ke.effective_pprec == 5
    cert = certify_rate(ke, QQ(1, 6), QQ(0))
    # threshold at i=30 is exactly 5 = pprec: undecidable, not a failure
    assert cert.verdicts[30] == "inconclusive"
    assert cert.first_failure is None
    assert set(cert.verdicts) != {"pass"}


def test_capped_classical_split_reads_its_precision_from_the_series():
    # E_24 known mod 5^3 is split mod 5^3. v_5(b_6) = 4 exactly, so b_6 reads
    # 0 there, and the rate-5/6 threshold 5 at index 6 is past the precision:
    # inconclusive, not a pass
    f = eisenstein_series(24, 20)
    ke = katz_split_classical(qs_reduce_mod(f, 5**3), 6, 5)
    assert ke.effective_pprec == 3
    assert certify_rate(ke, QQ(5, 6), 0).verdicts[6] == "inconclusive"
    exact = katz_split_classical(f, 6, 5).terms[0]
    assert ke.terms[0] == exact._replace(b=qs_reduce_mod(exact.b, 5**3))


def test_capped_split_terms_carry_the_split_modulus():
    # b_i of a split mod p^M is known mod p^M, and its coordinates are
    # residues: the exact split's, reduced, where the exact split is known
    f = eisenstein_series(24, 20)
    ke = katz_split_classical(qs_reduce_mod(f, 5**3), 6, 5)
    for t, e in zip(ke.terms, katz_split_classical(f, 6, 5).terms):
        assert t.b == qs_reduce_mod(e.b, 5**3)
        assert t.miller_coords == qs_reduce_mod(QSeries(e.miller_coords), 5**3).coeffs
    # the coordinates of E_112 mod 29^3 at p = 29 are residues, not the
    # unreduced integers the elimination runs on
    m = 29**3
    ke = katz_split_classical(eisenstein_series(112, qprec_for_split(29, 4), m), 4, 29)
    for t in ke.terms:
        assert t.b.modulus == m
        assert all(c.denominator == 1 and 0 <= c < m for c in t.miller_coords)
        assert t.val == min((val(c, 29) for c in t.miller_coords), default=INF)


def _residue_series(p, M, N):
    """N residues mod p^M, many of them 0 or a power of p."""
    m = p**M
    coeff = st.one_of(st.just(0), st.integers(0, M).map(lambda e: p**e % m), st.integers(0, m - 1))
    return st.lists(coeff, min_size=N, max_size=N).map(lambda nums: qs_from_nums(nums, 1, m))


def _built_series(data, p, M, I, N):
    """(f, valuations): f = sum_i b_i / E_{p-1}^i exact, with b_i of Miller
    coordinates p^e u / w for units u, w, so v_p(b_i) is the least e of its
    window; a window drawn as deep has every e >= M, nonzero but 0 mod p^M."""
    windows = miller_windows(p, N, None)
    inv_e = qs_inv(eisenstein_series(p - 1, N))
    bs, vals = [], []
    for i, forms in zip(range(I + 1), windows):
        low = M if data.draw(st.booleans()) else 0
        es = [data.draw(st.integers(low, low + 2)) for _ in forms]
        b = QSeries([0] * N)
        for e, form in zip(es, forms):
            u = data.draw(st.integers(1, 50).filter(lambda u: u % p)) * data.draw(st.sampled_from([1, -1]))
            b = b + qs_scalar_mul(QQ(p**e * u, data.draw(st.sampled_from([1, 2, 3, 7]))), form)
        bs.append(b)
        vals.append(min(es, default=INF))
    f = bs[I]
    for b in reversed(bs[:I]):
        f = qs_mul(f, inv_e) + b
    return f, vals


@pytest.mark.parametrize("p, top", [(5, 12), (11, 5), (17, 4)])
@settings(max_examples=100, deadline=None)
@given(data=st.data(), M=st.integers(1, 4))
def test_capped_split_reads_the_exact_window_valuations(p, top, data, M):
    """A split of a series known mod p^M, against E_{p-1} and the windows
    reduced mod p^M, reads the valuations of the split against exact forms:
    on residue series and on sums whose deep windows are 0 mod p^M but not
    0, which read inf under both. A finite valuation is below M."""
    I = data.draw(st.integers(1, top))
    N = qprec_for_split(p, I)
    f, want = _built_series(data, p, M, I, N)
    built = qs_reduce_mod(f, p**M)
    for g in (data.draw(_residue_series(p, M, N)), built):
        ke = katz_split_function(g, p, I)
        assert ke.effective_pprec == M
        assert [t.val for t in ke.terms] == [t.val for t in split_exact_windows(g, p, I).terms]
        assert all(t.val < M or t.val == INF for t in ke.terms)
    got = [t.val for t in katz_split_function(built, p, I).terms]
    assert got == [v if v < M else INF for v in want]


@pytest.mark.parametrize("p, top", [(5, 8), (11, 4), (13, 3)])
@settings(max_examples=50, deadline=None)
@given(data=st.data(), M=st.integers(1, 4), capped=st.booleans())
def test_split_of_a_drawn_sum_reads_its_valuations_and_sums_back_to_it(p, top, data, M, capped):
    """f = sum_i b_i / E_{p-1}^i with b_i drawn in their windows, exact or
    known mod p^M: each v_p(b_i) is the least valuation of its coordinates,
    the drawn one (or inf if that is M or more, mod p^M), and the split sums
    back to f on the prefix its windows warrant."""
    I = data.draw(st.integers(1, top))
    f, want = _built_series(data, p, M, I, qprec_for_split(p, I))
    if capped:
        f, want = qs_reduce_mod(f, p**M), [v if v < M else INF for v in want]
    ke = katz_split_function(f, p, I)
    for t, v in zip(ke.terms, want):
        assert t.b.modulus == f.modulus
        assert t.val == v == min((val(c, p) for c in t.miller_coords), default=INF)
    d_top = window_bounds(I, p)[1]
    assert reconstruct(ke).coeffs[:d_top] == f.coeffs[:d_top]


@pytest.mark.parametrize("p", [5, 7, 13])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), M=st.integers(1, 4))
def test_capped_hauptmodul_expansion_is_the_exact_one_reduced(p, data, M):
    """Eliminating against the powers of t mod p^M gives the expansion
    against the exact powers, reduced mod p^M."""
    N = data.draw(st.integers(1, 30))
    g = data.draw(_residue_series(p, M, N))
    terms = data.draw(st.integers(0, N))
    exact = expand_in_hauptmodul(qs_from_nums(g.nums), p, terms)
    assert expand_in_hauptmodul(g, p, terms) == tuple(QQ(a % p**M) for a in exact)


def test_hauptmodul_expansion_of_simple_functions():
    N = 12
    one = QSeries([QQ(1)] + [QQ(0)] * (N - 1))
    assert expand_in_hauptmodul(one, 5, 6) == (1, 0, 0, 0, 0, 0)
    from katzexp import hauptmodul_series

    t = hauptmodul_series(5, N)
    assert expand_in_hauptmodul(t, 5, 6) == (0, 1, 0, 0, 0, 0)
    t2 = qs_mul(t, t)
    assert expand_in_hauptmodul(t2 + qs_scalar_mul(QQ(7), t), 5, 6) == (0, 7, 1, 0, 0, 0)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_hauptmodul_expansion_matches_subtraction(p):
    # the elimination on numerators against the same loop on series, for
    # V(E_k)/E_k exact and known mod p^4, at every prefix length
    for k in (4, 6, 12, 24):
        for N in (1, 12, 30):
            f = qs_div(apply_V(eisenstein_series(k, N), p), eisenstein_series(k, N))
            for g in (f, qs_reduce_mod(f, p**4)):
                for terms in range(N + 1):
                    want = hauptmodul_by_subtraction(g, p, terms)
                    assert expand_in_hauptmodul(g, p, terms) == want, (k, N, g.modulus, terms)


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
