"""Acceptance gate: one test per published acceptance criterion.

Each test prints a single PASS/FAIL line (visible with -s, or in captured
output on failure) and enforces the stated wall-clock budget. Frozen numbers
are exact; there are no tolerances anywhere in this file.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from katzexp import (
    QQ,
    QSeries,
    U_POLY,
    agreement_depth,
    certify_rate,
    cmd_check_condition,
    cmd_hauptmodul,
    cmd_reproduce_examples,
    eis_ratio,
    eisenstein_series,
    estar_family,
    iterate_H,
    katz_split_function,
    qprec_for_split,
    qs_div,
    qs_reduce_mod,
    qs_sub,
    qs_truncate,
    qs_val,
    twisted_T_ell,
    twisted_U,
)
from katzexp.recurrence import (
    deep_recurrence_verify,
    delta_p,
    phi_image,
    s_sequence,
)
from katzexp.recurrence import BivarPolyModP
from katzexp.series import apply_V

T_VALS_24 = ["0", "1", "1", "3", "3", "4", "4", "5", "5", "6", "4"]
CONVERGENCE_DEPTHS = [15, 22, 29, 36]  # first-run figure, frozen as regression
DIVISIBLE_BY_5 = [
    1, 2, 3, 4, 5, 7, 8, 9, 10, 13, 14, 15, 19, 20, 25,
    32, 33, 34, 35, 38, 39, 40,
]


@contextmanager
def criterion(label, budget_seconds=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print("%s: FAIL" % label)
        raise
    elapsed = time.perf_counter() - started
    if budget_seconds is not None and elapsed > budget_seconds:
        print("%s: FAIL (took %.1fs, budget %gs)" % (label, elapsed, budget_seconds))
        pytest.fail(
            "%s exceeded its %gs budget (%.1fs)" % (label, budget_seconds, elapsed)
        )
    print("%s: PASS (%.1fs)" % (label, elapsed))


def test_criterion_01_weight24_constants():
    with criterion("criterion 1, weight-24 split constants", 5):
        r = cmd_reproduce_examples()
        by_label = {e["label"]: e for e in r.results}
        assert by_label["window coordinate of b_3"]["computed"] == (
            "-340364160000/236364091"
        )
        assert by_label["window coordinate of b_6"]["computed"] == (
            "30710845440000/236364091"
        )
        assert by_label["valuations v_5(b_3), v_5(b_6)"]["computed"] == ["4", "4"]
        assert r.status == "certified"


def test_criterion_02_hauptmodul_vector():
    with criterion("criterion 2, hauptmodul valuation vector", 10):
        r = cmd_hauptmodul(5, 24, 11)
        assert r.results[0]["valuations"] == T_VALS_24


def test_criterion_03_condition_desk_primes():
    with criterion("criterion 3, condition check p in {5,7,11,13}", 120):
        for p in (5, 7, 11, 13):
            r = cmd_check_condition(p)
            assert r.status == "certified", p
            for n, entry in enumerate(r.results, start=1):
                cert = entry["certificate"]
                # complete certificates, not prefixes
                assert cert["max_index"] == n
                assert cert["verdicts"] == ["pass"] * (n + 1)


def test_criterion_04_unit_congruence():
    with criterion("criterion 4, e_n and e*_n congruent to 1 mod p^2", 60):
        for p in (5, 7, 11, 13):
            for n in range(1, 2 * p + 1):
                e_n, estar_n = eis_ratio(n, p, 50)
                one = QSeries([1] + [0] * 49)
                for g in (e_n, estar_n):
                    assert qs_val(qs_sub(g, one), p) >= 2, (p, n)


def test_criterion_05_twisted_eigenforms():
    with criterion("criterion 5, twisted eigen-identities", 60):
        N = 60
        for p in (5, 7):
            for n in (1, 2, 3):
                _, estar_n = eis_ratio(n, p, N)
                fixed = twisted_U(estar_n, n, p)
                assert fixed == qs_truncate(estar_n, fixed.prec), (p, n)
                for ell in (2, 3):
                    scaled = twisted_T_ell(estar_n, ell, n, p)
                    lam = 1 + ell ** (n * (p - 1) - 1)
                    expect = QSeries(
                        [lam * c for c in estar_n.coeffs[: scaled.prec]]
                    )
                    assert scaled == expect, (p, n, ell)


def test_criterion_06_projector_convergence():
    with criterion("criterion 6, projector orbit convergence depths"):
        N, iters = 3750, 4
        orbit = iterate_H(U_POLY, 2, 5, iters, N)
        # the first iterate already has prec N/5, so the target needs no more
        _, estar_2 = eis_ratio(2, 5, N // 5)
        depths = [agreement_depth(g, estar_2, 5) for g in orbit]
        assert all(a <= b for a, b in zip(depths, depths[1:]))
        assert any(d >= 4 for d in depths[:4])
        assert depths == CONVERGENCE_DEPTHS


def test_criterion_07_recurrence_vanishing_and_depth():
    with criterion("criterion 7, s_n vanishing and lifted recurrence", 30):
        for p, length in ((5, 210), (7, 400)):
            seq = s_sequence(p, length)
            for n in range(1, 201):
                if delta_p(n * (p - 1), p) == p - 1:
                    assert seq[n].is_zero(), (p, n)
            zero = BivarPolyModP.zero(p)
            coeffs = [zero] * (p - 1) + [
                BivarPolyModP.gen_A(p),
                BivarPolyModP.gen_B(p),
            ]
            for t in (1, 2):
                assert deep_recurrence_verify(p, p + 1, coeffs, seq, t), (p, t)


def test_criterion_08_phi_integrality_and_divisibility():
    with criterion("criterion 8, scaled Newton images at p=5", 60):
        divisible = []
        for n in range(1, 41):
            ph = phi_image(n, 5)
            assert ph.den % 5 != 0, n  # lowest terms: p-integral iff p does not divide den
            if all(c % 5 == 0 for c in ph.terms.values()):
                divisible.append(n)
        assert divisible == DIVISIBLE_BY_5
        flagged = [n for n in range(1, 41) if delta_p(4 * n, 5) == 4]
        assert divisible == flagged


def test_criterion_09_frobenius_ratio_prefix():
    with criterion("criterion 9, V(E_k)/E_k prefix rate for k in {24,28,32}", 120):
        for k in (24, 28, 32):
            N = qprec_for_split(5, 10)
            E = eisenstein_series(k, N)
            f = qs_div(apply_V(E, 5), E)
            ke = katz_split_function(f, 5, 10)
            cert = certify_rate(ke, QQ(1, 6), 1)
            assert set(cert.verdicts) == {"pass"}, (k, cert.first_failure)


def test_criterion_10_family_ratio_certificates():
    with criterion("criterion 10, family Frobenius ratio at 4 digits", 300):
        p, M, I = 5, 4, 24
        member = estar_family(1, p, 50, M)
        g = member.series
        f = qs_reduce_mod(qs_div(apply_V(g, p), g), p ** M)
        ke = katz_split_function(f, p, I, pprec=M)

        offset = certify_rate(ke, QQ(1, 6), 1)
        assert offset.first_failure is None
        assert "inconclusive" not in offset.verdicts

        sharp = certify_rate(ke, QQ(1, 6), 0)
        assert sharp.first_failure is None
        reported = [i for i, v in enumerate(sharp.verdicts) if v == "inconclusive"]
        assert reported == [24]
        print("  inconclusive at indices %r (threshold meets working precision)"
              % (reported,))


def test_criterion_11_cross_construction():
    with criterion("criterion 11, family construction cross-check", 60):
        for s in (1, 2, 3):
            for M in (1, 2, 3, 4):
                member = estar_family(s, 5, 50, M)
                assert member.escalations == (), (s, M)
                assert member.pprec == M
