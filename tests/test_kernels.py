"""The integer kernels against their slow reference oracles, and their time
budgets.

qs_mul (Kronecker substitution) is compared with the schoolbook convolution,
qs_inv (the integer recurrence) with the rational schoolbook inverse, and
mod p^M with the exact inverse reduced,
bernoulli (zeta(k) in integer fixed point over the von Staudt-Clausen
denominator) with the Fraction recurrence and with the integer tangent
numbers, is_prime (deterministic Miller-Rabin) with trial division, qs_val
(one gcd) with the least valuation of the coefficients, and the Newton chain
(Kronecker products in y_2 over one denominator) with the Fraction chain;
see oracles.py.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katzexp import (
    QQ,
    QSeries,
    bernoulli,
    eisenstein_series,
    qs_add,
    qs_inv,
    qs_mul,
    qs_one,
    qs_reduce_mod,
    qs_sub,
)
from katzexp import _rational, classical, recurrence
from katzexp._rational import INF, is_prime
from katzexp.errors import NotAUnit
from katzexp.series import qs_from_nums, qs_val
from oracles import (
    _unpack,
    bernoulli_even_recurrence,
    bernoulli_even_tangent,
    is_prime_trial,
    newton_chain_fractions,
    schoolbook_inv,
    schoolbook_mul,
    val_per_coefficient,
)

# -- the representation ---------------------------------------------------

_small = st.integers(-60, 60)
# numerators above 2^2000 make each lane wider than 8 bytes
_huge = st.builds(lambda sign, m: sign * m, st.sampled_from((-1, 1)), st.integers(2**2000, 2**2010))
_dens = st.one_of(st.just(1), st.sampled_from((2, 3, 5, 7, 25, 35, 125, 3125)), st.integers(1, 10**9))
_coeff = st.one_of(st.just(QQ(0)), st.builds(QQ, st.one_of(_small, _huge), _dens))
_series = st.lists(_coeff, max_size=60).map(QSeries)


def check_lowest_terms(f):
    assert f.den > 0
    assert math.gcd(f.den, *f.nums) == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(_coeff, max_size=40))
def test_series_from_rationals_is_in_lowest_terms(coeffs):
    f = QSeries(tuple(coeffs))
    assert f.coeffs == tuple(coeffs)
    assert [f[n] for n in range(f.prec)] == coeffs
    check_lowest_terms(f)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_coeff, _coeff), max_size=40), st.integers(2, 10**6))
def test_equal_series_from_other_denominators_compare_and_hash_equal(pairs, scale):
    a = QSeries([x for x, _ in pairs])
    b = QSeries([y for _, y in pairs])
    scaled = qs_from_nums([scale * x for x in a.nums], scale * a.den)
    assert (scaled.nums, scaled.den) == (a.nums, a.den)
    round_trip = qs_sub(qs_add(a, b), b)
    assert round_trip == a == scaled
    assert hash(round_trip) == hash(a) == hash(scaled)
    for f in (round_trip, qs_mul(a, b)):
        check_lowest_terms(f)


# -- qs_mul ---------------------------------------------------------------


def check_against_oracle(a, b):
    got = qs_mul(a, b)
    assert got.prec == min(a.prec, b.prec)
    assert got.coeffs == schoolbook_mul(a.coeffs, b.coeffs)
    check_lowest_terms(got)


@settings(max_examples=150, deadline=None)
@given(_series, _series)
def test_qs_mul_matches_schoolbook(a, b):
    check_against_oracle(a, b)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(st.just(0), _small, _huge), min_size=1, max_size=40),
    st.lists(st.one_of(st.just(0), _small), min_size=1, max_size=40),
    st.sampled_from((5, 12, 7**3)),
)
def test_qs_mul_denominators_growing_with_the_index(nums, other, d):
    # the shape of qs_inv output: the j-th denominator is d^j
    a = QSeries([QQ(n, d**j) for j, n in enumerate(nums)])
    b = QSeries([QQ(n, d) for n in other])
    check_against_oracle(a, b)
    check_against_oracle(b, a)
    check_against_oracle(a, a)


# denominators prime to every p drawn below, so an exact operand reduces mod p^M
_unit_dens = st.sampled_from((1, 3, 7, 11, 121, 10**9 + 7))


@st.composite
def _shifted_operand(draw, N, modulus):
    """Precision N to N + 3, after a run of 0 to N + 1 leading zeros: exact
    rationals when modulus is None, else residues in [0, modulus)."""
    prec = N + draw(st.integers(0, 3))
    zeros = [0] * draw(st.integers(0, N + 1))
    if modulus is None:
        coeff = st.one_of(st.just(0), st.builds(QQ, st.one_of(_small, _huge), _unit_dens))
        return QSeries((zeros + draw(st.lists(coeff, min_size=prec, max_size=prec)))[:prec])
    residue = st.one_of(st.just(0), st.just(modulus - 1), st.integers(0, modulus - 1))
    return qs_from_nums((zeros + draw(st.lists(residue, min_size=prec, max_size=prec)))[:prec], 1, modulus)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    p=st.sampled_from((2, 5, 13)),
    N=st.one_of(st.just(1), st.integers(1, 30)),
    moduli=st.sampled_from(("equal", "different", "left exact", "right exact")),
)
def test_qs_mul_tails_and_residue_lanes_match_schoolbook(data, p, N, moduli):
    # only the tails past the leading zeros are multiplied; two capped
    # operands go through unsigned lanes as wide as their moduli need
    M = data.draw(st.integers(1, 40))
    ma, mb = {
        "equal": (p**M, p**M),
        "different": (p**M, p ** data.draw(st.integers(1, 40).filter(lambda K: K != M))),
        "left exact": (None, p**M),
        "right exact": (p**M, None),
    }[moduli]
    a, b = data.draw(_shifted_operand(N, ma)), data.draw(_shifted_operand(N, mb))
    got = qs_mul(a, b)
    want = schoolbook_mul(a.coeffs, b.coeffs)
    m = mb if ma is None else ma if mb is None else math.gcd(ma, mb)
    assert got.prec == min(a.prec, b.prec)
    assert got.modulus == m
    assert got.nums == tuple(c.numerator * pow(c.denominator, -1, m) % m for c in want)
    assert got.den == 1 and all(0 <= x < m for x in got.nums)
    check_lowest_terms(got)


@pytest.mark.parametrize("m", [2**8, 2**64, 13**17])
@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_qs_mul_residue_lanes_hold_their_largest_sums(m, n):
    # every residue m - 1, so lane k sums k + 1 products (m - 1)^2: 2^8 and
    # 2^64 leave no spare bit in the width the moduli give without the count
    a = qs_from_nums([m - 1] * n, 1, m)
    assert qs_mul(a, a).nums == tuple((k + 1) % m for k in range(n))


@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_qs_mul_borrow_runs_through_every_lane(n):
    # -1 times all ones: every output lane is -1, so a borrow carries into each
    a = QSeries([-1] + [0] * (n - 1))
    b = QSeries([1] * n)
    assert qs_mul(a, b).coeffs == (QQ(-1),) * n
    check_against_oracle(a, b)


@pytest.mark.parametrize("na, nb", [(0, 0), (0, 5), (5, 0), (7, 7), (7, 3)])
def test_qs_mul_zero_operands(na, nb):
    zero = QSeries([0] * na)
    other = QSeries([QQ(i - 3, 5) for i in range(nb)])
    got = qs_mul(zero, other)
    assert got.coeffs == (QQ(0),) * min(na, nb)
    assert qs_mul(other, zero).coeffs == got.coeffs


def test_qs_mul_e4_squared_is_e8():
    assert qs_mul(eisenstein_series(4, 200), eisenstein_series(4, 200)).coeffs == eisenstein_series(8, 200).coeffs


# -- qs_inv ---------------------------------------------------------------

_unit0 = st.builds(QQ, st.one_of(st.integers(-60, -1), st.integers(1, 60), _huge), _dens)


def check_inv_against_oracle(a):
    got = qs_inv(a)
    assert got.coeffs == schoolbook_inv(a.coeffs)
    check_lowest_terms(got)


@settings(max_examples=150, deadline=None)
@given(_unit0, st.lists(_coeff, max_size=39))
def test_qs_inv_matches_schoolbook(c0, rest):
    # constant terms of either sign, integral or not
    check_inv_against_oracle(QSeries([c0] + rest))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.integers(-60, -1), st.integers(1, 60)),
    st.lists(st.one_of(st.just(0), st.just(0), _small, _huge), max_size=39),
    st.sampled_from((5, 12, 7**3)),
)
def test_qs_inv_denominators_growing_with_the_index(n0, nums, d):
    # the shape of an inverse: the j-th denominator is d^j, with interior zeros
    check_inv_against_oracle(QSeries([QQ(n, d**j) for j, n in enumerate([n0] + nums)]))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 150))
def test_qs_inv_of_eisenstein_series(half):
    check_inv_against_oracle(eisenstein_series(2 * half, 30))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from((2, 3, 5, 97)), M=st.integers(1, 12))
def test_capped_qs_inv_is_the_exact_inverse_reduced(data, p, M):
    """qs_inv of a series known mod p^M, run in Z/p^M, equals the exact
    inverse reduced mod p^M; a constant term p^e u with 0 < e < M is not a
    unit, and both sides raise NotAUnit."""
    m = p**M
    coeff = st.builds(QQ, st.one_of(st.just(0), _small, _huge), st.sampled_from((1, 7, 11, 13)))
    e = data.draw(st.integers(0, min(M - 1, 2)))
    c0 = p**e * data.draw(coeff.filter(lambda c: c.numerator % p))
    a = QSeries([c0] + data.draw(st.lists(coeff, max_size=39)))
    capped = qs_reduce_mod(a, m)
    if e:
        with pytest.raises(NotAUnit, match=f"constant term {capped.nums[0]} is not a unit mod {m}"):
            qs_inv(capped)
        with pytest.raises(NotAUnit):
            qs_reduce_mod(qs_inv(a), m)
    else:
        assert qs_inv(capped) == qs_reduce_mod(qs_inv(a), m)


# -- bernoulli ------------------------------------------------------------

_ORACLE_K = 600


@pytest.fixture(scope="module")
def oracle_table():
    return bernoulli_even_recurrence(_ORACLE_K)


def fresh_memo(monkeypatch):
    monkeypatch.setattr(classical, "_bernoulli_memo", {0: QQ(1)})


def test_bernoulli_matches_recurrence_ascending(monkeypatch, oracle_table):
    # a fresh memo filled one miss at a time, as check-condition asks
    fresh_memo(monkeypatch)
    for k in range(0, _ORACLE_K + 1, 2):
        assert bernoulli(k) == oracle_table[k // 2], k


def test_bernoulli_matches_recurrence_in_one_call(monkeypatch, oracle_table):
    fresh_memo(monkeypatch)
    assert bernoulli(_ORACLE_K) == oracle_table[-1]
    assert [bernoulli(k) for k in range(0, _ORACLE_K + 1, 2)] == oracle_table


def test_bernoulli_matches_tangent_numbers_to_1200(monkeypatch):
    fresh_memo(monkeypatch)
    want = bernoulli_even_tangent(1200)
    for k in range(0, 1201, 2):
        assert bernoulli(k) == want[k // 2], k


def test_bernoulli_recomputes_a_wide_enclosure(monkeypatch, oracle_table):
    # pi bounds widened by 2^-8 on the first pass put many integers in [lo, hi]
    exact, widths = classical._pi_bounds, []

    def wide_first(w):
        lo, hi = exact(w)
        widths.append(w)
        return (lo - (lo >> 8), hi + (hi >> 8)) if len(widths) == 1 else (lo, hi)

    monkeypatch.setattr(classical, "_pi_bounds", wide_first)
    assert classical._bernoulli_even(100) == oracle_table[50]
    assert len(widths) == 2 and widths[1] > widths[0]


# -- primality -------------------------------------------------------------


def test_is_prime_matches_trial_division_below_2e5():
    for n in range(-2, 2 * 10**5):
        assert is_prime(n) == is_prime_trial(n), n


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_is_prime_on_strong_pseudoprimes(n):
    # strong pseudoprimes to the bases 2..7 and 2..23, which trial division refutes
    assert is_prime(n) is is_prime_trial(n) is False


def test_is_prime_needs_its_thirteenth_base(monkeypatch):
    # the least strong pseudoprime to the twelve bases 2..37; trial division
    # would run to its factor 399165290221, so the factors are the oracle
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert is_prime(n) is False
    monkeypatch.setattr(_rational, "_MR_BASES", _rational._MR_BASES[:12])
    assert is_prime(n) is True


def test_is_prime_refuses_at_and_above_its_bound(monkeypatch):
    bound = _rational._MR_EXACT_BELOW
    assert isinstance(is_prime(bound - 2), bool)
    for n in (bound, bound + 2, 10**30):
        with pytest.raises(ValueError, match="primality is decided below"):
            is_prime(n)
    # the bound is the least strong pseudoprime to all thirteen bases
    monkeypatch.setattr(_rational, "_MR_EXACT_BELOW", bound + 1)
    assert is_prime(bound) is True


# -- the Newton chain -----------------------------------------------------


@pytest.mark.parametrize("p, n_max", [(5, 40), (7, 30), (11, 25)])
def test_chain_matches_fraction_oracle(monkeypatch, p, n_max):
    monkeypatch.setattr(recurrence, "_chain_cache", {})
    xs, ys = recurrence._chain(p, n_max)
    want_xs, want_ys = newton_chain_fractions(p, n_max)
    assert len(xs) == len(want_xs) == p + 2
    assert len(ys) == len(want_ys) == max(n_max, p + 1) + 1
    for poly, want in zip(xs + ys[1:], want_xs + want_ys[1:]):
        assert poly.den > 0
        assert math.gcd(poly.den, *poly.terms.values()) == 1
        assert {k: QQ(c, poly.den) for k, c in poly.terms.items()} == want


def plain_kronecker(poly, w):
    """The window encoding of a chain polynomial in plain arithmetic: per
    outer key, the sum of c * 2^(8 w e_2) over the terms of that key."""
    groups = {}
    for k, c in poly.terms.items():
        e2 = (_unpack(k) + (0, 0))[1]
        outer = k - (e2 << recurrence._LANE) + 2 * e2
        groups[outer] = groups.get(outer, 0) + c * 2 ** (8 * w * e2)
    return groups


def check_window(chain, n):
    """The chain holds x_0..x_{p+1} and y_0..y_n, with the forms of the x's
    and, in its window, of y_{n-p}..y_n oldest first, each encoded as
    plain_kronecker does at the chain's lane width."""
    p = chain.p
    assert len(chain.xs) == p + 2 and len(chain.ys) == n + 1
    forms = list(chain.x_forms) + list(chain.window)
    want = chain.xs + chain.ys[n - p :]
    assert len(forms) == len(want)
    for form, poly in zip(forms, want):
        assert form.poly is poly
        assert dict(form.groups) == plain_kronecker(form.poly, chain.w)
        assert form.bits == max(abs(c) for c in form.poly.terms.values()).bit_length()


def test_chain_built_one_n_at_a_time_matches_a_fresh_chain(monkeypatch):
    # phi_image extends the cached chain by one n per call, reusing its window
    monkeypatch.setattr(recurrence, "_chain_cache", {})
    for n in range(1, 41):
        recurrence.phi_image(n, 5)
        check_window(recurrence._chain_cache[5], max(n, 6))
    xs, ys = recurrence._chain(5, 40)
    monkeypatch.setattr(recurrence, "_chain_cache", {})
    assert recurrence._chain(5, 40) == (xs, ys)


def test_chain_widens_its_lanes_partway_and_stays_exact(monkeypatch):
    monkeypatch.setattr(recurrence, "_chain_cache", {})
    widths = []
    for n in range(8, 31):
        recurrence._chain(7, n)
        chain = recurrence._chain_cache[7]
        check_window(chain, n)
        widths.append(chain.w)
    # the lanes widen at least once after the first y past the generators
    assert widths[1] < widths[-1]
    want_xs, want_ys = newton_chain_fractions(7, 30)
    for poly, want in zip(chain.xs + chain.ys[1:], want_xs + want_ys[1:]):
        assert {k: QQ(c, poly.den) for k, c in poly.terms.items()} == want


def test_scaled_reads_lane_sums_as_unpack_does():
    _, ys = recurrence._chain(7, 30)
    for y in ys[1:]:
        want = {k: c * 7 ** sum(_unpack(k)[:7]) for k, c in y.terms.items()}
        assert recurrence._scaled(y, 7) == recurrence._lowest(want, y.den)


# -- one gcd per valuation ------------------------------------------------

# residues mod 5^M, many of them 0 or divisible by a power of 5
_capped = st.integers(1, 6).flatmap(
    lambda M: st.lists(
        st.one_of(
            st.just(0),
            st.integers(0, 5**M - 1),
            st.builds(lambda u, j: u * 5**j % 5**M, st.integers(1, 99), st.integers(0, M)),
        ),
        max_size=30,
    ).map(lambda nums: qs_from_nums(nums, 1, 5**M))
)


@settings(max_examples=150, deadline=None)
@given(f=st.one_of(_series, _capped), p=st.sampled_from((2, 3, 5, 7)))
def test_qs_val_matches_per_coefficient_minimum(f, p):
    assert qs_val(f, p) == val_per_coefficient(f, p)


def test_qs_val_of_all_zero_series_is_inf():
    for f in (QSeries([]), QSeries([0, 0]), qs_from_nums((0, 0, 0), 1, 125)):
        assert qs_val(f, 5) == val_per_coefficient(f, 5) == INF


# -- time budgets ---------------------------------------------------------
# About three times the time measured on a 2-CPU x86-64 VM with Python 3.11
# and the Fraction backend; CHANGES.md records both numbers.

QS_MUL_E4_BUDGET_S = 0.15  # measured 0.04 s
BERNOULLI_1876_BUDGET_S = 0.12  # measured 0.037 s
NEWTON_CHAIN_7_30_BUDGET_S = 0.21  # measured 0.07 s
QS_INV_E1876_BUDGET_S = 6.0  # measured 1.4 s, and 3.2-3.8 s in a slow phase of a shared host
QS_INV_CAPPED_P97_BUDGET_S = 2.0  # measured 0.40-0.43 s


def test_qs_mul_e4_squared_at_3750_within_budget():
    e4 = eisenstein_series(4, 3750)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        qs_mul(e4, e4)
        best = min(best, time.perf_counter() - t0)
    assert best < QS_MUL_E4_BUDGET_S


def test_bernoulli_1876_within_budget():
    # a fresh interpreter, so the memoized table starts empty
    code = (
        "import time; from katzexp import bernoulli; t0 = time.perf_counter(); "
        "bernoulli(1876); print(time.perf_counter() - t0)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
    assert float(proc.stdout) < BERNOULLI_1876_BUDGET_S


def test_newton_chain_7_30_within_budget():
    # a fresh interpreter, so the chain cache starts empty
    code = (
        "import time; from katzexp import newton_chain; t0 = time.perf_counter(); "
        "newton_chain(7, 30); print(time.perf_counter() - t0)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60)
    assert float(proc.stdout) < NEWTON_CHAIN_7_30_BUDGET_S


def test_qs_inv_e1876_within_budget():
    # a fresh interpreter, as the weight-scheme computation runs; E_1876 =
    # 1 + (a/b) S with b of 12,746 bits, so q^n of the inverse has b^n below
    code = (
        "import time; from katzexp import eisenstein_series, qs_inv, qs_mul, qs_one; "
        "E = eisenstein_series(1876, 30); t0 = time.perf_counter(); inv = qs_inv(E); "
        "t = time.perf_counter() - t0; print(qs_mul(E, inv) == qs_one(30), t)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120)
    identity, seconds = proc.stdout.split()
    assert identity == "True"
    assert float(seconds) < QS_INV_E1876_BUDGET_S


def test_capped_qs_inv_at_the_p97_sweep_size_within_budget():
    # the p = 97 condition sweep's one inverse: E_96 mod 97^101 to 793 terms,
    # its recurrence run on residues rather than on ever-growing integers
    E = eisenstein_series(96, 793, 97**101)
    t0 = time.perf_counter()
    inv = qs_inv(E)
    seconds = time.perf_counter() - t0
    assert qs_mul(E, inv) == qs_reduce_mod(qs_one(793), 97**101)
    assert seconds < QS_INV_CAPPED_P97_BUDGET_S
