"""Digit sums, the F_p[A,B] recurrence, deep lifting, and the Newton chain.

The numeric oracle for the Newton-identity chain substitutes power sums of
random rational roots, which turns every x_n into an elementary symmetric
function and every y_n into a power sum; both are computed independently
in the tests. The vanishing pattern of s_n and the divisibility pattern of
the scaled chain match the digit-sum flag exactly on the tested ranges, a
stronger statement than the one-directional implication they realize.
"""

from __future__ import annotations

import itertools
import random

import pytest

from katzexp import QQ
from katzexp.errors import InsufficientLength
from katzexp.recurrence import (
    _pack,
    _unpack,
    BivarPolyModP,
    SymPolyQ,
    bp_add,
    bp_mul,
    bp_pow,
    deep_recurrence_verify,
    delta_p,
    newton_chain,
    phi_image,
    phi_image_x,
    s_sequence,
    sp_to_bivar_mod_p,
)


def evaluate(a, values):
    """a at rational values for its 1-based variables."""
    total = QQ(0)
    for k, c in a.terms.items():
        term = QQ(c, a.den)
        for v, e in zip(values, _unpack(k)):
            term = term * v ** e
        total = total + term
    return total


def recurrence_coeffs(p):
    """A_1..A_{p+1} for s_n = A s_{n-p} + B s_{n-p-1} as a dense list."""
    Z = BivarPolyModP.zero(p)
    return [Z] * (p - 1) + [BivarPolyModP.gen_A(p), BivarPolyModP.gen_B(p)]


# ---------------------------------------------------------------- delta_p


def test_digit_sum_basics():
    assert delta_p(0, 5) == 0
    assert delta_p(1, 7) == 1
    for t in range(6):
        assert delta_p(5 ** t, 5) == 1
    assert delta_p(124, 5) == 12
    assert delta_p(128, 5) == 4
    with pytest.raises(ValueError):
        delta_p(-1, 5)


def test_digit_sum_of_first_multiples():
    # n(p-1) = (p-n) + (n-1)p has digit sum p-1 for 1 <= n <= p
    for p in (5, 7, 13):
        for n in range(1, p + 1):
            assert delta_p(n * (p - 1), p) == p - 1


# ---------------------------------------------------------------- F_p[A,B]


def test_bivar_arithmetic_normalizes():
    A = BivarPolyModP.gen_A(5)
    B = BivarPolyModP.gen_B(5)
    s = bp_add(bp_mul(A, B), bp_mul(B, A))
    assert s.terms == (((1, 1), 2),)
    assert bp_add(s, bp_mul(BivarPolyModP.const(5, 3), bp_mul(A, B))).is_zero()
    assert bp_pow(A, 7).terms == (((7, 0), 1),)
    assert bp_pow(B, 0) == BivarPolyModP.const(5, 1)
    assert BivarPolyModP.from_dict(5, {(2, 0): 10}).is_zero()


def test_bivar_serialization():
    s = bp_add(BivarPolyModP.gen_A(5), BivarPolyModP.const(5, 2))
    assert s.terms == (((0, 0), 2), ((1, 0), 1))


def test_s_sequence_start_and_first_nonzero():
    for p in (5, 7):
        seq = s_sequence(p, p + 1)
        assert seq[0] == BivarPolyModP.const(p, 1)
        assert all(seq[n].is_zero() for n in range(1, p + 1))
        assert seq[p + 1] == BivarPolyModP.gen_B(p)


def test_s_sequence_vanishing_matches_digit_flag():
    # promised direction: digit sum p-1 forces s_n = 0; on this range the
    # converse holds as well
    for p in (5, 7):
        seq = s_sequence(p, 200)
        for n in range(201):
            assert (delta_p(n * (p - 1), p) == p - 1) == seq[n].is_zero()


def test_deep_recurrence_lifts():
    for p, length in ((5, 250), (7, 450)):
        seq = s_sequence(p, length)
        coeffs = recurrence_coeffs(p)
        for t in (0, 1, 2):
            assert deep_recurrence_verify(p, p + 1, coeffs, seq, t)


def test_deep_recurrence_detects_corruption():
    seq = list(s_sequence(5, 120))
    seq[100] = bp_add(seq[100], BivarPolyModP.const(5, 1))
    assert not deep_recurrence_verify(5, 6, recurrence_coeffs(5), seq, 1)


def test_deep_recurrence_needs_room():
    seq = s_sequence(5, 140)
    with pytest.raises(InsufficientLength):
        deep_recurrence_verify(5, 6, recurrence_coeffs(5), seq, 2)
    with pytest.raises(ValueError):
        deep_recurrence_verify(5, 3, recurrence_coeffs(5), seq, 1)


# ---------------------------------------------------------------- Newton chain


def test_newton_chain_base_cases():
    xs, ys = newton_chain(5, 8)
    assert xs[0] == SymPolyQ({_pack(()): 1}, 1)
    assert xs[1] == ys[0]
    assert ys[0] == SymPolyQ({_pack((1,)): 1}, 1)


def test_newton_chain_hands_out_read_only_polynomials():
    # newton_chain returns the cached polynomials themselves
    xs, ys = newton_chain(5, 8)
    with pytest.raises(TypeError):
        ys[1].terms[_pack((2,))] = 7
    assert newton_chain(5, 8) == (xs, ys)


def test_newton_identities_numerically():
    # with y_i evaluated at power sums of p+1 roots, x_i must become the
    # elementary symmetric functions and every later y_n the n-th power sum
    rng = random.Random(3)
    p = 5
    roots = [QQ(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(p + 1)]
    power = [sum(r ** i for r in roots) for i in range(1, 40)]
    xs, ys = newton_chain(p, 39)

    def esym(i):
        total = QQ(0)
        for combo in itertools.combinations(roots, i):
            term = QQ(1)
            for r in combo:
                term = term * r
            total = total + term
        return total

    for i in range(p + 2):
        assert evaluate(xs[i], power) == esym(i)
    for n in range(1, 40):
        assert evaluate(ys[n - 1], power) == power[n - 1]


def test_pack_keeps_every_exponent_inside_its_lane():
    assert _unpack(_pack((3, 0, 65535))) == (3, 0, 65535)
    assert _unpack(_pack((2, 0, 0))) == (2,)
    for bad in [(-1,), (1 << 16,), (0, 70000)]:
        with pytest.raises(ValueError):
            _pack(bad)


# ---------------------------------------------------------------- scaling map


def test_phi_on_first_variable():
    assert phi_image(1, 5) == SymPolyQ({_pack((1,)): 5}, 1)


def test_phi_images_are_p_integral():
    for n in range(1, 41):
        assert phi_image(n, 5).den % 5 != 0
    for n in range(1, 7):
        assert phi_image_x(n, 5).den % 5 != 0


def test_phi_divisibility_matches_digit_flag():
    for n in range(1, 41):
        flagged = delta_p(4 * n, 5) == 4
        assert all(c % 5 == 0 for c in phi_image(n, 5).terms.values()) == flagged


def test_phi_x_reduction_law():
    # mod p: x_1..x_{p-1} die, x_p becomes t_p, x_{p+1} becomes -t_{p+1}
    for p in (5, 7):
        for n in range(1, p):
            assert sp_to_bivar_mod_p(phi_image_x(n, p), p).is_zero()
        assert sp_to_bivar_mod_p(phi_image_x(p, p), p).terms == (((1, 0), 1),)
        assert sp_to_bivar_mod_p(phi_image_x(p + 1, p), p).terms == (((0, 1), p - 1),)
    with pytest.raises(ValueError):
        phi_image_x(8, 5)


def test_scaled_chain_reduces_to_s_sequence():
    # the bridge between the symmetric-function chain and the F_p[A,B]
    # recurrence: reduced Phi(y_n) is s_n with A = t_p and B = t_{p+1}
    for p in (5, 7):
        seq = s_sequence(p, 60)
        for n in range(1, 61):
            assert sp_to_bivar_mod_p(phi_image(n, p), p) == seq[n]


def test_bivar_projection_rejects_bad_input():
    with pytest.raises(ValueError):
        sp_to_bivar_mod_p(SymPolyQ({_pack((0, 0, 0, 0, 1)): 1}, 5), 5)  # t_5 / 5
    with pytest.raises(ValueError):
        sp_to_bivar_mod_p(SymPolyQ({_pack((1,)): 1}, 1), 5)  # t_1
