"""Digit sums, the mod-p two-term recurrence in A and B, deep-recurrence
lifting, and the Newton-identity chain with its scaling homomorphism.

There is one rational polynomial type, SymPolyQ, plus the F_p target ring
BivarPolyModP, a sparse bivariate polynomial over F_p. A SymPolyQ is a
polynomial in y_1..y_{p+1} (or t_1..t_{p+1} after the scaling map) stored
as int numerators over one int denominator, keyed by packed exponent
vectors; the Newton chain builds, caches and returns SymPolyQs directly, so
its products and sums run on ints.
"""

from __future__ import annotations

import math
import struct
from collections import namedtuple
from types import MappingProxyType
from typing import NamedTuple

from .errors import InsufficientLength


def delta_p(n: int, p: int) -> int:
    """Base-p digit sum."""
    if n < 0:
        raise ValueError("n must be >= 0")
    total = 0
    while n:
        total += n % p
        n //= p
    return total


# ---------------------------------------------------------------------------
# sparse bivariate polynomials over F_p


class BivarPolyModP(NamedTuple):
    p: int
    terms: tuple  # sorted ((deg_A, deg_B), residue) with residue in 1..p-1

    @classmethod
    def from_dict(cls, p, d):
        clean = tuple(sorted((k, int(v % p)) for k, v in d.items() if v % p))
        return cls(p, clean)

    @classmethod
    def zero(cls, p):
        return cls(p, ())

    @classmethod
    def const(cls, p, c):
        return cls.from_dict(p, {(0, 0): c})

    @classmethod
    def gen_A(cls, p):
        return cls.from_dict(p, {(1, 0): 1})

    @classmethod
    def gen_B(cls, p):
        return cls.from_dict(p, {(0, 1): 1})

    def is_zero(self):
        return not self.terms


def bp_add(a: BivarPolyModP, b: BivarPolyModP) -> BivarPolyModP:
    d = dict(a.terms)
    for k, v in b.terms:
        d[k] = d.get(k, 0) + v
    return BivarPolyModP.from_dict(a.p, d)


def bp_mul(a: BivarPolyModP, b: BivarPolyModP) -> BivarPolyModP:
    d = {}
    for (da, db), u in a.terms:
        for (ea, eb), v in b.terms:
            k = (da + ea, db + eb)
            d[k] = d.get(k, 0) + u * v
    return BivarPolyModP.from_dict(a.p, d)


def bp_pow(a: BivarPolyModP, e: int) -> BivarPolyModP:
    if e < 0:
        raise ValueError("negative power")
    acc = BivarPolyModP.const(a.p, 1)
    base = a
    while e:
        if e & 1:
            acc = bp_mul(acc, base)
        base = bp_mul(base, base)
        e >>= 1
    return acc


def s_sequence(p: int, n_max: int):
    """s_0 = 1, s_1..s_p = 0, then s_n = A s_{n-p} + B s_{n-p-1}, over F_p."""
    A = BivarPolyModP.gen_A(p)
    B = BivarPolyModP.gen_B(p)
    seq = [BivarPolyModP.const(p, 1)]
    seq += [BivarPolyModP.zero(p)] * min(p, n_max)
    for n in range(p + 1, n_max + 1):
        seq.append(bp_add(bp_mul(A, seq[n - p]), bp_mul(B, seq[n - p - 1])))
    return seq[: n_max + 1]


def deep_recurrence_verify(p, r, coeffs, seq, t) -> bool:
    """Check the depth-t lift of a linear recurrence.

    Given s_n = sum_{i=1}^{r} A_i s_{n-i} over F_p, the lifted claim is
    s_n = sum_i A_i^{p^t} s_{n - i p^t} for all n with every index in
    range. coeffs lists A_1..A_r; seq is the sequence to check.
    """
    if len(coeffs) != r:
        raise ValueError(f"expected {r} coefficients, got {len(coeffs)}")
    q = p ** t
    start = r * q
    if start >= len(seq):
        raise InsufficientLength(
            f"no checkable indices: need length > {start}, got {len(seq)}"
        )
    lifted = [bp_pow(a, q) for a in coeffs]
    for n in range(start, len(seq)):
        acc = BivarPolyModP.zero(p)
        for i in range(1, r + 1):
            if not lifted[i - 1].is_zero():
                acc = bp_add(acc, bp_mul(lifted[i - 1], seq[n - i * q]))
        if acc != seq[n]:
            return False
    return True


# ---------------------------------------------------------------------------
# sparse rational polynomials: the Newton chain and the diagonal scaling map

# Chain polynomials multiply by adding exponent vectors, so each vector is
# packed into one integer with 16-bit lanes: vector addition becomes a
# single integer addition. _pack refuses an exponent a lane cannot hold.

_LANE = 16
_chain_cache: dict = {}  # p -> (x_0..x_{p+1}, y_0..y_n), y_0 None


def _pack(exps):
    k = 0
    for i, e in enumerate(exps):
        if not 0 <= e < 1 << _LANE:
            raise ValueError(f"exponent {e} outside [0, 2^{_LANE})")
        k |= e << (_LANE * i)
    return k


def _unpack(k):
    # one unsigned 16-bit ("H") lane per exponent; the top lane is nonzero,
    # so the tuple has no trailing zeros
    n = (k.bit_length() + _LANE - 1) // _LANE
    return struct.unpack(f"<{n}H", k.to_bytes(2 * n, "little"))


class SymPolyQ(namedtuple("SymPolyQ", "terms den")):
    """sum_k terms[k] / den * y^_unpack(k) in y_1..y_{p+1} (t_1..t_{p+1}
    after the scaling map), with terms a read-only map from packed exponent
    vectors to nonzero int numerators.

    Kept in lowest terms: den > 0 and gcd(den, every numerator) == 1, so p
    divides den exactly when some coefficient is not p-integral.
    """

    __slots__ = ()

    def __new__(cls, terms, den=1):
        if not isinstance(terms, MappingProxyType):
            terms = MappingProxyType(terms)
        return super().__new__(cls, terms, den)

    @classmethod
    def _make(cls, iterable):  # the inherited one, which _replace calls, skips __new__
        return cls(*iterable)

    def __getnewargs__(self):  # a MappingProxyType does not pickle
        return dict(self.terms), self.den


def _lowest(nums, den) -> SymPolyQ:
    """nums/den as a SymPolyQ: zero numerators dropped, one gcd divided out."""
    nums = {k: c for k, c in nums.items() if c}
    g = math.gcd(den, *nums.values())
    if g > 1:
        nums = {k: c // g for k, c in nums.items()}
        den //= g
    return SymPolyQ(nums, den)


def _newton_step(pairs, n) -> SymPolyQ:
    """(1/n) sum_i (-1)^(i-1) a_i b_i for the i-th pair (a_i, b_i) of chain
    polynomials, a_i the one with few terms.

    Both factors of every product are brought over L = lcm_i den(a_i) den(b_i)
    by scaling the terms of a_i, so the products and the sum run on ints."""
    L = math.lcm(*(a.den * b.den for a, b in pairs))
    acc = {}
    get = acc.get
    for i, (a, b) in enumerate(pairs):
        s = L // (a.den * b.den)
        if i % 2:
            s = -s
        items_b = list(b.terms.items())
        for ka, ca in a.terms.items():
            ca *= s
            for kb, cb in items_b:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
    return _lowest(acc, L * n)


def _chain(p: int, n_max: int):
    """x_0..x_{p+1} and y_0..y_{n_max} (y_0 None) as SymPolyQs, cached per p."""
    xs, ys = _chain_cache.get(p, (None, None))
    if xs is None:
        gens = [SymPolyQ({1 << (_LANE * i): 1}) for i in range(p + 1)]
        xs = [SymPolyQ({0: 1})]
        for n in range(1, p + 2):
            xs.append(_newton_step([(gens[i - 1], xs[n - i]) for i in range(1, n + 1)], n))
        ys = [None] + gens
    while len(ys) <= n_max:
        n = len(ys)
        ys.append(_newton_step([(xs[i], ys[n - i]) for i in range(1, p + 2)], 1))
    _chain_cache[p] = (xs, ys)
    return xs, ys


def newton_chain(p: int, n_max: int):
    """Return (x_0..x_{p+1}, y_1..y_{n_max}) as SymPolyQ tuples.

    x_n = (1/n) sum_{i=1}^{n} (-1)^(i-1) x_{n-i} y_i for n <= p+1, and
    y_n = sum_{i=1}^{p+1} (-1)^(i-1) x_i y_{n-i} for n >= p+2.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    xs, ys = _chain(p, max(n_max, p + 1))
    return tuple(xs), tuple(ys[1 : n_max + 1])


def _scaled(a: SymPolyQ, p) -> SymPolyQ:
    """The scaling map: variable i <= p picks up one factor of p per power;
    variable p+1 is left alone. Monomials keep their exponents."""
    return _lowest({k: c * p ** sum(_unpack(k)[:p]) for k, c in a.terms.items()}, a.den)


def phi_image(n: int, p: int) -> SymPolyQ:
    """Image of y_n under the scaling map, as a polynomial in t_1..t_{p+1}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _, ys = _chain(p, max(n, p + 1))
    return _scaled(ys[n], p)


def phi_image_x(n: int, p: int) -> SymPolyQ:
    """Image of x_n under the scaling map."""
    if not 0 <= n <= p + 1:
        raise ValueError(f"x_n exists for 0 <= n <= {p + 1}")
    xs, _ = _chain(p, p + 1)
    return _scaled(xs[n], p)


def sp_to_bivar_mod_p(a: SymPolyQ, p: int) -> BivarPolyModP:
    """Reduce mod p and read off a polynomial in the last two variables
    (t_p and t_{p+1}); any surviving term in an earlier variable is an
    error. Coefficients must be p-integral."""
    if a.den % p == 0:
        raise ValueError(f"denominator {a.den} is divisible by {p}: not {p}-integral")
    inv = pow(a.den, -1, p)
    d = {}
    for k, c in a.terms.items():
        res = c * inv % p
        if res == 0:
            continue
        exps = _unpack(k)
        if any(exps[: p - 1]):
            raise ValueError(f"term {exps} survives mod {p} outside (t_p, t_{p+1})")
        key = (exps + (0,) * (p + 1))[p - 1 : p + 1]
        d[key] = d.get(key, 0) + res
    return BivarPolyModP.from_dict(p, d)
