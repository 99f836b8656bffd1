"""Digit sums, the mod-p two-term recurrence in A and B, deep-recurrence
lifting, and the Newton-identity chain with its scaling homomorphism.

There is one rational polynomial type, SymPolyQ, plus the F_p target ring
BivarPolyModP, a sparse bivariate polynomial over F_p. A SymPolyQ is a
polynomial in y_1..y_{p+1} (or t_1..t_{p+1} after the scaling map) stored
as int numerators over one int denominator, keyed by packed exponent
vectors; the Newton chain builds, caches and returns SymPolyQs directly.
Its products run by Kronecker substitution in y_2: the terms that differ
only in how y_1^2 and y_2 share a weight are packed into one int, y_2's
exponent selecting the lane, and one big-int product stands for all the
term products of two such groups.
"""

from __future__ import annotations

import math
from collections import deque, namedtuple
from types import MappingProxyType
from typing import NamedTuple

from .errors import InsufficientLength
from .series import _lanes, _pack


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


def deep_recurrence_verify(p, coeffs, seq, t) -> bool:
    """Check the depth-t lift of a linear recurrence.

    Given s_n = sum_{i=1}^{r} A_i s_{n-i} over F_p, the lifted claim is
    s_n = sum_i A_i^{p^t} s_{n - i p^t} for all n with every index in
    range. coeffs lists A_1..A_r; seq is the sequence to check.
    """
    r = len(coeffs)
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

# Chain polynomials multiply by adding exponent vectors, each packed into
# one integer with 16-bit lanes. _newton_step adds outer keys unchecked, in
# which lane y_1 holds e_1 + 2 e_2 (see _Form); x_n and y_n have weight n
# (y_i weighs i), so that lane, every other lane and the lane sum that
# _scaled reads all stay below 2^16 - 1 while n does. Every key is a sum of
# the variables' keys 1 << (_LANE * i), so nothing here checks a lane.

_LANE = 16
_MASK = (1 << _LANE) - 1
_FOLD = _MASK - 1  # folding y_2 into y_1^2 takes this off a key
_chain_cache: dict = {}  # p -> _Chain


class SymPolyQ(namedtuple("SymPolyQ", "terms den")):
    """sum_k terms[k] / den * y^e(k) in y_1..y_{p+1} (t_1..t_{p+1} after
    the scaling map), with terms a read-only map from packed exponent vectors
    to nonzero int numerators: lane i of the key k holds e(k)_{i+1}.

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
    """nums/den, every numerator nonzero, as a SymPolyQ: one gcd divided out."""
    g = math.gcd(den, *nums.values())
    if g > 1:
        nums = {k: c // g for k, c in nums.items()}
        den //= g
    return SymPolyQ(nums, den)


class _Form(NamedTuple):
    """A chain polynomial packed for Kronecker products in y_2.

    Its terms are grouped by outer key, the exponent key with y_2 folded into
    y_1^2 (lane y_2 cleared, 2 e_2 added to lane y_1). Folding is additive,
    so the outer key of a product is the sum of its factors' outer keys.
    Within a group e_2 fixes e_1, and the numerators go into one int
    sum c * 2^(8 w e_2), in signed lanes of w bytes (`series._pack`).
    """

    poly: SymPolyQ
    groups: tuple  # (outer key, packed numerators)
    bits: int  # bit length of the largest |numerator|


def _form(a: SymPolyQ, w) -> _Form:
    lanes = {}
    for k, c in a.terms.items():
        e2 = k >> _LANE & _MASK
        lanes.setdefault(k - e2 * _FOLD, {})[e2] = c
    groups = tuple(
        (K, _pack([g.get(j, 0) for j in range(max(g) + 1)], w)) for K, g in lanes.items()
    )
    return _Form(a, groups, max(map(abs, a.terms.values())).bit_length())


def _newton_step(pairs, scales, den, w) -> _Form:
    """sum_i scales[i] a_i b_i / den for the i-th pair (a_i, b_i) of forms in
    lanes of w bytes: one big-int product per pair of groups, summed per
    outer key and decoded once."""
    acc = {}
    get = acc.get
    for s, (a, b) in zip(scales, pairs):
        groups_b = b.groups
        for Ka, va in a.groups:
            va *= s
            for Kb, vb in groups_b:
                K = Ka + Kb
                acc[K] = get(K, 0) + va * vb
    nums = {}
    for K, v in acc.items():
        # the folded lane is e_1 + 2 e_2, so e_2 runs up to half of it
        for e2, c in enumerate(_lanes(v, w, (K & _MASK) // 2 + 1)):
            if c:
                nums[K + e2 * _FOLD] = c
    poly = _lowest(nums, den)
    # every lane of v is divisible by g, so v is too, and v // g packs the reduced numerators
    g = den // poly.den
    groups = tuple((K, v // g) for K, v in acc.items() if v)
    return _Form(poly, groups, max(map(abs, poly.terms.values())).bit_length())


class _Chain:
    """The Newton chain of one p: xs = x_0..x_{p+1} and ys = y_0..y_n (y_0
    None) as SymPolyQs, with x_forms the x's and window the last p+1 y's,
    oldest first, packed in lanes of w bytes. The lanes widen, and both are
    packed again, only when a step's bound no longer fits them."""

    def __init__(self, p):
        self.p, self.w = p, 1
        self.xs = [SymPolyQ({0: 1})]
        self.ys = [None] + [SymPolyQ({1 << (_LANE * i): 1}) for i in range(p + 1)]
        self.x_forms = [_form(self.xs[0], 1)]
        self.window = deque((_form(y, 1) for y in self.ys[1:]), p + 1)
        for n in range(1, p + 2):  # the window holds y_1..y_{p+1} until extend
            form = self._step([(n - i, i - 1) for i in range(1, n + 1)], n)
            self.x_forms.append(form)
            self.xs.append(form.poly)

    def _step(self, pairs, n):
        """The form of (1/n) sum_i (-1)^(i-1) x_forms[j] window[k], (j, k) the i-th pair."""
        xf, yf = self.x_forms, self.window
        dens = [xf[j].poly.den * yf[k].poly.den for j, k in pairs]
        # both factors of every product over L = lcm_i den(a_i) den(b_i)
        L = math.lcm(*dens)
        scales = [(-1) ** i * (L // d) for i, d in enumerate(dens)]
        # a lane of the sum is at most sum_i |s_i| max|a_i| max|b_i| m_i, with
        # m_i = min(#a_i, #b_i) bounding the term pairs that meet in one key;
        # one more bit for the sign
        bits = len(pairs).bit_length() + 1 + max(
            abs(s).bit_length() + xf[j].bits + yf[k].bits
            + min(len(xf[j].poly.terms), len(yf[k].poly.terms)).bit_length()
            for s, (j, k) in zip(scales, pairs)
        )
        w = (bits + 7) // 8
        if w > self.w:
            self.w = w = w + w // 2
            self.x_forms = xf = [_form(f.poly, w) for f in xf]
            self.window = yf = deque((_form(f.poly, w) for f in yf), self.p + 1)
        return _newton_step([(xf[j], yf[k]) for j, k in pairs], scales, L * n, self.w)

    def extend(self, n_max):
        while len(self.ys) <= n_max:
            form = self._step([(i, -i) for i in range(1, self.p + 2)], 1)
            self.window.append(form)  # and drops y_{n-p-1}, which no later y reads
            self.ys.append(form.poly)


def _chain(p: int, n_max: int):
    """x_0..x_{p+1} and y_0..y_{n_max} (y_0 None) as SymPolyQs, cached per p."""
    chain = _chain_cache.get(p)
    if chain is None:
        chain = _chain_cache[p] = _Chain(p)
    chain.extend(n_max)
    return chain.xs, chain.ys


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
    # 2^_LANE is 1 mod _MASK, so k % _MASK is the lane sum; lane p, for
    # variable p+1, is the top one
    return _lowest({k: c * p ** (k % _MASK - (k >> _LANE * p)) for k, c in a.terms.items()}, a.den)


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
    low = (1 << _LANE * (p - 1)) - 1  # the lanes of t_1..t_{p-1}
    d = {}
    for k, c in a.terms.items():
        res = c * inv % p
        if res == 0:
            continue
        if k & low:
            exps = tuple(k >> _LANE * i & _MASK for i in range(-(-k.bit_length() // _LANE)))
            raise ValueError(f"term {exps} survives mod {p} outside (t_p, t_{p+1})")
        # lane p, for t_{p+1}, is the top one
        key = (k >> _LANE * (p - 1) & _MASK, k >> _LANE * p)
        d[key] = d.get(key, 0) + res
    return BivarPolyModP.from_dict(p, d)
