"""Truncated q-expansions with exact rational coefficients.

A QSeries holds the coefficients of q^0 .. q^(N-1); N is the q-adic precision.
Arithmetic never extends precision: every result knows exactly as many
coefficients as its inputs warrant (the minimum of the input precisions).
Valuations are p-adic and exact, so coefficients are rationals, never floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._rational import INF, QQ, rational_from_str, rational_to_str, val
from .errors import NotAUnit, ZeroConstantTerm

_ZERO = QQ(0)
_ONE = QQ(1)


@dataclass(frozen=True)
class QSeries:
    coeffs: tuple

    @property
    def prec(self):
        return len(self.coeffs)

    def __getitem__(self, n):
        return self.coeffs[n]

    def __add__(self, other):
        return qs_add(self, other)

    def __sub__(self, other):
        return qs_sub(self, other)

    def __neg__(self):
        return QSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return qs_mul(self, other)
        return qs_scalar_mul(other, self)

    __rmul__ = __mul__

    def __pow__(self, n):
        return qs_pow(self, n)

    def __repr__(self):
        shown = ", ".join(rational_to_str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.prec > 6 else ""
        return f"QSeries([{shown}{tail}], prec={self.prec})"


def qs_from_list(coeffs):
    return QSeries(tuple(QQ(c) for c in coeffs))


def qs_zero(N):
    return QSeries((_ZERO,) * N)


def qs_one(N):
    return QSeries((_ONE,) + (_ZERO,) * (N - 1))


def qs_add(a: QSeries, b: QSeries) -> QSeries:
    N = min(a.prec, b.prec)
    return QSeries(tuple(a.coeffs[i] + b.coeffs[i] for i in range(N)))


def qs_sub(a: QSeries, b: QSeries) -> QSeries:
    N = min(a.prec, b.prec)
    return QSeries(tuple(a.coeffs[i] - b.coeffs[i] for i in range(N)))


def qs_scalar_mul(c, a: QSeries) -> QSeries:
    c = QQ(c)
    return QSeries(tuple(c * x for x in a.coeffs))


def _over_common_denominator(coeffs):
    """Integer numerators of coeffs over the lcm L of their denominators.

    Also returns, per index j, the lcm L_j of the denominators up to j and
    the cofactor L // L_j. Built from the running lcm, so a denominator
    chain d, d^2, d^3, ... costs no big division.
    """
    lcm = 1
    part, grow, prefix = [], [], []  # L_j // d_j, L_j // L_(j-1), L_j
    for c in coeffs:
        d = int(c.denominator)
        q, r = divmod(lcm, d)
        if r:
            g = math.gcd(lcm, d)
            q, f = lcm // g, d // g
            lcm *= f
        else:
            f = 1
        part.append(q)
        grow.append(f)
        prefix.append(lcm)
    nums = [0] * len(coeffs)
    tails = [1] * len(coeffs)
    tail = 1
    for j in range(len(coeffs) - 1, -1, -1):
        tails[j] = tail
        nums[j] = int(coeffs[j].numerator) * part[j] * tail
        tail *= grow[j]
    return nums, prefix, tails


def _pack(nums, w):
    """The integer sum of nums[i] * 2^(8 w i), for |nums[i]| < 2^(8 w)."""
    pos = b"".join((x if x > 0 else 0).to_bytes(w, "little") for x in nums)
    neg = b"".join((-x if x < 0 else 0).to_bytes(w, "little") for x in nums)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    """Product truncated to the smaller input precision N, by Kronecker
    substitution: each operand becomes integer numerators over one common
    denominator, packed into one int in lanes of w bytes, and a single
    big-int product yields the convolution lane by lane.
    """
    N = min(a.prec, b.prec)
    if N == 0:
        return QSeries(())
    an, la, ta = _over_common_denominator(a.coeffs[:N])
    bn, lb, tb = _over_common_denominator(b.coeffs[:N])
    # |c_k| <= N max|a_i| max|b_j|, plus one bit for the sign
    bits = max(map(abs, an)).bit_length() + max(map(abs, bn)).bit_length() + N.bit_length() + 1
    w = (bits + 7) // 8
    # the low N lanes by mask: % on a power of two is a full long division
    low = (_pack(an, w) * _pack(bn, w)) & ((1 << (8 * w * N)) - 1)
    lanes = memoryview(low.to_bytes(w * N, "little"))
    out = []
    borrow = 0
    for k in range(N):
        lane = int.from_bytes(lanes[k * w:(k + 1) * w], "little", signed=True)
        # every term of c_k has i, j <= k, so c_k is a multiple of both
        # cofactors at k and its denominator divides la[k] * lb[k]
        out.append(QQ((lane + borrow) // (ta[k] * tb[k]), la[k] * lb[k]))
        borrow = lane < 0
    return QSeries(tuple(out))


def qs_inv(a: QSeries) -> QSeries:
    """Multiplicative inverse; requires an invertible constant term.

    If a has constant term 1 and p-integral coefficients the inverse does
    too (1-unit arithmetic).
    """
    if a.prec == 0 or a.coeffs[0] == 0:
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    N = a.prec
    ac = a.coeffs
    inv0 = 1 / QQ(a.coeffs[0])
    out = [_ZERO] * N
    out[0] = inv0
    for n in range(1, N):
        s = _ZERO
        for k in range(1, n + 1):
            if ac[k] != 0:
                s += ac[k] * out[n - k]
        out[n] = -inv0 * s
    return QSeries(tuple(out))


def qs_pow(a: QSeries, n: int) -> QSeries:
    """a**n by repeated squaring; negative n inverts first."""
    if n < 0:
        return qs_pow(qs_inv(a), -n)
    result = qs_one(a.prec)
    base = a
    e = n
    while e:
        if e & 1:
            result = qs_mul(result, base)
        e >>= 1
        if e:
            base = qs_mul(base, base)
    return result


def qs_div(a: QSeries, b: QSeries) -> QSeries:
    return qs_mul(a, qs_inv(b))


def apply_V(f: QSeries, p: int) -> QSeries:
    """The map q -> q^p on coefficients: a_n <- a_{n/p} when p | n, else 0.

    Precision is preserved; coefficients of the image beyond the known range
    are simply truncated away.
    """
    N = f.prec
    out = [_ZERO] * N
    for n in range(0, N, p):
        out[n] = f.coeffs[n // p]
    return QSeries(tuple(out))


def apply_U(f: QSeries, p: int) -> QSeries:
    """Atkin's operator on coefficients: a_n <- a_{pn}; precision floor(N/p)."""
    M = f.prec // p
    return QSeries(tuple(f.coeffs[p * n] for n in range(M)))


def qs_val(f: QSeries, p: int):
    """Minimum p-adic valuation over all known coefficients; +inf if none is nonzero."""
    best = INF
    for c in f.coeffs:
        if c != 0:
            v = val(c, p)
            if v < best:
                best = v
    return best


def qs_truncate(f: QSeries, N: int) -> QSeries:
    if N >= f.prec:
        return f
    return QSeries(f.coeffs[:N])


def qs_reduce_mod(f: QSeries, modulus: int) -> QSeries:
    """Reduce p-integral coefficients to standard residues in [0, modulus).

    Rational coefficients are allowed as long as their denominators are
    invertible mod the modulus; any other denominator raises NotAUnit.
    """
    out = []
    for n, c in enumerate(f.coeffs):
        num = int(c.numerator) % modulus
        den = int(c.denominator) % modulus
        if den != 1:
            try:
                num = num * pow(den, -1, modulus) % modulus
            except ValueError:
                raise NotAUnit(f"denominator of q^{n} is not a unit mod {modulus}") from None
        out.append(QQ(num))
    return QSeries(tuple(out))


def qs_to_json(f: QSeries) -> dict:
    return {"prec": f.prec, "coeffs": [rational_to_str(c) for c in f.coeffs]}


def qs_from_json(d: dict) -> QSeries:
    """Inverse of qs_to_json; malformed input raises ValueError."""
    if not isinstance(d, dict) or not isinstance(d.get("coeffs"), list):
        raise ValueError("a series needs a JSON object with a coeffs list")
    coeffs = tuple(rational_from_str(s) for s in d["coeffs"])
    prec = d.get("prec")
    if prec is not None:
        try:
            prec = int(prec)
        except TypeError:
            raise ValueError("prec must be an integer, got %r" % (prec,)) from None
        if prec != len(coeffs):
            raise ValueError("prec field disagrees with coefficient count")
    return QSeries(coeffs)
