"""Truncated q-expansions with exact rational coefficients.

A QSeries holds the coefficients of q^0 .. q^(N-1); N is the q-adic precision.
Arithmetic never extends precision: every result knows exactly as many
coefficients as its inputs warrant (the minimum of the input precisions).
Valuations are p-adic and exact, so coefficients are rationals, never floats.

The coefficients are stored as int numerators `nums` over one int
denominator `den` > 0, in lowest terms: gcd(den, *nums) == 1, so equal series
have equal fields. Every operation works on the ints and takes one gcd per
result; `coeffs` is a cached view as rationals for callers at the edge.
"""

from __future__ import annotations

import math
from functools import cached_property

from ._rational import INF, QQ, int_val, rational_from_str, rational_to_str
from .errors import NotAUnit, ZeroConstantTerm


class QSeries:
    """QSeries(coeffs) from rationals; qs_from_nums(nums, den) from ints. Read-only."""

    def __init__(self, coeffs):
        coeffs = tuple(QQ(c) for c in coeffs)
        den = math.lcm(*(c.denominator for c in coeffs))
        # over the lcm of reduced denominators, gcd(den, *nums) is already 1
        nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        self.__dict__["coeffs"] = coeffs

    @cached_property
    def coeffs(self):
        return tuple(QQ(x, self.den) for x in self.nums)

    @property
    def prec(self):
        return len(self.nums)

    def __eq__(self, other):
        return isinstance(other, QSeries) and self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __setattr__(self, name, *_):
        raise AttributeError("QSeries is read-only: cannot set or delete %r" % name)

    __delattr__ = __setattr__

    def __getitem__(self, n):
        return self.coeffs[n]

    def __add__(self, other):
        return qs_add(self, other)

    def __sub__(self, other):
        return qs_sub(self, other)

    def __neg__(self):
        return qs_from_nums([-x for x in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return qs_mul(self, other)
        return qs_scalar_mul(other, self)

    __rmul__ = __mul__

    def __pow__(self, n):
        return qs_pow(self, n)

    def __repr__(self):
        shown = ", ".join(rational_to_str(QQ(x, self.den)) for x in self.nums[:6])
        tail = ", ..." if self.prec > 6 else ""
        return f"QSeries([{shown}{tail}], prec={self.prec})"


def qs_from_nums(nums, den=1) -> QSeries:
    """The series nums[n]/den (ints, den > 0), brought to lowest terms by one gcd."""
    # the high coefficients carry the largest denominators (an inverse's
    # grow with the index), so starting there cuts the running gcd down first
    g = math.gcd(den, *reversed(nums))
    f = QSeries.__new__(QSeries)
    object.__setattr__(f, "nums", tuple(x // g for x in nums) if g != 1 else tuple(nums))
    object.__setattr__(f, "den", den // g)
    return f


def qs_one(N):
    return qs_from_nums((1,) + (0,) * (N - 1))


def _common(a: QSeries, b: QSeries):
    """The first min(prec) numerators of a and b over one common denominator."""
    N = min(a.prec, b.prec)
    g = math.gcd(a.den, b.den)
    ca, cb = b.den // g, a.den // g
    return [x * ca for x in a.nums[:N]], [y * cb for y in b.nums[:N]], a.den * ca


def qs_add(a: QSeries, b: QSeries) -> QSeries:
    an, bn, den = _common(a, b)
    return qs_from_nums([x + y for x, y in zip(an, bn)], den)


def qs_sub(a: QSeries, b: QSeries) -> QSeries:
    an, bn, den = _common(a, b)
    return qs_from_nums([x - y for x, y in zip(an, bn)], den)


def qs_scalar_mul(c, a: QSeries) -> QSeries:
    c = QQ(c)
    num = c.numerator
    return qs_from_nums([num * x for x in a.nums], a.den * c.denominator)


def _pack(nums, w):
    """The integer sum of nums[i] * 2^(8 w i), for |nums[i]| < 2^(8 w)."""
    pos = b"".join((x if x > 0 else 0).to_bytes(w, "little") for x in nums)
    neg = b"".join((-x if x < 0 else 0).to_bytes(w, "little") for x in nums)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    """Product truncated to the smaller input precision N, by Kronecker
    substitution: the numerators of each operand are packed into one int in
    lanes of w bytes, a single big-int product yields the convolution lane
    by lane, and the denominator is den_a * den_b.
    """
    N = min(a.prec, b.prec)
    if N == 0:
        return qs_from_nums(())
    an, bn = a.nums[:N], b.nums[:N]
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
        out.append(lane + borrow)
        borrow = lane < 0
    return qs_from_nums(out, a.den * b.den)


def qs_inv(a: QSeries) -> QSeries:
    """Multiplicative inverse; requires an invertible constant term.

    With a = A/D (A the numerators), 1/A = sum B_n q^n / A_0^(n+1) where
    B_0 = 1 and B_n = -sum_{k=1..n} A_k A_0^(k-1) B_(n-k), all in ints; so
    coefficient n of 1/a is D B_n A_0^(N-1-n) / A_0^N, reduced once at the end.
    If a has constant term 1 and p-integral coefficients the inverse does
    too (1-unit arithmetic).
    """
    A = a.nums
    N = len(A)
    if N == 0 or A[0] == 0:
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    a0 = A[0]
    weights = []  # (k, A_k A_0^(k-1)) for the nonzero A_k
    scale = 1
    for k in range(1, N):
        if A[k]:
            weights.append((k, A[k] * scale))
        scale *= a0
    B = [1] * N
    for n in range(1, N):
        s = 0
        for k, wk in weights:
            if k > n:
                break
            s += wk * B[n - k]
        B[n] = -s
    out = [0] * N
    scale = a.den
    for n in range(N - 1, -1, -1):
        out[n] = B[n] * scale
        scale *= a0
    den = a0**N
    if den < 0:
        out, den = [-x for x in out], -den
    return qs_from_nums(out, den)


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
    out = [0] * N
    out[::p] = f.nums[:len(range(0, N, p))]
    return qs_from_nums(out, f.den)


def apply_U(f: QSeries, p: int) -> QSeries:
    """Atkin's operator on coefficients: a_n <- a_{pn}; precision floor(N/p)."""
    return qs_from_nums(f.nums[:p * (f.prec // p):p], f.den)


def qs_val(f: QSeries, p: int):
    """Minimum p-adic valuation over all known coefficients; +inf if none is nonzero."""
    vals = [int_val(x, p) for x in f.nums if x]
    return min(vals) - int_val(f.den, p) if vals else INF


def qs_truncate(f: QSeries, N: int) -> QSeries:
    if N >= f.prec:
        return f
    return qs_from_nums(f.nums[:N], f.den)


def qs_reduce_mod(f: QSeries, modulus: int) -> QSeries:
    """Reduce p-integral coefficients to standard residues in [0, modulus).

    Rational coefficients are allowed as long as their denominators are
    invertible mod the modulus; any other denominator raises NotAUnit.
    """
    try:
        inv = pow(f.den, -1, modulus)
    except ValueError:
        # the first coefficient whose reduced denominator den/gcd(x, den) is not a unit
        n = next(n for n, x in enumerate(f.nums) if math.gcd(f.den // math.gcd(x, f.den), modulus) != 1)
        raise NotAUnit(f"denominator of q^{n} is not a unit mod {modulus}") from None
    return qs_from_nums([x * inv % modulus for x in f.nums])


def qs_to_json(f: QSeries) -> dict:
    return {"prec": f.prec, "coeffs": [rational_to_str(c) for c in f.coeffs]}


def qs_from_json(d: dict) -> QSeries:
    """Inverse of qs_to_json; malformed input raises ValueError."""
    if not isinstance(d, dict) or not isinstance(d.get("coeffs"), list):
        raise ValueError("a series needs a JSON object with a coeffs list")
    coeffs = tuple(rational_from_str(s) for s in d["coeffs"])
    prec = d.get("prec")
    if prec is not None:
        # a JSON integer only: int() would truncate 1.5 and read true as 1
        if type(prec) is not int:
            raise ValueError("prec must be an integer, got %r" % (prec,))
        if prec != len(coeffs):
            raise ValueError("prec field disagrees with coefficient count")
    return QSeries(coeffs)
