"""Truncated q-expansions with exact rational coefficients.

A QSeries holds the coefficients of q^0 .. q^(N-1); N is the q-adic precision.
Arithmetic never extends precision: every result knows exactly as many
coefficients as its inputs warrant (the minimum of the input precisions).
Valuations are p-adic and exact, so coefficients are rationals, never floats.

The coefficients are stored as int numerators `nums` over one int
denominator `den` > 0, in lowest terms: gcd(den, *nums) == 1, so equal series
have equal fields. Every operation works on the ints and takes one gcd per
result; `coeffs` is a cached view as rationals for callers at the edge.

A series may carry the p-adic precision it is known to, as capped-absolute
p-adics do: `modulus` is None when exact, else m = p^M with residues in
[0, m) over den 1. A result is known mod the gcd of its inputs' moduli.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import compress, count, repeat
from operator import floordiv, mod, mul

from ._rational import INF, QQ, int_val, rational_from_str, rational_to_str
from .errors import NotAUnit, ZeroConstantTerm


class QSeries:
    """QSeries(coeffs) exact from rationals; qs_from_nums from ints. Read-only."""

    def __init__(self, coeffs):
        coeffs = tuple(QQ(c) for c in coeffs)
        den = math.lcm(*(c.denominator for c in coeffs))
        # over the lcm of reduced denominators, gcd(den, *nums) is already 1
        nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.__dict__.update(nums=nums, den=den, modulus=None, coeffs=coeffs)

    @cached_property
    def coeffs(self):
        return tuple(QQ(x, self.den) for x in self.nums)

    @property
    def prec(self):
        return len(self.nums)

    def __eq__(self, other):
        return isinstance(other, QSeries) and (self.nums, self.den, self.modulus) == (
            other.nums, other.den, other.modulus
        )

    def __hash__(self):
        return hash((self.nums, self.den, self.modulus))

    def __setattr__(self, name, *_):
        raise AttributeError("QSeries is read-only: cannot set or delete %r" % name)

    __delattr__ = __setattr__

    def __getitem__(self, n):
        return self.coeffs[n]

    def __add__(self, other):
        return qs_add(self, other)

    def __sub__(self, other):
        return qs_sub(self, other)

    def __repr__(self):
        shown = ", ".join(rational_to_str(QQ(x, self.den)) for x in self.nums[:6])
        tail = ", ..." if self.prec > 6 else ""
        mod = "" if self.modulus is None else f", modulus={self.modulus}"
        return f"QSeries([{shown}{tail}], prec={self.prec}{mod})"


def qs_from_nums(nums, den=1, modulus=None) -> QSeries:
    """nums[n]/den (ints, den > 0) in lowest terms by one gcd; given a modulus,
    residues in [0, modulus) over den 1, or NotAUnit if den is not a unit."""
    # the high coefficients carry the largest denominators (an inverse's
    # grow with the index), so starting there cuts the running gcd down first
    g = math.gcd(den, *reversed(nums))
    nums, den = tuple(map(floordiv, nums, repeat(g)) if g != 1 else nums), den // g
    if modulus is not None:
        if den != 1:
            try:
                inv = pow(den, -1, modulus)
            except ValueError:
                # the first coefficient whose reduced denominator den/gcd(x, den) is not a unit
                n = next(n for n, x in enumerate(nums) if math.gcd(den // math.gcd(x, den), modulus) != 1)
                raise NotAUnit(f"denominator of q^{n} is not a unit mod {modulus}") from None
            nums = map(mul, nums, repeat(inv))
        nums, den = tuple(map(mod, nums, repeat(modulus))), 1
    f = QSeries.__new__(QSeries)
    f.__dict__.update(nums=nums, den=den, modulus=modulus)
    return f


def _meet(m, n):
    """The modulus of a result from inputs known mod m and mod n (None: exact)."""
    return n if m is None else m if n is None else math.gcd(m, n)


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
    return qs_from_nums([x + y for x, y in zip(an, bn)], den, _meet(a.modulus, b.modulus))


def qs_sub(a: QSeries, b: QSeries) -> QSeries:
    an, bn, den = _common(a, b)
    return qs_from_nums([x - y for x, y in zip(an, bn)], den, _meet(a.modulus, b.modulus))


def qs_scalar_mul(c, a: QSeries) -> QSeries:
    c = QQ(c)
    num = c.numerator
    return qs_from_nums([num * x for x in a.nums], a.den * c.denominator, a.modulus)


def _pack(nums, w, signed=True):
    """The integer sum of nums[i] * 2^(8 w i), for |nums[i]| < 2^(8 w); in one
    pass when unsigned, for 0 <= nums[i] < 2^(8 w)."""
    if not signed:
        return int.from_bytes(b"".join(map(int.to_bytes, nums, repeat(w), repeat("little"))), "little")
    pos = b"".join((x if x > 0 else 0).to_bytes(w, "little") for x in nums)
    neg = b"".join((-x if x < 0 else 0).to_bytes(w, "little") for x in nums)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _lanes(x, w, N, signed=True):
    """The N lanes of w bytes in the low 8 w N bits of x: the c[i] of
    x = sum c[i] * 2^(8 w i) mod 2^(8 w N), for |c[i]| < 2^(8 w - 1), or
    unsigned, for 0 <= c[i] < 2^(8 w), in one pass with no borrow."""
    # the low N lanes by mask: % on a power of two is a full long division
    lanes = (x & ((1 << (8 * w * N)) - 1)).to_bytes(w * N, "little")
    if not signed:
        chunks = map(lanes.__getitem__, map(slice, range(0, w * N, w), range(w, w * N + w, w)))
        return list(map(int.from_bytes, chunks, repeat("little")))
    lanes = memoryview(lanes)
    out = []
    borrow = 0
    for k in range(N):
        lane = int.from_bytes(lanes[k * w:(k + 1) * w], "little", signed=True)
        out.append(lane + borrow)
        borrow = lane < 0
    return out


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    """Product truncated to the smaller input precision N, by Kronecker
    substitution: the numerators of each operand are packed into one int in
    lanes of w bytes, a single big-int product yields the convolution lane
    by lane, and the denominator is den_a * den_b.

    With a = q^s a' and b = q^t b', only a'[:L] and b'[:L] are multiplied,
    L = N - s - t, behind s + t zeros (all zeros when L <= 0): so a peel
    remainder costs its live tail, and a product with Delta^j one of length
    N - j. Two capped operands hold residues in [0, m), so their lanes are
    unsigned, as wide as the moduli need, and packed and read in one pass.
    """
    N = min(a.prec, b.prec)
    m = _meet(a.modulus, b.modulus)
    s = next(compress(count(), a.nums), N)
    t = next(compress(count(), b.nums), N)
    L = N - s - t
    if L <= 0:
        return qs_from_nums((0,) * N, 1, m)
    an, bn = a.nums[s:s + L], b.nums[t:t + L]
    signed = a.modulus is None or b.modulus is None
    if signed:
        # |c_k| <= L max|a_i| max|b_j|, plus one bit for the sign
        bits = max(map(abs, an)).bit_length() + max(map(abs, bn)).bit_length() + L.bit_length() + 1
    else:
        # 0 <= c_k <= L (m_a - 1)(m_b - 1)
        bits = (a.modulus - 1).bit_length() + (b.modulus - 1).bit_length() + L.bit_length()
    w = (bits + 7) // 8
    out = _lanes(_pack(an, w, signed) * _pack(bn, w, signed), w, L, signed)
    return qs_from_nums([0] * (s + t) + out, a.den * b.den, m)


def qs_inv(a: QSeries) -> QSeries:
    """Multiplicative inverse; requires an invertible constant term.

    With a = A/D (A the numerators), 1/A = sum B_n q^n / A_0^(n+1) where
    B_0 = 1 and B_n = -sum_{k=1..n} A_k A_0^(k-1) B_(n-k), all in ints; so
    coefficient n of 1/a is D B_n A_0^(N-1-n) / A_0^N, reduced once at the end.
    If a has constant term 1 and p-integral coefficients the inverse does
    too (1-unit arithmetic). A series known mod m has its inverse mod m, the
    recurrence run in Z/m: every weight, B_n and power of A_0 reduced mod m.
    """
    A, m = a.nums, a.modulus
    N = len(A)
    if N == 0 or A[0] == 0:
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    a0 = A[0]
    if m is not None and math.gcd(a0, m) != 1:
        raise NotAUnit(f"constant term {a0} is not a unit mod {m}")
    red = (lambda x: x) if m is None else (lambda x: x % m)
    weights = []  # (k, A_k A_0^(k-1)) for the nonzero A_k
    scale = 1
    for k in range(1, N):
        if A[k]:
            weights.append((k, red(A[k] * scale)))
        scale = red(scale * a0)
    B = [1] * N
    for n in range(1, N):
        s = 0
        for k, wk in weights:
            if k > n:
                break
            s += wk * B[n - k]
        B[n] = red(-s)
    out = [0] * N
    scale = a.den
    for n in range(N - 1, -1, -1):
        out[n] = red(B[n] * scale)
        scale = red(scale * a0)
    den = a0**N if m is None else pow(a0, N, m)
    if den < 0:
        out, den = [-x for x in out], -den
    return qs_from_nums(out, den, m)


def qs_pow(a: QSeries, n: int) -> QSeries:
    """a**n by repeated squaring; negative n inverts a**-n, whose
    coefficients are far smaller than those of a's inverse."""
    if n < 0:
        return qs_inv(qs_pow(a, -n))
    result, base = None, a
    while n:
        if n & 1:
            result = base if result is None else qs_mul(result, base)
        n >>= 1
        if n:
            base = qs_mul(base, base)
    return qs_one(a.prec) if result is None else result


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
    return qs_from_nums(out, f.den, f.modulus)


def apply_U(f: QSeries, p: int) -> QSeries:
    """Atkin's operator on coefficients: a_n <- a_{pn}; precision floor(N/p)."""
    return qs_from_nums(f.nums[:p * (f.prec // p):p], f.den, f.modulus)


def qs_val(f: QSeries, p: int):
    """Minimum p-adic valuation over all known coefficients; +inf if none is
    nonzero. The least v_p of the numerators is v_p of their gcd."""
    g = math.gcd(*f.nums)
    return int_val(g, p) - int_val(f.den, p) if g else INF


def qs_truncate(f: QSeries, N: int) -> QSeries:
    if N >= f.prec:
        return f
    return qs_from_nums(f.nums[:N], f.den, f.modulus)


def qs_reduce_mod(f: QSeries, modulus: int) -> QSeries:
    """f known mod modulus (and its own): p-integral coefficients as residues.
    f itself when that is its own modulus, as every QSeries is canonical."""
    m = _meet(f.modulus, modulus)
    return f if m == f.modulus else qs_from_nums(f.nums, f.den, m)


def qs_to_json(f: QSeries) -> dict:
    """{"prec", "coeffs"} as rational strings, plus "modulus" when f has one."""
    d = {"prec": f.prec, "coeffs": [rational_to_str(c) for c in f.coeffs]}
    if f.modulus is not None:
        d["modulus"] = f.modulus
    return d


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
    if "modulus" not in d:
        return QSeries(coeffs)
    m = d["modulus"]
    if type(m) is not int or m < 2:
        raise ValueError("modulus must be an integer > 1, got %r" % (m,))
    for n, c in enumerate(coeffs):
        if c.denominator != 1 or not 0 <= c < m:
            raise ValueError("coefficient of q^%d is not a residue in [0, %d)" % (n, m))
    return qs_from_nums([c.numerator for c in coeffs], 1, m)
