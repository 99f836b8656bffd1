"""Truncated q-expansions with exact rational coefficients.

A QSeries holds the coefficients of q^0 .. q^(N-1); N is the q-adic precision.
Arithmetic never extends precision: every result knows exactly as many
coefficients as its inputs warrant (the minimum of the input precisions).
Valuations are p-adic and exact, so coefficients are rationals, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rational import INF, QQ, rational_from_str, rational_to_str, val
from .errors import ZeroConstantTerm

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


def qs_mul(a: QSeries, b: QSeries) -> QSeries:
    """Convolution product, truncated to the smaller input precision."""
    N = min(a.prec, b.prec)
    ac, bc = a.coeffs, b.coeffs
    out = [_ZERO] * N
    for i in range(N):
        ai = ac[i]
        if ai == 0:
            continue
        for j in range(N - i):
            bj = bc[j]
            if bj != 0:
                out[i + j] += ai * bj
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
    invertible mod the modulus.
    """
    out = []
    for c in f.coeffs:
        num = int(c.numerator) % modulus
        den = int(c.denominator) % modulus
        if den != 1:
            num = num * pow(den, -1, modulus) % modulus
        out.append(QQ(num))
    return QSeries(tuple(out))


def qs_to_json(f: QSeries) -> dict:
    return {"prec": f.prec, "coeffs": [rational_to_str(c) for c in f.coeffs]}


def qs_from_json(d: dict) -> QSeries:
    """Inverse of qs_to_json; malformed input raises ValueError."""
    if not isinstance(d, dict) or not isinstance(d.get("coeffs"), list):
        raise ValueError("a series needs a JSON object with a coeffs list")
    coeffs = tuple(rational_from_str(s) for s in d["coeffs"])
    if d.get("prec") is not None and int(d["prec"]) != len(coeffs):
        raise ValueError("prec field disagrees with coefficient count")
    return QSeries(coeffs)
