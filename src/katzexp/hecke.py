"""Hecke operators on q-expansions, their weight-twisted versions, and
iteration of projector polynomials in U.

Operators here act purely on truncated q-expansions. Each application of U
or T_ell divides the usable precision, so drivers should budget input
precision backward from the length they need out. Every weight-0 twist
f -> op(f * E_{p-1}^n) / E_{p-1}^n goes through one helper, and all products
are the series core's qs_mul. A projector polynomial is its coefficients in U.
"""

from __future__ import annotations

from collections import namedtuple

from ._rational import QQ, is_prime
from .classical import eisenstein_series
from .errors import EllEqualsP, InvalidWeight, PrecisionTooLow
from .series import (
    QSeries,
    apply_U,
    apply_V,
    qs_add,
    qs_from_nums,
    qs_mul,
    qs_one,
    qs_pow,
    qs_scalar_mul,
    qs_truncate,
)


def hecke_T_ell(f: QSeries, k: int, ell: int) -> QSeries:
    """T_ell at weight k: a_n -> a_{ell*n} + ell^(k-1) * a_{n/ell}.

    The divisor term only contributes when ell | n. Output precision is
    floor(prec/ell).
    """
    if not is_prime(ell):
        raise InvalidWeight(f"T_ell needs a prime index, got {ell}")
    N = f.prec
    M = N // ell
    if M < 1:
        raise PrecisionTooLow(f"prec {N} leaves no coefficients after T_{ell}")
    # ell^(k-1) as s / t in ints: t = 1 unless k < 1
    s, t = (ell ** (k - 1), 1) if k >= 1 else (1, ell ** (1 - k))
    nums = f.nums
    out = [nums[ell * n] * t + (s * nums[n // ell] if n % ell == 0 else 0) for n in range(M)]
    return qs_from_nums(out, f.den * t)


def _twisted(op, f: QSeries, n: int, p: int) -> QSeries:
    """op(f * E^n) / E^n with E = E_{p-1}: an operator at weight n(p-1)
    carried into weight 0. The quotient has op's output precision."""
    E = eisenstein_series(p - 1, f.prec)
    g = op(qs_mul(f, qs_pow(E, n)))
    return qs_mul(g, qs_pow(qs_truncate(E, g.prec), -n))


def twisted_U(f: QSeries, n: int, p: int) -> QSeries:
    """U twisted into weight 0 by E_{p-1}^n: U(f * E^n) / E^n."""
    if f.prec < p:
        raise PrecisionTooLow(f"prec {f.prec} leaves no coefficients after U")
    return _twisted(lambda g: apply_U(g, p), f, n, p)


def twisted_T_ell(f: QSeries, ell: int, n: int, p: int) -> QSeries:
    """T_ell twisted into weight 0 at weight n(p-1): T_ell(f * E^n) / E^n."""
    if ell == p:
        raise EllEqualsP(f"T_{ell} coincides with the working prime; use U")
    if n < 1:
        raise InvalidWeight("twisted T_ell is defined for n >= 1")
    return _twisted(lambda g: hecke_T_ell(g, n * (p - 1), ell), f, n, p)


def t_p_n_one(n: int, p: int, N: int) -> QSeries:
    """(U(E^n) + p^(n(p-1)-1) * V(E^n)) / E^n at weight-0, n >= 1.

    N is the construction precision; the output has floor(N/p) terms.
    """
    if n < 1:
        raise InvalidWeight("defined for n >= 1")
    if N < p:
        raise PrecisionTooLow(f"prec {N} leaves no coefficients after U")
    scale = QQ(p ** (n * (p - 1) - 1))

    def t_p(g):
        top = apply_U(g, p)
        return qs_add(top, qs_scalar_mul(scale, qs_truncate(apply_V(g, p), top.prec)))

    return _twisted(t_p, qs_one(N), n, p)


class HPolynomial(namedtuple("HPolynomial", "coeffs")):
    """c_1 U + ... + c_d U^d as its coefficients (c_1, ..., c_d), with c_d != 0
    and no constant term; 11U(U+5) is (55, 11)."""

    __slots__ = ()

    def __new__(cls, coeffs):
        if not coeffs or coeffs[-1] == 0:
            raise ValueError("need at least one coefficient and a nonzero top one")
        return super().__new__(cls, tuple(coeffs))

    @classmethod
    def _make(cls, iterable):  # the inherited one, which _replace calls, skips __new__
        return cls(*iterable)

    def check_p_integral(self, p: int):
        for coeff in self.coeffs:
            if coeff.denominator % p == 0:
                raise ValueError(f"coefficient {coeff} is not {p}-integral")

    def max_divisor(self, p: int) -> int:
        """Precision shrink factor of a single application: p^d."""
        return p ** len(self.coeffs)

    def __str__(self):
        mono = (([] if c == 1 else [str(c)]) + ["U"] * u for u, c in enumerate(self.coeffs, 1) if c)
        return " + ".join("*".join(m) for m in mono)


U_POLY = HPolynomial((1,))


def projector_poly(p: int) -> HPolynomial:
    """The stock projector for small primes: U alone, except Serre's 11U(U+5) at p=13."""
    if p == 13:
        return HPolynomial((55, 11))
    if p in (5, 7):
        return U_POLY
    raise InvalidWeight(f"no stock projector for p={p}; supply one explicitly")


def apply_hpoly(h: HPolynomial, f: QSeries, p: int) -> QSeries:
    """Apply c_1 U + ... + c_d U^d to an expansion.

    U runs once per degree, and each c_u U^u f is truncated to prec // p^d.
    """
    h.check_p_integral(p)
    out_prec = f.prec // h.max_divisor(p)
    if out_prec < 1:
        raise PrecisionTooLow(f"prec {f.prec} exhausted by {h}")
    acc = None
    g = f
    for coeff in h.coeffs:
        g = apply_U(g, p)
        if coeff:
            term = qs_scalar_mul(coeff, qs_truncate(g, out_prec))
            acc = term if acc is None else qs_add(acc, term)
    return acc


def apply_hpoly_twisted(h: HPolynomial, f: QSeries, n: int, p: int) -> QSeries:
    """One step of the twisted projector: H(f * E^n) / E^n."""
    return _twisted(lambda g: apply_hpoly(h, g, p), f, n, p)


def iterate_H(h: HPolynomial, n: int, p: int, iters: int, N: int):
    """Orbit of the constant 1 under f -> H(f * E^n)/E^n, listed per step.

    Precision shrinks geometrically, so N must cover h's shrink factor
    p^d raised to iters.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    D = h.max_divisor(p)
    if N < D ** iters:
        raise PrecisionTooLow(f"need N >= {D ** iters} for {iters} steps, got {N}")
    out = []
    cur = qs_one(N)
    for _ in range(iters):
        cur = apply_hpoly_twisted(h, cur, n, p)
        out.append(cur)
    return out
