"""Hecke operators on q-expansions, their weight-twisted versions, and
iteration of projector polynomials in U and T_ell.

Operators here act purely on truncated q-expansions. Each application of U
or T_ell divides the usable precision, so drivers should budget input
precision backward from the length they need out. Every weight-0 twist
f -> op(f * E_{p-1}^n) / E_{p-1}^n goes through one helper, and all products
are the series core's qs_mul. An operator polynomial is written as its terms.
"""

from __future__ import annotations

from collections import namedtuple

from ._rational import QQ, ZZ, is_prime
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


def hecke_T_ell(f: QSeries, k: int, ell: int, *, p: int | None = None) -> QSeries:
    """T_ell at weight k: a_n -> a_{ell*n} + ell^(k-1) * a_{n/ell}.

    The divisor term only contributes when ell | n. Output precision is
    floor(prec/ell). Pass p to guard against accidentally using ell = p,
    which is the job of U, not T_ell.
    """
    if not is_prime(ell):
        raise InvalidWeight(f"T_ell needs a prime index, got {ell}")
    if p is not None and ell == p:
        raise EllEqualsP(f"T_{ell} coincides with the working prime; use U")
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
    scale = QQ(ZZ(p) ** (n * (p - 1) - 1))

    def t_p(g):
        top = apply_U(g, p)
        return qs_add(top, qs_scalar_mul(scale, qs_truncate(apply_V(g, p), top.prec)))

    return _twisted(t_p, qs_one(N), n, p)


class HPolynomial(namedtuple("HPolynomial", "terms")):
    """Polynomial in U and finitely many T_ell, no constant term.

    terms pairs each monomial key (u_exp, ((ell, exp), ...)) with its
    rational coefficient; 11U(U+5) is (((1, ()), 55), ((2, ()), 11)). Every
    monomial must contain U at least once.
    """

    __slots__ = ()

    def __new__(cls, terms):  # terms: tuple of ((u_exp, ((ell, e), ...)), QQ)
        if not terms:
            raise ValueError("polynomial must have at least one term")
        for (u_exp, tells), coeff in terms:
            if u_exp < 1:
                raise ValueError("every monomial must contain U")
            if coeff == 0:
                raise ValueError("zero coefficients should be dropped")
            for ell, e in tells:
                if not is_prime(ell) or e < 1:
                    raise ValueError(f"bad T index/exponent ({ell}, {e})")
        return super().__new__(cls, terms)

    @classmethod
    def _make(cls, iterable):  # the inherited one, which _replace calls, skips __new__
        return cls(*iterable)

    def check_p_integral(self, p: int):
        for _, coeff in self.terms:
            if coeff.denominator % p == 0:
                raise ValueError(f"coefficient {coeff} is not {p}-integral")

    def max_divisor(self, p: int) -> int:
        """Worst precision shrink factor of a single application."""
        worst = 1
        for (u_exp, tells), _ in self.terms:
            d = p ** u_exp
            for ell, e in tells:
                d *= ell ** e
            worst = max(worst, d)
        return worst

    def __str__(self):
        parts = []
        for (u_exp, tells), coeff in self.terms:
            factors = [] if coeff == 1 else [str(coeff)]
            factors += ["U"] * u_exp
            for ell, e in tells:
                factors += [f"T{ell}"] * e
            parts.append("*".join(factors))
        return " + ".join(parts)


U_POLY = HPolynomial((((1, ()), QQ(1)),))


def projector_poly(p: int) -> HPolynomial:
    """The stock projector for small primes: U alone, except Serre's 11U(U+5) at p=13."""
    if p == 13:
        return HPolynomial((((1, ()), QQ(55)), ((2, ()), QQ(11))))
    if p in (5, 7):
        return U_POLY
    raise InvalidWeight(f"no stock projector for p={p}; supply one explicitly")


def apply_hpoly(h: HPolynomial, f: QSeries, k: int, p: int) -> QSeries:
    """Apply a U/T_ell polynomial to a weight-k expansion.

    The result is truncated to the precision of the deepest monomial.
    """
    h.check_p_integral(p)
    out_prec = f.prec // h.max_divisor(p)
    if out_prec < 1:
        raise PrecisionTooLow(f"prec {f.prec} exhausted by {h}")
    acc = None
    for (u_exp, tells), coeff in h.terms:
        g = f
        for ell, e in tells:
            for _ in range(e):
                g = hecke_T_ell(g, k, ell, p=p)
        for _ in range(u_exp):
            g = apply_U(g, p)
        g = qs_scalar_mul(coeff, qs_truncate(g, out_prec))
        acc = g if acc is None else qs_add(acc, g)
    return acc


def apply_hpoly_twisted(h: HPolynomial, f: QSeries, n: int, p: int) -> QSeries:
    """One step of the twisted projector: H(f * E^n) / E^n, with H applied
    at weight n(p-1). Its T_ell factors commute with U (ell != p)."""
    return _twisted(lambda g: apply_hpoly(h, g, n * (p - 1), p), f, n, p)


def iterate_H(h: HPolynomial, n: int, p: int, iters: int, N: int):
    """Orbit of the constant 1 under f -> H(f * E^n)/E^n, listed per step.

    Precision shrinks geometrically, so N must cover h's worst shrink
    factor raised to iters.
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
