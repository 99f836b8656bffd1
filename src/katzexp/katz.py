"""Decomposition of p-adic modular functions along powers of E_{p-1}.

A weight-0 function f decomposes as f = sum_i b_i / E_{p-1}^i where b_i lives
in a fixed complement B_i of the E_{p-1}-multiples inside the weight-i(p-1)
space. One greedy loop computes every split: b_i is read off the window
[d_{(i-1)(p-1)}, d_{i(p-1)}) of the running remainder by triangular
elimination against the Miller forms, on its integer numerators, and what is
left is multiplied up by E_{p-1} (Lauder, "Computations with classical and
p-adic modular forms", 2011). The coefficient valuations v_p(b_i) quantify overconvergence; a
RateCertificate records the exact per-index comparison v_p(b_i) >= rho*i - c.
"""

from __future__ import annotations

from typing import NamedTuple

from ._rational import INF, QQ, rational_to_str, val
from .classical import dim_weight, eisenstein_series, hauptmodul_series, miller_form
from .errors import NotAModularForm, PrecisionTooLow
from .series import (
    QSeries,
    qs_from_nums,
    qs_inv,
    qs_mul,
    qs_one,
    qs_pow,
    qs_reduce_mod,
    qs_scalar_mul,
    qs_sub,
    qs_val,
)


def window_bounds(i: int, p: int):
    """Leading-exponent window [lo, hi) of the complement B_i: Miller indices
    d_{(i-1)(p-1)} .. d_{i(p-1)} - 1 (just the constants for i = 0)."""
    hi = dim_weight(i * (p - 1))[0]
    lo = dim_weight((i - 1) * (p - 1))[0] if i >= 1 else 0
    return lo, hi


class KatzTerm(NamedTuple):
    index: int
    b: QSeries
    miller_coords: tuple
    val: object  # integer or +inf
    window: tuple
    structural_zero: bool = False


class KatzExpansion(NamedTuple):
    p: int
    n_weight: int
    terms: tuple
    max_index: int
    effective_pprec: float = INF

    def term(self, i: int) -> KatzTerm:
        return self.terms[i]


def _window_forms(i, p, N):
    lo, hi = window_bounds(i, p)
    k = i * (p - 1)
    return [miller_form(k, j, N) for j in range(lo, hi)]


def _peel(r: QSeries, E: QSeries, p: int, I: int, modulus):
    """The greedy split loop. At each level i = 0..I, b_i is read off the
    window [lo_i, hi_i) of the running remainder r_i and subtracted, and the
    rest is multiplied up by E (reduced mod modulus, if given) to give
    r_{i+1}. Returns the terms 0..I and the final remainder r_I - b_I.

    The Miller forms are integral with leading coefficient 1 at q^lo, q^(lo+1),
    ..., so one integer elimination on the numerators of r gives both the
    coordinates c / den and the numerators of r - b_i."""
    N = r.prec
    terms = []
    for i in range(I + 1):
        if i:
            r = qs_mul(r, E)
            if modulus is not None:
                r = qs_reduce_mod(r, modulus)
        lo, hi = window_bounds(i, p)
        rest = list(r.nums)
        coords = []
        for j, form in zip(range(lo, hi), _window_forms(i, p, N)):
            c = rest[j]
            coords.append(QQ(c, r.den))
            if c:
                fn = form.nums
                for m in range(j, N):
                    if fn[m]:
                        rest[m] -= c * fn[m]
        b = qs_from_nums([x - y for x, y in zip(r.nums, rest)], r.den)
        terms.append(KatzTerm(i, b, tuple(coords), qs_val(b, p), (lo, hi), hi == lo))
        r = qs_from_nums(rest, r.den)
    return tuple(terms), r


def katz_split_classical(f: QSeries, n: int, p: int) -> KatzExpansion:
    """Finite decomposition of a genuine weight-n(p-1) form.

    The terms are those of the greedy split of f / E_{p-1}^n through index
    n. Its final remainder is f - sum_i b_i E_{p-1}^(n-i) mod q^N, which
    vanishes exactly when f lies in the weight-n(p-1) span; otherwise
    NotAModularForm is raised.
    """
    d_top = dim_weight(n * (p - 1))[0]
    N = f.prec
    if N < d_top:
        raise PrecisionTooLow(f"need at least {d_top} coefficients, got {N}")
    E = eisenstein_series(p - 1, N)
    terms, rest = _peel(qs_mul(f, qs_pow(E, -n)), E, p, n, None)
    if any(rest.nums):
        raise NotAModularForm(f"input is not in the weight-{n * (p - 1)} span mod q^{N}")
    return KatzExpansion(p, n, terms, n, INF)


def katz_split_function(f: QSeries, p: int, I: int, *, pprec=INF) -> KatzExpansion:
    """Greedy decomposition of a weight-0 function through index I.

    b_i is read off from the coefficient window [d_{(i-1)(p-1)}, d_{i(p-1)})
    of the running remainder, which is then multiplied back up by E_{p-1};
    katz_split_classical runs the same loop. The reconstruction sum
    b_i / E_{p-1}^i matches f on q^0..q^(d_{I(p-1)}-1).

    pprec: p-adic working precision of the input coefficients (integers mod
    p^pprec); recorded as effective_pprec so downstream certificates know
    which thresholds are decidable.
    """
    d_need = dim_weight(I * (p - 1))[0]
    N = f.prec
    if N < d_need:
        raise PrecisionTooLow(f"max index {I} needs {d_need} coefficients, got {N}")
    E = eisenstein_series(p - 1, N)
    modulus = None if pprec == INF else p ** int(pprec)
    terms, _ = _peel(f, E, p, I, modulus)
    return KatzExpansion(p, 0, terms, I, pprec)


def reconstruct(ke: KatzExpansion, N: int | None = None) -> QSeries:
    """Sum b_i / E_{p-1}^i back into a single q-expansion."""
    if N is None:
        N = min(t.b.prec for t in ke.terms)
    invE = qs_inv(eisenstein_series(ke.p - 1, N))
    acc = ke.terms[ke.max_index].b
    for i in range(ke.max_index - 1, -1, -1):
        acc = qs_mul(acc, invE) + ke.terms[i].b
    return acc


class RateCertificate(NamedTuple):
    p: int
    rho: object  # rational in [0, 1]
    c: object  # rational >= 0
    verdicts: tuple  # "pass" | "fail" | "inconclusive", indexed 0..max_index
    max_index: int
    first_failure: int | None

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "rho": rational_to_str(self.rho),
            "c": rational_to_str(self.c),
            "max_index": self.max_index,
            "verdicts": list(self.verdicts),
            "first_failure": self.first_failure,
        }


def rate_verdict(val_i, threshold, effective_pprec, structural_zero=False):
    """One index of the certificate comparison, exact rational arithmetic.

    A structural zero (empty window) passes outright. Otherwise a threshold at
    or beyond the p-adic working precision is undecidable; below it, val_i is
    exact knowledge and the comparison is definitive.
    """
    if structural_zero:
        return "pass"
    if threshold >= effective_pprec:
        return "inconclusive"
    return "pass" if val_i >= threshold else "fail"


def rate_verdicts(rows, rho, c, effective_pprec):
    """(verdicts, first failing index or None) of rows (index, val, structural_zero)
    against rho*index - c: the one loop that certifies and revalidates."""
    verdicts = tuple(rate_verdict(v, rho * i - c, effective_pprec, z) for i, v, z in rows)
    fails = (i for (i, _, _), verdict in zip(rows, verdicts) if verdict == "fail")
    return verdicts, next(fails, None)


def certify_rate(ke: KatzExpansion, rho, c) -> RateCertificate:
    """Check v_p(b_i) >= rho*i - c for every computed index; the rate needs
    0 <= rho <= 1 and c >= 0 (ValueError otherwise)."""
    rho = QQ(rho)
    c = QQ(c)
    if not 0 <= rho <= 1:
        raise ValueError(f"rate rho = {rational_to_str(rho)} outside [0, 1]")
    if c < 0:
        raise ValueError(f"offset c = {rational_to_str(c)} is negative")
    rows = [(t.index, t.val, t.structural_zero) for t in ke.terms]
    verdicts, first_failure = rate_verdicts(rows, rho, c, ke.effective_pprec)
    return RateCertificate(ke.p, rho, c, verdicts, ke.max_index, first_failure)


def expand_in_hauptmodul(f: QSeries, p: int, terms: int):
    """Coefficients a_0..a_{terms-1} of f as a polynomial prefix in the
    genus-zero uniformizer t (t leads with q, unit coefficient)."""
    if f.prec < terms:
        raise PrecisionTooLow(f"need {terms} coefficients, got {f.prec}")
    N = f.prec
    t = hauptmodul_series(p, N)
    out = []
    r = f
    tpow = qs_one(N)
    for i in range(terms):
        a = QQ(r.nums[i], r.den)
        out.append(a)
        if i + 1 < terms:
            if a != 0:
                r = qs_sub(r, qs_scalar_mul(a, tpow))
            tpow = qs_mul(tpow, t)
    return tuple(out)


def hauptmodul_valuations(f: QSeries, p: int, terms: int):
    coeffs = expand_in_hauptmodul(f, p, terms)
    return [val(a, p) for a in coeffs]
