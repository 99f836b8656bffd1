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

from itertools import count, islice
from typing import NamedTuple

from ._rational import INF, QQ, int_val, rational_to_str, val
from .classical import (
    delta_series,
    dim_weight,
    eisenstein_series,
    hauptmodul_series,
    miller_exponents,
)
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
    structural_zero: bool = False


class KatzExpansion(NamedTuple):
    p: int
    terms: tuple
    max_index: int
    effective_pprec: float = INF

    def term(self, i: int) -> KatzTerm:
        return self.terms[i]


def miller_windows(p: int, N: int, modulus: int | None = None):
    """The Miller window forms of the greedy split at the prime p, to N
    coefficients and known mod `modulus` (None: exact): the i-th value is
    the list of window i's forms in order of index j, built when it is drawn.

    The form of index j in window i is Delta^j E_4^a E_6^eps of weight
    i(p - 1), integral with leading coefficient 1 at q^j. The windows tile
    j = 0, 1, 2, ..., so Delta^j is one product from Delta^(j-1), and each
    E_4 power is kept once built."""
    delta, e4, e6 = (qs_reduce_mod(f, modulus) for f in
                     (delta_series(N), eisenstein_series(4, N), eisenstein_series(6, N)))
    delta_j, e4_pows = qs_one(N), [qs_one(N), e4]
    for i in count():
        forms = []
        for j in range(*window_bounds(i, p)):
            a, eps = miller_exponents(i * (p - 1), j)
            if j:
                delta_j = qs_mul(delta_j, delta) if j > 1 else delta
            while len(e4_pows) <= a:
                e4_pows.append(qs_mul(e4_pows[-1], e4))
            form = qs_mul(delta_j, e4_pows[a]) if a else delta_j
            forms.append(qs_mul(form, e6) if eps else form)
        yield forms


def _peel(r: QSeries, E: QSeries, p: int, windows):
    """The greedy split loop over the given windows. At each level i, b_i is
    read off window i of the running remainder r_i and subtracted, and the
    rest is multiplied up by E to give r_{i+1}; the remainder keeps the
    modulus of r, so a capped split reduces as it goes. Returns one term per
    window and the remainder r_I - b_I left after the last window I.

    The Miller forms of `windows` are integral with leading coefficient 1 at
    q^j, so one integer elimination on the numerators of r gives both the
    coordinates c / den and the numerators of r - b_i. The forms may run to
    more coefficients than r; the split reads the first r.prec of them."""
    N = r.prec
    terms = []
    for i, forms in enumerate(windows):
        if i:
            r = qs_mul(r, E)
        rest = list(r.nums)
        coords = []
        for j, form in enumerate(forms, window_bounds(i, p)[0]):
            c = rest[j]
            coords.append(QQ(c, r.den))
            if c:
                fn = form.nums
                for m in range(j, N):
                    if fn[m]:
                        rest[m] -= c * fn[m]
        b = qs_from_nums([x - y for x, y in zip(r.nums, rest)], r.den)
        terms.append(KatzTerm(i, b, tuple(coords), qs_val(b, p), not forms))
        r = qs_from_nums(rest, r.den, r.modulus)
    return tuple(terms), r


def _check_rest(rest: QSeries, n: int, p: int):
    if any(rest.nums):
        raise NotAModularForm(f"input is not in the weight-{n * (p - 1)} span mod q^{rest.prec}")


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
    terms, rest = _peel(qs_mul(f, qs_pow(E, -n)), E, p, islice(miller_windows(p, N), n + 1))
    _check_rest(rest, n, p)
    return KatzExpansion(p, terms, n, INF)


def eisenstein_sweep(p: int, qprecs, M: int):
    """The splits of E_{n(p-1)} to qprecs[n - 1] coefficients for
    n = 1, 2, ..., len(qprecs), one per step of the generator: each gives
    the valuations v_p(b_0), ..., v_p(b_n), all exact, and whether the split
    was redone by katz_split_classical.

    Every split runs mod p^M, and the generator holds what they share while
    it lives: E_{p-1} mod p^M and its inverse at the largest precision,
    E_{p-1}^-n as E_{p-1}^-(n-1) E_{p-1}^-1, one product per n, and the
    Miller windows 0..n, one more drawn per n. For (p - 1) | k, E_k is
    p-integral with constant term 1: by von Staudt-Clausen p divides the
    denominator of B_k, so never its numerator (otherwise qs_reduce_mod
    raises NotAUnit). The Miller forms are integral with leading
    coefficient 1. So the capped split is the exact split reduced mod p^M,
    and a valuation below M read from it is the exact one. A split with an
    index outside a structural zero that reads M or more is redone exactly.
    """
    N, m = max(qprecs), p**M
    E = qs_reduce_mod(eisenstein_series(p - 1, N), m)
    E_inv = qs_inv(E)
    more = miller_windows(p, N, m)
    windows = [next(more)]
    E_neg = E_inv
    for n, qprec in enumerate(qprecs, 1):
        windows.append(next(more))
        if n > 1:
            E_neg = qs_mul(E_neg, E_inv)
        f = eisenstein_series(n * (p - 1), qprec)
        terms, rest = _peel(qs_mul(qs_reduce_mod(f, m), E_neg), E, p, windows)
        _check_rest(rest, n, p)
        if all(t.val < M or t.structural_zero for t in terms):
            yield [t.val for t in terms], False
        else:
            yield [t.val for t in katz_split_classical(f, n, p).terms], True


def katz_split_function(f: QSeries, p: int, I: int) -> KatzExpansion:
    """Greedy decomposition of a weight-0 function through index I.

    b_i is read off from the coefficient window [d_{(i-1)(p-1)}, d_{i(p-1)})
    of the running remainder, which is then multiplied back up by E_{p-1};
    katz_split_classical runs the same loop. The reconstruction sum
    b_i / E_{p-1}^i matches f on q^0..q^(d_{I(p-1)}-1).

    A series known mod p^M is split mod p^M, and M is recorded as
    effective_pprec so downstream certificates know which thresholds are
    decidable; an exact series has effective_pprec INF.
    """
    d_need = dim_weight(I * (p - 1))[0]
    N = f.prec
    if N < d_need:
        raise PrecisionTooLow(f"max index {I} needs {d_need} coefficients, got {N}")
    terms, _ = _peel(f, eisenstein_series(p - 1, N), p, islice(miller_windows(p, N), I + 1))
    return KatzExpansion(p, terms, I, INF if f.modulus is None else int_val(f.modulus, p))


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


def rate_verdicts(rows, rho, c, effective_pprec):
    """(verdicts, first failing index or None) of rows (index, val, structural_zero)
    against rho*index - c, for 0 <= rho <= 1 and c >= 0 (ValueError otherwise):
    the one loop that certifies and revalidates. A structural zero passes; a
    threshold at or past the working precision is inconclusive, below it exact."""
    if not 0 <= rho <= 1:
        raise ValueError(f"rate rho = {rational_to_str(rho)} outside [0, 1]")
    if c < 0:
        raise ValueError(f"offset c = {rational_to_str(c)} is negative")
    verdicts = []
    for i, v, structural_zero in rows:
        threshold = rho * i - c
        if structural_zero:
            verdicts.append("pass")
        elif threshold >= effective_pprec:
            verdicts.append("inconclusive")
        else:
            verdicts.append("pass" if v >= threshold else "fail")
    fails = (i for (i, _, _), verdict in zip(rows, verdicts) if verdict == "fail")
    return tuple(verdicts), next(fails, None)


def certify_rate(ke: KatzExpansion, rho, c) -> RateCertificate:
    """Check v_p(b_i) >= rho*i - c for every computed index; rate_verdicts
    refuses a rate outside 0 <= rho <= 1, c >= 0."""
    rho = QQ(rho)
    c = QQ(c)
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
