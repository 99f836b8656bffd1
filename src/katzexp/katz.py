"""Decomposition of p-adic modular functions along powers of E_{p-1}.

A weight-0 function f decomposes as f = sum_i b_i / E_{p-1}^i where b_i lives
in a fixed complement B_i of the E_{p-1}-multiples inside the weight-i(p-1)
space. One greedy loop computes every split: b_i is read off the window
[d_{(i-1)(p-1)}, d_{i(p-1)}) of the running remainder by triangular
elimination against the Miller forms, on its integer numerators, and what is
left is multiplied up by E_{p-1} (Lauder, "Computations with classical and
p-adic modular forms", 2011). The coefficient valuations v_p(b_i) quantify overconvergence; a
RateCertificate records the exact per-index comparison v_p(b_i) >= rho*i - c.

One rule sets the precision: every split and t-expansion runs at its
input's modulus, against E_{p-1}, the Miller forms or the powers of t reduced
to it. For a series known mod p^M the remainder's numerators are residues,
so each window coordinate agrees mod p^M with the one exact forms would give:
a valuation below M is the same, and a window whose coordinates are all 0
mod p^M has them all exactly 0 (by induction along the window) under either.
"""

from __future__ import annotations

from itertools import accumulate, count, islice, repeat
from typing import NamedTuple

from ._rational import INF, QQ, int_val, rational_to_str, val
from .classical import (
    delta_series,
    dim_weight,
    eisenstein_series,
    hauptmodul_series,
    miller_exponents,
)
from .errors import NotAModularForm, PrecisionTooLow, UnsupportedPrime
from .series import (
    QSeries,
    qs_from_nums,
    qs_inv,
    qs_mul,
    qs_one,
    qs_pow,
    qs_reduce_mod,
    qs_val,
)


def window_bounds(i: int, p: int):
    """Leading-exponent window [lo, hi) of the complement B_i: Miller indices
    d_{(i-1)(p-1)} .. d_{i(p-1)} - 1 (just the constants for i = 0)."""
    hi = dim_weight(i * (p - 1))[0]
    lo = dim_weight((i - 1) * (p - 1))[0] if i >= 1 else 0
    return lo, hi


def qprec_for_split(p, max_index):
    """q-adic precision 8 past the last window, at weight (max_index + 1)(p - 1)."""
    return dim_weight((max_index + 1) * (p - 1))[0] + 8


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
    effective_pprec: object  # M for a split known mod p^M, INF when exact


def miller_windows(p: int, N: int, modulus: int | None):
    """The Miller window forms of the greedy split at the prime p, to N
    coefficients and known mod `modulus` (None: exact): the i-th value is
    the list of window i's forms in order of index j, built when it is drawn.

    The form of index j in window i is Delta^j E_4^a E_6^eps of weight
    i(p - 1), integral with leading coefficient 1 at q^j. The windows tile
    j = 0, 1, 2, ..., so Delta^j is one product from Delta^(j-1), and each
    E_4 power is kept once built."""
    delta = delta_series(N, modulus)
    e4, e6 = eisenstein_series(4, N, modulus), eisenstein_series(6, N, modulus)
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


def _eliminate(rest: list, forms, lo: int) -> list:
    """Triangular elimination of the int list `rest`, in place, against
    integral forms with leading coefficient 1 at q^lo, q^(lo+1), ...: the
    int coordinate of each form, read at its leading exponent before the form
    is subtracted. The forms may run to more coefficients than `rest`."""
    coords = []
    for j, form in enumerate(forms, lo):
        c = rest[j]
        coords.append(c)
        if c:
            fn = form.nums
            for m in range(j, len(rest)):
                if fn[m]:
                    rest[m] -= c * fn[m]
    return coords


def _peel(r: QSeries, E: QSeries, p: int, windows):
    """The greedy split loop over the given windows, the one place a split is
    built. At each level i, b_i is read off window i of the running remainder
    r_i by _eliminate on its numerators, which gives both the coordinates
    c / den and the numerators of r - b_i; the rest is multiplied up by E to
    give r_{i+1}. b_i, its coordinates and the remainder keep the modulus of
    r, so a capped split reduces as it goes and is known mod that modulus.
    Returns the split, one term per window, and the remainder r_I - b_I
    after the last window I."""
    terms = []
    for i, forms in enumerate(windows):
        if i:
            r = qs_mul(r, E)
        rest = list(r.nums)
        coords = _eliminate(rest, forms, window_bounds(i, p)[0])
        b = qs_from_nums([x - y for x, y in zip(r.nums, rest)], r.den, r.modulus)
        coords = qs_from_nums(coords, r.den, r.modulus).coeffs
        terms.append(KatzTerm(i, b, coords, qs_val(b, p), not forms))
        r = qs_from_nums(rest, r.den, r.modulus)
    pprec = INF if r.modulus is None else int_val(r.modulus, p)
    return KatzExpansion(p, tuple(terms), len(terms) - 1, pprec), r


def _check_rest(rest: QSeries, n: int, p: int):
    if any(rest.nums):
        raise NotAModularForm(f"input is not in the weight-{n * (p - 1)} span mod q^{rest.prec}")


def _split(f: QSeries, p: int, I: int, n: int = 0):
    """The one split setup: _peel of f / E_{p-1}^n through window I, with
    E_{p-1} and the windows to the precision of f and reduced to its modulus."""
    d_need, N = dim_weight(I * (p - 1))[0], f.prec
    if N < d_need:
        raise PrecisionTooLow(f"max index {I} needs {d_need} coefficients, got {N}")
    if f.modulus is not None and p ** int_val(f.modulus, p) != f.modulus:
        raise UnsupportedPrime(f"a series known mod {f.modulus} cannot be split at p = {p}")
    E = eisenstein_series(p - 1, N, f.modulus)
    if n:
        f = qs_mul(f, qs_pow(E, -n))
    return _peel(f, E, p, islice(miller_windows(p, N, f.modulus), I + 1))


def katz_split_classical(f: QSeries, n: int, p: int) -> KatzExpansion:
    """Finite decomposition of a genuine weight-n(p-1) form.

    The terms are those of the greedy split of f / E_{p-1}^n through index
    n. Its final remainder is f - sum_i b_i E_{p-1}^(n-i) mod q^N, which
    vanishes exactly when f lies in the weight-n(p-1) span; otherwise
    NotAModularForm is raised. A series known mod p^M is split mod p^M, as
    in katz_split_function.
    """
    ke, rest = _split(f, p, n, n)
    _check_rest(rest, n, p)
    return ke


def eisenstein_sweep(p: int, M: int):
    """The splits of E_{n(p-1)} to qprec_for_split(p, n) coefficients for
    n = 1, 2, ..., p, one per step of the generator: each gives the
    valuations v_p(b_0), ..., v_p(b_n), all exact, and whether the split was
    redone by katz_split_classical.

    Each split is that of katz_split_classical on E_{n(p-1)} mod p^M: for
    (p - 1) | k, E_k is p-integral with constant term 1 (by von
    Staudt-Clausen p never divides the numerator of B_k), so a valuation
    below M is exact, and a split with an index outside a structural zero
    that reads M or more is redone exactly. The generator shares E_{p-1} mod
    p^M and its inverse, E_{p-1}^-n as one product per n, and the windows.
    """
    N, m = qprec_for_split(p, p), p**M
    E = eisenstein_series(p - 1, N, m)
    E_inv = qs_inv(E)
    more = miller_windows(p, N, m)
    windows = [next(more)]
    E_neg = E_inv
    for n in range(1, p + 1):
        windows.append(next(more))
        if n > 1:
            E_neg = qs_mul(E_neg, E_inv)
        f = eisenstein_series(n * (p - 1), qprec_for_split(p, n), m)
        ke, rest = _peel(qs_mul(f, E_neg), E, p, windows)
        _check_rest(rest, n, p)
        redo = not all(t.val < ke.effective_pprec or t.structural_zero for t in ke.terms)
        if redo:
            ke = katz_split_classical(eisenstein_series(n * (p - 1), f.prec), n, p)
        yield [t.val for t in ke.terms], redo


def katz_split_function(f: QSeries, p: int, I: int) -> KatzExpansion:
    """Greedy decomposition of a weight-0 function through index I.

    b_i is read off from the coefficient window [d_{(i-1)(p-1)}, d_{i(p-1)})
    of the running remainder, which is then multiplied back up by E_{p-1};
    katz_split_classical runs the same loop. The reconstruction sum
    b_i / E_{p-1}^i matches f on q^0..q^(d_{I(p-1)}-1).

    The split runs at the modulus of f, by the module's one rule: a series
    known mod p^M is split against E_{p-1} and the Miller forms mod p^M, and
    M is recorded as effective_pprec so downstream certificates know which
    thresholds are decidable; an exact series has effective_pprec INF.
    """
    return _split(f, p, I)[0]


class RateCertificate(NamedTuple):
    p: int
    rho: object  # rational in [0, 1]
    c: object  # rational >= 0
    verdicts: tuple  # "pass" | "fail" | "inconclusive", indexed 0..max_index
    max_index: int
    first_failure: int | None


def require_rate(rho, c):
    """ValueError unless 0 <= rho <= 1 and c >= 0, the rates a certificate states."""
    if not 0 <= rho <= 1:
        raise ValueError(f"rate rho = {rational_to_str(rho)} outside [0, 1]")
    if c < 0:
        raise ValueError(f"offset c = {rational_to_str(c)} is negative")


def rate_verdicts(rows, rho, c, effective_pprec):
    """(verdicts, first failing index or None) of rows (index, val, structural_zero)
    against rho*index - c, for 0 <= rho <= 1 and c >= 0 (ValueError otherwise):
    the one loop that certifies and revalidates. A structural zero passes; a
    threshold at or past the working precision is inconclusive, below it exact."""
    require_rate(rho, c)
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
    genus-zero uniformizer t, by _eliminate against 1, t, t^2, ... (t^i is
    integral and leads with q^i); a series known mod m has them mod m, from
    the powers of t reduced mod m. So on a series known mod p^M, a
    coefficient that is 0 mod p^M reads 0, whose valuation is INF: that INF
    means "at least M", as a capped report's does."""
    N = f.prec
    if N < terms:
        raise PrecisionTooLow(f"need {terms} coefficients, got {N}")
    t = qs_reduce_mod(hauptmodul_series(p, N), f.modulus)
    powers = islice(accumulate(repeat(t), qs_mul, initial=qs_one(N)), terms)
    return qs_from_nums(_eliminate(list(f.nums), powers, 0), f.den, f.modulus).coeffs


def hauptmodul_valuations(f: QSeries, p: int, terms: int):
    """v_p of each coefficient of expand_in_hauptmodul. On a series known
    mod p^M a coefficient that is 0 mod p^M reads INF, which means only "at
    least M", the rule for a capped report's valuations."""
    return [val(a, p) for a in expand_in_hauptmodul(f, p, terms)]
