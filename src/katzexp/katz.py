"""Decomposition of p-adic modular functions along powers of E_{p-1}.

A weight-0 function f decomposes as f = sum_i b_i / E_{p-1}^i where b_i lives
in a fixed complement B_i of the E_{p-1}-multiples inside the weight-i(p-1)
space. The coefficient valuations v_p(b_i) quantify overconvergence; a
RateCertificate records the exact per-index comparison v_p(b_i) >= rho*i - c.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rational import INF, QQ, rational_to_str, val
from .classical import dim_weight, eisenstein_series, hauptmodul_series, miller_form
from .errors import NotAModularForm, PrecisionTooLow
from .series import (
    QSeries,
    qs_inv,
    qs_mul,
    qs_one,
    qs_reduce_mod,
    qs_scalar_mul,
    qs_sub,
    qs_truncate,
    qs_val,
)

_ZERO = QQ(0)


def window_bounds(i: int, p: int):
    """Leading-exponent window [lo, hi) of the complement B_i: Miller indices
    d_{(i-1)(p-1)} .. d_{i(p-1)} - 1 (just the constants for i = 0)."""
    hi = dim_weight(i * (p - 1))[0]
    lo = dim_weight((i - 1) * (p - 1))[0] if i >= 1 else 0
    return lo, hi


@dataclass(frozen=True)
class KatzTerm:
    index: int
    b: QSeries
    miller_coords: tuple
    val: object  # integer or +inf
    window: tuple
    structural_zero: bool = False


@dataclass(frozen=True)
class KatzExpansion:
    p: int
    n_weight: int
    terms: tuple
    max_index: int
    effective_pprec: float = INF

    def term(self, i: int) -> KatzTerm:
        return self.terms[i]

    def valuations(self):
        return [t.val for t in self.terms]


def _window_forms(i, p, N):
    lo, hi = window_bounds(i, p)
    k = i * (p - 1)
    return [miller_form(k, j, N) for j in range(lo, hi)]


def _combine(forms, coords, N):
    acc = [_ZERO] * N
    for c, f in zip(coords, forms):
        if c != 0:
            fc = f.coeffs
            for m in range(N):
                if fc[m] != 0:
                    acc[m] += c * fc[m]
    return QSeries(tuple(acc))


def _match_window(cur: QSeries, forms, lo: int):
    """Coordinates matching cur on the window exponents; forms are Miller
    forms with unit leading coefficients q^lo, q^(lo+1), ..."""
    coords = []
    rem = list(cur.coeffs)
    N = len(rem)
    for idx, f in enumerate(forms):
        c = rem[lo + idx]
        coords.append(c)
        if c != 0:
            fc = f.coeffs
            for m in range(lo + idx, N):
                if fc[m] != 0:
                    rem[m] -= c * fc[m]
    return tuple(coords)


def _gauss_solve(mat, rhs):
    n = len(rhs)
    m = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise NotAModularForm("singular window system; not a complement basis")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / QQ(m[col][col])
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return tuple(m[r][n] for r in range(n))


def _make_term(i, p, b: QSeries, coords, lo, hi):
    return KatzTerm(i, b, tuple(coords), qs_val(b, p), (lo, hi), hi == lo)


def katz_split_classical(f: QSeries, n: int, p: int, *, window_basis=None) -> KatzExpansion:
    """Finite decomposition of a genuine weight-n(p-1) form.

    Works down from the top weight: at each level the E_{p-1}-multiple is
    peeled off by triangular elimination against the next Miller basis down,
    and the remainder is the B_i component. Raises NotAModularForm when the
    input does not actually lie in the weight-n(p-1) space.

    window_basis, if given, is a callable (i, p, N) -> list of forms spanning
    an alternative complement at level i, or None to keep the default forms
    there; overridden levels use a dense solve.
    """
    k_top = n * (p - 1)
    d_top = dim_weight(k_top)[0]
    N = f.prec
    if N < d_top:
        raise PrecisionTooLow(f"need at least {d_top} coefficients, got {N}")
    E = eisenstein_series(p - 1, N)
    # window starts grow with the level, so the top level's start serves all
    invE = qs_inv(qs_truncate(E, window_bounds(n, p)[0]))
    terms = {}
    cur = f
    for i in range(n, 0, -1):
        lo, hi = window_bounds(i, p)
        k_prev = (i - 1) * (p - 1)
        prev_basis = [miller_form(k_prev, j, N) for j in range(lo)]
        override = window_basis(i, p, N) if window_basis is not None else None
        if override is None:
            # fast path: B_i elements have q-order >= lo, so E * f_prev = cur
            # mod q^lo fixes f_prev, and b is what remains
            lower = _match_window(qs_mul(qs_truncate(cur, lo), invE), prev_basis, 0)
            f_prev = _combine(prev_basis, lower, N)
            b = qs_sub(cur, qs_mul(E, f_prev))
            forms = _window_forms(i, p, N)
            coords = _match_window(b, forms, lo)
            residual = qs_sub(b, _combine(forms, coords, N))
        else:
            # joint solve: alternative complements need not sit above q^lo
            forms = override
            if len(forms) != hi - lo:
                raise NotAModularForm("alternative complement has wrong rank")
            cols = [qs_mul(E, g) for g in prev_basis] + list(forms)
            mat = [[col.coeffs[m] for col in cols] for m in range(hi)]
            sol = _gauss_solve(mat, [cur.coeffs[m] for m in range(hi)])
            lower, coords = sol[:lo], sol[lo:]
            f_prev = _combine(prev_basis, lower, N)
            b = _combine(forms, coords, N)
            residual = qs_sub(qs_sub(cur, qs_mul(E, f_prev)), b)
        if any(x != 0 for x in residual.coeffs):
            raise NotAModularForm(
                f"residue outside the weight-{i * (p - 1)} basis span at level {i}"
            )
        terms[i] = _make_term(i, p, b, coords, lo, hi)
        cur = f_prev
    if any(x != 0 for x in cur.coeffs[1:]):
        raise NotAModularForm("weight-0 remainder is not constant")
    c0 = cur.coeffs[0]
    b0 = QSeries((c0,) + (_ZERO,) * (N - 1))
    terms[0] = _make_term(0, p, b0, (c0,), 0, 1)
    ordered = tuple(terms[i] for i in range(n + 1))
    return KatzExpansion(p, n, ordered, n, INF)


def katz_split_function(f: QSeries, p: int, I: int, *, pprec=INF) -> KatzExpansion:
    """Greedy decomposition of a weight-0 function through index I.

    b_i is read off from the coefficient window [d_{(i-1)(p-1)}, d_{i(p-1)})
    of the running remainder, which is then multiplied back up by E_{p-1}.
    The reconstruction sum b_i / E_{p-1}^i matches f on q^0..q^(d_{I(p-1)}-1).

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
    r = f
    terms = []
    for i in range(I + 1):
        lo, hi = window_bounds(i, p)
        forms = _window_forms(i, p, N)
        coords = _match_window(r, forms, lo)
        b = _combine(forms, coords, N)
        terms.append(_make_term(i, p, b, coords, lo, hi))
        if i < I:
            r = qs_mul(qs_sub(r, b), E)
            if modulus is not None:
                r = qs_reduce_mod(r, modulus)
    return KatzExpansion(p, 0, tuple(terms), I, pprec)


def reconstruct(ke: KatzExpansion, N: int | None = None) -> QSeries:
    """Sum b_i / E_{p-1}^i back into a single q-expansion."""
    if N is None:
        N = min(t.b.prec for t in ke.terms)
    invE = qs_inv(eisenstein_series(ke.p - 1, N))
    acc = ke.terms[ke.max_index].b
    for i in range(ke.max_index - 1, -1, -1):
        acc = qs_mul(acc, invE) + ke.terms[i].b
    return acc


@dataclass(frozen=True)
class RateCertificate:
    p: int
    rho: object  # rational in [0, 1]
    c: object  # rational >= 0
    verdicts: tuple  # "pass" | "fail" | "inconclusive", indexed 0..max_index
    max_index: int
    first_failure: int | None

    @property
    def all_pass(self):
        return all(v == "pass" for v in self.verdicts)

    @property
    def failed(self):
        return self.first_failure is not None

    @property
    def inconclusive_count(self):
        return sum(1 for v in self.verdicts if v == "inconclusive")

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


def certify_rate(ke: KatzExpansion, rho, c) -> RateCertificate:
    """Check v_p(b_i) >= rho*i - c for every computed index; the rate needs
    0 <= rho <= 1 and c >= 0 (ValueError otherwise)."""
    rho = QQ(rho)
    c = QQ(c)
    if not 0 <= rho <= 1:
        raise ValueError(f"rate rho = {rational_to_str(rho)} outside [0, 1]")
    if c < 0:
        raise ValueError(f"offset c = {rational_to_str(c)} is negative")
    verdicts = []
    first_failure = None
    for t in ke.terms:
        verdict = rate_verdict(t.val, rho * t.index - c, ke.effective_pprec, t.structural_zero)
        verdicts.append(verdict)
        if verdict == "fail" and first_failure is None:
            first_failure = t.index
    return RateCertificate(ke.p, rho, c, tuple(verdicts), ke.max_index, first_failure)


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
        a = r.coeffs[i]
        out.append(a)
        if i + 1 < terms:
            if a != 0:
                r = qs_sub(r, qs_scalar_mul(a, tpow))
            tpow = qs_mul(tpow, t)
    return tuple(out)


def hauptmodul_valuations(f: QSeries, p: int, terms: int):
    coeffs = expand_in_hauptmodul(f, p, terms)
    return [val(a, p) for a in coeffs]
