"""Slow reference oracles for the integer kernels in katzexp.

Each function is the plain textbook algorithm, in exact rationals, that a
fast kernel, a rerouted product or the greedy Katz split replaced; the
differential tests compare the two. `delta_from_e4_e6` and
`hauptmodul_by_factors` are the routes that Delta and t took before they
were built from Euler's series. `estar_by_stabilization` and
`estar_teichmuller_by_loop` are the routes that E*_k and the direct family
member took before one divisor sieve built every Eisenstein series: E*_k
through V, scalar products and a difference, and the family member by its
own sieve reducing mod p^(M+2) at every addition. `reconstruct` sums a
Katz split back into one series, the check that a split is faithful.
`_pack` and `_unpack` turn an exponent tuple into a Newton-chain key and
back, for tests that write or read chain polynomials term by term.
"""

from __future__ import annotations

import math
import struct
from itertools import islice

from katzexp import INF, QQ, dim_weight, eisenstein_series, family, hauptmodul_series, miller_form
from katzexp._rational import int_val, val
from katzexp.errors import InvalidWeight, NotAModularForm, PrecisionTooLow
from katzexp.family import _tau_inv_s, teichmuller
from katzexp.katz import KatzExpansion, KatzTerm, _peel, miller_windows, window_bounds
from katzexp.recurrence import _LANE, BivarPolyModP, SymPolyQ
from katzexp.series import (
    QSeries,
    apply_V,
    qs_from_nums,
    qs_inv,
    qs_mul,
    qs_one,
    qs_pow,
    qs_scalar_mul,
    qs_sub,
    qs_val,
)


def sigma_k(n: int, k: int):
    """Divisor power sum sigma_k(n) = sum of d^k over divisors d of n, the
    sum that eisenstein_series takes by a sieve."""
    if n < 1:
        raise ValueError("sigma_k needs n >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
        d += 1
    return total


def schoolbook_mul(ac, bc):
    """Truncated convolution of two coefficient sequences, in rationals."""
    N = min(len(ac), len(bc))
    out = [QQ(0)] * N
    for i in range(N):
        ai = ac[i]
        if ai == 0:
            continue
        for j in range(N - i):
            bj = bc[j]
            if bj != 0:
                out[i + j] += ai * bj
    return tuple(out)


def schoolbook_inv(ac):
    """1/a for a coefficient sequence with a_0 != 0, in rationals:
    c_0 = 1/a_0 and c_n = -(1/a_0) sum_{k=1..n} a_k c_(n-k)."""
    N = len(ac)
    inv0 = 1 / QQ(ac[0])
    out = [QQ(0)] * N
    out[0] = inv0
    for n in range(1, N):
        s = QQ(0)
        for k in range(1, n + 1):
            if ac[k] != 0:
                s += ac[k] * out[n - k]
        out[n] = -inv0 * s
    return tuple(out)


def strided_u_product(f: QSeries, g: QSeries, p: int, u: int) -> QSeries:
    """U^u(f*g) without materializing the full product.

    Only every p^u-th coefficient of f*g survives, so the convolution is
    evaluated at those strides directly.
    """
    stride = p ** u
    N = min(f.prec, g.prec)
    M = N // stride
    if M < 1:
        raise PrecisionTooLow(f"prec {N} exhausted by U^{u}")
    fc, gc = f.coeffs, g.coeffs
    out = []
    for m in range(M):
        t = stride * m
        acc = QQ(0)
        for j in range(t + 1):
            a = fc[j]
            if a:
                b = gc[t - j]
                if b:
                    acc = acc + a * b
        out.append(acc)
    return QSeries(tuple(out))


def is_prime_trial(n):
    """Whether n is prime, by trial division up to sqrt(n)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def bernoulli_even_recurrence(k):
    """[B_0, B_2, ..., B_k] for even k >= 0 from sum_{j<=m} C(m+1, j) B_j = 0.

    Restricted to even j, with the lone B_1 = -1/2 term folded in:
    B_m = -(1/(m+1)) (1 - (m+1)/2 + sum_{j=2,4,..,m-2} C(m+1, j) B_j).
    """
    table = [QQ(1)]
    for m in range(2, k + 1, 2):
        acc = QQ(2 - (m + 1), 2)
        binom = 1
        for j in range(0, m - 2, 2):
            binom = binom * ((m + 1 - j) * (m - j)) // ((j + 1) * (j + 2))
            acc += binom * table[j // 2 + 1]
        table.append(-acc / (m + 1))
    return table


def tangent_numbers(n):
    """[0, T_1, ..., T_n] with T_m = tan^(2m-1)(0), in Python ints.

    Brent and Harvey, "Fast computation of Bernoulli, tangent and secant
    numbers" (2011): O(n^2) additions and multiplications by small ints.
    """
    T = [0, 1] + [0] * (n - 1)
    for j in range(2, n + 1):
        T[j] = (j - 1) * T[j - 1]
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            T[j] = (j - i) * T[j - 1] + (j - i + 2) * T[j]
    return T


def bernoulli_even_tangent(k):
    """[B_0, B_2, ..., B_k] for even k >= 2 from the tangent numbers:
    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1))."""
    T = tangent_numbers(k // 2)
    table = [QQ(1)]
    for m in range(1, k // 2 + 1):
        b = QQ(2 * m * T[m], 4**m * (4**m - 1))
        table.append(b if m % 2 else -b)
    return table


def newton_chain_fractions(p, n_max):
    """x_0..x_{p+1} and y_0..y_{n_max} (y_0 None) of the Newton-identity
    chain, as dicts from packed exponent vectors (_LANE bits per variable)
    to nonzero rationals.

    x_n = (1/n) sum_{i=1}^{n} (-1)^(i-1) x_{n-i} y_i for n <= p+1, and
    y_n = sum_{i=1}^{p+1} (-1)^(i-1) x_i y_{n-i} for n >= p+2.
    """

    def add_product(acc, scale, a, b):
        for ka, ca in a.items():
            ca = scale * ca
            for kb, cb in b.items():
                k = ka + kb
                acc[k] = acc.get(k, 0) + ca * cb

    def nonzero(acc):
        return {k: c for k, c in acc.items() if c != 0}

    gens = [{1 << (_LANE * i): QQ(1)} for i in range(p + 1)]
    xs = [{0: QQ(1)}]
    for n in range(1, p + 2):
        acc = {}
        for i in range(1, n + 1):
            add_product(acc, QQ((-1) ** (i - 1), n), xs[n - i], gens[i - 1])
        xs.append(nonzero(acc))
    ys = [None] + gens
    while len(ys) <= n_max:
        n = len(ys)
        acc = {}
        for i in range(1, p + 2):
            add_product(acc, QQ((-1) ** (i - 1)), xs[i], ys[n - i])
        ys.append(nonzero(acc))
    return xs, ys


def _combine(forms, coords, N):
    """sum_j coords[j] * forms[j] mod q^N, coefficient by coefficient."""
    acc = [QQ(0)] * N
    for c, f in zip(coords, forms):
        if c != 0:
            for m in range(N):
                acc[m] += c * f.coeffs[m]
    return QSeries(tuple(acc))


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


def miller_window(i: int, p: int, N: int) -> list:
    """The Miller forms of weight i(p-1) in the window of level i, each by
    miller_form on its own."""
    lo, hi = window_bounds(i, p)
    return [miller_form(i * (p - 1), j, N) for j in range(lo, hi)]


def split_dense(f: QSeries, n: int, p: int, window_basis=miller_window) -> KatzExpansion:
    """Top-down split of a weight-n(p-1) form by one dense solve per level.

    At level i = n..1 the remainder cur (weight i(p-1)) is solved jointly as
    E_{p-1} * f_prev + b, with f_prev in the Miller basis of weight
    (i-1)(p-1) and b in the span of window_basis(i, p, N); a callable that
    returns None at a level keeps the Miller window forms there. Any
    residual, or a nonconstant weight-0 remainder, raises NotAModularForm.
    """
    N = f.prec
    d_top = dim_weight(n * (p - 1))[0]
    if N < d_top:
        raise PrecisionTooLow(f"need at least {d_top} coefficients, got {N}")
    E = eisenstein_series(p - 1, N)
    terms = {}
    cur = f
    for i in range(n, 0, -1):
        lo, hi = window_bounds(i, p)
        prev_basis = [miller_form((i - 1) * (p - 1), j, N) for j in range(lo)]
        forms = window_basis(i, p, N)
        if forms is None:
            forms = miller_window(i, p, N)
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
            raise NotAModularForm(f"residue outside the weight-{i * (p - 1)} span at level {i}")
        terms[i] = KatzTerm(i, b, coords, qs_val(b, p), hi == lo)
        cur = f_prev
    if any(x != 0 for x in cur.coeffs[1:]):
        raise NotAModularForm("weight-0 remainder is not constant")
    c0 = cur.coeffs[0]
    b0 = QSeries((c0,) + (QQ(0),) * (N - 1))
    terms[0] = KatzTerm(0, b0, (c0,), qs_val(b0, p), False)
    return KatzExpansion(p, tuple(terms[i] for i in range(n + 1)), n, INF)


def split_exact_windows(f: QSeries, p: int, I: int) -> KatzExpansion:
    """The greedy split of f through index I against the exact E_{p-1} and
    the exact Miller windows, whatever the modulus of f: a capped remainder
    is reduced at each level, but the forms it meets are not."""
    N = f.prec
    return _peel(f, eisenstein_series(p - 1, N), p, islice(miller_windows(p, N, None), I + 1))[0]


def reconstruct(ke: KatzExpansion, N: int | None = None) -> QSeries:
    """Sum b_i / E_{p-1}^i back into a single q-expansion, with E_{p-1} known
    mod the modulus of the b_i (None: exact)."""
    if N is None:
        N = min(t.b.prec for t in ke.terms)
    invE = qs_inv(eisenstein_series(ke.p - 1, N, ke.terms[0].b.modulus))
    acc = ke.terms[ke.max_index].b
    for i in range(ke.max_index - 1, -1, -1):
        acc = qs_mul(acc, invE) + ke.terms[i].b
    return acc


def delta_from_e4_e6(N: int, modulus: int | None = None) -> QSeries:
    """Delta = (E_4^3 - E_6^2)/1728 to N terms, exact or mod a modulus prime
    to 6: the route delta_series took before Euler's series."""
    e4 = eisenstein_series(4, N, modulus)
    e6 = eisenstein_series(6, N, modulus)
    return qs_scalar_mul(QQ(1, 1728), qs_sub(qs_pow(e4, 3), qs_mul(e6, e6)))


def hauptmodul_by_factors(p: int, N: int) -> QSeries:
    """t = q prod (1 - q^(pm))^e / prod (1 - q^m)^e, e = 24/(p-1), to N
    terms: q multiplied by each factor in place, (1 - q^m)^-1 as the
    geometric series in q^m."""
    e = 24 // (p - 1)
    c = [0] * N
    if N >= 2:
        c[1] = 1
        for m in range(1, N - 1):
            for _ in range(e):
                for i in range(m, N):
                    c[i] += c[i - m]
        for m in range(p, N, p):
            for _ in range(e):
                for i in range(N - 1, m - 1, -1):
                    c[i] -= c[i - m]
    return QSeries(c)


def estar_by_stabilization(k: int, p: int, N: int) -> QSeries:
    """The ordinary p-stabilization (E_k - p^(k-1) V(E_k)) / (1 - p^(k-1)),
    through V, scalar multiplication and subtraction."""
    E = eisenstein_series(k, N)
    scale = QQ(p ** (k - 1))
    num = qs_sub(E, qs_scalar_mul(scale, apply_V(E, p)))
    return qs_scalar_mul(1 / (1 - scale), num)


def estar_teichmuller_by_loop(s: int, p: int, N: int, M: int) -> QSeries:
    """1 - (2s / B_{s,tau^(-s)}) sum sigma*_{s-1}(n) q^n mod p^M, by a sieve
    over the divisors prime to p reducing mod p^(M+2) at every addition."""
    if s < 1:
        raise InvalidWeight("s must be >= 1")
    big = p ** (M + 2)
    B = family.gen_bernoulli_tau(s, p, M)
    factor = QQ(-2 * s) / B
    fnum, fden = factor.numerator, factor.denominator
    if fden % p == 0:
        raise PrecisionTooLow("normalization factor lost p-integrality")
    factor_mod = fnum % big * pow(fden, -1, big) % big
    coeffs = [0] * N
    coeffs[0] = 1
    tau_inv_s = _tau_inv_s(s, p, M)
    for d in range(1, N):
        if d % p == 0:
            continue
        term = pow(d, s - 1, big) * tau_inv_s[d % p] % big
        for n in range(d, N, d):
            coeffs[n] = (coeffs[n] + term) % big
    return qs_from_nums([1] + [factor_mod * c for c in coeffs[1:]], 1, p ** M)


def hauptmodul_by_subtraction(f: QSeries, p: int, terms: int):
    """Coefficients a_0..a_{terms-1} of f in the genus-zero uniformizer t:
    a_i is coefficient i of the running series, from which a_i t^i is then
    subtracted as a series; a series known mod m stays known mod m."""
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


def val_per_coefficient(f, p):
    """The least p-adic valuation over the coefficients of f, one rational at
    a time; +inf when every coefficient is 0."""
    return min((val(c, p) for c in f.coeffs), default=INF)


def gen_bernoulli_tau(s: int, p: int, M: int) -> QQ:
    """B_{s, tau^(-s)} as an exact rational, correct mod p^(M+1).

    Computed from the generating identity
        sum_{a=1}^{p-1} chi(a) t e^{at} / (e^{pt} - 1) = sum B_{s,chi} t^s / s!
    truncated at degree s, with chi = tau^(-s) evaluated mod p^(M+guard).
    The result has valuation -1 when s is not divisible by p-1 in the
    trivial way; callers divide by it, which is why the guard digits exist.
    The final s!/p costs 1 + v_p(s!) digits, so guard is one more than that.
    """
    if s < 1:
        raise InvalidWeight("s must be >= 1")
    guard = 2 + int_val(math.factorial(s), p)
    big = p ** (M + guard)
    # t/(e^{pt}-1) = (1/p) * 1/(1 + h) with h = sum_{j>=1} (pt)^j/(j+1)!
    one_plus_h = (QQ(1),) + tuple(QQ(p ** j, math.factorial(j + 1)) for j in range(1, s + 1))
    inv = qs_inv(QSeries(one_plus_h)).coeffs
    total = QQ(0)
    for a in range(1, p):
        chi = QQ(pow(teichmuller(a, p, M + guard), -s, big))
        # chi(a) * e^{at} * (above), coefficient of t^s
        coeff = QQ(0)
        ap = QQ(1)
        for j in range(s + 1):
            coeff += ap / math.factorial(j) * inv[s - j]
            ap = ap * a
        total += chi * coeff
    return total * math.factorial(s) / p


def _pack(exps):
    k = 0
    for i, e in enumerate(exps):
        if not 0 <= e < 1 << _LANE:
            raise ValueError(f"exponent {e} outside [0, 2^{_LANE})")
        k |= e << (_LANE * i)
    return k


def _unpack(k):
    # one unsigned 16-bit ("H") lane per exponent; the top lane is nonzero,
    # so the tuple has no trailing zeros
    n = (k.bit_length() + _LANE - 1) // _LANE
    return struct.unpack(f"<{n}H", k.to_bytes(2 * n, "little"))


def sp_to_bivar_by_unpack(a: SymPolyQ, p: int) -> BivarPolyModP:
    """sp_to_bivar_mod_p with each key unpacked into its exponent tuple."""
    if a.den % p == 0:
        raise ValueError(f"denominator {a.den} is divisible by {p}: not {p}-integral")
    inv = pow(a.den, -1, p)
    d = {}
    for k, c in a.terms.items():
        res = c * inv % p
        if res == 0:
            continue
        exps = _unpack(k)
        if any(exps[: p - 1]):
            raise ValueError(f"term {exps} survives mod {p} outside (t_p, t_{p+1})")
        key = (exps + (0,) * (p + 1))[p - 1 : p + 1]
        d[key] = d.get(key, 0) + res
    return BivarPolyModP.from_dict(p, d)
