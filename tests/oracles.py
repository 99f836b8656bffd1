"""Slow reference oracles for the integer kernels in katzexp.

Each function is the plain textbook algorithm, in exact rationals, that a
fast kernel or a rerouted product replaced; the differential tests compare
the two.
"""

from __future__ import annotations

from katzexp import QQ
from katzexp.errors import PrecisionTooLow
from katzexp.recurrence import _LANE
from katzexp.series import QSeries


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
