"""Slow reference oracles for the integer kernels in katzexp.

Each function is the plain textbook algorithm, in exact rationals, that a
fast kernel replaced; the differential tests compare the two.
"""

from __future__ import annotations

from katzexp import QQ


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
