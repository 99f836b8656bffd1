"""Classical level-1 modular forms: Eisenstein series, Delta, Miller bases.

Everything is exact: Bernoulli numbers from the integer tangent numbers,
divisor sums by direct enumeration, eta-quotient hauptmoduls by sparse
products of (1 - q^m)^(+-e) factors.
"""

from __future__ import annotations

from ._rational import QQ
from .errors import InvalidWeight, UnsupportedPrime
from .series import QSeries, qs_from_nums, qs_mul, qs_pow, qs_scalar_mul, qs_sub

# B_0, B_2, B_4, ...; odd-index Bernoulli numbers vanish past B_1 = -1/2,
# so the table keeps even indices only.
_bernoulli_even = [QQ(1)]


def _tangent_numbers(n: int) -> list:
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


def bernoulli(k: int):
    """Exact Bernoulli number B_k for even k >= 0.

    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)) from the tangent numbers T_m.
    The even-index table is memoized; a miss rebuilds it to at least twice
    its length, so ascending requests cost O(K^2) big-int steps in total.
    """
    if k < 0 or k % 2 != 0:
        raise InvalidWeight(f"B_k implemented for even k >= 0, got {k}")
    half = k // 2
    if half >= len(_bernoulli_even):
        n = max(half, 2 * len(_bernoulli_even))
        T = _tangent_numbers(n)
        for m in range(len(_bernoulli_even), n + 1):
            four_m = 4**m
            b = QQ(2 * m * T[m], four_m * (four_m - 1))
            _bernoulli_even.append(b if m % 2 else -b)
    return _bernoulli_even[half]


def sigma_k(n: int, k: int):
    """Divisor power sum sigma_k(n) = sum of d^k over divisors d of n."""
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


def eisenstein_series(k: int, N: int) -> QSeries:
    """Normalized E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n to N terms."""
    if k < 4 or k % 2 != 0:
        raise InvalidWeight(f"E_k needs even k >= 4, got {k}")
    factor = QQ(2 * k) / bernoulli(k)
    a, b = factor.numerator, factor.denominator
    # accumulate d^(k-1) into every multiple of d: one big power per divisor
    sums = [0] * N
    for d in range(1, N):
        pw = d ** (k - 1)
        for m in range(d, N, d):
            sums[m] += pw
    nums = [-a * x for x in sums]
    nums[0] = b
    return qs_from_nums(nums, b)


def delta_series(N: int) -> QSeries:
    """The discriminant cusp form (E_4^3 - E_6^2)/1728 to N terms."""
    if N < 1:
        raise ValueError("need N >= 1")
    e4 = eisenstein_series(4, N)
    e6 = eisenstein_series(6, N)
    diff = qs_sub(qs_pow(e4, 3), qs_mul(e6, e6))
    return qs_scalar_mul(QQ(1, 1728), diff)


def dim_weight(k: int):
    """(d_k, eps(k)) for even k >= 0: dimension of the weight-k space and the
    exponent of E_6 in its Miller basis."""
    if k < 0 or k % 2 != 0:
        raise InvalidWeight(f"dimension formula needs even k >= 0, got {k}")
    d = k // 12 + (0 if k % 12 == 2 else 1)
    eps = 0 if k % 4 == 0 else 1
    return d, eps


def miller_exponents(k: int, j: int):
    """(a, eps) with Delta^j E_4^a E_6^eps the weight-k Miller form of index j."""
    d, eps = dim_weight(k)
    if not 0 <= j < d:
        raise ValueError(f"index {j} outside 0..{d - 1} for weight {k}")
    return (k - 12 * j - 6 * eps) // 4, eps


def miller_form(k: int, j: int, N: int) -> QSeries:
    """The basis form Delta^j E_4^a E_6^eps of weight k, leading term q^j."""
    a, eps = miller_exponents(k, j)
    g = qs_mul(qs_pow(delta_series(N), j), qs_pow(eisenstein_series(4, N), a))
    return qs_mul(g, eisenstein_series(6, N)) if eps else g


def _sparse_mul_in_place(c: list, m: int, reps: int):
    # multiply by (1 - q^m)^reps
    N = len(c)
    for _ in range(reps):
        for i in range(N - 1, m - 1, -1):
            c[i] = c[i] - c[i - m]


def _sparse_div_in_place(c: list, m: int, reps: int):
    # divide by (1 - q^m)^reps, i.e. multiply by the geometric series in q^m
    N = len(c)
    for _ in range(reps):
        for i in range(m, N):
            c[i] = c[i] + c[i - m]


def hauptmodul_series(p: int, N: int) -> QSeries:
    """Genus-zero uniformizer t = q * prod (1-q^{pn})^e / prod (1-q^n)^e,
    e = 24/(p-1); available for p in {5, 7, 13}."""
    if p not in (5, 7, 13):
        raise UnsupportedPrime(f"hauptmodul available for p in 5, 7, 13; got {p}")
    if N < 1:
        raise ValueError("need N >= 1")
    e = 24 // (p - 1)
    c = [0] * N
    if N >= 2:
        c[1] = 1
        for m in range(1, N - 1):
            _sparse_div_in_place(c, m, e)
        for m in range(1, (N - 1) // p + 1):
            _sparse_mul_in_place(c, p * m, e)
    return qs_from_nums(c)
