"""Classical level-1 modular forms: Eisenstein series, Delta, Miller bases.

Each Bernoulli number B_k is exact, from zeta(k) in integer fixed point,
rounded over its von Staudt-Clausen denominator (bernoulli_p_mod gives p B_k
mod p^R where B_k is out of reach). One divisor sieve, _eisenstein, builds
every Eisenstein series, E_k here and E*_k and both family members in
`family`, from a normalizing factor and one weight per divisor, exact or mod
a modulus m with each weight reduced mod m. Delta and the
eta-quotient hauptmoduls are eta products, built through the series core
from Euler's series prod (1 - q^m), which the pentagonal number theorem
gives exactly; Delta is reduced once to its modulus.
"""

from __future__ import annotations

import math

from ._rational import QQ, int_val, is_prime
from .errors import CrossCheckMismatch, InvalidWeight, NotAUnit, UnsupportedPrime
from .series import QSeries, apply_V, qs_div, qs_from_nums, qs_mul, qs_pow

# the primes p >= 5 with X_0(p) of genus zero, where hauptmodul_series is defined
HAUPTMODUL_PRIMES = (5, 7, 13)

# B_k by even k, one entry per k asked for; odd-index Bernoulli numbers
# vanish past B_1 = -1/2.
_bernoulli_memo = {0: QQ(1)}


def _pi_bounds(w: int):
    """(lo, hi) with lo <= pi 2^w <= hi, by Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239)."""

    def arctan_inv(x):
        # each floored term is low by under one unit, and the alternating
        # tail past the first vanishing power is under one unit
        power, x2, total, j = (1 << w) // x, x * x, 0, 0
        while power:
            term = power // (2 * j + 1)
            total += -term if j & 1 else term
            power //= x2
            j += 1
        return total, j + 1

    a5, e5 = arctan_inv(5)
    a239, e239 = arctan_inv(239)
    mid, err = 16 * a5 - 4 * a239, 16 * e5 + 4 * e239
    return mid - err, mid + err


def _pow_bound(m: int, e: int, k: int, bits: int, up: bool):
    """(r, f) with r 2^f a lower bound on (m 2^e)^k, or an upper bound if up,
    for m > 0; r is truncated to `bits` bits after every step."""
    r, f = 1, 0
    for bit in bin(k)[2:]:
        r, f = r * r, 2 * f
        if bit == "1":
            r, f = r * m, f + e
        s = r.bit_length() - bits
        if s > 0:
            r = -(-r >> s) if up else r >> s
            f += s
    return r, f


def _floor_div(a: int, r: int, s: int) -> int:
    """floor(a / (r 2^s)) for r > 0 and s of either sign."""
    return a // (r << s) if s >= 0 else (a << -s) // r


def _bernoulli_even(k: int):
    """Exact B_k for even k >= 2 from zeta(k).

    By von Staudt-Clausen the denominator of B_k is D, the product of the
    primes q with (q - 1) | k, so N = |B_k| D = 2 k! D zeta(k) / (2 pi)^k is
    an integer and B_k = (-1)^(k/2 + 1) N / D. N is enclosed in [lo, hi] in
    integer fixed point, every step rounded outward, at w = log2 N + guard
    fractional bits, with g = log2 k + 4:

    - pi by Machin's formula at w + g + log2 w bits, within about
      4 (w + g + log2 w) units, a relative error under 2^-(w + 3) in
      (2 pi)^k;
    - (2 pi)^k by square-and-multiply with mantissas truncated to w + g bits
      after every step, under 2^-(w + 2) relative error more;
    - zeta(k) as the T terms n^-k that do not vanish at 2^-w, each floored
      (under T units of 2^-w), plus the tail, under 1 + (T + 1)/(k - 1) units.

    So hi - lo < N 2^-w (T + 4 + T/(k - 1)), under 1/16 for every even k up
    to 120,000 with the starting guard of log2(N)/k + 8 bits. N is returned
    only when [lo, hi] holds one integer; otherwise the guard doubles and all
    of it is recomputed, so a numerator is never guessed.
    """
    den = 1
    for d in range(1, math.isqrt(k) + 1):
        if k % d == 0:
            for q in {d + 1, k // d + 1}:
                if is_prime(q):
                    den *= q
    scale = 2 * math.factorial(k) * den
    # an upper bound on log2 N, as zeta(k) < 2
    size = math.ceil((math.lgamma(k + 1) - k * math.log(2 * math.pi)) / math.log(2)) + den.bit_length() + 2
    g = k.bit_length() + 4
    guard = size // k + 8
    while True:
        w = size + guard
        wpi = w + g + w.bit_length()
        pi_lo, pi_hi = _pi_bounds(wpi)
        p_lo, f_lo = _pow_bound(pi_lo, 1 - wpi, k, w + g, False)
        p_hi, f_hi = _pow_bound(pi_hi, 1 - wpi, k, w + g, True)
        one, z, n = 1 << w, 0, 1
        while True:
            t = one // n**k
            if not t:
                break
            z += t
            n += 1
        # n - 1 = T terms; the tail sum_{m >= n} m^-k is under n^-k (1 + n/(k - 1))
        z_hi = z + n + 1 + n // (k - 1)
        lo = -_floor_div(-scale * z, p_hi, w + f_hi)
        hi = _floor_div(scale * z_hi, p_lo, w + f_lo)
        if lo == hi:
            return QQ(lo if k % 4 == 2 else -lo, den)
        guard *= 2


def bernoulli(k: int):
    """Exact Bernoulli number B_k for even k >= 0, memoized by k.

    Each k is computed on its own from zeta(k) (Brent and Harvey, "Fast
    computation of Bernoulli, tangent and secant numbers", 2011, as in
    PARI/GP's bernfrac); see _bernoulli_even for the error bound.
    """
    if k < 0 or k % 2 != 0:
        raise InvalidWeight(f"B_k implemented for even k >= 0, got {k}")
    b = _bernoulli_memo.get(k)
    if b is None:
        b = _bernoulli_memo[k] = _bernoulli_even(k)
    return b


def bernoulli_p_mod(k: int, p: int, R: int) -> int:
    """p B_k mod p^R for an odd prime p, even k >= 2 with (p - 1) | k and
    R >= 1, by Voronoi's congruence, with no exact B_k.

    For gcd(a, N) = 1, (a^k - 1) B_k = k a^(k-1) S mod N with
    S = sum_{0 <= j < N} j^(k-1) floor(j a / N) (Ireland and Rosen, ch. 15;
    Harvey, "A multimodular algorithm for computing Bernoulli numbers",
    2010). Take a the least integer >= 2 prime to p with a^(p-1) != 1 mod
    p^2: by lifting the exponent a^k - 1 = p^(1+v) w, v = v_p(k), w a unit.
    With N = p^(R+v), dividing by p^v gives
    p B_k = (k / p^v) a^(k-1) S / w mod p^R, so S is needed only mod p^R;
    floor(j a / N) counts the t in 1..a-1 with j >= t N / a. By von
    Staudt-Clausen p B_k = -1 mod p, and a result that is not raises
    CrossCheckMismatch instead of being returned.
    """
    if p < 3 or k < 2 or k % 2 or k % (p - 1) or R < 1:
        raise InvalidWeight(f"p B_k mod p^R needs an odd p, even k with (p-1) | k and R >= 1; "
                            f"got k={k}, p={p}, R={R}")
    v = int_val(k, p)
    pv, m = p**v, p**R
    N = pv * m
    a = next(a for a in range(2, p * p) if a % p and pow(a, p - 1, p * p) != 1)
    e = k - 1
    S = sum(pow(j, e, m) for t in range(1, a) for j in range(-(-t * N // a), N))
    w = (pow(a, k, p * N) - 1) // (p * pv)
    pb = k // pv * pow(a, e, m) * S * pow(w, -1, m) % m
    if pb % p != p - 1:
        raise CrossCheckMismatch(f"Voronoi's congruence gave p B_{k} = {pb % p} mod {p}, not -1")
    return pb


def _eisenstein(factor, power, N: int, modulus: int | None) -> QSeries:
    """1 - factor sum_n (sum_{d | n} power(d)) q^n to N terms, exact or mod
    `modulus` (the one divisor sieve behind every Eisenstein series)."""
    if N < 1:
        raise ValueError("need N >= 1")
    # allocated first, so a huge N raises MemoryError before any power(d)
    sums = [0] * N
    for d in range(1, N):
        pw = power(d)
        if pw:
            for m in range(d, N, d):
                sums[m] += pw
    a, b = factor.numerator, factor.denominator
    nums = [-a * x for x in sums]
    nums[0] = b
    return qs_from_nums(nums, b, modulus)


def eisenstein_series(k: int, N: int, modulus: int | None = None) -> QSeries:
    """Normalized E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n to N terms, exact or
    mod `modulus`; NotAUnit where 2k/B_k is not integral, as mod 37 at k = 32."""
    if k < 4 or k % 2 != 0:
        raise InvalidWeight(f"E_k needs even k >= 4, got {k}")
    factor = QQ(2 * k) / bernoulli(k)
    g = math.gcd(factor.denominator, modulus or 1)
    if g > 1:
        raise NotAUnit(f"E_{k} is not integral mod {modulus}: {g} divides the numerator of B_{k}")
    return _eisenstein(factor, lambda d: pow(d, k - 1, modulus), N, modulus)


def _euler(N: int) -> QSeries:
    """prod_{m>=1} (1 - q^m) to N terms, exact: by Euler's pentagonal number
    theorem the sum of (-1)^k q^(k(3k-1)/2) over all integers k."""
    nums = [0] * N
    # k(3k - 1)/2 >= k^2, so no k past isqrt(N) reaches below N
    for k in range(math.isqrt(N) + 1):
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g < N:
                nums[g] = (-1) ** k
    return qs_from_nums(nums)


def delta_series(N: int, modulus: int | None = None) -> QSeries:
    """Delta = q prod (1 - q^m)^24 to N terms, exact or mod `modulus`: the
    integers tau(n) computed exactly and reduced once."""
    if N < 1:
        raise ValueError("need N >= 1")
    tau = qs_pow(_euler(N), 24).nums
    return qs_from_nums((0,) + tau[:N - 1], 1, modulus)


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


def require_prime(p):
    """UnsupportedPrime unless p is a prime p >= 5."""
    if not is_prime(p) or p < 5:
        raise UnsupportedPrime("need a prime p >= 5, got %r" % (p,))


def require_hauptmodul_prime(p):
    """UnsupportedPrime unless p is one of HAUPTMODUL_PRIMES."""
    if p not in HAUPTMODUL_PRIMES:
        primes = ", ".join(map(str, HAUPTMODUL_PRIMES))
        raise UnsupportedPrime(f"hauptmodul available for p in {primes}; got {p!r}")


def hauptmodul_series(p: int, N: int) -> QSeries:
    """Genus-zero uniformizer t = q (V_p(P)/P)^e, P = prod (1 - q^m) and
    e = 24/(p-1), to N terms; available for p in {5, 7, 13}."""
    require_hauptmodul_prime(p)
    if N < 1:
        raise ValueError("need N >= 1")
    P = _euler(N)
    ratio = qs_pow(qs_div(apply_V(P, p), P), 24 // (p - 1))
    return qs_from_nums((0,) + ratio.nums[:N - 1])
