"""The p-deprived Eisenstein series, the unit-root family member at weight
(s, 0), and the machinery connecting them: Teichmuller lifts, generalized
Bernoulli numbers, and classical-limit weights.

Every series here comes from the one divisor sieve of `classical`, as a
normalizing factor and one weight per divisor. The family member is built
two independent ways and cross-checked: a classical Eisenstein series at a
congruent weight built mod p^M (its B_k by Voronoi's congruence, never
exactly), and the direct sigma* formula with Teichmuller character values.
The two share only the sieve; their factors and divisor weights are
computed independently, and that is what the cross-check compares. Both
land in integers mod p^M; a mismatch means a precision policy is wrong
somewhere and is raised loudly rather than papered over.
"""

from __future__ import annotations

import math

from ._rational import QQ, int_val
from .classical import _eisenstein, bernoulli, bernoulli_p_mod, eisenstein_series, require_prime
from .errors import (
    CrossCheckMismatch,
    InvalidWeight,
    NotAUnit,
    PrecisionTooLow,
)
from .recurrence import delta_p
from .series import QSeries, qs_mul, qs_pow, qs_sub, qs_val


def estar_k(k: int, p: int, N: int) -> QSeries:
    """The ordinary p-stabilization (E_k - p^(k-1) V(E_k)) / (1 - p^(k-1)),
    that is 1 - (2k / ((1 - p^(k-1)) B_k)) sum sigma*_{k-1}(n) q^n with
    sigma* summing d^(k-1) over the divisors d prime to p (Serre, 1973)."""
    require_prime(p)
    if k < 4 or k % 2 != 0:
        raise InvalidWeight(f"E_k needs even k >= 4, got {k}")
    factor = 2 * k / ((1 - p ** (k - 1)) * bernoulli(k))
    return _eisenstein(factor, lambda d: d ** (k - 1) if d % p else 0, N, None)


def eis_ratio(n: int, p: int, N: int):
    """(e_n, e*_n): the weight-degree-n Eisenstein series and its p-deprived
    twin, both divided by E_{p-1}^n into weight 0."""
    require_prime(p)
    if n < 1:
        raise InvalidWeight("n must be >= 1")
    k = n * (p - 1)
    inv_en = qs_pow(eisenstein_series(p - 1, N), -n)
    return (
        qs_mul(eisenstein_series(k, N), inv_en),
        qs_mul(estar_k(k, p, N), inv_en),
    )


def teichmuller(d: int, p: int, M: int) -> int:
    """omega(d) mod p^M by iterated p-th powering until the fixed point."""
    pm = p ** M
    x = d % pm
    if x % p == 0:
        raise NotAUnit(f"{d} is divisible by {p}")
    for _ in range(M):
        x = pow(x, p, pm)
    return x


def _tau_inv_s(s: int, p: int, M: int) -> list:
    """tau(a)^(-s) mod p^(M+2), the guarded character, indexed by a mod p."""
    return [0] + [pow(teichmuller(a, p, M + 2), -s, p ** (M + 2)) for a in range(1, p)]


def gen_bernoulli_tau(s: int, p: int, M: int) -> QQ:
    """B_{s, tau^(-s)} as an exact rational, correct mod p^(M+1).

    B_{s,chi} = p^(s-1) sum_{a=1}^{p-1} chi(a) B_s(a/p) (Washington,
    "Introduction to Cyclotomic Fields", Prop. 4.1), with chi = tau^(-s)
    mod p^(M+2) and B_s(x) = sum_j C(s,j) B_j x^(s-j). Each
    p^(s-1) B_s(a/p) = sum_j C(s,j) B_j a^(s-j) p^(j-1) has valuation at
    least -1 (-1 at j = 0, at least 0 for j >= 1 by von Staudt-Clausen), so
    the error p^(M+2) in chi moves the sum by at most p^(M+1). As
    chi(a) a^s = 1 mod p, the j = 0 part and so the result have valuation
    exactly -1; callers divide by it.
    """
    if s < 1:
        raise InvalidWeight("s must be >= 1")
    chis = _tau_inv_s(s, p, M)
    total = QQ(0)
    for j in (0, 1, *range(2, s + 1, 2)):  # B_j = 0 at odd j > 1
        # C(s,j) B_j p^(j-1) sum_a chi(a) a^(s-j)
        S = sum(chis[a] * a ** (s - j) for a in range(1, p))
        total += math.comb(s, j) * (QQ(-1, 2) if j == 1 else bernoulli(j)) * p ** j * S
    return total / p


def classical_limit_weight(s: int, p: int, M: int) -> int:
    """The least weight k >= max(s, 4) with k = 0 mod (p-1) and k = s mod p^M."""
    pm = p ** M
    # p^M = 1 mod (p-1), so s + j p^M = 0 mod (p-1) for j = -s mod (p-1)
    k = s + (-s) % (p - 1) * pm
    while k < 4:
        k += (p - 1) * pm
    return k


def delta_weight_sequence(s: int, p: int, count: int, *, t: int = 1):
    """The digit-sum weight scheme s + (p-1-delta_p(s)) p^(m+t), m = 1..count.

    Valid when delta_p(s) < p-1; each weight is 0 mod (p-1) and s mod
    p^(m+t), climbing the congruence tower one digit per step.
    """
    gap = p - 1 - delta_p(s, p)
    if gap <= 0:
        raise InvalidWeight(f"digit sum of {s} is not below {p - 1}")
    return [s + gap * p ** (m + t) for m in range(1, count + 1)]


def estar_family_classical(s: int, p: int, N: int, M: int) -> QSeries:
    """Classical-limit construction: E_k mod p^M at the weight k of
    classical_limit_weight, congruent to s mod p^M, built mod p^M only.

    E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, and with v = v_p(k)
    2k/B_k = (2k/p^v) p^(1+v) / (p B_k), where p B_k is a p-adic unit (von
    Staudt-Clausen). So the factor mod p^M needs p B_k only mod p^R,
    R = M - 1 - v, from Voronoi's congruence (bernoulli_p_mod); at R <= 0
    it is 0 mod p^M. No exact B_k or E_k is formed.
    """
    k = classical_limit_weight(s, p, M)
    pm, v = p ** M, int_val(k, p)
    R = M - 1 - v
    factor = 0
    if R > 0:
        inv = pow(bernoulli_p_mod(k, p, R), -1, p ** R)
        factor = 2 * k // p ** v * p ** (1 + v) * inv % pm
    return _eisenstein(factor, lambda d: pow(d, k - 1, pm), N, pm)


def estar_family_teichmuller(s: int, p: int, N: int, M: int) -> QSeries:
    """Direct construction: 1 - (2s / B_{s,tau^(-s)}) sum sigma*_{s-1}(n) q^n
    with sigma*_{s-1}(n) = sum_{d|n, p nmid d} d^(s-1) tau(d)^(-s); tau has
    period p on units, so tau(d) depends only on d mod p."""
    factor = 2 * s / gen_bernoulli_tau(s, p, M)
    if factor.denominator % p == 0:
        raise PrecisionTooLow("normalization factor lost p-integrality")
    pm, tau_inv_s = p ** M, _tau_inv_s(s, p, M)
    # tau_inv_s[0] is 0, so the multiples of p drop out
    return _eisenstein(factor, lambda d: pow(d, s - 1, pm) * tau_inv_s[d % p], N, pm)


def estar_family(s: int, p: int, N: int, M: int) -> QSeries:
    """Both constructions cross-checked mod p^M; CrossCheckMismatch if they differ."""
    require_prime(p)
    direct = estar_family_teichmuller(s, p, N, M)
    classical = estar_family_classical(s, p, N, M)
    if classical != direct:
        k = classical_limit_weight(s, p, M)
        raise CrossCheckMismatch(f"constructions disagree mod {p}^{M} at weight {k}")
    return classical


def agreement_depth(f: QSeries, g: QSeries, p: int):
    """Smallest coefficientwise p-adic distance over the shared range."""
    return qs_val(qs_sub(f, g), p)
