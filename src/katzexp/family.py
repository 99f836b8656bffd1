"""The p-deprived Eisenstein series, the unit-root family member at weight
(s, 0), and the machinery connecting them: Teichmuller lifts, generalized
Bernoulli numbers, and classical-limit weights.

The family member is built two independent ways and cross-checked:
a classical Eisenstein series at a congruent weight reduced mod p^M, and
the direct divisor-sum formula with Teichmuller character values. Both
land in integers mod p^M; a mismatch means a precision policy is wrong
somewhere and is raised loudly rather than papered over.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._rational import QQ, int_val
from .classical import eisenstein_series
from .errors import (
    CrossCheckMismatch,
    InvalidWeight,
    NotAUnit,
    PrecisionTooLow,
)
from .recurrence import delta_p
from .series import (
    QSeries,
    apply_V,
    qs_from_nums,
    qs_inv,
    qs_mul,
    qs_pow,
    qs_reduce_mod,
    qs_scalar_mul,
    qs_sub,
    qs_truncate,
    qs_val,
)


def estar_k(k: int, p: int, N: int) -> QSeries:
    """The ordinary p-stabilization (E_k - p^(k-1) V(E_k)) / (1 - p^(k-1))."""
    E = eisenstein_series(k, N)
    scale = QQ(p ** (k - 1))
    num = qs_sub(E, qs_scalar_mul(scale, apply_V(E, p)))
    return qs_scalar_mul(1 / (1 - scale), num)


def eis_ratio(n: int, p: int, N: int):
    """(e_n, e*_n): the weight-degree-n Eisenstein series and its p-deprived
    twin, both divided by E_{p-1}^n into weight 0."""
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


class FamilyMember(NamedTuple):
    s: int
    p: int
    series: QSeries  # integer coefficients reduced mod p^pprec
    pprec: int
    construction: str
    weight_used: int | None = None
    escalations: tuple = ()


def classical_limit_weight(s: int, p: int, M: int) -> int:
    """Smallest weight k >= 4 with k = 0 mod (p-1) and k = s mod p^M."""
    pm = p ** M
    # p = 1 mod (p-1), so p^M = 1 as well; CRT by hand
    inv = pow(pm % (p - 1), -1, p - 1)
    residue = (-s) * inv % (p - 1)
    k = s + residue * pm
    L = (p - 1) * pm
    while k < 4:
        k += L
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


def estar_family_classical(s: int, p: int, N: int, M: int, *, extra: int = 0) -> FamilyMember:
    """Classical-limit construction: E_k mod p^M at a weight k congruent to
    s one p-adic digit deeper for each escalation step `extra`."""
    k = classical_limit_weight(s, p, M + extra)
    reduced = qs_reduce_mod(eisenstein_series(k, N), p ** M)
    return FamilyMember(s, p, reduced, M, "classical-limit", weight_used=k)


def estar_family_teichmuller(s: int, p: int, N: int, M: int) -> FamilyMember:
    """Direct construction: 1 - (2s / B_{s,tau^(-s)}) sum sigma*_{s-1}(n) q^n
    with the divisor sums restricted to divisors prime to p."""
    if s < 1:
        raise InvalidWeight("s must be >= 1")
    pm = p ** M
    big = p ** (M + 2)
    B = gen_bernoulli_tau(s, p, M)
    factor = QQ(-2 * s) / B
    fnum, fden = factor.numerator, factor.denominator
    if fden % p == 0:
        raise PrecisionTooLow("normalization factor lost p-integrality")
    factor_mod = fnum % big * pow(fden, -1, big) % big
    # sigma*_{s-1}(n) = sum_{d|n, p nmid d} d^(s-1) tau(d)^(-s); tau has
    # period p on units, so tau(d) depends only on d mod p
    coeffs = [0] * N
    coeffs[0] = 1
    tau_inv_s = [0] * p
    for a in range(1, p):
        tau_inv_s[a] = pow(teichmuller(a, p, M + 2), -s, big)
    for d in range(1, N):
        if d % p == 0:
            continue
        term = pow(d, s - 1, big) * tau_inv_s[d % p] % big
        for n in range(d, N, d):
            coeffs[n] = (coeffs[n] + term) % big
    for n in range(1, N):
        coeffs[n] = (factor_mod * coeffs[n]) % pm
    series = qs_from_nums(coeffs)
    return FamilyMember(s, p, series, M, "teichmuller-direct")


def estar_family(s: int, p: int, N: int, M: int, *, max_escalations: int = 3) -> FamilyMember:
    """Both constructions cross-checked mod p^M.

    If the classical-limit weight is not congruent deeply enough for its
    reduction to match the direct formula, the weight congruence is
    escalated one digit at a time and each escalation recorded.
    """
    direct = estar_family_teichmuller(s, p, N, M)
    escalations = []
    for extra in range(max_escalations + 1):
        classical = estar_family_classical(s, p, N, M, extra=extra)
        if classical.series == direct.series:
            return FamilyMember(
                s,
                p,
                classical.series,
                M,
                "cross-checked:classical-limit|teichmuller-direct",
                weight_used=classical.weight_used,
                escalations=tuple(escalations),
            )
        escalations.append(classical.weight_used)
    raise CrossCheckMismatch(
        f"constructions disagree mod {p}^{M} after {max_escalations} escalations"
    )


def agreement_depth(f: QSeries, g: QSeries, p: int):
    """Smallest coefficientwise p-adic distance over the shared range."""
    n = min(f.prec, g.prec)
    return qs_val(qs_sub(qs_truncate(f, n), qs_truncate(g, n)), p)
