"""Exact rational arithmetic: QQ is the stdlib Fraction, integers are Python ints."""

from __future__ import annotations

import math
from fractions import Fraction as QQ

INF = math.inf
# there is one backend; perfbench/run.py still reads this flag to label its runs
_HAVE_GMPY2 = False


# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n):
    """Whether the integer n is prime, by deterministic Miller-Rabin; n at
    or above 3,317,044,064,679,887,385,961,981 raises ValueError."""
    n = int(n)
    if n >= _MR_EXACT_BELOW:
        raise ValueError("primality is decided below %d, got %d" % (_MR_EXACT_BELOW, n))
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def int_val(n, p):
    """Multiplicity of the prime p in the nonzero integer n."""
    if p < 2:
        raise ValueError(f"valuation needs a prime p >= 2, got {p}")
    if n == 0:
        raise ValueError("valuation of 0 is undefined here")
    n = abs(int(n))
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val(x, p):
    """p-adic valuation of a rational; the zero rational gets +inf."""
    x = QQ(x)
    if x == 0:
        return INF
    return int_val(x.numerator, p) - int_val(x.denominator, p)


def rational_from_str(s):
    """Parse "num/den" or "num" (decimal strings) into an exact rational;
    anything else, a zero denominator included, raises ValueError."""
    try:
        num, slash, den = s.strip().partition("/")
        return QQ(int(num), int(den) if slash else 1)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,)) from None
    except (AttributeError, TypeError, ValueError):  # not a string, or not of that form
        raise ValueError('expected a rational "num" or "num/den", got %r' % (s,)) from None


def rational_to_str(x):
    x = QQ(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)
