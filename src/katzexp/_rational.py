"""Exact rational arithmetic: QQ is the stdlib Fraction, integers are Python ints."""

from __future__ import annotations

import math
from fractions import Fraction as QQ

INF = math.inf
# there is one backend; perfbench/run.py still reads this flag to label its runs
_HAVE_GMPY2 = False


def is_prime(n):
    n = int(n)
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def int_val(n, p):
    """Multiplicity of the prime p in the nonzero integer n."""
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
    """Parse "num/den" or "num" (decimal strings) into an exact rational.

    Anything else, a zero denominator included, raises ValueError.
    """
    if not isinstance(s, str):
        raise ValueError("expected a rational as a string, got %r" % (s,))
    num, slash, den = s.strip().partition("/")
    den = int(den) if slash else 1
    if den == 0:
        raise ValueError("zero denominator in %r" % (s,))
    return QQ(int(num), den)


def rational_to_str(x):
    x = QQ(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)
