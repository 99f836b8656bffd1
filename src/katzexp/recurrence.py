"""Digit sums, the mod-p two-term recurrence in A and B, deep-recurrence
lifting, and the Newton-identity chain with its scaling homomorphism.

Two polynomial representations live here. BivarPolyModP is a sparse
bivariate polynomial over F_p. SymPolyQ is a sparse rational polynomial in
the variables y_1..y_{p+1} (or t_1..t_{p+1} after applying the scaling
map); exponent vectors are stored with trailing zeros trimmed.

The Newton chain behind newton_chain and phi_image is built on ints: each
chain polynomial is a dict of integer numerators over one positive integer
denominator, and becomes a SymPolyQ only when it is returned.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from ._rational import QQ, int_val
from .errors import InsufficientLength


def delta_p(n: int, p: int) -> int:
    """Base-p digit sum."""
    if n < 0:
        raise ValueError("n must be >= 0")
    total = 0
    while n:
        total += n % p
        n //= p
    return total


# ---------------------------------------------------------------------------
# sparse bivariate polynomials over F_p


@dataclass(frozen=True)
class BivarPolyModP:
    p: int
    terms: tuple  # sorted ((deg_A, deg_B), residue) with residue in 1..p-1

    @classmethod
    def from_dict(cls, p, d):
        clean = tuple(sorted((k, int(v % p)) for k, v in d.items() if v % p))
        return cls(p, clean)

    @classmethod
    def zero(cls, p):
        return cls(p, ())

    @classmethod
    def const(cls, p, c):
        return cls.from_dict(p, {(0, 0): c})

    @classmethod
    def gen_A(cls, p):
        return cls.from_dict(p, {(1, 0): 1})

    @classmethod
    def gen_B(cls, p):
        return cls.from_dict(p, {(0, 1): 1})

    def is_zero(self):
        return not self.terms

    def to_json(self):
        return [[[da, db], str(r)] for (da, db), r in self.terms]


def bp_add(a: BivarPolyModP, b: BivarPolyModP) -> BivarPolyModP:
    d = dict(a.terms)
    for k, v in b.terms:
        d[k] = d.get(k, 0) + v
    return BivarPolyModP.from_dict(a.p, d)


def bp_mul(a: BivarPolyModP, b: BivarPolyModP) -> BivarPolyModP:
    d = {}
    for (da, db), u in a.terms:
        for (ea, eb), v in b.terms:
            k = (da + ea, db + eb)
            d[k] = d.get(k, 0) + u * v
    return BivarPolyModP.from_dict(a.p, d)


def bp_pow(a: BivarPolyModP, e: int) -> BivarPolyModP:
    if e < 0:
        raise ValueError("negative power")
    acc = BivarPolyModP.const(a.p, 1)
    base = a
    while e:
        if e & 1:
            acc = bp_mul(acc, base)
        base = bp_mul(base, base)
        e >>= 1
    return acc


def s_sequence(p: int, n_max: int):
    """s_0 = 1, s_1..s_p = 0, then s_n = A s_{n-p} + B s_{n-p-1}, over F_p."""
    A = BivarPolyModP.gen_A(p)
    B = BivarPolyModP.gen_B(p)
    seq = [BivarPolyModP.const(p, 1)]
    seq += [BivarPolyModP.zero(p)] * min(p, n_max)
    for n in range(p + 1, n_max + 1):
        seq.append(bp_add(bp_mul(A, seq[n - p]), bp_mul(B, seq[n - p - 1])))
    return seq[: n_max + 1]


def deep_recurrence_verify(p, r, coeffs, seq, t) -> bool:
    """Check the depth-t lift of a linear recurrence.

    Given s_n = sum_{i=1}^{r} A_i s_{n-i} over F_p, the lifted claim is
    s_n = sum_i A_i^{p^t} s_{n - i p^t} for all n with every index in
    range. coeffs lists A_1..A_r; seq is the sequence to check.
    """
    if len(coeffs) != r:
        raise ValueError(f"expected {r} coefficients, got {len(coeffs)}")
    q = p ** t
    start = r * q
    if start >= len(seq):
        raise InsufficientLength(
            f"no checkable indices: need length > {start}, got {len(seq)}"
        )
    lifted = [bp_pow(a, q) for a in coeffs]
    for n in range(start, len(seq)):
        acc = BivarPolyModP.zero(p)
        for i in range(1, r + 1):
            if not lifted[i - 1].is_zero():
                acc = bp_add(acc, bp_mul(lifted[i - 1], seq[n - i * q]))
        if acc != seq[n]:
            return False
    return True


# ---------------------------------------------------------------------------
# sparse rational polynomials in y_1..y_{p+1}


@dataclass(frozen=True)
class SymPolyQ:
    terms: tuple  # sorted (exponent tuple, QQ), trailing zeros trimmed

    @classmethod
    def from_dict(cls, d):
        clean = []
        for exps, c in d.items():
            if c == 0:
                continue
            while exps and exps[-1] == 0:
                exps = exps[:-1]
            clean.append((exps, c))
        return cls(tuple(sorted(clean)))

    @classmethod
    def const(cls, c):
        return cls.from_dict({(): QQ(c)})

    @classmethod
    def gen(cls, i):
        """The variable with 1-based index i."""
        e = (0,) * (i - 1) + (1,)
        return cls.from_dict({e: QQ(1)})

    def is_zero(self):
        return not self.terms

    def to_json(self):
        return [[list(e), str(c)] for e, c in self.terms]

    def min_coeff_val(self, p):
        vals = [int_val(c.numerator, p) - int_val(c.denominator, p) for _, c in self.terms]
        return min(vals) if vals else None


def sp_add(a: SymPolyQ, b: SymPolyQ) -> SymPolyQ:
    d = _packed(a)
    _packed_add(d, _packed(b))
    return SymPolyQ.from_dict(_unpacked(d))


def sp_scale(c, a: SymPolyQ) -> SymPolyQ:
    c = QQ(c)
    return SymPolyQ.from_dict({e: c * v for e, v in a.terms})


def sp_mul(a: SymPolyQ, b: SymPolyQ) -> SymPolyQ:
    top = sum(max((max(e, default=0) for e, _ in x.terms), default=0) for x in (a, b))
    if top >= 1 << _LANE:
        raise ValueError(f"exponent sum {top} overflows a {_LANE}-bit lane")
    return SymPolyQ.from_dict(_unpacked(_packed_mul(_packed(a), _packed(b))))


def sp_eval(a: SymPolyQ, values) -> QQ:
    """Evaluate at rational values for the 1-based variables."""
    total = QQ(0)
    for exps, c in a.terms:
        term = c
        for i, e in enumerate(exps):
            if e:
                term = term * values[i] ** e
        total = total + term
    return total


# ---------------------------------------------------------------------------
# the Newton-identity chain and the diagonal scaling map

# Chain polynomials, and SymPolyQ products and sums, multiply by adding
# exponent vectors, so internally each vector is packed into one integer
# with 16-bit lanes: vector addition becomes a single integer addition.
# _pack refuses an exponent a lane cannot hold, and sp_mul refuses a product
# whose exponent sums would carry into the next lane. The packed dicts are
# generic in their values: SymPolyQ keeps rationals in them, while a chain
# polynomial is a pair (numerators, den) of a dict of ints and one int
# den > 0 in lowest terms (gcd(den, every numerator) == 1), so the chain
# never builds a rational until _chain_poly converts it.

_LANE = 16
_chain_cache: dict = {}  # p -> (x_0..x_{p+1}, y_0..y_n), y_0 None


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


def _packed(a: SymPolyQ):
    return {_pack(e): c for e, c in a.terms}


def _packed_mul(a, b, out=None):
    """The product a*b of packed dicts, or out += a*b when out is given."""
    out = {} if out is None else out
    get = out.get
    items_b = list(b.items())
    for ka, ca in a.items():
        for kb, cb in items_b:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return _drop_zeros(out)


def _packed_add(a, b):
    """a += b for packed dicts."""
    get = a.get
    for k, c in b.items():
        a[k] = get(k, 0) + c
    return _drop_zeros(a)


def _drop_zeros(d):
    for k in [k for k, c in d.items() if c == 0]:
        del d[k]
    return d


def _newton_step(pairs, n):
    """(1/n) sum_i (-1)^(i-1) a_i b_i for the i-th pair (a_i, b_i) of chain
    polynomials, a_i the one with few terms.

    Both factors of every product are brought over L = lcm_i den(a_i) den(b_i)
    by scaling the terms of a_i, so the products and the sum run on ints."""
    L = math.lcm(*(da * db for (_, da), (_, db) in pairs))
    acc = {}
    for i, ((a, da), (b, db)) in enumerate(pairs):
        s = L // (da * db)
        if i % 2:
            s = -s
        _packed_mul({k: c * s for k, c in a.items()}, b, acc)
    den = L * n
    g = math.gcd(den, *acc.values())
    if g > 1:
        acc = {k: c // g for k, c in acc.items()}
        den //= g
    return acc, den


def _chain_dicts(p: int, n_max: int):
    """x_0..x_{p+1} and y_1..y_{n_max} as (numerators, den) pairs, cached per p."""
    xs, ys = _chain_cache.get(p, (None, None))
    if xs is None:
        gens = [({1 << (_LANE * i): 1}, 1) for i in range(p + 1)]
        xs = [({0: 1}, 1)]
        for n in range(1, p + 2):
            xs.append(_newton_step([(gens[i - 1], xs[n - i]) for i in range(1, n + 1)], n))
        ys = [None] + gens
    while len(ys) <= n_max:
        n = len(ys)
        ys.append(_newton_step([(xs[i], ys[n - i]) for i in range(1, p + 2)], 1))
    _chain_cache[p] = (xs, ys)
    return xs, ys


def _unpacked(d):
    return {_unpack(k): c for k, c in d.items()}


def _chain_poly(poly, p=None) -> SymPolyQ:
    """A (numerators, den) chain polynomial as a SymPolyQ. With p, apply
    the scaling map: variable i <= p picks up one factor of p per power;
    variable p+1 is left alone. Monomials keep their exponents."""
    nums, den = poly
    terms = []
    for k, c in nums.items():
        exps = _unpack(k)
        if p:
            c *= p ** sum(exps[:p])
        terms.append((exps, QQ(c, den)))
    terms.sort()
    return SymPolyQ(tuple(terms))


def newton_chain(p: int, n_max: int):
    """Return (x_0..x_{p+1}, y_1..y_{n_max}) as SymPolyQ tuples.

    x_n = (1/n) sum_{i=1}^{n} (-1)^(i-1) x_{n-i} y_i for n <= p+1, and
    y_n = sum_{i=1}^{p+1} (-1)^(i-1) x_i y_{n-i} for n >= p+2.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    xs, ys = _chain_dicts(p, max(n_max, p + 1))
    return tuple(map(_chain_poly, xs)), tuple(map(_chain_poly, ys[1 : n_max + 1]))


def phi_image(n: int, p: int) -> SymPolyQ:
    """Image of y_n under the scaling map, as a polynomial in t_1..t_{p+1}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _, ys = _chain_dicts(p, max(n, p + 1))
    return _chain_poly(ys[n], p)


def phi_image_x(n: int, p: int) -> SymPolyQ:
    """Image of x_n under the scaling map."""
    if not 0 <= n <= p + 1:
        raise ValueError(f"x_n exists for 0 <= n <= {p + 1}")
    xs, _ = _chain_dicts(p, p + 1)
    return _chain_poly(xs[n], p)


def sp_to_bivar_mod_p(a: SymPolyQ, p: int) -> BivarPolyModP:
    """Reduce mod p and read off a polynomial in the last two variables
    (t_p and t_{p+1}); any surviving term in an earlier variable is an
    error. Coefficients must be p-integral."""
    d = {}
    for exps, c in a.terms:
        num, den = c.numerator, c.denominator
        if den % p == 0:
            raise ValueError(f"coefficient {c} is not {p}-integral")
        res = (num % p) * pow(den % p, -1, p) % p
        if res == 0:
            continue
        if any(e != 0 for e in exps[: p - 1]):
            raise ValueError(f"term {exps} survives mod {p} outside (t_p, t_{p+1})")
        da = exps[p - 1] if len(exps) >= p else 0
        db = exps[p] if len(exps) >= p + 1 else 0
        k = (da, db)
        d[k] = (d.get(k, 0) + res) % p
    return BivarPolyModP.from_dict(p, d)
