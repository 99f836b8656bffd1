"""
Ordinary projector orbits
=========================

Iterating f -> H(f * E_{p-1}^n) / E_{p-1}^n on the constant 1 converges
p-adically to the unit-root Eisenstein ratio when H's eigenvalue pattern is a
genuine projector. For p = 5 the polynomial is U itself and each iteration
gains seven 5-adic digits. At p = 13 the classical two-term polynomial
11U(U + 5) has its eigenvalue congruent to 1 only modulo 13, so its orbit
never sharpens past one digit; rescaling by the unit 1/66 fixes that without
changing the kernel.
"""

from katzexp import (
    HPolynomial,
    QQ,
    U_POLY,
    agreement_depth,
    eis_ratio,
    iterate_H,
    projector_poly,
)

# p = 5: the one-term projector
N = 1250
orbit = iterate_H(U_POLY, 2, 5, 3, N)
_, estar_2 = eis_ratio(2, 5, N // 5)
depths = [agreement_depth(g, estar_2, 5) for g in orbit]
print("p=5, n=2: agreement depths per iteration:", depths)

# p = 13: raw polynomial vs unit-normalized
raw = projector_poly(13)
print("stock p=13 polynomial:", raw)
normalized = HPolynomial((QQ(5, 6), QQ(1, 6)))
N13 = 2 * 13 ** 2
_, estar_13 = eis_ratio(1, 13, N13 // 13)
for h, name in ((raw, "raw"), (normalized, "normalized")):
    orbit = iterate_H(h, 1, 13, 1, N13)
    print("%s orbit depth after one step: %s"
          % (name, agreement_depth(orbit[0], estar_13, 13)))
