"""
The weight-0 Eisenstein family and its Frobenius ratio
======================================================

A p-adic weight s that is not an integer weight still has an ordinary
Eisenstein series attached to it, computable two ways: as a p-adic limit of
classical stabilizations along weights k -> s, or directly from generalized
Bernoulli numbers of Teichmuller powers. The package builds both and insists
they agree before handing the member out. The ratio V(g)/g of such a member
is overconvergent at rate 1/6 with offset 1, and (for digit-admissible s)
even without the offset, up to the indices the working precision can decide.
"""

from katzexp import (
    QQ,
    agreement_depth,
    certify_rate,
    classical_limit_weight,
    estar_family,
    estar_family_classical,
    estar_family_teichmuller,
    gen_bernoulli_tau,
    katz_split_function,
    qs_div,
    qs_reduce_mod,
)
from katzexp.series import apply_V

p, s, M, N = 5, 1, 4, 50

# the two constructions, then the cross-checked member
direct = estar_family_teichmuller(s, p, N, M)
limit = estar_family_classical(s, p, N, M)
# both are known mod p^M only, so a depth of M or more (inf included) reads "at least M"
depth = agreement_depth(direct, limit, p)
print("construction agreement depth: %s digits (need >= %d)"
      % ("at least %d" % M if depth >= M else depth, M))

g = estar_family(s, p, N, M)
print("member at s=%d, known mod %d, weight used %d"
      % (s, g.modulus, classical_limit_weight(s, p, M)))
print("first coefficients mod 5^4:", [int(c) for c in g.coeffs[:8]])

# the generalized Bernoulli value driving the constant normalization
print("tau-twisted Bernoulli number at s=1:", gen_bernoulli_tau(1, p, M))

# certify the Frobenius ratio
# V(g)/g of a series known mod p^M is known mod p^M, and the split reads it
f = qs_reduce_mod(qs_div(apply_V(g, p), g), p ** M)
ke = katz_split_function(f, p, 24)
for rho, c in ((QQ(1, 6), 1), (QQ(1, 9), 0), (QQ(1, 6), 0)):
    cert = certify_rate(ke, rho, c)
    inconclusive = [i for i, v in enumerate(cert.verdicts) if v == "inconclusive"]
    line = "all pass" if set(cert.verdicts) == {"pass"} else (
        "fails at i=%d" % cert.first_failure if cert.first_failure is not None
        else "no failures, inconclusive at %r" % inconclusive)
    print("rate %s offset %s: %s" % (rho, c, line))
