"""
A negative overconvergence result from the genus-zero coordinate
================================================================

For p in {5, 7, 13} the curve X_0(p) has genus zero and the eta quotient
t = (eta(pz)/eta(z))^{24/(p-1)} generates its function field. Re-expanding a
weight-0 function in powers of t gives a second yardstick: membership at rate
1/(p+1) forces v_p(a_j) >= j/2 on the t-coefficients. For V(E_24)/E_24 at
p = 5 the tenth coefficient has valuation 4 < 5, so the function is NOT
overconvergent at rate 1/6, even though it is at 1/9 (and at 1/6 with
offset 1). The same dip shows up in the Katz expansion at index 30.
"""

from katzexp import (
    INF,
    QQ,
    certify_rate,
    eisenstein_series,
    expand_in_hauptmodul,
    hauptmodul_valuations,
    katz_split_function,
    qs_div,
)
from katzexp.series import apply_V

p = 5
N = 40
E24 = eisenstein_series(24, N)
f = qs_div(apply_V(E24, p), E24)

t_vals = hauptmodul_valuations(f, p, 11)
print("t-expansion valuations of V(E_24)/E_24:")
print("  j   :", " ".join("%3d" % j for j in range(11)))
print("  v_5 :", " ".join("%3d" % v for v in t_vals))
print("  floor", " ".join("%3d" % -(-j // 2) for j in range(11)), "(ceil j/2)")

bad = [j for j, v in enumerate(t_vals) if v != INF and QQ(v) < QQ(j, 2)]
print("floor violated first at j = %d, so no membership at rate 1/6" % bad[0])

# the linear t-coefficient carries the same denominator as the window
# coordinates of the weight-24 split
coeffs = expand_in_hauptmodul(f, p, 2)
from katzexp._rational import rational_to_str
print("a_0 = %s, a_1 = %s" % tuple(rational_to_str(c) for c in coeffs))

# sanity: Katz-side certificates tell the same story
ke = katz_split_function(f, p, 30)
for rho, c in ((QQ(1, 9), 0), (QQ(1, 6), 1), (QQ(1, 6), 0)):
    cert = certify_rate(ke, rho, c)
    where = "passes" if set(cert.verdicts) == {"pass"} else "fails at i=%d" % cert.first_failure
    print("rate %s offset %s: %s" % (rho, c, where))
