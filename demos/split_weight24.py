"""
Splitting the weight-24 Eisenstein series at p = 5
==================================================

E_24 decomposes along powers of E_4 with window pieces b_0, b_3, b_6 (the
windows between those indices are empty at p = 5). The two nontrivial window
coordinates are rationals with denominator 236364091, and both pieces have
5-adic valuation 4. The sharp rate 5/6 without offset fails exactly at the
top index, which is why the published statement carries the offset.
"""

from katzexp import (
    QQ,
    certify_rate,
    eisenstein_series,
    katz_split_classical,
    qprec_for_split,
    qs_div,
    qs_pow,
    qs_sub,
    qs_val,
    reconstruct,
)
from katzexp._rational import rational_to_str

p = 5
N = qprec_for_split(p, 6)
E24 = eisenstein_series(24, N)
ke = katz_split_classical(E24, 6, p)

print("window pieces of E_24 at p = 5")
for term in ke.terms:
    marker = " (structural zero)" if term.structural_zero else ""
    coords = ", ".join(rational_to_str(c) for c in term.miller_coords)
    print("  i=%d  v_5(b_i) = %-3s  coords = [%s]%s"
          % (term.index, term.val, coords, marker))

# reconstruct() sums b_i / E_4^i, i.e. the weight-0 function E_24 / E_4^6
rebuilt = reconstruct(ke)
e_6 = qs_div(E24, qs_pow(eisenstein_series(4, N), 6))
assert qs_val(qs_sub(rebuilt, e_6), p) == float("inf")
print("reconstruction matches E_24 / E_4^6 on all %d computed terms" % rebuilt.prec)

for c in (1, 0):
    cert = certify_rate(ke, QQ(5, 6), c)
    where = "all pass" if set(cert.verdicts) == {"pass"} else "first failure at i=%d" % cert.first_failure
    print("rate 5/6, offset %d: %s" % (c, where))
