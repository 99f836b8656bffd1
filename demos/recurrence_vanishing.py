"""
Digit sums steer a mod-p recurrence
===================================

The Katz pieces of the e_n ladder obey, mod p, a linear recurrence of order
p + 1 in two formal variables. Its solution sequence s_n vanishes precisely
when the base-p digit sum of n(p-1) equals p-1, and the recurrence lifts to
depth p^t with coefficients raised to the p^t-th power. On the symmetric-
function side, the scaled Newton images of the power sums are p-integral and
are divisible by p on exactly the same digit-flagged set.
"""

from katzexp import (
    BivarPolyModP,
    deep_recurrence_verify,
    delta_p,
    phi_image,
    s_sequence,
)

p = 5
seq = s_sequence(p, 60)
flagged = [n for n in range(1, 61) if delta_p(n * (p - 1), p) == p - 1]
zero = [n for n in range(1, 61) if seq[n].is_zero()]
print("digit-flagged n <= 60:", flagged)
print("vanishing    n <= 60:", zero)
assert flagged == zero

# depth-1 and depth-2 lifts of the recurrence
coeffs = [BivarPolyModP.zero(p)] * (p - 1) + [
    BivarPolyModP.gen_A(p),
    BivarPolyModP.gen_B(p),
]
long_seq = s_sequence(p, 200)
for t in (1, 2):
    print("recurrence lift at depth 5^%d:" % t,
          deep_recurrence_verify(p, p + 1, coeffs, long_seq, t))

# symmetric-function mirror: divisibility of the scaled Newton images
# a SymPolyQ is in lowest terms, so p | Phi(y_n) iff p divides every numerator
divisible = [n for n in range(1, 41)
             if all(c % p == 0 for c in phi_image(n, p).terms.values())]
print("p | Phi(y_n) for n <= 40:", divisible)
print("matches the digit flag:",
      divisible == [n for n in range(1, 41) if delta_p(4 * n, p) == 4])
