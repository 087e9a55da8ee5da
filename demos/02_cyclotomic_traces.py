"""Cyclotomic integers and their trace form.

Z[zeta_n] has the power basis 1, zeta, ..., zeta^(phi(n)-1) modulo the n-th
cyclotomic polynomial. The trace of an element is the trace of its
multiplication matrix on that basis, and tr(x*y) makes the ring a symmetric
bilinear lattice. tr(zeta^k) is the Ramanujan sum mu(n/g) phi(n)/phi(n/g)
with g = gcd(n, k), so the trace-form Gram needs no multiplications at all.
"""

from forms4d import (
    CyclotomicElement,
    cyc_mul,
    cyc_trace,
    cyclotomic_polynomial,
    invariants,
    trace_form_gram,
)
from forms4d.quadform import BilinearForm

for n in (1, 2, 3, 4, 6, 12):
    print(f"Phi_{n}(x) = {cyclotomic_polynomial(n)}")

z = CyclotomicElement.zeta(12)
x = cyc_mul(z, z) + CyclotomicElement.one(12)   # 1 + zeta^2
print("\nin Z[zeta_12]: (1 + zeta^2) has coordinates", x.coeffs)
print("exact trace:", cyc_trace(x))

print("\ntrace-form Gram matrices tr(zeta^i * zeta^j):")
for n in (3, 4, 5):
    gram = trace_form_gram(n)
    inv = invariants(BilinearForm(gram))
    print(f"  n={n}: {gram.to_rows()}  det={inv.determinant} signature={inv.signature}")
