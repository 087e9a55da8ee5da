"""Abelianization of finitely presented groups and automorphism reports.

H_1 of a presentation is the cokernel of the relator exponent matrix,
computed through Smith normal form. The automorphism group of the torsion
is then sized by the Hillar-Rhea formula for finite abelian groups, which
brute-force enumeration confirms on small groups. Knot-group style
presentations with H_1 = Z show how an abelian, finite automorphism report
coexists with an infinite H_1.
"""

from forms4d import (
    GroupPresentation,
    abelian_aut_order,
    abelianize,
    aut_bruteforce,
    galois_surrogate,
)
from forms4d.groupring import abelian_group

examples = {
    "trefoil <a,b | a^2 b^-3>": GroupPresentation.from_lists(2, [[1, 1, -2, -2, -2]]),
    "Klein bottle <a,b | abab^-1>": GroupPresentation.from_lists(2, [[1, 2, 1, -2]]),
    "cyclic <a | a^5>": GroupPresentation.from_lists(1, [[1] * 5]),
    "<a,b | a^2, b^2, (ab)^2>": GroupPresentation.from_lists(
        2, [[1, 1], [2, 2], [1, 2, 1, 2]]
    ),
}

for name, pres in examples.items():
    h1 = abelianize(pres)
    pieces = ["Z"] * h1.free_rank + [f"Z/{t}" for t in h1.torsion]
    print(f"{name}:  H_1 = {' + '.join(pieces) if pieces else 'trivial'}")
    report = galois_surrogate(pres)
    print(
        f"   automorphisms: torsion part order {report.torsion_aut_order}, "
        f"abelian={report.is_abelian}"
    )
    if report.free_rank_note:
        print("   note:", report.free_rank_note)

# Aut(G + H) = Aut(G) x Aut(H) needs coprime orders; Z/2 + Z/2 is the standard
# counterexample (Aut = GL_2(F_2) = S3), and the formula and brute force agree on it.
klein_four = aut_bruteforce(abelian_group([2, 2]))
print(
    f"\nZ/2 + Z/2: |Aut| = {klein_four.torsion_aut_order} by brute force, "
    f"{abelian_aut_order([2, 2])} by formula (abelian={klein_four.is_abelian}) "
    "-- the coprime splitting does not apply"
)
