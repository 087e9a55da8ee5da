import random
import time

import pytest

from forms4d.errors import CapExceededError
from forms4d.fpgroup import (
    AbelianizationResult,
    GroupPresentation,
    abelianize,
    aut_bruteforce,
    galois_surrogate,
)
from forms4d.groupring import FiniteGroup, abelian_group, primary_invariants, symmetric_group_s3
from forms4d.nt import abelian_aut_order, euler_phi, factorize

from support import relabelled_cayley_table, unfactorable_presentation

# non-cyclic groups whose brute-force enumeration fits the candidate budget
NON_CYCLIC = (
    [2, 2], [2, 4], [2, 2, 2], [3, 3], [2, 6], [4, 4], [2, 8], [2, 2, 4], [3, 9],
    [5, 5], [2, 2, 2, 2], [6, 6], [3, 3, 3], [4, 8], [2, 12], [2, 4, 4],
)

TREFOIL = GroupPresentation.from_lists(2, [[1, 1, -2, -2, -2]])
KLEIN_BOTTLE = GroupPresentation.from_lists(2, [[1, 2, 1, -2]])
Z5 = GroupPresentation.from_lists(1, [[1, 1, 1, 1, 1]])


def test_presentation_validation():
    with pytest.raises(ValueError):
        GroupPresentation.from_lists(2, [[0]])
    with pytest.raises(ValueError):
        GroupPresentation.from_lists(2, [[3]])
    with pytest.raises(ValueError):
        GroupPresentation.from_lists(-1, [])


def test_abelianize_golden_cases():
    free = abelianize(GroupPresentation.from_lists(2, []))
    assert (free.free_rank, free.torsion) == (2, ())

    trefoil = abelianize(TREFOIL)
    assert (trefoil.free_rank, trefoil.torsion) == (1, ())

    klein = abelianize(KLEIN_BOTTLE)
    assert (klein.free_rank, klein.torsion) == (1, (2,))

    z5 = abelianize(Z5)
    assert (z5.free_rank, z5.torsion) == (0, (5,))
    assert z5.is_finite and z5.torsion_order == 5


def test_abelianize_trivial_presentations():
    empty = abelianize(GroupPresentation.from_lists(0, []))
    assert (empty.free_rank, empty.torsion) == (0, ())
    killed = abelianize(GroupPresentation.from_lists(1, [[1]]))
    assert (killed.free_rank, killed.torsion) == (0, ())


def test_abelianize_is_presentation_order_independent():
    rng = random.Random(12)
    base = GroupPresentation.from_lists(
        3, [[1, 1, -2], [3, 3, 3, 2], [1, -3, 1, -3]]
    )
    expected = abelianize(base)
    for _ in range(10):
        relators = list(base.relators)
        rng.shuffle(relators)
        perm = list(range(1, 4))
        rng.shuffle(perm)
        relabeled = [
            [int(perm[abs(x) - 1] * (1 if x > 0 else -1)) for x in word]
            for word in relators
        ]
        shuffled = GroupPresentation.from_lists(3, relabeled)
        assert abelianize(shuffled) == expected


def test_abelianize_ignores_consequence_relators():
    base = GroupPresentation.from_lists(2, [[1, 1, 2], [2, 2]])
    expected = abelianize(base)
    # w r1 w^-1 r2 is a consequence of r1 and r2; exponent sums add up
    conjugator = [1, -2]
    consequence = conjugator + [1, 1, 2] + [-x for x in reversed(conjugator)] + [2, 2]
    extended = GroupPresentation.from_lists(2, list(base.relators) + [consequence])
    assert abelianize(extended) == expected


def test_abelianization_result_validation():
    with pytest.raises(ValueError):
        AbelianizationResult(free_rank=0, torsion=(3, 5))  # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianizationResult(free_rank=0, torsion=(1,))


def test_aut_bruteforce_cyclic_and_klein_four():
    assert aut_bruteforce(abelian_group([5])).torsion_aut_order == 4
    assert aut_bruteforce(abelian_group([5])).is_abelian
    klein_four = aut_bruteforce(abelian_group([2, 2]))
    assert klein_four.torsion_aut_order == 6
    assert not klein_four.is_abelian
    trivial = aut_bruteforce(abelian_group([]))
    assert trivial.torsion_aut_order == 1 and trivial.is_abelian


def test_aut_bruteforce_on_explicit_cayley_table():
    from forms4d.groupring import FiniteGroup

    z6 = FiniteGroup.from_cayley_table(
        [[(i + j) % 6 for j in range(6)] for i in range(6)]
    )
    report = aut_bruteforce(z6)
    assert report.torsion_aut_order == 2 and report.is_abelian


def invariant_chains(max_order):
    """Every abelian group of order <= max_order, as its chain d_1 | d_2 | ..."""
    out = []

    def rec(prefix, order):
        out.append(prefix)
        for d in range(prefix[-1] if prefix else 2, max_order // order + 1):
            if not prefix or d % prefix[-1] == 0:
                rec(prefix + [d], order * d)

    rec([], 1)
    return out


def test_aut_bruteforce_on_relabelled_cayley_tables():
    rng = random.Random(24)
    chains = invariant_chains(24)
    assert len(chains) == 37  # the abelian groups of order 1..24
    for chain in chains:
        table = abelian_group(chain).table
        for _ in range(3):
            group = FiniteGroup.from_cayley_table(relabelled_cayley_table(table, rng))
            factored = sorted(p**e for m in chain for p, e in factorize(m))
            assert primary_invariants(group) == factored, chain
            report = aut_bruteforce(group)
            assert report.torsion_aut_order == abelian_aut_order(chain), chain
            cyclic = any(group.element_order(g) == group.order for g in range(group.order))
            assert report.is_abelian == cyclic, chain


def test_aut_bruteforce_caps():
    with pytest.raises(CapExceededError):
        aut_bruteforce(abelian_group([201]))
    with pytest.raises(ValueError):
        aut_bruteforce(symmetric_group_s3())
    # order 128 is under the order cap but the candidate space explodes
    with pytest.raises(CapExceededError):
        aut_bruteforce(abelian_group([2] * 7))


def test_aut_bruteforce_cyclic_is_abelian():
    for m in range(2, 51):
        report = aut_bruteforce(abelian_group([m]))
        assert report.is_abelian, m
        assert report.torsion_aut_order == euler_phi(m)


def test_aut_coprime_formula():
    # coprime cyclic factors: Aut splits into abelian unit groups
    assert abelian_aut_order([3, 5]) == 8
    assert abelian_aut_order([7]) == 6
    assert abelian_aut_order([4, 9, 5]) == 2 * 6 * 4
    assert abelian_aut_order([]) == 1
    # Klein four: GL_2(F_2) is S3, not the totient product 1
    assert abelian_aut_order([2, 2]) == 6


def test_formula_matches_bruteforce_on_coprime_lists():
    for moduli in ([2], [3], [2, 3], [4, 9], [5, 8], [3, 5], [2, 9, 5]):
        brute = aut_bruteforce(abelian_group(moduli))
        assert brute.torsion_aut_order == abelian_aut_order(moduli), moduli
        assert brute.is_abelian, moduli


def test_formula_matches_bruteforce_on_non_cyclic_groups():
    start = time.perf_counter()
    for moduli in NON_CYCLIC:
        brute = aut_bruteforce(abelian_group(moduli))
        assert brute.torsion_aut_order == abelian_aut_order(moduli), moduli
        assert not brute.is_abelian, moduli
    assert abelian_aut_order([2, 2, 2, 2]) == 20160  # |GL_4(F_2)|
    assert abelian_aut_order([3, 3, 3]) == 11232  # |GL_3(F_3)|
    assert time.perf_counter() - start < 5


def test_galois_surrogate_finite_cases():
    z5 = galois_surrogate(Z5)
    assert z5.torsion_aut_order == 4 and z5.is_abelian and z5.free_rank_note is None

    klein_four = galois_surrogate(
        GroupPresentation.from_lists(2, [[1, 1], [2, 2], [1, 2, 1, 2]])
    )
    assert klein_four.torsion_aut_order == 6
    assert not klein_four.is_abelian


def test_galois_surrogate_infinite_h1():
    trefoil = galois_surrogate(TREFOIL)
    assert trefoil.torsion_aut_order == 1
    assert trefoil.is_abelian
    assert trefoil.free_rank_note is not None and "Z/2" in trefoil.free_rank_note

    free2 = galois_surrogate(GroupPresentation.from_lists(2, []))
    assert not free2.is_abelian
    assert "GL_2" in free2.free_rank_note


def test_galois_surrogate_mixed_free_and_torsion():
    pres = GroupPresentation.from_lists(3, [[3, 3]])
    report = galois_surrogate(pres)
    assert report.torsion_aut_order == 1  # Aut(Z/2) is trivial
    assert not report.is_abelian
    assert "GL_2" in report.free_rank_note


def test_galois_surrogate_large_cyclic_torsion_uses_formula():
    # torsion order 500 is over the brute-force cap but cyclic
    big = galois_surrogate(GroupPresentation.from_lists(1, [[1] * 500]))
    assert big.torsion_aut_order == euler_phi(500)
    assert big.is_abelian


def test_galois_surrogate_large_noncyclic_torsion_uses_formula():
    # Z/256 + Z/256: torsion order 65536, Aut = GL_2(Z/256)
    pres = GroupPresentation.from_lists(2, [[1] * 256, [2] * 256])
    report = galois_surrogate(pres)
    assert report.torsion_aut_order == 2 ** 28 * 6 == 1_610_612_736
    assert not report.is_abelian
    # (Z/6)^3 splits into GL_3(F_2) x GL_3(F_3)
    cube = galois_surrogate(GroupPresentation.from_lists(3, [[1] * 6, [2] * 6, [3] * 6]))
    assert cube.torsion_aut_order == 168 * 11232
    assert not cube.is_abelian


def test_galois_surrogate_small_torsion_matches_bruteforce():
    for moduli in ([2, 2], [2, 4], [3, 3], [2, 6], [2, 2, 2], [5], [12], [3, 5], [2]):
        words = [[i + 1] * m for i, m in enumerate(moduli)]
        report = galois_surrogate(GroupPresentation.from_lists(len(moduli), words))
        brute = aut_bruteforce(abelian_group(moduli))
        assert (report.torsion_aut_order, report.is_abelian) == (
            brute.torsion_aut_order, brute.is_abelian), moduli


def test_galois_surrogate_unfactorable_torsion_hits_the_cap():
    doc = unfactorable_presentation()
    pres = GroupPresentation.from_lists(doc["generators"], doc["relators"])
    assert abelianize(pres).torsion == (13238079721605081515992758642,)
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="23919106731586021 > 2\\^40"):
        galois_surrogate(pres)
    assert time.perf_counter() - start < 5
