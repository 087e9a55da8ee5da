import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forms4d.errors import CapExceededError
from forms4d.exactla import IntMatrix, determinant
from forms4d.groupring import (
    FiniteGroup,
    GroupRingElement,
    abelian_group,
    conjugate,
    frobenius_form,
    gr_mul,
    primary_invariants,
    regular_representation,
    symmetric_group_s3,
    wedderburn_decompose,
)
from forms4d.quadform import bilinear_value

from support import abelian_table_by_digits


def random_ring_element(rng, group, bound=5):
    return GroupRingElement.from_coeffs(
        group, [rng.randint(-bound, bound) for _ in range(group.order)]
    )


def frobenius_pairing(form, x, y):
    return bilinear_value(form.gram, x.coeffs, y.coeffs)


def test_abelian_group_construction():
    assert abelian_group([]).order == 1
    z3 = abelian_group([3])
    assert z3.order == 3 and z3.is_abelian()
    z15 = abelian_group([3, 5])
    assert z15.order == 15
    assert any(z15.element_order(g) == 15 for g in range(15))  # coprime sum is cyclic


def test_abelian_group_rejects_bad_input():
    with pytest.raises(ValueError):
        abelian_group([1, 3])
    with pytest.raises(CapExceededError, match="group order 513 exceeds the cap 512"):
        abelian_group([513])
    with pytest.raises(CapExceededError, match="group order 1024 exceeds the cap 512"):
        abelian_group([4, 256])
    # a longer list stops at the first partial product past the cap and names only that
    with pytest.raises(CapExceededError) as info:
        abelian_group([2] * 14_000)
    assert str(info.value) == (
        "group order exceeds the cap 512: the first 10 of 14000 invariants "
        "already multiply to 1024"
    )


def within_order(invariants, cap=256):
    """The longest prefix of the list whose product stays within cap."""
    order = 1
    for k, m in enumerate(invariants):
        order *= m
        if order > cap:
            return invariants[:k]
    return invariants


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(2, 16), max_size=6).map(within_order))
def test_abelian_group_matches_digit_oracle(invariants):
    group = abelian_group(invariants)
    assert group.table == abelian_table_by_digits(invariants)
    assert group.abelian_invariants == tuple(invariants)


def test_primary_invariants_rejects_nonabelian():
    with pytest.raises(ValueError, match="abelian"):
        primary_invariants(symmetric_group_s3())


def test_s3_shape():
    s3 = symmetric_group_s3()
    assert s3.order == 6
    assert not s3.is_abelian()
    assert sorted(s3.element_order(g) for g in range(6)) == [1, 2, 2, 2, 3, 3]


def test_cayley_table_validation():
    with pytest.raises(ValueError):
        FiniteGroup.from_cayley_table([[0, 1], [1, 1]])  # row not a permutation
    with pytest.raises(ValueError):
        FiniteGroup.from_cayley_table([[1, 0], [0, 1]])  # 0 not the identity
    with pytest.raises(CapExceededError):
        FiniteGroup.from_cayley_table([[0] * 25] * 25)
    # Z/4 given explicitly round-trips
    z4 = FiniteGroup.from_cayley_table(
        [[(i + j) % 4 for j in range(4)] for i in range(4)]
    )
    assert z4.element_order(1) == 4


def test_gr_mul_identity_and_small_products():
    rng = random.Random(1)
    z2 = abelian_group([2])
    e = GroupRingElement.basis(z2, 0)
    g = GroupRingElement.basis(z2, 1)
    assert gr_mul(e + g, e - g).coeffs == (0, 0)

    z3 = abelian_group([3])
    s = GroupRingElement.from_coeffs(z3, [1, 1, 1])
    assert gr_mul(s, s) == s.scaled(3)

    s3 = symmetric_group_s3()
    x = random_ring_element(rng, s3)
    assert gr_mul(x, GroupRingElement.one(s3)) == x
    with pytest.raises(ValueError):
        gr_mul(e, GroupRingElement.one(z3))


def test_gr_mul_is_associative():
    rng = random.Random(2)
    s3 = symmetric_group_s3()
    for _ in range(30):
        x, y, z = (random_ring_element(rng, s3, 4) for _ in range(3))
        assert gr_mul(gr_mul(x, y), z) == gr_mul(x, gr_mul(y, z))


def test_conjugation_trivial_on_abelian_groups():
    rng = random.Random(3)
    z15 = abelian_group([3, 5])
    x = random_ring_element(rng, z15)
    assert all(conjugate(x, g) == x for g in range(15))


def test_conjugation_permutes_transpositions():
    s3 = symmetric_group_s3()
    transpositions = [g for g in range(6) if s3.element_order(g) == 2]
    three_cycle = next(g for g in range(6) if s3.element_order(g) == 3)
    out = conjugate(GroupRingElement.basis(s3, transpositions[0]), three_cycle)
    assert sorted(out.coeffs) == [0, 0, 0, 0, 0, 1]
    image = out.coeffs.index(1)
    assert s3.element_order(image) == 2


def test_conjugation_composition_law():
    # applying the g1-conjugation and then the g2-conjugation is the
    # (g1*g2)-conjugation
    rng = random.Random(4)
    s3 = symmetric_group_s3()
    for _ in range(50):
        x = random_ring_element(rng, s3)
        g1, g2 = rng.randrange(6), rng.randrange(6)
        assert conjugate(conjugate(x, g1), g2) == conjugate(x, s3.mul(g1, g2))


def test_conjugation_is_ring_automorphism():
    rng = random.Random(5)
    s3 = symmetric_group_s3()
    for _ in range(30):
        x, y = random_ring_element(rng, s3), random_ring_element(rng, s3)
        g = rng.randrange(6)
        assert conjugate(gr_mul(x, y), g) == gr_mul(conjugate(x, g), conjugate(y, g))


def test_regular_representation_basics():
    z3 = abelian_group([3])
    assert regular_representation(GroupRingElement.one(z3)) == IntMatrix.identity(3)
    gen = regular_representation(GroupRingElement.basis(z3, 1))
    assert gen.to_rows() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def test_regular_representation_is_multiplicative():
    rng = random.Random(6)
    s3 = symmetric_group_s3()
    for _ in range(40):
        x, y = random_ring_element(rng, s3, 4), random_ring_element(rng, s3, 4)
        assert regular_representation(gr_mul(x, y)) == (
            regular_representation(x) @ regular_representation(y)
        )


def test_regular_representation_trace():
    rng = random.Random(7)
    for group in (abelian_group([2]), abelian_group([3, 5]), symmetric_group_s3()):
        for _ in range(100):
            x = random_ring_element(rng, group)
            m = regular_representation(x)
            trace = sum(m.at(i, i) for i in range(group.order))
            assert trace == group.order * x.coeffs[0]


def test_frobenius_gram_fixtures():
    assert frobenius_form(abelian_group([2])).gram.to_rows() == [[2, 0], [0, 2]]
    assert frobenius_form(abelian_group([3])).gram.to_rows() == [
        [3, 0, 0],
        [0, 0, 3],
        [0, 3, 0],
    ]
    assert frobenius_form(abelian_group([])).gram.to_rows() == [[1]]


def test_frobenius_identity_and_nondegeneracy():
    rng = random.Random(8)
    groups = [
        abelian_group([2]),
        abelian_group([6]),
        abelian_group([3, 5]),
        symmetric_group_s3(),
    ]
    for group in groups:
        form = frobenius_form(group)
        assert determinant(form.gram) != 0
        for _ in range(100):
            x, y, z = (random_ring_element(rng, group, 4) for _ in range(3))
            assert frobenius_pairing(form, gr_mul(x, y), z) == frobenius_pairing(
                form, x, gr_mul(y, z)
            )


def test_frobenius_matches_regular_representation_trace():
    # dual route: the closed-form Gram against the definitional trace
    rng = random.Random(9)
    for group in (abelian_group([4]), symmetric_group_s3()):
        form = frobenius_form(group)
        for _ in range(30):
            x, y = random_ring_element(rng, group), random_ring_element(rng, group)
            m = regular_representation(gr_mul(x, y))
            assert frobenius_pairing(form, x, y) == sum(
                m.at(i, i) for i in range(group.order)
            )


def test_conjugation_preserves_frobenius_form():
    rng = random.Random(10)
    s3 = symmetric_group_s3()
    form = frobenius_form(s3)
    for _ in range(50):
        x, y = random_ring_element(rng, s3), random_ring_element(rng, s3)
        g = rng.randrange(6)
        assert frobenius_pairing(form, conjugate(x, g), conjugate(y, g)) == (
            frobenius_pairing(form, x, y)
        )


def test_symmetry_checks():
    assert frobenius_form(abelian_group([6])).gram.is_symmetric()
    # symmetric even for the nonabelian group: gh = e iff hg = e
    assert frobenius_form(symmetric_group_s3()).gram.is_symmetric()
    assert not IntMatrix.from_rows([[0, 1], [-1, 0]]).is_symmetric()


def test_wedderburn_census_small():
    assert wedderburn_decompose(abelian_group([])).pairs == ((1, 1),)
    w3 = wedderburn_decompose(abelian_group([3]))
    assert w3.pairs == ((1, 1), (3, 1))
    assert w3.primary_fields == ((3, 1),)
    assert any("d = 1" in note for note in w3.notes)
    w15 = wedderburn_decompose(abelian_group([3, 5]))
    assert w15.pairs == ((1, 1), (3, 1), (5, 1), (15, 1))
    assert w15.primary_fields == ((3, 1), (5, 1))
    assert any("composite" in note for note in w15.notes)


def test_wedderburn_census_non_distinct_primes():
    w = wedderburn_decompose(abelian_group([2, 2]))
    assert w.pairs == ((1, 1), (2, 3))
    assert w.primary_fields == ((2, 2),)
    assert any("repeat" in note for note in w.notes)
    w4 = wedderburn_decompose(abelian_group([4]))
    assert w4.pairs == ((1, 1), (2, 1), (4, 1))
    assert w4.primary_fields == ((4, 1),)
    assert any("not prime" in note for note in w4.notes)


def test_wedderburn_dimension_count():
    from forms4d.cyclotomic import euler_phi

    fixtures = [[2], [3], [4], [2, 2], [6], [12], [2, 4], [30], [8, 8], [100]]
    for invs in fixtures:
        group = abelian_group(invs)
        w = wedderburn_decompose(group)
        assert sum(m * euler_phi(d) for d, m in w.pairs) == group.order


def test_wedderburn_rejects_nonabelian():
    with pytest.raises(ValueError):
        wedderburn_decompose(symmetric_group_s3())

