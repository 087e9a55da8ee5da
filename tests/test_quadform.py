import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forms4d.errors import CapExceededError
from forms4d.exactla import IntMatrix, RatMatrix
from forms4d.quadform import (
    SHORT_VECTOR_NODE_CAP,
    BilinearForm,
    Diag,
    Hyperbolic,
    Pfister,
    WittExpression,
    bilinear_value,
    direct_sum,
    e8_form,
    from_witt,
    invariants,
    is_diagonalizable_over_Z,
    odd_prime_trace_form,
    parse_witt,
    polarize,
    quadratic_value,
    short_vectors,
    two_power_signature_values,
    two_power_trace_form,
)

from support import (
    conjugated,
    diagonalizable_by_search,
    random_unimodular,
    short_vectors_by_box,
)

HYPERBOLIC = BilinearForm(IntMatrix.from_rows([[0, 1], [1, 0]]))


def test_form_requires_symmetric_gram():
    with pytest.raises(ValueError):
        BilinearForm(IntMatrix.from_rows([[0, 1], [-1, 0]]))


def witt_text(term) -> str:
    if isinstance(term, Diag):
        return f"{term.count}<{term.sign}>"
    if isinstance(term, Hyperbolic):
        return f"{term.count}xH"
    return f"2^{term.n}<1>"


witt_terms = st.one_of(
    st.builds(Diag, st.integers(1, 99), st.sampled_from([1, -1])),
    st.builds(Hyperbolic, st.integers(1, 99)),
    st.builds(Pfister, st.integers(1, 12)),
)


@given(st.lists(witt_terms, min_size=1, max_size=6), st.sampled_from(["+", " + ", "+  "]))
def test_parse_witt_round_trip(terms, sep):
    assert parse_witt(sep.join(witt_text(t) for t in terms)).terms == tuple(terms)


def test_parse_witt():
    expr = parse_witt("7<1> + H + 2^4<1>")
    assert expr.terms == (Diag(7, 1), Hyperbolic(1), Pfister(4))
    assert parse_witt("3xH").terms == (Hyperbolic(3),)
    assert parse_witt("<-1>").terms == (Diag(1, -1),)
    with pytest.raises(ValueError):
        parse_witt("7<2>")
    with pytest.raises(ValueError):
        parse_witt("")


def test_from_witt_blocks():
    assert from_witt(parse_witt("7<1>")).gram == IntMatrix.identity(7)
    assert from_witt(parse_witt("H")).gram.to_rows() == [[0, 1], [1, 0]]
    assert from_witt(parse_witt("<1> + <-1>")).gram.to_rows() == [[1, 0], [0, -1]]
    assert from_witt(parse_witt("2^4<1>")).gram == IntMatrix.identity(16)
    combo = from_witt(parse_witt("2<1> + H"))
    assert combo.gram.to_rows() == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


def test_from_witt_rejects_empty():
    with pytest.raises(ValueError):
        from_witt(WittExpression(()))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_odd_prime_form_matches_witt_notation(p):
    assert from_witt(parse_witt(f"{p}<1>")) == odd_prime_trace_form(p)


def test_odd_prime_form_shape():
    f = odd_prime_trace_form(7)
    inv = invariants(f)
    assert inv.signature == (7, 0, 0)
    assert inv.parity == "odd"
    assert inv.determinant == 1
    assert inv.definiteness == "positive"


@pytest.mark.parametrize("bad", [2, 4, 9, 1, -3])
def test_odd_prime_form_rejects_non_odd_primes(bad):
    with pytest.raises(ValueError):
        odd_prime_trace_form(bad)


@pytest.mark.parametrize("n", [4, 5])
def test_two_power_form_literal_ranges(n):
    f = two_power_trace_form(n)
    assert f.rank == 2 ** (n + 1)
    diag = [f.gram.at(i, i) for i in range(f.rank)]
    assert diag.count(1) == 3 * 2 ** (n - 1) - 1
    assert diag.count(-1) == 2 ** (n - 1) + 1
    inv = invariants(f)
    assert inv.parity == "odd"
    assert inv.signature_value == 2 ** n - 2


def test_two_power_signature_values():
    assert two_power_signature_values(4) == (16, 14)
    assert two_power_signature_values(5) == (32, 30)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_two_power_form_rejects_small_exponents(n):
    with pytest.raises(ValueError):
        two_power_trace_form(n)


def test_polarize_is_identity_on_gram_data():
    eye = RatMatrix.identity(2)
    assert polarize(eye) == eye
    e8_rat = RatMatrix.from_int_matrix(e8_form().gram)
    assert polarize(e8_rat) == e8_rat


def test_polarize_half_integer_case():
    # q(x) = x1^2 + x1 x2 + x2^2 as a symmetric Gram
    gram = RatMatrix.from_rows([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    b = polarize(gram)
    assert b.at(0, 1) == Fraction(1, 2)
    assert b == gram


def test_polarize_rejects_asymmetric():
    with pytest.raises(ValueError):
        polarize(IntMatrix.from_rows([[1, 2], [3, 1]]))


def test_polarization_identity_random():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 5)
        raw = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
        sym = [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
        gram = RatMatrix.from_rows(sym)
        b = polarize(gram)
        assert b == gram
        for _ in range(5):
            x = [rng.randint(-6, 6) for _ in range(n)]
            y = [rng.randint(-6, 6) for _ in range(n)]
            s = [a + c for a, c in zip(x, y)]
            lhs = 2 * bilinear_value(b, x, y)
            rhs = quadratic_value(gram, s) - quadratic_value(gram, x) - quadratic_value(gram, y)
            assert lhs == rhs


def test_direct_sum_additivity():
    assert direct_sum(
        BilinearForm(IntMatrix.identity(1)), BilinearForm(IntMatrix.identity(1))
    ).gram == IntMatrix.identity(2)
    ee = direct_sum(e8_form(), e8_form())
    assert invariants(ee).signature == (16, 0, 0)
    assert invariants(ee).determinant == 1
    mixed = direct_sum(HYPERBOLIC, BilinearForm(IntMatrix.identity(1)))
    assert invariants(mixed).signature == (2, 1, 0)
    assert invariants(mixed).determinant == -1


def test_invariants_fixtures():
    e8 = invariants(e8_form())
    assert (e8.parity, e8.determinant, e8.signature, e8.unimodular, e8.definiteness) == (
        "even", 1, (8, 0, 0), True, "positive",
    )
    h = invariants(HYPERBOLIC)
    assert (h.parity, h.determinant, h.signature, h.definiteness) == (
        "even", -1, (1, 1, 0), "indefinite",
    )
    eye3 = invariants(BilinearForm(IntMatrix.identity(3)))
    assert (eye3.parity, eye3.determinant, eye3.signature) == ("odd", 1, (3, 0, 0))
    assert invariants(BilinearForm(IntMatrix.from_rows([[0]]))).definiteness == "degenerate"


def test_invariants_rank_256_diagonal_gram_is_fast():
    # the trace-form model of conductor 2^8: 191 entries +1, 65 entries -1
    f = two_power_trace_form(7)
    start = time.perf_counter()
    inv = invariants(f)
    assert time.perf_counter() - start < 0.5
    assert (inv.rank, inv.signature, inv.determinant, inv.parity, inv.unimodular,
            inv.definiteness) == (256, (191, 65, 0), -1, "odd", True, "indefinite")


def test_short_vectors_identity():
    assert short_vectors(BilinearForm(IntMatrix.identity(2)), 1) == [(0, 1), (1, 0)]


def test_short_vectors_e8():
    assert short_vectors(e8_form(), 1) == []
    roots = short_vectors(e8_form(), 2)
    assert len(roots) == 120
    assert roots == sorted(roots)
    gram = e8_form().gram
    assert all(bilinear_value(gram, v, v) == 2 for v in roots)


def test_short_vector_counts_are_basis_change_invariant():
    rng = random.Random(41)
    for _ in range(3):
        p = random_unimodular(rng, 8)
        skewed = conjugated(e8_form(), p)
        assert len(short_vectors(skewed, 1)) == 0
        assert len(short_vectors(skewed, 2)) == 120


def test_short_vectors_rejections():
    with pytest.raises(ValueError):
        short_vectors(HYPERBOLIC, 2)  # indefinite
    with pytest.raises(CapExceededError):
        short_vectors(BilinearForm(IntMatrix.identity(17)), 1)
    with pytest.raises(CapExceededError):
        short_vectors(BilinearForm(IntMatrix.identity(2)), 5)


@st.composite
def small_definite_forms(draw):
    """A^T A + I for a random A of size <= 4, in a basis skewed by a unimodular P."""
    n = draw(st.integers(1, 4))
    a = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    gram = [[sum(a[k][i] * a[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
    p = random_unimodular(draw(st.randoms(use_true_random=False)), n, ops=4, bound=2)
    return conjugated(BilinearForm(IntMatrix.from_rows(gram)), p)


@settings(deadline=None)
@given(small_definite_forms(), st.integers(1, 4))
def test_short_vectors_match_box_search(f, bound):
    assert short_vectors(f, bound) == short_vectors_by_box(f.gram, bound)


def test_short_vectors_node_cap():
    # I_2 in the basis (N, 1), (1, 0): about 2N values of the last coordinate
    n = 10**9
    skewed = BilinearForm(IntMatrix.from_rows([[n * n + 1, n], [n, 1]]))
    with pytest.raises(CapExceededError, match=f"node cap {SHORT_VECTOR_NODE_CAP}$"):
        short_vectors(skewed, 1)
    assert short_vectors(BilinearForm(IntMatrix.from_rows([[10**6 + 1, 10**3], [10**3, 1]])), 1) == [
        (0, 1), (1, -1000)
    ]


def test_diagonalizable_fixtures():
    assert is_diagonalizable_over_Z(BilinearForm(IntMatrix.identity(8))) is True
    assert is_diagonalizable_over_Z(e8_form()) is False


def test_diagonalizable_mixed_lattice():
    # E8 + I_4 is unimodular positive definite with only four norm-1 classes,
    # too few for rank 12
    mixed = direct_sum(e8_form(), BilinearForm(IntMatrix.identity(4)))
    assert len(short_vectors(mixed, 1)) == 4
    assert is_diagonalizable_over_Z(mixed) is False


def test_diagonalizable_rejects_bad_input():
    with pytest.raises(ValueError):
        is_diagonalizable_over_Z(HYPERBOLIC)
    with pytest.raises(ValueError):
        is_diagonalizable_over_Z(BilinearForm(IntMatrix.from_rows([[2]])))


def test_diagonalizable_is_basis_change_invariant():
    rng = random.Random(13)
    for base, expected in ((BilinearForm(IntMatrix.identity(3)), True),
                           (BilinearForm(IntMatrix.identity(8)), True),
                           (e8_form(), False)):
        for _ in range(20):
            p = random_unimodular(rng, base.rank)
            assert is_diagonalizable_over_Z(conjugated(base, p)) is expected


def test_diagonalizable_count_matches_search():
    rng = random.Random(19)
    bases = [BilinearForm(IntMatrix.identity(k)) for k in (1, 2, 5, 9, 12)]
    bases += [e8_form()] + [
        direct_sum(e8_form(), BilinearForm(IntMatrix.identity(k))) for k in (1, 3)
    ]
    for base in bases:
        for _ in range(4):
            f = conjugated(base, random_unimodular(rng, base.rank))
            assert is_diagonalizable_over_Z(f) is diagonalizable_by_search(f)


def test_constructors_always_yield_symmetric_grams():
    rng = random.Random(17)
    forms = [
        e8_form(),
        two_power_trace_form(4),
        odd_prime_trace_form(5),
        from_witt(parse_witt("2<1> + 2xH + 2^1<1>")),
        direct_sum(HYPERBOLIC, e8_form()),
    ]
    for f in forms:
        assert f.gram.is_symmetric()
        p = random_unimodular(rng, f.rank)
        assert conjugated(f, p).gram.is_symmetric()
