import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forms4d.exactla import (
    IntMatrix,
    RatMatrix,
    congruent_diagonalize,
    determinant,
    signature,
    snf,
    snf_diagonal,
    symmetric_elimination,
)
from forms4d.quadform import e8_form

from support import det_cofactor, minor_gcd, random_int_matrix, random_unimodular


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[True, False]])


def test_snf_identity():
    res = snf(IntMatrix.identity(3))
    assert res.diagonal == (1, 1, 1)
    assert res.S == IntMatrix.identity(3)


def test_snf_small_example():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    res = snf(a)
    assert res.diagonal == (2, 4)
    assert res.U @ a @ res.V == res.S


def test_snf_zero_matrix():
    assert snf(IntMatrix.from_rows([[0]])).diagonal == (0,)
    assert snf(IntMatrix.from_rows([[0, 0], [0, 0]])).diagonal == (0, 0)


def test_snf_rectangular():
    assert snf(IntMatrix.from_rows([[2, -3]])).diagonal == (1,)
    assert snf(IntMatrix.from_rows([[2], [0], [4]])).diagonal == (2,)


def test_snf_factorization_random():
    rng = random.Random(20240811)
    for _ in range(200):
        a = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        res = snf(a)
        assert res.U @ a @ res.V == res.S
        assert abs(determinant(res.U)) == 1
        assert abs(determinant(res.V)) == 1
        d = res.diagonal
        assert all(x >= 0 for x in d)
        for i in range(len(d) - 1):
            if d[i] == 0:
                assert d[i + 1] == 0
            else:
                assert d[i + 1] % d[i] == 0


def test_snf_diagonal_matches_minor_gcds():
    rng = random.Random(99)
    for _ in range(60):
        a = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        d = snf(a).diagonal
        prod = 1
        for k in range(1, min(a.rows, a.cols, 3) + 1):
            prod *= d[k - 1]
            assert prod == minor_gcd(a, k), a.to_rows()


def test_snf_medium_size_stays_tractable():
    rng = random.Random(2024)
    a = random_int_matrix(rng, 20, 20)
    start = time.perf_counter()
    res = snf(a)
    assert time.perf_counter() - start < 5.0
    assert res.U @ a @ res.V == res.S
    assert abs(determinant(res.U)) == 1
    assert abs(determinant(res.V)) == 1


def test_snf_scale_and_witness_size():
    # B = k*log2(sqrt(k)*max|a_ij|), k = max(m, n), is the Hadamard-type bit
    # size of a k-minor; the witnesses must stay within a small multiple of it
    rng = random.Random(64)
    start = time.perf_counter()
    for m, n in [(64, 64), (64, 40), (40, 64), (48, 48)]:
        a = random_int_matrix(rng, m, n)
        res = snf(a)
        assert res.U @ a @ res.V == res.S
        assert abs(determinant(res.U)) == 1
        assert abs(determinant(res.V)) == 1
        k = max(m, n)
        bound = k * math.log2(math.sqrt(k) * max(abs(x) for x in a.entries))
        bits = max(abs(x).bit_length() for w in (res.U, res.V) for x in w.entries)
        assert bits <= 2 * bound + 64, (m, n, bits, bound)
    assert time.perf_counter() - start < 5.0


@st.composite
def small_matrices(draw, bound=20):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    entry = st.integers(-bound, bound)
    return IntMatrix.from_rows([[draw(entry) for _ in range(n)] for _ in range(m)])


@settings(deadline=None)
@given(small_matrices())
def test_snf_properties(a):
    res = snf(a)
    assert res.U @ a @ res.V == res.S
    assert abs(determinant(res.U)) == 1
    assert abs(determinant(res.V)) == 1
    assert res.diagonal == tuple(res.S.at(i, i) for i in range(min(a.rows, a.cols)))
    d = res.diagonal
    assert all(x >= 0 for x in d)
    for x, y in zip(d, d[1:]):
        assert y == 0 if x == 0 else y % x == 0


@settings(deadline=None)
@given(small_matrices())
def test_snf_diagonal_matches_snf(a):
    assert snf_diagonal(a) == snf(a).diagonal


@settings(deadline=None)
@given(small_matrices(), st.randoms(use_true_random=False))
def test_snf_diagonal_is_unimodular_invariant(a, rng):
    p = random_unimodular(rng, a.rows)
    q = random_unimodular(rng, a.cols)
    assert snf(p @ a @ q).diagonal == snf(a).diagonal


def test_snf_is_deterministic():
    a = IntMatrix.from_rows([[3, 1, -4], [2, -6, 9], [0, 5, 5]])
    first = snf(a)
    second = snf(a)
    assert first == second


def test_determinant_examples():
    assert determinant(IntMatrix.identity(5)) == 1
    assert determinant(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert determinant(e8_form().gram) == 1


def test_determinant_against_cofactor_oracle():
    rng = random.Random(4)
    for _ in range(80):
        n = rng.randint(1, 5)
        a = random_int_matrix(rng, n, n)
        assert determinant(a) == det_cofactor(a.to_rows())
    assert det_cofactor(e8_form().gram.to_rows()) == 1


def test_determinant_rejects_nonsquare():
    with pytest.raises(ValueError):
        determinant(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_congruent_diagonalize_trivial():
    g = IntMatrix.from_rows([[1, 0], [0, -1]])
    res = congruent_diagonalize(g)
    assert res.D.diagonal == (1, -1)
    assert res.P == RatMatrix.identity(2)


def test_congruent_diagonalize_zero_pivot():
    g = IntMatrix.from_rows([[0, 1], [1, 0]])
    res = congruent_diagonalize(g)
    signs = sorted(1 if x > 0 else -1 for x in res.D.diagonal)
    assert signs == [-1, 1]
    lhs = res.P.transpose() @ RatMatrix.from_int_matrix(g) @ res.P
    assert lhs == res.D


def test_congruent_diagonalize_random_exact():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        raw = random_int_matrix(rng, n, n, bound=6).to_rows()
        sym = [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
        g = IntMatrix.from_rows(sym)
        res = congruent_diagonalize(g)
        assert res.P.transpose() @ RatMatrix.from_int_matrix(g) @ res.P == res.D
        scale = math.lcm(*(x.denominator for x in res.P.entries))
        assert determinant(IntMatrix(n, n, tuple(int(x * scale) for x in res.P.entries))) != 0
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert res.D.at(i, j) == 0


def test_congruent_diagonalize_rejects_asymmetric():
    with pytest.raises(ValueError):
        congruent_diagonalize(IntMatrix.from_rows([[0, 1], [2, 0]]))


def test_congruent_diagonalize_e8_is_positive():
    res = congruent_diagonalize(e8_form().gram)
    assert all(d > 0 for d in res.D.diagonal)


def test_congruent_diagonalize_zero_matrix():
    g = IntMatrix.from_rows([[0, 0], [0, 0]])
    res = congruent_diagonalize(g)
    assert res.D.diagonal == (0, 0)
    assert res.P == RatMatrix.identity(2)


def test_signature_fixtures():
    assert signature(IntMatrix.from_rows([[0, 1], [1, 0]])) == (1, 1, 0)
    assert signature(e8_form().gram) == (8, 0, 0)
    assert signature(IntMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 0]])) == (1, 1, 1)


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        signature(IntMatrix.from_rows([[0, 1], [2, 0]]))
    with pytest.raises(ValueError):
        symmetric_elimination(IntMatrix.from_rows([[0, 1], [2, 0]]))


def test_signature_and_determinant_basis_invariance():
    rng = random.Random(7)
    fixtures = [
        e8_form().gram,
        IntMatrix.from_rows([[0, 1], [1, 0]]),
        IntMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
    ]
    for g in fixtures:
        sig = signature(g)
        det = determinant(g)
        for _ in range(10):
            p = random_unimodular(rng, g.rows)
            h = p.transpose() @ g @ p
            assert signature(h) == sig
            assert determinant(h) == det


@st.composite
def sparse_symmetric(draw):
    """Symmetric matrices up to 8x8, mostly zeros: zero diagonals, folds, radicals."""
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-6, 6))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entry)
    return IntMatrix.from_rows(rows)


@settings(deadline=None, max_examples=300)
@given(sparse_symmetric())
def test_symmetric_elimination_matches_oracles(g):
    elim = symmetric_elimination(g)
    diag = congruent_diagonalize(g).D.diagonal
    assert elim.inertia == (
        sum(1 for d in diag if d > 0),
        sum(1 for d in diag if d < 0),
        sum(1 for d in diag if d == 0),
    )
    assert elim.determinant == det_cofactor(g.to_rows())


@settings(deadline=None)
@given(sparse_symmetric(), st.randoms(use_true_random=False))
def test_symmetric_elimination_is_congruence_invariant(g, rng):
    p = random_unimodular(rng, g.rows)
    elim, moved = symmetric_elimination(g), symmetric_elimination(p.transpose() @ g @ p)
    assert (moved.inertia, moved.determinant) == (elim.inertia, elim.determinant)
