import random

import pytest

from forms4d.cyclotomic import (
    CyclotomicElement,
    IntPolynomial,
    cyc_mul,
    cyc_trace,
    cyclotomic_polynomial,
    euler_phi,
    trace_form_gram,
)
from forms4d.exactla import determinant

from support import embedding_trace_oracle, regular_trace, regular_trace_gram

CONDUCTORS = (3, 4, 5, 7, 8, 9, 12, 15, 16)


def random_element(rng, n):
    return CyclotomicElement.from_coeffs(
        n, [rng.randint(-9, 9) for _ in range(euler_phi(n))]
    )


def test_cyclotomic_polynomial_small():
    assert str(cyclotomic_polynomial(1)) == "x - 1"
    assert str(cyclotomic_polynomial(2)) == "x + 1"
    assert cyclotomic_polynomial(6).coeffs == (1, -1, 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_cyclotomic_polynomial_at_primes(p):
    assert cyclotomic_polynomial(p).coeffs == (1,) * p


def test_cyclotomic_polynomial_rejects_zero():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_cyclotomic_degree_and_product():
    for n in range(1, 31):
        assert cyclotomic_polynomial(n).degree == euler_phi(n)
        prod = IntPolynomial((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_polynomial(d)
        expected = IntPolynomial.from_coeffs([-1] + [0] * (n - 1) + [1])
        assert prod == expected


def test_mul_identity():
    rng = random.Random(2)
    for n in CONDUCTORS:
        a = random_element(rng, n)
        assert cyc_mul(a, CyclotomicElement.one(n)) == a


def test_mul_small_cases():
    z4 = CyclotomicElement.zeta(4)
    assert cyc_mul(z4, z4).coeffs == (-1, 0)
    z3 = CyclotomicElement.zeta(3)
    assert cyc_mul(z3, z3).coeffs == (-1, -1)


def test_mul_rejects_mismatched_conductors():
    with pytest.raises(ValueError):
        cyc_mul(CyclotomicElement.one(3), CyclotomicElement.one(4))


def test_trace_small_cases():
    assert cyc_trace(CyclotomicElement.one(5)) == 4
    assert cyc_trace(CyclotomicElement.zeta(7)) == -1
    assert cyc_trace(CyclotomicElement.zeta(8)) == 0


def test_trace_is_linear():
    rng = random.Random(5)
    for n in CONDUCTORS:
        for _ in range(20):
            a, b = random_element(rng, n), random_element(rng, n)
            k = rng.randint(-7, 7)
            assert cyc_trace(a + b) == cyc_trace(a) + cyc_trace(b)
            assert cyc_trace(a.scaled(k)) == k * cyc_trace(a)


def test_trace_is_symmetric_in_products():
    rng = random.Random(6)
    for n in CONDUCTORS:
        for _ in range(100):
            a, b = random_element(rng, n), random_element(rng, n)
            assert cyc_trace(cyc_mul(a, b)) == cyc_trace(cyc_mul(b, a))


def test_trace_matches_regular_representation():
    rng = random.Random(7)
    for n in CONDUCTORS:
        for _ in range(20):
            a = random_element(rng, n)
            assert cyc_trace(a) == regular_trace(a)


def test_trace_form_gram_matches_regular_representation():
    for n in range(1, 65):
        assert trace_form_gram(n).to_rows() == regular_trace_gram(n), n


def test_trace_matches_embedding_oracle():
    rng = random.Random(8)
    for n in CONDUCTORS:
        for _ in range(20):
            a = random_element(rng, n)
            assert abs(cyc_trace(a) - embedding_trace_oracle(a)) < 1e-6


def test_embedding_oracle_fixed_points():
    assert abs(embedding_trace_oracle(CyclotomicElement.one(5)) - 4.0) < 1e-6
    assert abs(embedding_trace_oracle(CyclotomicElement.zeta(7)) + 1.0) < 1e-6
    assert abs(embedding_trace_oracle(CyclotomicElement.zeta(8))) < 1e-6


def test_embedding_oracle_respects_precision_env(monkeypatch):
    monkeypatch.setenv("FORMS4D_PRECISION", "50")
    a = CyclotomicElement.zeta(7)
    assert abs(embedding_trace_oracle(a) + 1.0) < 1e-9


def test_trace_form_gram_small():
    assert trace_form_gram(3).to_rows() == [[2, -1], [-1, -1]]
    assert trace_form_gram(4).to_rows() == [[2, 0], [0, -2]]
    assert trace_form_gram(1).to_rows() == [[1]]


def test_trace_form_gram_symmetric_nondegenerate():
    for n in range(1, 17):
        gram = trace_form_gram(n)
        assert gram.is_symmetric()
        assert determinant(gram) != 0


def test_polynomial_division_exactness():
    x2_minus_1 = IntPolynomial.from_coeffs([-1, 0, 1])
    x_minus_1 = IntPolynomial.from_coeffs([-1, 1])
    assert x2_minus_1 // x_minus_1 == IntPolynomial.from_coeffs([1, 1])
    with pytest.raises(ValueError):
        IntPolynomial.from_coeffs([1, 1]) // IntPolynomial.from_coeffs([0, 2])
