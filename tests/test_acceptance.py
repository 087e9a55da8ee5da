"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with `pytest tests/test_acceptance.py -s`
to see the lines as they happen).
"""

import random
import time
from fractions import Fraction
from math import gcd

from forms4d.cyclotomic import (
    CyclotomicElement,
    IntPolynomial,
    cyc_trace,
    cyclotomic_polynomial,
    euler_phi,
)
from forms4d.exactla import IntMatrix, RatMatrix, determinant, signature, snf
from forms4d.fpgroup import (
    GroupPresentation,
    abelianize,
    aut_bruteforce,
    galois_surrogate,
)
from forms4d.groupring import (
    GroupRingElement,
    abelian_group,
    frobenius_form,
    gr_mul,
    symmetric_group_s3,
    wedderburn_decompose,
)
from forms4d.quadform import (
    BilinearForm,
    bilinear_value,
    direct_sum,
    e8_form,
    invariants,
    odd_prime_trace_form,
    polarize,
    quadratic_value,
    short_vectors,
    two_power_signature_values,
    two_power_trace_form,
)
from forms4d.nt import abelian_aut_order
from forms4d.smooth4 import analyze_intersection_form, analyze_trace_form

from support import (
    conjugated,
    embedding_trace_oracle,
    minor_gcd,
    random_int_matrix,
    random_unimodular,
)


def _run(number, description, budget_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number}] PASS - {description} ({elapsed:.2f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )


def test_criterion_1_snf_suite():
    def body():
        rng = random.Random(1001)
        for _ in range(500):
            a = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), bound=9)
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
            prod = 1
            for k in range(1, min(a.rows, a.cols, 3) + 1):
                prod *= d[k - 1]
                assert prod == minor_gcd(a, k)

    _run(1, "SNF suite: 500 random matrices, factorization + minor-gcd oracle", 10, body)


def test_criterion_2_cyclotomic_traces():
    def body():
        rng = random.Random(1002)
        for n in (3, 4, 5, 7, 8, 9, 12, 15, 16):
            deg = euler_phi(n)
            for _ in range(50):
                a = CyclotomicElement.from_coeffs(
                    n, [rng.randint(-9, 9) for _ in range(deg)]
                )
                assert abs(cyc_trace(a) - embedding_trace_oracle(a)) < 1e-6
        for n in range(1, 31):
            prod = IntPolynomial((1,))
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * cyclotomic_polynomial(d)
            assert prod == IntPolynomial.from_coeffs([-1] + [0] * (n - 1) + [1])

    _run(2, "cyclotomic traces vs embedding oracle; product of cyclotomics", 5, body)


def test_criterion_3_frobenius_identity():
    def body():
        rng = random.Random(1003)
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
                x, y, z = (
                    GroupRingElement.from_coeffs(
                        group, [rng.randint(-4, 4) for _ in range(group.order)]
                    )
                    for _ in range(3)
                )
                lhs = bilinear_value(form.gram, gr_mul(x, y).coeffs, z.coeffs)
                rhs = bilinear_value(form.gram, x.coeffs, gr_mul(y, z).coeffs)
                assert lhs == rhs

    _run(3, "Frobenius identity Q(xy,z) = Q(x,yz); non-degenerate Grams", None, body)


def test_criterion_4_wedderburn_census():
    def body():
        fixtures = [
            [2], [3], [4], [5], [7], [2, 2], [6], [8], [2, 4], [3, 3],
            [12], [2, 2, 2], [16], [15], [24], [30], [64], [4, 4, 4], [128], [512],
        ]
        assert len(fixtures) == 20
        for invs in fixtures:
            group = abelian_group(invs)
            census = wedderburn_decompose(group)
            assert sum(m * euler_phi(d) for d, m in census.pairs) == group.order
        for p in (3, 5, 7):
            census = wedderburn_decompose(abelian_group([p]))
            assert census.pairs == ((1, 1), (p, 1))
            assert census.primary_fields == ((p, 1),)
            assert any("d = 1" in note for note in census.notes)

    _run(4, "Wedderburn census: 20 groups <= 512; Z/p sublists with logged note", None, body)


def test_criterion_5_trace_form_models():
    def body():
        for p in (3, 5, 7, 11):
            form = odd_prime_trace_form(p)
            assert form.gram == IntMatrix.identity(p)
            assert signature(form.gram) == (p, 0, 0)
        for n in (4, 5):
            form = two_power_trace_form(n)
            assert form.rank == 2 ** (n + 1)
            claimed, computed = two_power_signature_values(n)
            assert claimed == 2 ** n
            assert computed == 2 ** n - 2
            assert invariants(form).signature_value == computed
            report = analyze_trace_form(two_power=n)
            joined = " | ".join(report.notes)
            assert str(claimed) in joined and str(computed) in joined
            assert any("discrepancy" in note for note in report.notes)

    _run(5, "trace-form models: I_p exact; two-power literal vs claimed signature", None, body)


def test_criterion_6_obstruction_fixtures():
    def body():
        rng = random.Random(1006)

        e8 = analyze_intersection_form(e8_form())
        assert e8.parity == "even"
        assert e8.unimodular
        assert e8.definite
        assert e8.signature_value == 8
        assert short_vectors(e8_form(), 1) == []
        assert e8.rokhlin_violation and e8.smooth_obstructed

        up_to_sign = short_vectors(e8_form(), 2)
        assert 2 * len(up_to_sign) == 240  # counting +-v

        ee = analyze_intersection_form(direct_sum(e8_form(), e8_form()))
        assert ee.signature_value == 16
        assert not ee.rokhlin_violation
        assert ee.donaldson_violation and ee.smooth_obstructed

        for n in range(1, 17):
            rep = analyze_intersection_form(BilinearForm(IntMatrix.identity(n)))
            assert not rep.smooth_obstructed

        for base, expected, trials in (
            (e8_form(), e8, 20),
            (direct_sum(e8_form(), e8_form()), ee, 20),
            (BilinearForm(IntMatrix.identity(8)), None, 20),
        ):
            if expected is None:
                expected = analyze_intersection_form(base)
            for _ in range(trials):
                p = random_unimodular(rng, base.rank)
                assert analyze_intersection_form(conjugated(base, p)) == expected

    _run(6, "obstruction fixtures: E8, E8+E8, I_n; 240 roots; basis-change invariance", 30, body)


def test_criterion_7_aut_validation():
    def body():
        lists = []

        def rec(start, prefix, prod):
            for m in range(start, 201):
                if prod * m > 200:
                    break
                if all(gcd(m, x) == 1 for x in prefix):
                    cur = prefix + [m]
                    lists.append(cur)
                    rec(m + 1, cur, prod * m)

        rec(2, [], 1)
        assert lists  # non-empty sweep
        for moduli in lists:
            brute = aut_bruteforce(abelian_group(moduli))
            expected = 1
            for m in moduli:
                expected *= euler_phi(m)
            assert brute.torsion_aut_order == expected, moduli
            assert brute.is_abelian, moduli
            assert abelian_aut_order(moduli) == expected

        klein_four = aut_bruteforce(abelian_group([2, 2]))
        assert klein_four.torsion_aut_order == 6 == abelian_aut_order([2, 2])
        assert not klein_four.is_abelian

    _run(7, "Aut validation: coprime lists (product <= 200) vs formula; Z/2+Z/2 nonabelian", None, body)


def test_criterion_8_abelianization_goldens():
    def body():
        trefoil = GroupPresentation.from_lists(2, [[1, 1, -2, -2, -2]])
        h1 = abelianize(trefoil)
        assert (h1.free_rank, h1.torsion) == (1, ())

        klein = abelianize(GroupPresentation.from_lists(2, [[1, 2, 1, -2]]))
        assert (klein.free_rank, klein.torsion) == (1, (2,))

        z5 = GroupPresentation.from_lists(1, [[1] * 5])
        assert (abelianize(z5).free_rank, abelianize(z5).torsion) == (0, (5,))
        z5_report = galois_surrogate(z5)
        assert z5_report.torsion_aut_order == 4 and z5_report.is_abelian

        trefoil_report = galois_surrogate(trefoil)
        assert trefoil_report.is_abelian
        assert trefoil_report.torsion_aut_order == 1
        assert "Z/2" in trefoil_report.free_rank_note

    _run(8, "abelianization goldens: trefoil, Klein bottle, Z/5 with Galois reports", None, body)


def test_criterion_9_polarization():
    def body():
        rng = random.Random(1009)
        for _ in range(100):
            n = rng.randint(1, 6)
            raw = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(n)
            ]
            gram = RatMatrix.from_rows(
                [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
            )
            b = polarize(gram)
            assert b == gram
            for _ in range(3):
                x = [rng.randint(-9, 9) for _ in range(n)]
                y = [rng.randint(-9, 9) for _ in range(n)]
                s = [u + v for u, v in zip(x, y)]
                assert 2 * bilinear_value(b, x, y) == (
                    quadratic_value(gram, s)
                    - quadratic_value(gram, x)
                    - quadratic_value(gram, y)
                )

    _run(9, "polarization identity on random rational Grams", None, body)
