import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forms4d import exactla
from forms4d.cli import main
from forms4d.errors import CapExceededError, NonUnimodularFormError
from forms4d.exactla import IntMatrix
from forms4d.groupring import abelian_group, symmetric_group_s3
from forms4d.quadform import BilinearForm, direct_sum, e8_form, from_witt, parse_witt
from forms4d.smooth4 import (
    NOT_EVALUATED,
    ObstructionReport,
    analyze_intersection_form,
    analyze_trace_form,
    h2_from_group_ring,
)

from support import conjugated, random_unimodular

HYPERBOLIC = BilinearForm(IntMatrix.from_rows([[0, 1], [1, 0]]))


def test_e8_report():
    report = analyze_intersection_form(e8_form())
    assert report.parity == "even"
    assert report.signature_value == 8
    assert report.rokhlin_violation
    assert report.donaldson_violation  # definite without norm-1 vectors
    assert report.smooth_obstructed
    assert report.diagonalizable is False


@pytest.mark.parametrize("n", [1, 2, 8, 16])
def test_identity_forms_are_unobstructed(n):
    report = analyze_intersection_form(BilinearForm(IntMatrix.identity(n)))
    assert report.parity == "odd"
    assert report.diagonalizable is True
    assert not report.rokhlin_violation
    assert not report.donaldson_violation
    assert not report.smooth_obstructed


def test_e8_plus_e8_report():
    report = analyze_intersection_form(direct_sum(e8_form(), e8_form()))
    assert report.signature_value == 16
    assert not report.rokhlin_violation  # 16 is divisible by 16
    assert report.donaldson_violation
    assert report.smooth_obstructed


def test_indefinite_even_form_passes():
    report = analyze_intersection_form(HYPERBOLIC)
    assert report.parity == "even"
    assert report.signature_value == 0
    assert not report.smooth_obstructed
    assert report.diagonalizable == NOT_EVALUATED


def test_definite_forms_beyond_rank_cap_are_flagged():
    report = analyze_intersection_form(BilinearForm(IntMatrix.identity(20)))
    assert report.diagonalizable == NOT_EVALUATED
    assert not report.donaldson_violation
    assert any("cap" in note for note in report.notes)


def test_non_unimodular_input_is_rejected_with_determinant():
    with pytest.raises(NonUnimodularFormError) as err:
        analyze_intersection_form(BilinearForm(IntMatrix.from_rows([[2, 0], [0, 2]])))
    assert "determinant 4" in str(err.value)


def test_even_unimodular_fixtures_have_signature_divisible_by_8():
    fixtures = [
        e8_form(),
        HYPERBOLIC,
        direct_sum(e8_form(), e8_form()),
        direct_sum(e8_form(), HYPERBOLIC),
        from_witt(parse_witt("3xH")),
    ]
    for f in fixtures:
        report = analyze_intersection_form(f)
        assert report.parity == "even"
        assert report.signature_value % 8 == 0


def test_reports_are_basis_change_invariant():
    rng = random.Random(23)
    fixtures = [
        e8_form(),
        BilinearForm(IntMatrix.identity(8)),
        direct_sum(e8_form(), e8_form()),
    ]
    for base in fixtures:
        expected = analyze_intersection_form(base)
        for _ in range(5):
            p = random_unimodular(rng, base.rank)
            assert analyze_intersection_form(conjugated(base, p)) == expected


BLOCKS = {
    "E8": e8_form(),
    "-E8": e8_form().negated(),
    "<1>": BilinearForm(IntMatrix.identity(1)),
    "<-1>": BilinearForm(IntMatrix.from_rows([[-1]])),
    "H": HYPERBOLIC,
}


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.sampled_from(sorted(BLOCKS)), min_size=1, max_size=8).filter(
        lambda names: sum(BLOCKS[b].rank for b in names) <= 20
    ),
    st.randoms(use_true_random=False),
)
def test_report_is_congruence_invariant(names, rng):
    # definite, indefinite, even, odd, and definite past the rank cap (note)
    base = BLOCKS[names[0]]
    for name in names[1:]:
        base = direct_sum(base, BLOCKS[name])
    p = random_unimodular(rng, base.rank)
    notes = ("candidate",)
    assert analyze_intersection_form(conjugated(base, p), notes) == analyze_intersection_form(
        base, notes
    )


def test_report_invariant_validation():
    with pytest.raises(ValueError):
        ObstructionReport(
            rank=2,
            parity="odd",
            signature=(2, 0, 0),
            signature_value=2,
            unimodular=True,
            definite=True,
            diagonalizable=True,
            rokhlin_violation=True,  # odd forms cannot violate the even criterion
            donaldson_violation=False,
            smooth_obstructed=True,
            notes=(),
        )
    with pytest.raises(ValueError):
        ObstructionReport(
            rank=2,
            parity="odd",
            signature=(2, 0, 0),
            signature_value=2,
            unimodular=True,
            definite=True,
            diagonalizable=True,
            rokhlin_violation=False,
            donaldson_violation=False,
            smooth_obstructed=True,  # must equal the disjunction
            notes=(),
        )


def test_report_json_key_order():
    report = analyze_intersection_form(e8_form())
    assert list(report.to_json_dict().keys()) == [
        "rank",
        "parity",
        "signature",
        "signature_value",
        "unimodular",
        "definite",
        "diagonalizable",
        "rokhlin_violation",
        "donaldson_violation",
        "smooth_obstructed",
        "notes",
    ]


def test_analysis_runs_one_elimination_per_form(monkeypatch, capsys):
    calls = []
    eliminate = exactla.symmetric_elimination

    def counted(gram):
        calls.append(gram.rows)
        return eliminate(gram)

    monkeypatch.setattr(exactla, "symmetric_elimination", counted)

    def count(run) -> int:
        calls.clear()
        run()
        return len(calls)

    e8 = e8_form().gram
    assert count(lambda: analyze_intersection_form(BilinearForm(e8))) == 1
    e8_form.cache_clear()  # the CLI fixture then builds and checks E8 afresh
    assert count(lambda: main(["analyze-form", "--fixture", "e8"])) == 1
    assert count(lambda: main(["analyze-form", "--fixture", "In:12"])) == 1
    # the negation is a second form, with its own elimination
    assert count(lambda: analyze_intersection_form(BilinearForm(e8.negated()))) == 2
    assert count(lambda: h2_from_group_ring(abelian_group([3]))) == 1
    assert count(lambda: h2_from_group_ring(abelian_group([]))) == 1
    capsys.readouterr()


def test_h2_trivial_group_is_unobstructed():
    result = h2_from_group_ring(abelian_group([]))
    assert result.form.gram.to_rows() == [[1]]
    assert result.rejection is None
    assert result.report is not None and not result.report.smooth_obstructed


def test_h2_z2_rejected_with_determinant():
    result = h2_from_group_ring(abelian_group([2]))
    assert result.form.gram.to_rows() == [[2, 0], [0, 2]]
    assert result.report is None
    assert "determinant 4" in result.rejection


def test_h2_z3_signature_and_rejection():
    from forms4d.exactla import signature

    result = h2_from_group_ring(abelian_group([3]))
    assert result.form.gram.to_rows() == [[3, 0, 0], [0, 0, 3], [0, 3, 0]]
    assert signature(result.form.gram) == (2, 1, 0)
    assert result.rejection is not None and "determinant" in result.rejection


def test_h2_nonabelian_group():
    result = h2_from_group_ring(symmetric_group_s3())
    assert result.rejection is not None


def test_h2_order_cap():
    with pytest.raises(CapExceededError):
        h2_from_group_ring(abelian_group([5, 13]))


def test_analyze_trace_form_odd_prime():
    report = analyze_trace_form(odd_prime=7)
    assert report.rank == 7
    assert report.parity == "odd"
    assert report.diagonalizable is True
    assert not report.smooth_obstructed


def test_analyze_trace_form_two_power_discrepancy():
    report = analyze_trace_form(two_power=4)
    assert report.rank == 32
    assert report.signature_value == 14
    assert not report.smooth_obstructed  # odd parity, indefinite
    joined = " | ".join(report.notes)
    assert "16" in joined and "14" in joined
    assert any("discrepancy" in note for note in report.notes)

    report5 = analyze_trace_form(two_power=5)
    assert report5.signature_value == 30
    assert any("32" in note and "30" in note for note in report5.notes)


def test_analyze_trace_form_selector_errors():
    with pytest.raises(ValueError):
        analyze_trace_form()
    with pytest.raises(ValueError):
        analyze_trace_form(odd_prime=3, two_power=4)
    with pytest.raises(ValueError):
        analyze_trace_form(odd_prime=4)
    with pytest.raises(ValueError):
        analyze_trace_form(two_power=3)
