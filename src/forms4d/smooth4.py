"""Smoothness obstructions for candidate intersection forms.

A closed simply connected 4-manifold has a unimodular symmetric intersection
form on its second homology. Two classical arithmetic consequences of
smoothness are checked here: an even form must have signature divisible by 16
(Rokhlin), and a definite form must be diagonalizable over Z (Donaldson).
Group rings feed candidate forms through their regular-representation pairing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence, Union

from . import quadform
from .errors import CapExceededError, NonUnimodularFormError
from .groupring import FiniteGroup, frobenius_form
from .quadform import SHORT_VECTOR_RANK_CAP, BilinearForm

NOT_EVALUATED = "not_evaluated"
H2_GROUP_ORDER_CAP = 64

Diagonalizable = Union[bool, str]


@dataclass(frozen=True)
class ObstructionReport:
    """Verdict record for one candidate intersection form."""

    rank: int
    parity: str
    signature: tuple[int, int, int]
    signature_value: int
    unimodular: bool
    definite: bool
    diagonalizable: Diagonalizable
    rokhlin_violation: bool
    donaldson_violation: bool
    smooth_obstructed: bool
    notes: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        if self.diagonalizable not in (True, False, NOT_EVALUATED):
            raise ValueError(f"diagonalizable must be a bool or {NOT_EVALUATED!r}")
        if self.signature_value != self.signature[0] - self.signature[1]:
            raise ValueError("signature value must match the triple")
        if self.rokhlin_violation and not (self.parity == "even" and self.signature_value % 16):
            raise ValueError("Rokhlin violation claimed for a non-qualifying form")
        if self.donaldson_violation and not (self.definite and self.diagonalizable is False):
            raise ValueError("Donaldson violation claimed for a non-qualifying form")
        if self.smooth_obstructed != (self.rokhlin_violation or self.donaldson_violation):
            raise ValueError("smooth_obstructed must be the disjunction of the violations")

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "parity": self.parity,
            "signature": list(self.signature),
            "signature_value": self.signature_value,
            "unimodular": self.unimodular,
            "definite": self.definite,
            "diagonalizable": self.diagonalizable,
            "rokhlin_violation": self.rokhlin_violation,
            "donaldson_violation": self.donaldson_violation,
            "smooth_obstructed": self.smooth_obstructed,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def analyze_intersection_form(
    f: BilinearForm, notes: Sequence[str] = ()
) -> ObstructionReport:
    """Run the Rokhlin and Donaldson criteria on a unimodular form.

    Non-unimodular input is rejected: it cannot be the intersection form of a
    closed simply connected 4-manifold. Diagonalizability is only decided for
    definite forms up to the short-vector rank cap (16); beyond that the
    report says so instead of guessing.
    """
    inv = quadform.invariants(f)
    if not inv.unimodular:
        raise NonUnimodularFormError(
            f"determinant {inv.determinant} has absolute value != 1; "
            "not an intersection form of a closed simply connected 4-manifold"
        )
    out_notes = list(notes)
    sigma = inv.signature_value
    definite = inv.is_definite

    diagonalizable: Diagonalizable
    if definite and f.rank <= SHORT_VECTOR_RANK_CAP:
        positive = f if inv.definiteness == "positive" else f.negated()
        diagonalizable = quadform.is_diagonalizable_over_Z(positive)
    elif definite:
        diagonalizable = NOT_EVALUATED
        out_notes.append(
            f"rank {f.rank} exceeds the diagonalizability cap {SHORT_VECTOR_RANK_CAP}; "
            "Donaldson criterion not evaluated"
        )
    else:
        diagonalizable = NOT_EVALUATED

    rokhlin = inv.parity == "even" and sigma % 16 != 0
    if rokhlin:
        out_notes.append(
            f"even form with signature {sigma}, not divisible by 16: no smooth "
            "closed simply connected manifold carries it"
        )
    donaldson = definite and diagonalizable is False
    if donaldson:
        out_notes.append(
            "definite but not diagonalizable over Z: excluded from smooth "
            "closed simply connected manifolds"
        )

    return ObstructionReport(
        rank=f.rank,
        parity=inv.parity,
        signature=inv.signature,
        signature_value=sigma,
        unimodular=True,
        definite=definite,
        diagonalizable=diagonalizable,
        rokhlin_violation=rokhlin,
        donaldson_violation=donaldson,
        smooth_obstructed=rokhlin or donaldson,
        notes=tuple(out_notes),
    )


@dataclass(frozen=True)
class GroupRingFormResult:
    """Candidate H_2 form built from a group ring, with analysis or rejection."""

    form: BilinearForm
    report: ObstructionReport | None
    rejection: str | None

    def __post_init__(self) -> None:
        if (self.report is None) == (self.rejection is None):
            raise ValueError("exactly one of report and rejection must be present")


def h2_from_group_ring(group: FiniteGroup) -> GroupRingFormResult:
    """Treat Z[G] with its trace pairing as a candidate second homology.

    The pairing's Gram has determinant +-|G|^|G|, so every nontrivial group is
    rejected as non-unimodular; the rejection carries the determinant rather
    than hiding the mismatch.
    """
    if group.order > H2_GROUP_ORDER_CAP:
        raise CapExceededError(
            f"group order {group.order} exceeds the cap {H2_GROUP_ORDER_CAP}"
        )
    form = frobenius_form(group)
    det = quadform.invariants(form).determinant
    if abs(det) == 1:
        return GroupRingFormResult(
            form=form,
            report=analyze_intersection_form(
                form, notes=(f"rank-{form.rank} form from the group ring pairing",)
            ),
            rejection=None,
        )
    return GroupRingFormResult(
        form=form,
        report=None,
        rejection=(
            f"group ring pairing has determinant {det} (|det| != 1): not unimodular, "
            "so not the intersection form of a closed simply connected 4-manifold"
        ),
    )


def analyze_trace_form(
    *, odd_prime: int | None = None, two_power: int | None = None
) -> ObstructionReport:
    """Analyze one of the diagonal trace-form models.

    Exactly one selector: an odd prime p gives the identity form I_p; a
    two-power exponent n >= 4 gives the rank 2^(n+1) diagonal form whose
    literal entry count disagrees with the closed-form signature claim --
    both values land in the notes with a discrepancy flag.
    """
    if (odd_prime is None) == (two_power is None):
        raise ValueError("choose exactly one of odd_prime and two_power")
    if odd_prime is not None:
        form = quadform.odd_prime_trace_form(odd_prime)
        return analyze_intersection_form(
            form,
            notes=(f"diagonal trace form I_{odd_prime} for odd prime conductor {odd_prime}",),
        )
    n = two_power
    form = quadform.two_power_trace_form(n)
    claimed, computed = quadform.two_power_signature_values(n)
    notes = [
        f"diagonal trace form of rank {2 ** (n + 1)} for conductor 2^{n + 1}",
        f"closed-form signature claim: 2^{n} = {claimed}",
        f"literal diagonal index count gives signature {computed}",
    ]
    if claimed != computed:
        notes.append(
            f"signature discrepancy: claimed {claimed} vs computed {computed}; "
            f"computed value mod 16 = {computed % 16}"
        )
    return analyze_intersection_form(form, notes=tuple(notes))
