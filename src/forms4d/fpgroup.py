"""Finitely presented groups: abelianization and automorphism-group reports.

Abelianization goes through the relator exponent-sum matrix and its Smith
normal form. The automorphism group of H_1 is sized by the Hillar-Rhea
formula for finite abelian groups; `aut_bruteforce` enumerates automorphisms
of small abelian groups and is the reference the tests hold the formula to. A
Cayley table goes through `groupring.primary_invariants` first, so every group
is enumerated on its mixed-radix labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceededError
# `snf` stays bound here because perfbench/tracing.py wraps fpgroup.snf by name
from .exactla import IntMatrix, snf, snf_diagonal  # noqa: F401
from .groupring import FiniteGroup, abelian_group, primary_invariants, strides
from .nt import abelian_aut_order

AUT_BRUTEFORCE_ORDER_CAP = 200
_AUT_CANDIDATE_BUDGET = 2_000_000


@dataclass(frozen=True)
class GroupPresentation:
    """Presentation by generator count and relator words.

    A relator is a sequence of signed 1-based generator indices; negative
    means the inverse, so a^2 b^-3 is (1, 1, -2, -2, -2).
    """

    generators: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.generators < 0:
            raise ValueError("generator count must be non-negative")
        for word in self.relators:
            for letter in word:
                if letter == 0 or abs(letter) > self.generators:
                    raise ValueError(f"relator letter {letter} out of range")

    @classmethod
    def from_lists(cls, generators: int, relators: Sequence[Sequence[int]]) -> "GroupPresentation":
        return cls(int(generators), tuple(tuple(int(x) for x in w) for w in relators))


@dataclass(frozen=True)
class AbelianizationResult:
    """H_1 of a presentation: free rank plus the torsion invariant chain."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        for i, t in enumerate(self.torsion):
            if t < 2:
                raise ValueError("torsion invariants must be >= 2")
            if i and t % self.torsion[i - 1]:
                raise ValueError("torsion invariants must form a divisibility chain")

    @property
    def torsion_order(self) -> int:
        out = 1
        for t in self.torsion:
            out *= t
        return out

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0


def exponent_matrix(p: GroupPresentation) -> IntMatrix | None:
    """Relators-by-generators exponent sums; None when there is nothing to sum."""
    if p.generators == 0 or not p.relators:
        return None
    rows = []
    for word in p.relators:
        row = [0] * p.generators
        for letter in word:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(row)
    return IntMatrix.from_rows(rows)


def abelianize(p: GroupPresentation) -> AbelianizationResult:
    """First homology of the presented group, via the Smith normal form diagonal."""
    mat = exponent_matrix(p)
    if mat is None:
        return AbelianizationResult(free_rank=p.generators, torsion=())
    diag = snf_diagonal(mat)
    nonzero = sum(1 for d in diag if d)
    return AbelianizationResult(
        free_rank=p.generators - nonzero,
        torsion=tuple(d for d in diag if d > 1),
    )


@dataclass(frozen=True)
class AutReport:
    """Automorphism-group report for Z^k + torsion.

    torsion_aut_order and is_abelian describe the computed part; for free
    rank 1 the order-2 sign-flip factor is folded into the verdict and the
    note, for free rank >= 2 the note flags the infinite nonabelian factor.
    """

    torsion_aut_order: int
    is_abelian: bool
    free_rank_note: str | None = None


def aut_bruteforce(group: FiniteGroup) -> AutReport:
    """|Aut| and its commutativity for an abelian group, by exhaustion.

    Aut depends only on the isomorphism type, so a group without declared
    invariants is replaced by abelian_group(primary_invariants(group)). Each
    generator e_i of Z/m_i goes to an element whose order divides m_i, which
    always gives a homomorphism; the bijective ones are counted and composed
    pairwise (two homomorphisms agree iff they agree on the generators).
    """
    if group.order > AUT_BRUTEFORCE_ORDER_CAP:
        raise CapExceededError(
            f"automorphism brute force capped at order {AUT_BRUTEFORCE_ORDER_CAP}, "
            f"got {group.order}"
        )
    if not group.is_abelian():
        raise ValueError("automorphism brute force requires an abelian group")
    if group.abelian_invariants is None:
        group = abelian_group(primary_invariants(group))

    n = group.order
    table = group.table
    moduli = group.abelian_invariants
    element_orders = [group.element_order(g) for g in range(n)]

    def multiples(y: int, m: int) -> list[int]:
        out = [0]
        for _ in range(m - 1):
            out.append(table[out[-1]][y])
        return out

    # candidate images of e_i, each as its multiples 0, y, ..., (m_i - 1)y
    candidate_sets = [
        [multiples(y, m) for y in range(n) if m % element_orders[y] == 0]
        for m in moduli
    ]

    budget = 1
    for s in candidate_sets:
        budget *= len(s)
    if budget > _AUT_CANDIDATE_BUDGET:
        raise CapExceededError(
            f"automorphism enumeration needs {budget} candidate maps, over the "
            f"budget {_AUT_CANDIDATE_BUDGET}"
        )

    automorphisms: list[list[int]] = []
    for images in itertools.product(*candidate_sets):
        # the mixed-radix composition of abelian_group: phi(g*m + i) = phi(g) + i*y
        phi = [0]
        for mult in images:
            phi = [table[a][b] for a in phi for b in mult]
        if len(set(phi)) == n:
            automorphisms.append(phi)

    gens = strides(moduli)
    abelian = all(
        s[t[g]] == t[s[g]]
        for i, s in enumerate(automorphisms)
        for t in automorphisms[i + 1 :]
        for g in gens
    )
    return AutReport(torsion_aut_order=len(automorphisms), is_abelian=abelian)


def galois_surrogate(p: GroupPresentation) -> AutReport:
    """Automorphism report of H_1 of a presentation, free and torsion parts.

    The torsion order |Aut| comes from the Hillar-Rhea formula, and Aut of a
    finite abelian group is abelian exactly when the group is cyclic. Torsion
    whose order cannot be factored within the trial-division cap raises
    CapExceededError. The free part is annotated: rank 1 contributes the
    order-2 sign flip, rank 2 and up is flagged infinite nonabelian. The two
    parts are reported as a direct-sum decomposition; maps mixing them are not
    counted.
    """
    h1 = abelianize(p)
    k = h1.free_rank
    note = None
    if k == 1:
        note = (
            "free rank 1: the infinite cyclic factor contributes Aut(Z) = {+-1} "
            "= Z/2 (order 2, abelian); combined with the torsion factor as a "
            "direct sum, maps mixing the factors not counted"
        )
    elif k > 1:
        note = (
            f"free rank {k}: the free factor contributes GL_{k}(Z) -- infinite, "
            "nonabelian; direct-sum decomposition only, mixing maps not counted"
        )
    return AutReport(
        torsion_aut_order=abelian_aut_order(h1.torsion),
        is_abelian=k <= 1 and len(h1.torsion) <= 1,
        free_rank_note=note,
    )
