"""Integral symmetric bilinear forms.

Witt-notation constructors, the diagonal trace-form models for odd-prime and
two-power conductors, polarization, form invariants, bounded short-vector
enumeration and diagonalizability over Z. Invariants and enumeration both read
the form's one fraction-free `exactla.symmetric_elimination`, computed once
per form and cached; only polarization and the enumeration's remaining bound
are rational.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence, Union

from . import exactla
from .errors import CapExceededError
from .exactla import IntMatrix, RatMatrix
from .nt import is_prime

SHORT_VECTOR_RANK_CAP = 16
SHORT_VECTOR_BOUND_CAP = 4
# coordinate values one short-vector enumeration may try; the deepest known input needs ~7,400
SHORT_VECTOR_NODE_CAP = 2**17


@dataclass(frozen=True)
class BilinearForm:
    """Integral symmetric bilinear form given by its Gram matrix."""

    gram: IntMatrix

    def __post_init__(self) -> None:
        if not self.gram.is_symmetric():
            raise ValueError("a bilinear form needs a symmetric Gram matrix")

    @property
    def rank(self) -> int:
        return self.gram.rows

    @functools.cached_property
    def elimination(self) -> exactla.SymmetricElimination:
        """The form's one `symmetric_elimination`, shared by its invariants and enumeration."""
        return exactla.symmetric_elimination(self.gram)

    def negated(self) -> "BilinearForm":
        return BilinearForm(self.gram.negated())


# --- Witt-notation expressions -------------------------------------------------

@dataclass(frozen=True)
class Diag:
    """k copies of the rank-1 form <sign>."""

    count: int
    sign: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("term count must be positive")
        if self.sign not in (1, -1):
            raise ValueError("diagonal sign must be +1 or -1")


@dataclass(frozen=True)
class Hyperbolic:
    """k copies of the hyperbolic plane [[0,1],[1,0]]."""

    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("term count must be positive")


@dataclass(frozen=True)
class Pfister:
    """The 2^n-dimensional Pfister block, realized as the sum of 2^n squares."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("Pfister exponent must be >= 1")


WittTerm = Union[Diag, Hyperbolic, Pfister]


@dataclass(frozen=True)
class WittExpression:
    terms: tuple[WittTerm, ...]


_DIAG_RE = re.compile(r"(\d+)?<(-?1)>")
_HYPER_RE = re.compile(r"(?:(\d+)x)?H")
_PFISTER_RE = re.compile(r"2\^(\d+)<1>")


def parse_witt(text: str) -> WittExpression:
    """Parse the mini-syntax `"7<1> + H + 2^4<1>"`.

    Terms are separated by `+`: `k<1>` / `k<-1>` diagonal blocks, `H` or
    `kxH` hyperbolic planes, `2^n<1>` Pfister blocks.
    """
    terms: list[WittTerm] = []
    for raw in text.split("+"):
        part = raw.strip().replace(" ", "")
        if not part:
            raise ValueError(f"empty term in Witt expression: {text!r}")
        if m := _PFISTER_RE.fullmatch(part):
            terms.append(Pfister(int(m.group(1))))
        elif m := _HYPER_RE.fullmatch(part):
            terms.append(Hyperbolic(int(m.group(1) or 1)))
        elif m := _DIAG_RE.fullmatch(part):
            terms.append(Diag(int(m.group(1) or 1), int(m.group(2))))
        else:
            raise ValueError(f"cannot parse Witt term {part!r}")
    return WittExpression(tuple(terms))


def _block_diagonal(blocks: Sequence[IntMatrix]) -> IntMatrix:
    size = sum(b.rows for b in blocks)
    rows = [[0] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                rows[offset + i][offset + j] = b.at(i, j)
        offset += b.rows
    return IntMatrix.from_rows(rows)


def from_witt(e: WittExpression) -> BilinearForm:
    """Assemble the block-diagonal Gram matrix of a Witt expression."""
    if not e.terms:
        raise ValueError("empty Witt expression")
    blocks: list[IntMatrix] = []
    hyper = IntMatrix.from_rows([[0, 1], [1, 0]])
    for term in e.terms:
        if isinstance(term, Diag):
            blocks.append(
                IntMatrix.from_rows(
                    [[term.sign if i == j else 0 for j in range(term.count)] for i in range(term.count)]
                )
            )
        elif isinstance(term, Hyperbolic):
            blocks.extend([hyper] * term.count)
        else:
            blocks.append(IntMatrix.identity(2 ** term.n))
    return BilinearForm(_block_diagonal(blocks))


# --- Trace-form models ---------------------------------------------------------

def odd_prime_trace_form(p: int) -> BilinearForm:
    """Diagonal model of the trace form on the p-member power list for odd prime p.

    The Gram matrix is I_p: odd parity, determinant 1, signature (p, 0, 0).
    Note this has rank p, one more than Z[zeta_p]; the honest rank-(p-1)
    Gram lives in cyclotomic.trace_form_gram.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    return BilinearForm(IntMatrix.identity(p))


def _two_power_diagonal(n: int) -> list[int]:
    # Literal index ranges on the basis of Z[zeta_{2^(n+1)}]:
    #   +1 for 0 <= i <= 2^n - 1 and at i = 2^n, -1 at i = 2^n + 1,
    #   +1 for 2^n + 2 <= i <= 3*2^(n-1) - 1, -1 for 3*2^(n-1) <= i < 2^(n+1).
    dim = 2 ** (n + 1)
    half = 2 ** n
    three_quarters = 3 * 2 ** (n - 1)
    diag = []
    for i in range(dim):
        if i <= half - 1:
            diag.append(1)
        elif i == half:
            diag.append(1)
        elif i == half + 1:
            diag.append(-1)
        elif i <= three_quarters - 1:
            diag.append(1)
        else:
            diag.append(-1)
    return diag


def two_power_trace_form(n: int) -> BilinearForm:
    """Diagonal model of the trace form for conductor 2^(n+1), n >= 4.

    n <= 3 is refused: those conductors belong to the complex, quaternion and
    octonion cases excluded from this classification.
    """
    if n < 4:
        raise ValueError(f"two-power trace form needs n >= 4, got {n}")
    diag = _two_power_diagonal(n)
    size = len(diag)
    return BilinearForm(
        IntMatrix.from_rows([[diag[i] if i == j else 0 for j in range(size)] for i in range(size)])
    )


def two_power_signature_values(n: int) -> tuple[int, int]:
    """(claimed, computed) signature of the two-power trace form.

    The closed-form claim is 2^n; counting the literal diagonal entries gives
    2^n - 2. Both are reported downstream, with a discrepancy flag.
    """
    if n < 4:
        raise ValueError(f"two-power trace form needs n >= 4, got {n}")
    diag = _two_power_diagonal(n)
    computed = sum(diag)
    return 2 ** n, computed


# --- Polarization and values ----------------------------------------------------

Matrix = Union[IntMatrix, RatMatrix]


def quadratic_value(gram: Matrix, x: Sequence[int]):
    """q(x) = x^T G x, exactly."""
    rows = gram.to_rows()
    if len(x) != gram.rows or not gram.is_square:
        raise ValueError("vector length must match the matrix dimension")
    return sum(rows[i][j] * x[i] * x[j] for i in range(len(x)) for j in range(len(x)))


def bilinear_value(gram: Matrix, x: Sequence[int], y: Sequence[int]):
    """B(x, y) = x^T G y, exactly."""
    rows = gram.to_rows()
    if len(x) != gram.rows or len(y) != gram.cols or not gram.is_square:
        raise ValueError("vector lengths must match the matrix dimension")
    return sum(rows[i][j] * x[i] * y[j] for i in range(len(x)) for j in range(len(y)))


def polarize(q_gram: Matrix) -> RatMatrix:
    """Polarization B(x,y) = (q(x+y) - q(x) - q(y)) / 2 on the basis vectors.

    Evaluates the identity entry by entry rather than copying the input, so it
    doubles as a self-consistency check; on a symmetric Gram the result equals
    the input. The half may be genuinely fractional, hence the rational result.
    """
    if not q_gram.is_symmetric():
        raise ValueError("polarization requires a symmetric Gram matrix")
    n = q_gram.rows

    def basis(i: int) -> list[int]:
        return [int(k == i) for k in range(n)]

    out = []
    for i in range(n):
        row = []
        for j in range(n):
            ei, ej = basis(i), basis(j)
            s = [a + b for a, b in zip(ei, ej)]
            val = Fraction(
                quadratic_value(q_gram, s)
                - quadratic_value(q_gram, ei)
                - quadratic_value(q_gram, ej)
            ) / 2
            row.append(val)
        out.append(row)
    return RatMatrix.from_rows(out)


def direct_sum(a: BilinearForm, b: BilinearForm) -> BilinearForm:
    return BilinearForm(_block_diagonal([a.gram, b.gram]))


# --- Invariants -----------------------------------------------------------------

@dataclass(frozen=True)
class FormInvariants:
    rank: int
    signature: tuple[int, int, int]
    determinant: int
    parity: str  # "even" | "odd"
    unimodular: bool
    definiteness: str  # "positive" | "negative" | "indefinite" | "degenerate"

    @property
    def signature_value(self) -> int:
        return self.signature[0] - self.signature[1]

    @property
    def is_definite(self) -> bool:
        return self.definiteness in ("positive", "negative")


def invariants(f: BilinearForm) -> FormInvariants:
    """All standard invariants of a form, from its `elimination`."""
    elim = f.elimination
    even = all(f.gram.at(i, i) % 2 == 0 for i in range(f.rank))
    pos, neg, zero = elim.inertia
    if zero > 0:
        definiteness = "degenerate"
    elif neg == 0:
        definiteness = "positive"
    elif pos == 0:
        definiteness = "negative"
    else:
        definiteness = "indefinite"
    return FormInvariants(
        rank=f.rank,
        signature=elim.inertia,
        determinant=elim.determinant,
        parity="even" if even else "odd",
        unimodular=abs(elim.determinant) == 1,
        definiteness=definiteness,
    )


@functools.lru_cache(maxsize=1)
def e8_form() -> BilinearForm:
    """The rank-8 even unimodular positive definite form.

    Gram has 2 on the diagonal and 1 where the E8 diagram joins two nodes
    (a chain of seven with the eighth node attached to the fifth). Shape is
    verified at construction: even, determinant 1, signature (8, 0, 0).
    """
    edges = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)}
    rows = [
        [2 if i == j else (1 if (min(i, j), max(i, j)) in edges else 0) for j in range(8)]
        for i in range(8)
    ]
    form = BilinearForm(IntMatrix.from_rows(rows))
    inv = invariants(form)
    if inv.parity != "even" or inv.determinant != 1 or inv.signature != (8, 0, 0):
        raise AssertionError("E8 Gram failed its construction checks")
    return form


# --- Short vectors and diagonalizability ----------------------------------------

def short_vectors(f: BilinearForm, bound: int) -> list[tuple[int, ...]]:
    """All nonzero v with v^T G v <= bound, one of each +-pair.

    Exact Fincke-Pohst enumeration (Math. Comp. 44, 1985) on the integer pivot
    rows b of the form's `elimination`: q(x) = sum_i y_i^2 / (D_i D_{i+1})
    with y_i = sum_{j>=i} b_ij x_j and leading minors D_0 = 1, D_1, ..., D_n.
    Coordinates are fixed from the last one down; each level's range of y_i
    comes from one integer square root, and only the remaining bound is a
    fraction. More than SHORT_VECTOR_NODE_CAP coordinate values tried raises
    CapExceededError: a badly skewed basis can need a number of values that
    grows with its entries, even at rank 2. Representatives have a positive
    first nonzero coordinate and the output is sorted lexicographically.
    """
    if f.rank > SHORT_VECTOR_RANK_CAP:
        raise CapExceededError(
            f"short-vector enumeration capped at rank {SHORT_VECTOR_RANK_CAP}, got {f.rank}"
        )
    if not 1 <= bound <= SHORT_VECTOR_BOUND_CAP:
        raise CapExceededError(
            f"short-vector bound must be in 1..{SHORT_VECTOR_BOUND_CAP}, got {bound}"
        )
    n = f.rank
    elim = f.elimination
    if elim.inertia != (n, 0, 0):
        raise ValueError("form is not positive definite")
    rows = elim.rows
    minors = [1] + [r[0] for r in rows]

    found: set[tuple[int, ...]] = set()
    x = [0] * n
    nodes = 0

    def rec(i: int, remaining: Fraction) -> None:
        nonlocal nodes
        p, scale = rows[i][0], minors[i] * minors[i + 1]
        s = sum(b * c for b, c in zip(rows[i][1:], x[i + 1 :]))
        t = isqrt(remaining.numerator * scale // remaining.denominator)  # |y_i| <= t
        for k in range(-((t + s) // p), (t - s) // p + 1):
            nodes += 1
            if nodes > SHORT_VECTOR_NODE_CAP:
                raise CapExceededError(
                    f"short-vector enumeration passed the node cap {SHORT_VECTOR_NODE_CAP}"
                )
            x[i] = k
            if i == 0:
                if any(x):
                    vec = tuple(x)
                    first = next(c for c in vec if c)
                    found.add(vec if first > 0 else tuple(-c for c in vec))
            else:
                y = p * k + s
                rec(i - 1, remaining - Fraction(y * y, scale))
        x[i] = 0

    rec(n - 1, Fraction(bound))
    return sorted(found)


def is_diagonalizable_over_Z(f: BilinearForm) -> bool:
    """Whether a positive definite unimodular form has an orthonormal Z-basis.

    Count the +-pairs of norm-1 vectors. In an integral positive definite
    lattice two norm-1 vectors other than +-each other are orthogonal
    (Cauchy-Schwarz plus integrality), and each one splits off a Z summand, so
    the form is the identity form exactly when there are rank-many pairs.
    """
    inv = invariants(f)
    if inv.definiteness != "positive":
        raise ValueError("diagonalizability test requires a positive definite form")
    if not inv.unimodular:
        raise ValueError("diagonalizability test requires a unimodular form")
    return len(short_vectors(f, 1)) == f.rank
