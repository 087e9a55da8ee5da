"""Exact integer and rational linear algebra.

Smith normal form, Bareiss determinants, and one fraction-free symmetric
elimination that gives the inertia, the determinant and the integer pivot rows
of a symmetric matrix. All arithmetic is exact: matrices hold Python's
arbitrary-precision ints or `fractions.Fraction`, and only the rational
congruence diagonalization works on fractions; no floating point appears
anywhere in this module. Matrices are immutable values and every operation
returns a new one, so everything here is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Generic, Iterator, Sequence, TypeVar

T = TypeVar("T")  # entry type
M = TypeVar("M", bound="_Matrix")


@dataclass(frozen=True)
class _Matrix(Generic[T]):
    """Row-major matrix of exact numbers; the shared part of IntMatrix and RatMatrix."""

    rows: int
    cols: int
    entries: tuple[T, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix must be non-empty")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls: type[M], rows: Sequence[Sequence]) -> M:
        data = [list(r) for r in rows]
        if not data or not data[0]:
            raise ValueError("matrix must be non-empty")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("rows must all have the same length")
        return cls(len(data), width, tuple(x for r in data for x in r))

    @classmethod
    def identity(cls: type[M], n: int) -> M:
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> T:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[T]]:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    def transpose(self: M) -> M:
        return type(self)(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def negated(self: M) -> M:
        return type(self)(self.rows, self.cols, tuple(-x for x in self.entries))

    def __matmul__(self: M, other: M) -> M:
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        a, b = self.to_rows(), other.to_rows()
        out = [
            sum(a[i][k] * b[k][j] for k in range(self.cols))
            for i in range(self.rows)
            for j in range(other.cols)
        ]
        return type(self)(self.rows, other.cols, tuple(out))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.at(i, j) == self.at(j, i)
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )


@dataclass(frozen=True)
class IntMatrix(_Matrix[int]):
    """Row-major matrix of exact integers."""

    def __post_init__(self) -> None:
        super().__post_init__()
        for e in self.entries:
            # bool is an int subclass; reject it so JSON true/false can't sneak in
            if not isinstance(e, int) or isinstance(e, bool):
                raise ValueError("entries must be exact integers")


@dataclass(frozen=True)
class RatMatrix(_Matrix[Fraction]):
    """Row-major matrix of exact rationals; entries are converted to Fraction."""

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "entries", tuple(Fraction(x) for x in self.entries))

    @classmethod
    def from_int_matrix(cls, m: IntMatrix) -> "RatMatrix":
        return cls(m.rows, m.cols, m.entries)

    @property
    def diagonal(self) -> tuple[Fraction, ...]:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form S = U·A·V with unimodular U, V.

    The diagonal d_1, ..., d_r (r = min shape) is non-negative, satisfies
    d_i | d_{i+1}, and trailing zeros follow all nonzero entries. S is the
    canonical invariant of A; U and V are one deterministic witness pair.
    """

    S: IntMatrix
    U: IntMatrix
    V: IntMatrix
    diagonal: tuple[int, ...]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def _hnf(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form: its nonzero rows, pivots left to right.

    Rows are inserted one at a time. A new row meets the pivot rows in column
    order: where the pivot divides its entry it is cleared by subtraction,
    otherwise an extended-gcd 2x2 step (determinant -1) makes the pivot the
    gcd and clears the entry; where it leads in a column with no pivot it
    becomes a pivot row. Then every entry above a pivot whose row changed is
    reduced into [0, pivot). The basis is thus the fully reduced Hermite form
    of the rows seen so far after every insertion, which keeps all entries
    polynomially bounded (Kannan & Bachem, SIAM J. Comput. 8, 1979).
    """
    basis: list[list[int]] = []
    cols: list[int] = []  # pivot column of each basis row
    for row in rows:
        r = list(row)
        width = len(r)
        changed = -1  # first basis index whose row changed
        start = k = 0
        while True:
            end = cols[k] if k < len(basis) else width
            lead = next((j for j in range(start, end) if r[j]), None)
            if lead is not None:
                basis.insert(k, r if r[lead] > 0 else [-x for x in r])
                cols.insert(k, lead)
                if changed < 0:
                    changed = k
                break
            if k == len(basis):
                break  # the row lies in the span of the basis
            c, p = end, basis[k]
            if r[c]:
                a, b = p[c], r[c]
                if b % a == 0:
                    q = b // a
                    r[c:] = [x - q * y for x, y in zip(r[c:], p[c:])]
                else:
                    g, x, y = _xgcd(a, b)
                    a, b = a // g, b // g
                    pt, rt = p[c:], r[c:]
                    p[c:] = [x * s + y * t for s, t in zip(pt, rt)]
                    r[c:] = [b * s - a * t for s, t in zip(pt, rt)]
                    if changed < 0:
                        changed = k
            start = c + 1
            k += 1
        if changed < 0:
            continue
        # each row reduces against the later pivots, from the first changed
        # one on: pivot rows before `changed` and their columns are untouched
        for i in range(len(basis) - 1, -1, -1):
            bi = basis[i]
            for j in range(max(i + 1, changed), len(basis)):
                c, bj = cols[j], basis[j]
                q = bi[c] // bj[c]
                if q:
                    bi[c:] = [x - q * y for x, y in zip(bi[c:], bj[c:])]
    return basis


def _transpose(rows: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def _is_diagonal(rows: list[list[int]]) -> bool:
    return not any(any(r[:i]) or any(r[i + 1 :]) for i, r in enumerate(rows))


def _chain_steps(d: list[int]) -> Iterator[tuple[int, int, int, int, int, int]]:
    """Make positive d_1, ..., d_k a divisibility chain in place.

    Each pair d_i, d_j (i < j) with d_i not dividing d_j becomes gcd, lcm;
    every such step yields (i, j, a/g, b/g, x, y) with g = x*a + y*b.
    """
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a:
                g, x, y = _xgcd(a, b)
                d[i], d[j] = g, a // g * b
                yield i, j, a // g, b // g, x, y


def snf(A: IntMatrix) -> SNFResult:
    """Smith normal form over the integers, with witnesses U and V.

    Alternates canonical row Hermite normal forms of [S | U] and of
    [S^T | V^T] until S is diagonal, then turns the diagonal into the
    divisibility chain with 2x2 gcd/lcm steps. Each pass holds S and the
    witness block fully reduced, so U and V stay polynomially bounded in the
    input size (a few hundred bits for random 64x64 inputs with entries of
    one digit) and are reproducible run to run.
    """
    m, n = A.rows, A.cols
    a = A.to_rows()
    # a and wa are the matrix and witness on the side being reduced, wb the
    # other witness, all kept as rows: (S, U, V^T) or (S^T, V^T, U).
    wa = [[int(i == j) for j in range(m)] for i in range(m)]
    wb = [[int(i == j) for j in range(n)] for i in range(n)]
    flipped = False
    while True:
        width = len(a[0])
        h = _hnf([x + w for x, w in zip(a, wa)])
        a, wa = [r[:width] for r in h], [r[width:] for r in h]
        if _is_diagonal(a):
            break
        a, wa, wb = _transpose(a), wb, wa
        flipped = not flipped
    s, u, vt = (_transpose(a), wb, wa) if flipped else (a, wa, wb)

    r = min(m, n)
    d = [s[i][i] for i in range(r) if s[i][i]]
    for i, j, a_g, b_g, x, y in _chain_steps(d):
        # diag(a, b) -> diag(g, lcm): rows by [[x, y], [-b/g, a/g]],
        # columns by [[1, -y*b/g], [1, x*a/g]]; both have determinant 1
        ui, uj = u[i], u[j]
        u[i] = [x * p + y * q for p, q in zip(ui, uj)]
        u[j] = [a_g * q - b_g * p for p, q in zip(ui, uj)]
        vi, vj = vt[i], vt[j]
        vt[i] = [p + q for p, q in zip(vi, vj)]
        vt[j] = [x * a_g * q - y * b_g * p for p, q in zip(vi, vj)]
        s[i][i], s[j][j] = d[i], d[j]

    return SNFResult(
        S=IntMatrix.from_rows(s),
        U=IntMatrix.from_rows(u),
        V=IntMatrix.from_rows(_transpose(vt)),
        diagonal=tuple(s[i][i] for i in range(r)),
    )


def snf_diagonal(A: IntMatrix) -> tuple[int, ...]:
    """The Smith normal form diagonal of A alone, without witnesses.

    Same alternating Hermite passes as `snf` on A itself: no identity block
    rides along and zero rows drop out, so each pass works on the rank-sized
    part. Equal to `snf(A).diagonal`.
    """
    a = _hnf(A.to_rows())
    while not _is_diagonal(a):
        a = _hnf(_transpose(a))
    d = [a[i][i] for i in range(len(a))]
    for _ in _chain_steps(d):
        pass
    return tuple(d) + (0,) * (min(A.rows, A.cols) - len(d))


def _bareiss_step(a: list[list[int]], k: int, prev: int, end: int) -> None:
    """Bareiss step at pivot a[k][k] on rows k+1..end-1, columns k+1 on.

    a_ij <- (a_kk*a_ij - a_ik*a_kj) / prev, exact by Sylvester's identity.
    A row with a_ik == 0 is left alone when a_kk == prev, where the update is
    the identity; this makes diagonal and block-diagonal input cheap.
    """
    p, pivot = a[k][k], a[k][k + 1 :]
    for row in a[k + 1 : end]:
        c = row[k]
        if c or p != prev:
            row[k + 1 :] = [(p * x - c * y) // prev for x, y in zip(row[k + 1 :], pivot)]


def determinant(A: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination with row pivoting."""
    if not A.is_square:
        raise ValueError("determinant requires a square matrix")
    n = A.rows
    a = A.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        _bareiss_step(a, k, prev, n)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SymmetricElimination:
    """Inertia, determinant and pivot rows of a symmetric integer matrix G.

    rows[k] is pivot row k of a unimodular congruence C^T G C from the
    diagonal on; rows[k][0] is its leading principal minor D_{k+1}, and
    x^T C^T G C x = sum_k (sum_j rows[k][j] x_{k+j})^2 / (D_k D_{k+1}) with
    D_0 = 1, over the nonzero pivots; radical rows come last and are zero.
    Positive definite G needs no pivoting, so there C = I.
    """

    inertia: tuple[int, int, int]
    determinant: int
    rows: tuple[tuple[int, ...], ...]


def _swap(a: list[list[int]], i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]
    for r in a:
        r[i], r[j] = r[j], r[i]


def symmetric_elimination(G: IntMatrix) -> SymmetricElimination:
    """Symmetric Bareiss elimination (Bareiss, Math. Comp. 22, 1968).

    Pivot k is negative exactly when D_k and D_{k+1} differ in sign, which
    gives the inertia by Sylvester's law. A zero pivot is repaired by a
    symmetric swap with a nonzero diagonal entry; when the whole trailing
    diagonal is zero, row and column j fold into k, making the pivot 2*a_kj;
    a zero trailing row is a radical direction and moves to the end. Swaps
    and folds are unimodular congruences, so every division stays exact and
    the determinant is the last pivot (0 when there is a radical).
    """
    if not G.is_symmetric():
        raise ValueError("symmetric elimination requires a symmetric matrix")
    n = G.rows
    a = G.to_rows()
    end = n  # rows from `end` on are radical
    prev = 1
    neg = k = 0
    while k < end:
        if a[k][k] == 0:
            m = next((m for m in range(k + 1, end) if a[m][m]), None)
            j = next((j for j in range(k + 1, end) if a[k][j]), None)
            if m is not None:
                _swap(a, k, m)
            elif j is not None:
                a[k] = [x + y for x, y in zip(a[k], a[j])]
                for r in a:
                    r[k] += r[j]
            else:
                end -= 1
                _swap(a, k, end)
                continue
        _bareiss_step(a, k, prev, end)
        neg += (a[k][k] > 0) != (prev > 0)
        prev = a[k][k]
        k += 1
    return SymmetricElimination(
        inertia=(end - neg, neg, n - end),
        determinant=prev if end == n else 0,
        rows=tuple(tuple(r[k:]) for k, r in enumerate(a)),
    )


@dataclass(frozen=True)
class RatDiagonalization:
    """Congruence diagonalization P^T · G · P = D over the rationals."""

    D: RatMatrix
    P: RatMatrix


def congruent_diagonalize(G: IntMatrix) -> RatDiagonalization:
    """Diagonalize a symmetric integer matrix by a rational congruence.

    Zero pivots with a nonzero entry in their row are repaired by folding
    that row/column pair into the pivot (adding or subtracting; one of the
    two always produces a nonzero pivot). Kept for the rational witness P;
    the library's own invariants come from `symmetric_elimination`, and the
    test suite uses this routine as its independent oracle (the benchmark's
    tracer in perfbench/tracing.py also wraps it by name).
    """
    if not G.is_symmetric():
        raise ValueError("congruence diagonalization requires a symmetric matrix")
    n = G.rows
    mat = [[Fraction(x) for x in row] for row in G.to_rows()]
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def fold(src: int, dst: int, c: Fraction) -> None:
        # col dst += c * col src, then the mirrored row op; P tracks col ops only
        for r in range(n):
            mat[r][dst] += c * mat[r][src]
        for r in range(n):
            p[r][dst] += c * p[r][src]
        mat[dst] = [a + c * b for a, b in zip(mat[dst], mat[src])]

    for k in range(n):
        if mat[k][k] == 0:
            j = next((j for j in range(k + 1, n) if mat[k][j] != 0), None)
            if j is None:
                continue  # row k is zero in the trailing block: radical direction
            for sign in (1, -1):
                if 2 * sign * mat[k][j] + mat[j][j] != 0:
                    fold(j, k, Fraction(sign))
                    break
        pivot = mat[k][k]
        if pivot == 0:
            raise AssertionError("zero pivot survived the fold step")
        for i in range(k + 1, n):
            if mat[k][i] != 0:
                fold(k, i, -mat[k][i] / pivot)

    return RatDiagonalization(
        D=RatMatrix.from_rows(mat),
        P=RatMatrix.from_rows(p),
    )


def signature(G: IntMatrix) -> tuple[int, int, int]:
    """Inertia (n+, n-, n0) of a symmetric integer matrix, by `symmetric_elimination`."""
    return symmetric_elimination(G).inertia
