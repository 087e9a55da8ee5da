"""Shared test helpers: independent oracles and random generators.

The determinant oracle is plain cofactor expansion and the minor-gcd oracle
enumerates minors directly, so neither shares any code path with the library
routines they check. The cyclotomic trace oracles are the regular
representation (power by power) and a high-precision sum over the complex
embeddings; the Donaldson oracle searches for an orthonormal basis, and the
short-vector oracle scans a box instead of enumerating level by level. The
abelian-group oracle adds mixed-radix digits entry by entry instead of
composing the table one cyclic factor at a time.
"""

from __future__ import annotations

import os
import random
from itertools import combinations, product
from math import gcd, isqrt

import mpmath

from forms4d.cyclotomic import CyclotomicElement, cyc_mul
from forms4d.exactla import IntMatrix
from forms4d.groupring import strides
from forms4d.quadform import BilinearForm, bilinear_value, short_vectors

DEFAULT_ORACLE_DIGITS = 30
PRECISION_ENV_VAR = "FORMS4D_PRECISION"


def det_cofactor(rows: list[list[int]]) -> int:
    """Determinant by cofactor expansion with memoization on column subsets."""
    n = len(rows)
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def rec(r: int, cols: tuple[int, ...]) -> int:
        if not cols:
            return 1
        key = (r, cols)
        if key in memo:
            return memo[key]
        total = 0
        for idx, c in enumerate(cols):
            a = rows[r][c]
            if a:
                sign = 1 if idx % 2 == 0 else -1
                total += sign * a * rec(r + 1, cols[:idx] + cols[idx + 1 :])
        memo[key] = total
        return total

    return rec(0, tuple(range(n)))


def minor_gcd(m: IntMatrix, k: int) -> int:
    """gcd of all k-by-k minors (0 when every minor vanishes)."""
    rows = m.to_rows()
    out = 0
    for ri in combinations(range(m.rows), k):
        for ci in combinations(range(m.cols), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            out = gcd(out, det_cofactor(sub))
    return out


def random_int_matrix(rng: random.Random, rows: int, cols: int, bound: int = 9) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def random_unimodular(rng: random.Random, n: int, ops: int = 10, bound: int = 3) -> IntMatrix:
    """Product of up to `ops` random elementary matrices with small entries."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, ops)):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and i != j:
            c = rng.choice([x for x in range(-bound, bound + 1) if x])
            rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix.from_rows(rows)


def conjugated(form: BilinearForm, p: IntMatrix) -> BilinearForm:
    return BilinearForm(p.transpose() @ form.gram @ p)


def unfactorable_presentation() -> dict:
    """24 generators, 24 relators with exponents drawn from -9..9, row by row.

    H_1 is cyclic of order 13238079721605081515992758642, which leaves the
    cofactor 23919106731586021 > 2^40 after trial division up to 2^20.
    """
    rng = random.Random(3)
    rows = [[rng.randint(-9, 9) for _ in range(24)] for _ in range(24)]
    relators = [
        [(j + 1) * (1 if e > 0 else -1) for j, e in enumerate(row) for _ in range(abs(e))]
        for row in rows
    ]
    return {"generators": 24, "relators": relators}


def regular_trace(a: CyclotomicElement) -> int:
    """Trace of multiplication-by-a on the power basis, column by column.

    Column j of the multiplication matrix is a * zeta^j; only its j-th
    coordinate contributes to the trace, so the matrix is never stored.
    """
    z = CyclotomicElement.zeta(a.n)
    cur = a
    total = 0
    deg = len(a.coeffs)
    for j in range(deg):
        total += cur.coeffs[j]
        if j + 1 < deg:
            cur = cyc_mul(cur, z)
    return total


def regular_trace_gram(n: int) -> list[list[int]]:
    """tr(zeta^(i+j)) on the power basis, every power multiplied out."""
    deg = len(CyclotomicElement.one(n).coeffs)
    powers = [CyclotomicElement.one(n)]
    for _ in range(2 * deg - 2):
        powers.append(cyc_mul(powers[-1], CyclotomicElement.zeta(n)))
    traces = [regular_trace(p) for p in powers]
    return [[traces[i + j] for j in range(deg)] for i in range(deg)]


def embedding_trace_oracle(a: CyclotomicElement, precision: int | None = None) -> float:
    """Sum of a over all primitive n-th roots of unity, in high-precision floats.

    Digits come from the argument, else the FORMS4D_PRECISION environment
    variable, else 30.
    """
    if precision is None:
        precision = int(os.environ.get(PRECISION_ENV_VAR, str(DEFAULT_ORACLE_DIGITS)))
    n = a.n
    coeffs_high_first = list(reversed(a.coeffs))
    with mpmath.workdps(precision):
        total = mpmath.mpc(0)
        for k in range(1, n + 1):
            if gcd(k, n) == 1:
                omega = mpmath.expjpi(mpmath.mpf(2 * k) / n)
                total += mpmath.polyval(coeffs_high_first, omega)
        return float(mpmath.re(total))


def diagonalizable_by_search(f: BilinearForm) -> bool:
    """Backtracking search for rank-many pairwise orthogonal norm-1 vectors."""
    norm_one = short_vectors(f, 1)

    def extend(chosen: list[tuple[int, ...]], start: int) -> bool:
        if len(chosen) == f.rank:
            return True
        for idx in range(start, len(norm_one)):
            v = norm_one[idx]
            if all(bilinear_value(f.gram, v, w) == 0 for w in chosen):
                if extend(chosen + [v], idx + 1):
                    return True
        return False

    return extend([], 0)


def short_vectors_by_box(gram: IntMatrix, bound: int) -> list[tuple[int, ...]]:
    """All nonzero v with v^T G v <= bound, one per +-pair, for small definite G.

    Every such v lies in the box x_i^2 <= bound * (G^-1)_ii
    = bound * adj(G)_ii / det G; the box is scanned point by point.
    """
    rows = gram.to_rows()
    n = len(rows)
    det = det_cofactor(rows)
    radii = []
    for i in range(n):
        minor = [[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != i]
        radii.append(isqrt(bound * det_cofactor(minor) // det))
    found = []
    for v in product(*(range(-r, r + 1) for r in radii)):
        if any(v) and next(c for c in v if c) > 0:
            if sum(rows[i][j] * v[i] * v[j] for i in range(n) for j in range(n)) <= bound:
                found.append(v)
    return sorted(found)


def abelian_table_by_digits(invariants: list[int]) -> tuple[tuple[int, ...], ...]:
    """Cayley table of Z/m_1 + ... + Z/m_k: split both labels into mixed-radix
    digits and add them digit by digit."""
    places = strides(invariants)
    order = 1
    for m in invariants:
        order *= m
    digits = [[label // s % m for m, s in zip(invariants, places)] for label in range(order)]
    return tuple(
        tuple(
            sum(((x + y) % m) * s for x, y, m, s in zip(a, b, invariants, places))
            for b in digits
        )
        for a in digits
    )


def relabelled_cayley_table(table, rng: random.Random) -> list[list[int]]:
    """The same group under a random relabelling that fixes the identity 0."""
    n = len(table)
    perm = [0] + rng.sample(range(1, n), n - 1)
    inverse = [0] * n
    for label, image in enumerate(perm):
        inverse[image] = label
    return [[perm[table[inverse[a]][inverse[b]]] for b in range(n)] for a in range(n)]
