"""Reference arithmetic for the benchmark's input generators and oracles.

Everything here is the benchmark's own code and imports nothing from
`forms4d`, so an oracle built on it stays independent of the library under
test. Matrices are lists of rows of Python ints.
"""

from __future__ import annotations

import random
from collections import Counter
from math import gcd, prod

# The Mersenne prime 2^61 - 1, modulus of the witness check U*A*V == S: a
# wrong witness passes only if every mismatch vanishes mod p.
CHECK_PRIME = 2305843009213693951


# --- matrices -------------------------------------------------------------------

def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def diagonal(entries) -> list[list[int]]:
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def block_diagonal(*blocks: list[list[int]]) -> list[list[int]]:
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[offset + i][offset : offset + len(row)] = row
        offset += len(b)
    return out


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def matmul_mod(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def conjugate(gram: list[list[int]], p: list[list[int]]) -> list[list[int]]:
    """P^T * G * P."""
    return matmul(transpose(p), matmul(gram, p))


def rank_det_mod(a: list[list[int]], p: int) -> tuple[int, int]:
    """Rank modulo a prime p, and the determinant mod p (0 unless square)."""
    m = [[x % p for x in row] for row in a]
    rows, cols = len(m), len(m[0])
    rank, det = 0, 1
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = -det
        det = det * m[rank][c] % p
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, rows):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank, (det % p if rows == cols and rank == rows else 0)


def random_unimodular(n: int, rng: random.Random, spread: float = 3.0) -> list[list[int]]:
    """Dense unimodular matrix: row-permuted L*U with +-1 off-diagonal entries.

    L is unit lower and U unit upper triangular, each off-diagonal entry
    nonzero with probability spread/n, so det = +-1 and the product fills in.
    """
    p = min(1.0, spread / n)

    def triangle(lower: bool) -> list[list[int]]:
        return [
            [
                1 if i == j
                else (rng.choice((-1, 1)) if (j < i) == lower and i != j and rng.random() < p else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]

    prod_lu = matmul(triangle(True), triangle(False))
    order = list(range(n))
    rng.shuffle(order)
    return [prod_lu[i] for i in order]


def e8_gram() -> list[list[int]]:
    """Cartan matrix of E8: a chain of seven nodes, the eighth joined to the fifth."""
    edges = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)}
    return [
        [2 if i == j else (-1 if (min(i, j), max(i, j)) in edges else 0) for j in range(8)]
        for i in range(8)
    ]


HYPERBOLIC = [[0, 1], [1, 0]]


# --- number theory ----------------------------------------------------------------

def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    return prod(p ** (e - 1) * (p - 1) for p, e in factorize(n).items())


def mobius(n: int) -> int:
    f = factorize(n)
    return 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def ramanujan_sum(n: int, k: int) -> int:
    """tr(zeta_n^k) over Q: mu(n/g) * phi(n) / phi(n/g) with g = gcd(n, k)."""
    q = n // gcd(n, k)
    return mobius(q) * euler_phi(n) // euler_phi(q)


def conductor_gram(n: int) -> list[list[int]]:
    """Trace-form Gram tr(zeta^(i+j)) on the power basis of Z[zeta_n]."""
    deg = euler_phi(n)
    return [[ramanujan_sum(n, i + j) for j in range(deg)] for i in range(deg)]


def conductor_determinant(n: int) -> int:
    """Discriminant of Z[zeta_n]: (-1)^(phi/2) n^phi / prod_{p | n} p^(phi/(p-1))."""
    phi = euler_phi(n)
    if n <= 2:
        return 1
    den = prod(p ** (phi // (p - 1)) for p in factorize(n))
    return (-1) ** (phi // 2) * n ** phi // den


# --- finite abelian groups -------------------------------------------------------------

def primary_parts(invariants) -> dict[int, list[int]]:
    """Prime -> sorted exponents of the primary cyclic factors."""
    parts: dict[int, list[int]] = {}
    for m in invariants:
        for p, e in factorize(m).items():
            parts.setdefault(p, []).append(e)
    return {p: sorted(es) for p, es in parts.items()}


def aut_order(invariants) -> int:
    """|Aut| of a finite abelian group, by Hillar and Rhea (2007), Thm 4.1."""
    total = 1
    for p, e in primary_parts(invariants).items():
        k = len(e)
        for j in range(1, k + 1):
            ej = e[j - 1]
            d = max(l for l in range(1, k + 1) if e[l - 1] == ej)
            c = min(l for l in range(1, k + 1) if e[l - 1] == ej)
            total *= (p ** d - p ** (j - 1)) * p ** (ej * (k - d)) * p ** ((ej - 1) * (k - c + 1))
    return total


def is_cyclic(invariants) -> bool:
    return all(len(es) == 1 for es in primary_parts(invariants).values())


def aut_candidates(invariants) -> int:
    """Candidate maps the brute force tries: per generator of order m_i, the
    elements of order dividing m_i, which number prod_j gcd(m_i, m_j)."""
    return prod(gcd(a, b) for a in invariants for b in invariants)


def order_census(invariants) -> list[list[int]]:
    """[d, (number of elements of order d) / phi(d)] for every occurring order d."""
    exponent = 1
    for m in invariants:
        exponent = exponent * m // gcd(exponent, m)

    def dividing(d: int) -> int:
        return prod(gcd(d, m) for m in invariants)

    out = []
    for d in divisors(exponent):
        exact = sum(mobius(d // e) * dividing(e) for e in divisors(d))
        if exact:
            out.append([d, exact // euler_phi(d)])
    return out


def primary_fields(invariants) -> list[list[int]]:
    """[prime power q, multiplicity] over the primary factors of the invariants."""
    counter: Counter[int] = Counter()
    for m in invariants:
        counter.update(p ** e for p, e in factorize(m).items())
    return [list(item) for item in sorted(counter.items())]


def involutions(invariants) -> int:
    """Elements g with g = -g."""
    return prod(gcd(2, m) for m in invariants)
