"""Elementary number theory shared by the other modules.

Bounded factorization, primality, Euler's totient and the Moebius function,
the Ramanujan sums that give cyclotomic traces, and the order of the
automorphism group of a finite abelian group.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import chain
from math import gcd
from typing import Sequence

from .errors import CapExceededError

TRIAL_DIVISION_CAP = 2**20
# a cofactor with no prime factor up to TRIAL_DIVISION_CAP is prime if it is at most its square
_PRIME_COFACTOR_CAP = TRIAL_DIVISION_CAP**2


@functools.lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p increasing.

    Trial division stops at 2^20, so a cofactor past 2^40 can be left over;
    that raises CapExceededError instead of searching further.
    """
    if n < 1:
        raise ValueError(f"factorization needs a positive integer, got {n}")
    out = []
    m = n
    for p in chain((2,), range(3, TRIAL_DIVISION_CAP + 1, 2)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > _PRIME_COFACTOR_CAP:
        raise CapExceededError(
            f"factoring {n} left the cofactor {m} > 2^40 after trial division up to "
            f"the cap 2^20"
        )
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    """Primality through factorize, so its trial-division cap applies."""
    return n >= 2 and factorize(n) == ((n, 1),)


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def mobius(n: int) -> int:
    factors = factorize(n)
    return 0 if any(e > 1 for _, e in factors) else (-1) ** len(factors)


def ramanujan_sum(n: int, k: int) -> int:
    """tr(zeta_n^k) over Q, the sum of the k-th powers of the primitive n-th roots of unity.

    With g = gcd(n, k), zeta_n^k is a primitive (n/g)-th root of unity, each
    of which is hit phi(n)/phi(n/g) times, and the primitive m-th roots sum to mu(m).
    """
    m = n // gcd(n, k)
    return mobius(m) * euler_phi(n) // euler_phi(m)


def abelian_aut_order(moduli: Sequence[int]) -> int:
    """|Aut(Z/m_1 + ... + Z/m_k)| for any moduli m_i >= 1.

    Aut splits over the primary parts. For a p-part with exponents
    e_1 <= ... <= e_n, let d_k (c_k) be the largest (smallest) index l with
    e_l = e_k; then Hillar & Rhea (Amer. Math. Monthly 114 (2007) 917-923) give
    prod_k (p^d_k - p^(k-1)) * prod_j p^(e_j (n - d_j)) * prod_i p^((e_i - 1)(n - c_i + 1)).
    """
    exponents: defaultdict[int, list[int]] = defaultdict(list)
    for m in moduli:
        for p, e in factorize(m):
            exponents[p].append(e)
    order = 1
    for p, es in exponents.items():
        es.sort()
        n = len(es)
        for k, e in enumerate(es, start=1):
            d = bisect_right(es, e)
            c = bisect_left(es, e) + 1
            order *= (p**d - p ** (k - 1)) * p ** (e * (n - d) + (e - 1) * (n - c + 1))
    return order
