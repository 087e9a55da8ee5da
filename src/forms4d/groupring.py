"""Group rings of finite groups and their regular-representation trace form.

Finite groups are Cayley tables with element 0 the identity; a direct sum of
cyclic groups labels its elements in mixed radix (`strides`), and its table is
composed one cyclic factor at a time. `primary_invariants` recovers the
prime-power cyclic factors of an abelian Cayley table from its element
orders. The integral group ring Z[G] carries the non-degenerate pairing
Q(x, y) = trace of left multiplication by x*y, whose Gram matrix is |G| at
the (g, h) with gh = e and 0 elsewhere; Q satisfies Q(xy, z) = Q(x, yz).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import lcm
from typing import Sequence

from .errors import CapExceededError
from .exactla import IntMatrix
from .nt import euler_phi, factorize, is_prime
from .quadform import BilinearForm

GROUP_ORDER_CAP = 512
CAYLEY_TABLE_ORDER_CAP = 24


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group as a Cayley table; labels are 0..order-1 with identity 0.

    abelian_invariants records the orders [m_1, ..., m_k] when the group was
    assembled as a direct sum of cyclic groups, else None.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    abelian_invariants: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        n = self.order
        if n < 1 or len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("Cayley table shape does not match the group order")
        full = set(range(n))
        for i, row in enumerate(self.table):
            if set(row) != full:
                raise ValueError(f"row {i} of the Cayley table is not a permutation")
        for j in range(n):
            if {row[j] for row in self.table} != full:
                raise ValueError(f"column {j} of the Cayley table is not a permutation")
        if any(self.table[0][h] != h for h in range(n)) or any(
            self.table[g][0] != g for g in range(n)
        ):
            raise ValueError("element 0 must be a two-sided identity")
        for g in range(n):
            h = self.table[g].index(0)
            if self.table[h][g] != 0:
                raise ValueError(f"element {g} has no two-sided inverse")
        if n <= CAYLEY_TABLE_ORDER_CAP:
            t = self.table
            for a in range(n):
                for b in range(n):
                    ab = t[a][b]
                    for c in range(n):
                        if t[ab][c] != t[a][t[b][c]]:
                            raise ValueError("Cayley table is not associative")

    @classmethod
    def from_cayley_table(cls, table: Sequence[Sequence[int]]) -> "FiniteGroup":
        """Build from an untrusted table; associativity is verified, so the
        order is capped where that check is exhaustive."""
        n = len(table)
        if n > CAYLEY_TABLE_ORDER_CAP:
            raise CapExceededError(
                f"explicit Cayley tables are capped at order {CAYLEY_TABLE_ORDER_CAP}, got {n}"
            )
        return cls(n, tuple(tuple(int(x) for x in row) for row in table))

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inverse(self, g: int) -> int:
        return self.table[g].index(0)

    def element_order(self, g: int) -> int:
        k = 1
        x = g
        while x != 0:
            x = self.table[x][g]
            k += 1
        return k

    def is_abelian(self) -> bool:
        return all(
            self.table[g][h] == self.table[h][g]
            for g in range(self.order)
            for h in range(g + 1, self.order)
        )

    def exponent(self) -> int:
        out = 1
        for g in range(self.order):
            out = lcm(out, self.element_order(g))
        return out


def strides(invariants: Sequence[int]) -> list[int]:
    """Place values of the mixed-radix labels of abelian_group(invariants).

    The element sum x_i e_i has label sum x_i * strides[i], so strides[i] is
    the label of the i-th generator e_i.
    """
    out = [1] * len(invariants)
    for i in range(len(invariants) - 2, -1, -1):
        out[i] = out[i + 1] * invariants[i + 1]
    return out


def abelian_group(invariants: Sequence[int]) -> FiniteGroup:
    """Direct sum of cyclic groups Z/m_1 + ... + Z/m_k (empty list: trivial group).

    The table is composed one cyclic factor at a time: in G + Z/m the element
    (g, i) has label g*m + i, so row (g, i) is T[g][h]*m + (i + j) mod m over
    h and j. These are the mixed-radix labels of `strides`.
    """
    invs = tuple(int(m) for m in invariants)
    if any(m < 2 for m in invs):
        raise ValueError("every invariant must be >= 2")
    order = 1
    for k, m in enumerate(invs, 1):
        order *= m
        if order > GROUP_ORDER_CAP:
            if k == len(invs):
                raise CapExceededError(f"group order {order} exceeds the cap {GROUP_ORDER_CAP}")
            raise CapExceededError(
                f"group order exceeds the cap {GROUP_ORDER_CAP}: the first {k} of "
                f"{len(invs)} invariants already multiply to {order}"
            )

    table: list[tuple[int, ...]] = [(0,)]
    for m in invs:
        shifts = [[(i + j) % m for j in range(m)] for i in range(m)]
        table = [
            tuple([t * m + s for t in row for s in shift]) for row in table for shift in shifts
        ]
    return FiniteGroup(order, tuple(table), abelian_invariants=invs)


def primary_invariants(group: FiniteGroup) -> list[int]:
    """Prime-power orders of the cyclic factors of an abelian group, ascending.

    They are read off the element orders: p^k kills p^(s_k) elements, and
    s_k - s_(k-1) cyclic factors have order >= p^k.
    """
    if not group.is_abelian():
        raise ValueError("primary invariants need an abelian group")
    orders = [group.element_order(g) for g in range(group.order)]
    out: list[int] = []
    for p, e in factorize(group.order):
        # p^(e+1) kills no more elements than p^e
        s = [
            dict(factorize(sum(1 for d in orders if p**k % d == 0))).get(p, 0)
            for k in range(e + 2)
        ]
        for k in range(1, e + 1):
            out += [p**k] * ((s[k] - s[k - 1]) - (s[k + 1] - s[k]))
    return sorted(out)


def symmetric_group_s3() -> FiniteGroup:
    """S3 on three letters, elements sorted with the identity first."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms) for p in perms
    )
    return FiniteGroup(6, table)


@dataclass(frozen=True)
class GroupRingElement:
    """Integer coefficient vector over the elements of a finite group."""

    group: FiniteGroup
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.group.order:
            raise ValueError("coefficient vector length must equal the group order")

    @classmethod
    def from_coeffs(cls, group: FiniteGroup, coeffs: Sequence[int]) -> "GroupRingElement":
        return cls(group, tuple(int(c) for c in coeffs))

    @classmethod
    def basis(cls, group: FiniteGroup, g: int) -> "GroupRingElement":
        return cls(group, tuple(int(i == g) for i in range(group.order)))

    @classmethod
    def one(cls, group: FiniteGroup) -> "GroupRingElement":
        return cls.basis(group, 0)

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.group != other.group:
            raise ValueError("mismatched groups")
        return GroupRingElement(self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        if self.group != other.group:
            raise ValueError("mismatched groups")
        return GroupRingElement(self.group, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        return gr_mul(self, other)

    def scaled(self, k: int) -> "GroupRingElement":
        return GroupRingElement(self.group, tuple(k * c for c in self.coeffs))


def gr_mul(x: GroupRingElement, y: GroupRingElement) -> GroupRingElement:
    """Convolution product through the Cayley table."""
    if x.group != y.group:
        raise ValueError("mismatched groups")
    table = x.group.table
    out = [0] * x.group.order
    for g, cg in enumerate(x.coeffs):
        if cg:
            row = table[g]
            for h, ch in enumerate(y.coeffs):
                if ch:
                    out[row[h]] += cg * ch
    return GroupRingElement(x.group, tuple(out))


def conjugate(x: GroupRingElement, g: int) -> GroupRingElement:
    """Ring automorphism h -> g^-1 h g applied to the basis indices."""
    group = x.group
    inv = group.inverse(g)
    out = [0] * group.order
    for h, c in enumerate(x.coeffs):
        if c:
            out[group.mul(group.mul(inv, h), g)] += c
    return GroupRingElement(group, tuple(out))


def regular_representation(x: GroupRingElement) -> IntMatrix:
    """Matrix of left multiplication by x on the group basis."""
    n = x.group.order
    table = x.group.table
    rows = [[0] * n for _ in range(n)]
    for g, c in enumerate(x.coeffs):
        if c:
            for j in range(n):
                rows[table[g][j]][j] += c
    return IntMatrix.from_rows(rows)


def frobenius_form(group: FiniteGroup) -> BilinearForm:
    """The pairing Q(x, y) = trace of left multiplication by x*y on Z[G].

    On basis elements the trace is |G| when gh = e and 0 otherwise, which is
    the closed form used here; tests recompute it through the regular
    representation.
    """
    if group.order > GROUP_ORDER_CAP:
        raise CapExceededError(f"group order {group.order} exceeds the cap {GROUP_ORDER_CAP}")
    n = group.order
    rows = [[n if group.table[g][h] == 0 else 0 for h in range(n)] for g in range(n)]
    return BilinearForm(IntMatrix.from_rows(rows))


@dataclass(frozen=True)
class WedderburnDecomposition:
    """Census of cyclotomic summands of the rational group algebra.

    pairs lists (d, m_d) over the divisors d of the exponent, where m_d is the
    number of elements of order d divided by phi(d); the rational algebra is
    the sum of m_d copies of Q(zeta_d). primary_fields is the shorter
    one-field-per-cyclic-factor list read off the declared invariants (None
    without a declaration); notes record exactly how the two differ.
    """

    group_order: int
    pairs: tuple[tuple[int, int], ...]
    primary_fields: tuple[tuple[int, int], ...] | None
    notes: tuple[str, ...]

    def __post_init__(self) -> None:
        total = sum(m * euler_phi(d) for d, m in self.pairs)
        if total != self.group_order:
            raise ValueError("summand dimensions must add up to the group order")
        mult = dict(self.pairs)
        if self.group_order > 1 and mult.get(1) != 1:
            raise ValueError("a nontrivial group must contribute exactly one rational summand")


def wedderburn_decompose(group: FiniteGroup) -> WedderburnDecomposition:
    """Element-order census of an abelian group's rational group algebra."""
    if not group.is_abelian():
        raise ValueError("the cyclotomic decomposition needs an abelian group")
    orders = Counter(group.element_order(g) for g in range(group.order))
    pairs = []
    for d in sorted(orders):
        count = orders[d]
        phi = euler_phi(d)
        if count % phi:
            raise AssertionError(f"element-order count {count} for order {d} not divisible by phi")
        pairs.append((d, count // phi))

    notes: list[str] = []
    primary: tuple[tuple[int, int], ...] | None = None
    if group.abelian_invariants is not None:
        factor_counter: Counter[int] = Counter()
        for m in group.abelian_invariants:
            factor_counter.update(p**e for p, e in factorize(m))
        primary = tuple(sorted(factor_counter.items()))
        if group.order > 1:
            notes.append(
                "rational summand (d = 1, multiplicity 1) appears in the census but not "
                "in the one-field-per-cyclic-factor list"
            )
            extra = [d for d, _ in pairs if d != 1 and d not in factor_counter]
            if extra:
                notes.append(
                    f"census summands for d in {extra} come from characters of composite "
                    "order and are also absent from the per-factor list"
                )
            nonprime = sorted(q for q in factor_counter if not is_prime(q))
            if nonprime:
                notes.append(
                    f"cyclic factor orders {nonprime} are not prime, outside the "
                    "distinct-prime hypothesis behind the per-factor list"
                )
            repeated = sorted(q for q, c in factor_counter.items() if c > 1)
            if repeated:
                notes.append(
                    f"prime-power factors {repeated} repeat, outside the distinct-prime "
                    "hypothesis behind the per-factor list"
                )
    else:
        notes.append("no invariant-factor declaration; per-factor field list unavailable")

    return WedderburnDecomposition(
        group_order=group.order,
        pairs=tuple(pairs),
        primary_fields=primary,
        notes=tuple(notes),
    )
