"""Exact arithmetic in rings of cyclotomic integers.

Elements of Z[zeta_n] live in the power basis {1, zeta, ..., zeta^(phi(n)-1)}
modulo the n-th cyclotomic polynomial. Traces are exact: tr(zeta^k) is a
Ramanujan sum, so the trace of an element is a dot product with its
coordinates and the trace-form Gram is a Hankel matrix of Ramanujan sums.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .exactla import IntMatrix
from .nt import euler_phi, ramanujan_sum


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, constant term first; () is the zero polynomial."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero (use from_coeffs)")

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int]) -> "IntPolynomial":
        data = list(coeffs)
        while data and data[-1] == 0:
            data.pop()
        return cls(tuple(data))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPolynomial.from_coeffs([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return IntPolynomial.from_coeffs(out)

    def __divmod__(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Quotient and remainder over Z; leading-term divisions must be exact."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = divisor.coeffs
        quo = [0] * max(len(rem) - len(d) + 1, 0)
        while len(rem) >= len(d) and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(d):
                break
            lead, r = divmod(rem[-1], d[-1])
            if r:
                raise ValueError("division is not exact over the integers")
            shift = len(rem) - len(d)
            quo[shift] += lead
            for i, c in enumerate(d):
                rem[shift + i] -= lead * c
        return IntPolynomial.from_coeffs(quo), IntPolynomial.from_coeffs(rem)

    def __floordiv__(self, divisor: "IntPolynomial") -> "IntPolynomial":
        quo, rem = divmod(self, divisor)
        if not rem.is_zero:
            raise ValueError("polynomial division left a remainder")
        return quo

    def __mod__(self, divisor: "IntPolynomial") -> "IntPolynomial":
        return divmod(self, divisor)[1]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if i > 0 and abs(c) != 1:
                term = f"{abs(c)}{term}"
            elif i == 0:
                term = f"{abs(c)}"
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _x_power_minus_one(n: int) -> IntPolynomial:
    return IntPolynomial.from_coeffs([-1] + [0] * (n - 1) + [1])


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial, by exact division of x^n - 1.

    Divides out the cyclotomic polynomials of all proper divisors of n;
    the result is monic of degree phi(n).
    """
    if n < 1:
        raise ValueError("cyclotomic polynomial needs n >= 1")
    poly = _x_power_minus_one(n)
    for d in range(1, n):
        if n % d == 0:
            poly = poly // cyclotomic_polynomial(d)
    if poly.degree != euler_phi(n) or not poly.is_monic:
        raise AssertionError(f"cyclotomic polynomial for n={n} failed its shape check")
    return poly


@dataclass(frozen=True)
class CyclotomicElement:
    """Element of Z[zeta_n] as phi(n) power-basis coordinates."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("conductor must be >= 1")
        if len(self.coeffs) != euler_phi(self.n):
            raise ValueError(
                f"need {euler_phi(self.n)} coefficients for conductor {self.n}, "
                f"got {len(self.coeffs)}"
            )

    @classmethod
    def from_coeffs(cls, n: int, coeffs: Sequence[int]) -> "CyclotomicElement":
        return cls(n, tuple(int(c) for c in coeffs))

    @classmethod
    def from_polynomial(cls, n: int, poly: IntPolynomial) -> "CyclotomicElement":
        rem = poly % cyclotomic_polynomial(n)
        deg = euler_phi(n)
        padded = list(rem.coeffs) + [0] * (deg - len(rem.coeffs))
        return cls(n, tuple(padded))

    @classmethod
    def zero(cls, n: int) -> "CyclotomicElement":
        return cls(n, (0,) * euler_phi(n))

    @classmethod
    def one(cls, n: int) -> "CyclotomicElement":
        return cls.from_polynomial(n, IntPolynomial((1,)))

    @classmethod
    def zeta(cls, n: int) -> "CyclotomicElement":
        return cls.from_polynomial(n, IntPolynomial.from_coeffs([0, 1]))

    def to_polynomial(self) -> IntPolynomial:
        return IntPolynomial.from_coeffs(self.coeffs)

    def __add__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        if self.n != other.n:
            raise ValueError("mismatched conductors")
        return CyclotomicElement(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        if self.n != other.n:
            raise ValueError("mismatched conductors")
        return CyclotomicElement(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CyclotomicElement":
        return CyclotomicElement(self.n, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        return cyc_mul(self, other)

    def scaled(self, k: int) -> "CyclotomicElement":
        return CyclotomicElement(self.n, tuple(k * c for c in self.coeffs))


def cyc_mul(a: CyclotomicElement, b: CyclotomicElement) -> CyclotomicElement:
    """Product in Z[zeta_n], reduced modulo the cyclotomic polynomial."""
    if a.n != b.n:
        raise ValueError(f"mismatched conductors: {a.n} vs {b.n}")
    return CyclotomicElement.from_polynomial(a.n, a.to_polynomial() * b.to_polynomial())


def cyc_trace(a: CyclotomicElement) -> int:
    """Trace of multiplication-by-a on the power basis of Q(zeta_n).

    The trace is linear and tr(zeta^j) is the Ramanujan sum c_n(j).
    """
    return sum(c * ramanujan_sum(a.n, j) for j, c in enumerate(a.coeffs))


def trace_form_gram(n: int) -> IntMatrix:
    """Gram matrix tr(zeta^(i+j)) of the trace form on the power basis of Z[zeta_n]."""
    if n < 1:
        raise ValueError("conductor must be >= 1")
    deg = euler_phi(n)
    traces = [ramanujan_sum(n, k) for k in range(2 * deg - 1)]
    return IntMatrix.from_rows([traces[i : i + deg] for i in range(deg)])
