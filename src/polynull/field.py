"""Arithmetic over a prime field F_p and dense univariate polynomials.

Scalars are canonical representatives in ``[0, p)`` and every reduction
is eager, so equality is plain integer comparison.  Moduli are capped at
31 bits: a product of two canonical values fits int64, and the float64
matrix kernel of ``polymat`` splits entries into two 16-bit limbs, whose
dgemm sums stay exact integers below 2^53 for inner sizes up to about 2^21.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence, Union

from .errors import ModulusMismatch

# Degree of the zero polynomial.  Compares below every int and absorbs
# addition, which keeps shifted-degree bookkeeping free of sentinels.
NEG_INF = float("-inf")

#: Default modulus: the Mersenne prime 2^31 - 1.
DEFAULT_PRIME = 2**31 - 1

_MAX_MODULUS_BITS = 31

# Witnesses making Miller-Rabin deterministic for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for word-size integers."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """A prime field F_p.

    ``interpolation_budget`` declares the largest polynomial degree the
    caller intends to multiply by evaluation/interpolation; it needs
    2*degree + 1 distinct points, so construction rejects p below
    2*budget + 3.
    """

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME, interpolation_budget: int | None = None):
        if not isinstance(p, int):
            raise TypeError(f"modulus must be an int, got {type(p).__name__}")
        if p.bit_length() > _MAX_MODULUS_BITS:
            raise ValueError(f"modulus {p} exceeds {_MAX_MODULUS_BITS} bits")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if interpolation_budget is not None and p < 2 * interpolation_budget + 3:
            raise ValueError(
                f"modulus {p} too small for interpolation budget "
                f"{interpolation_budget} (needs at least {2 * interpolation_budget + 3})"
            )
        self.p = p

    def element(self, value: int) -> FieldElement:
        return FieldElement(value % self.p, self)

    def random_element(self, rng: random.Random) -> FieldElement:
        return FieldElement(rng.randrange(self.p), self)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldSpec) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("FieldSpec", self.p))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p})"


def _check_same_field(a: FieldSpec, b: FieldSpec) -> None:
    if a.p != b.p:
        raise ModulusMismatch(f"mixed moduli {a.p} and {b.p}")


class FieldElement:
    """Canonical residue in ``[0, p)``."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: FieldSpec):
        self.value = value % field.p
        self.field = field

    def __add__(self, other: FieldElement) -> FieldElement:
        _check_same_field(self.field, other.field)
        s = self.value + other.value
        p = self.field.p
        return FieldElement(s - p if s >= p else s, self.field)

    def __sub__(self, other: FieldElement) -> FieldElement:
        _check_same_field(self.field, other.field)
        return FieldElement(self.value - other.value, self.field)

    def __mul__(self, other: FieldElement) -> FieldElement:
        _check_same_field(self.field, other.field)
        return FieldElement(self.value * other.value % self.field.p, self.field)

    def __neg__(self) -> FieldElement:
        return FieldElement(-self.value, self.field)

    def inverse(self) -> FieldElement:
        if self.value == 0:
            raise ZeroDivisionError("inverse of 0")
        return FieldElement(pow(self.value, -1, self.field.p), self.field)

    def __truediv__(self, other: FieldElement) -> FieldElement:
        return self * other.inverse()

    def __pow__(self, k: int) -> FieldElement:
        if k < 0:
            return self.inverse() ** (-k)
        return FieldElement(pow(self.value, k, self.field.p), self.field)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.value == other.value and self.field.p == other.field.p

    def __hash__(self) -> int:
        return hash((self.value, self.field.p))

    def __int__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.field.p})"


# Below this degree schoolbook multiplication beats Karatsuba.
_KARATSUBA_CUTOFF = 32


def _mul_school(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
        # periodic reduction keeps the accumulators word-size
        if i % 8 == 7:
            out = [c % p for c in out]
    return [c % p for c in out]


def _mul_karatsuba(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    if n <= _KARATSUBA_CUTOFF:
        return _mul_school(a, b, p)
    h = n // 2
    a0, a1 = list(a[:h]), list(a[h:])
    b0, b1 = list(b[:h]), list(b[h:])
    if not a1 or not b1:
        return _mul_school(a, b, p)
    z0 = _mul_karatsuba(a0, b0, p) if a0 and b0 else []
    z2 = _mul_karatsuba(a1, b1, p)
    sa = [(x + y) % p for x, y in zip(a0 + [0] * max(0, len(a1) - len(a0)),
                                      a1 + [0] * max(0, len(a0) - len(a1)))]
    sb = [(x + y) % p for x, y in zip(b0 + [0] * max(0, len(b1) - len(b0)),
                                      b1 + [0] * max(0, len(b0) - len(b1)))]
    z1 = _mul_karatsuba(sa, sb, p) if sa and sb else []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(z0):
        out[i] += c
    for i, c in enumerate(z1):
        out[i + h] += c
    for i, c in enumerate(z0):
        out[i + h] -= c
    for i, c in enumerate(z2):
        out[i + h] -= c
    for i, c in enumerate(z2):
        out[i + 2 * h] += c
    return [c % p for c in out]


class Poly:
    """Dense univariate polynomial over F_p, coefficients ascending.

    Always normalized: the top stored coefficient is nonzero, and the
    zero polynomial stores an empty coefficient tuple.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: Iterable[int] = ()):
        p = field.p
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: FieldSpec) -> Poly:
        return cls(field)

    @classmethod
    def one(cls, field: FieldSpec) -> Poly:
        return cls(field, (1,))

    @classmethod
    def x(cls, field: FieldSpec) -> Poly:
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: FieldSpec, c: int) -> Poly:
        return cls(field, (c,))

    @classmethod
    def random(cls, field: FieldSpec, degree: int, rng: random.Random) -> Poly:
        """Uniform coefficients, so the result has degree at most ``degree``."""
        return cls(field, [rng.randrange(field.p) for _ in range(degree + 1)])

    @property
    def degree(self) -> Union[int, float]:
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other: Poly) -> Poly:
        _check_same_field(self.field, other.field)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.field.p
        return Poly(self.field, out)

    def __neg__(self) -> Poly:
        p = self.field.p
        return Poly(self.field, [p - c if c else 0 for c in self.coeffs])

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        _check_same_field(self.field, other.field)
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.field)
        return Poly(self.field, _mul_karatsuba(self.coeffs, other.coeffs, self.field.p))

    def scale(self, c: int) -> Poly:
        c %= self.field.p
        return Poly(self.field, [a * c % self.field.p for a in self.coeffs])

    def truncate(self, order: int) -> Poly:
        """``self mod x^order``."""
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        return Poly(self.field, self.coeffs[:order])

    def shift_var(self, x0: int | FieldElement) -> Poly:
        """Substitute x -> x + x0; degree is preserved."""
        a = int(x0) % self.field.p
        if a == 0 or not self.coeffs:
            return self
        p = self.field.p
        # Horner on coefficients: out = out*(x + a) + c, highest first.
        out: list[int] = []
        for c in reversed(self.coeffs):
            nxt = [0] * (len(out) + 1)
            for i, v in enumerate(out):
                nxt[i + 1] = v
                nxt[i] = (nxt[i] + v * a) % p
            nxt[0] = (nxt[0] + c) % p
            out = nxt
        return Poly(self.field, out)

    def __call__(self, a: int | FieldElement) -> FieldElement:
        """Horner evaluation at a field point."""
        v = int(a) % self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * v + c) % self.field.p
        return FieldElement(acc, self.field)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field.p == other.field.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field.p, self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(terms)
