"""Exact arithmetic foundation: rationals, cyclotomic numbers, finite fields.

Scalars live in Q(zeta_p) where p is the characteristic of the chosen finite
field; measure values are plain rationals.  No floating point anywhere, so
every comparison in the package is an exact equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

Rational = Fraction

_ZERO = Fraction(0)  # immutable, so every zero coefficient built here can share it


class DomainError(ValueError):
    """An operand is outside the domain of the operation (e.g. inverting 0)."""


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------


def _reduce_cyclotomic(coeffs: Sequence[Fraction], p: int) -> tuple[Fraction, ...]:
    """Reduce a polynomial in zeta_p to the power basis 1, zeta, ..., zeta^{p-2}.

    Exponents are first folded mod p (zeta^p = 1), then zeta^{p-1} is
    eliminated through 1 + zeta + ... + zeta^{p-1} = 0.
    """
    folded = [Fraction(0)] * p
    for e, c in enumerate(coeffs):
        folded[e % p] += c
    top = folded[p - 1]
    return tuple(folded[k] - top for k in range(p - 1))


def _cyclotomic_product(
    a: Sequence[Fraction], b: Sequence[Fraction], p: int
) -> tuple[Fraction, ...]:
    """The product of two power-basis vectors, reduced like _reduce_cyclotomic.

    Both operands are scaled to integer vectors, so the convolution and the
    fold of exponents mod p run on integers in one pass; each output
    coefficient is then one Fraction over the product of the denominators.
    """
    ra = [x.as_integer_ratio() for x in a]
    rb = [y.as_integer_ratio() for y in b]
    da = math.lcm(*(d for _, d in ra))
    db = math.lcm(*(d for _, d in rb))
    ib = [(j, n * (db // d)) for j, (n, d) in enumerate(rb) if n]
    folded = [0] * p
    for i, (n, d) in enumerate(ra):
        if n:
            x = n * (da // d)
            for j, y in ib:
                folded[(i + j) % p] += x * y
    top, den = folded.pop(), da * db
    return tuple(Fraction(x - top, den) if x != top else _ZERO for x in folded)


@dataclass(frozen=True)
class CycNum:
    """Element of Q(zeta_p) in the power basis 1, zeta_p, ..., zeta_p^{p-2}."""

    prime: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.prime - 1:
            raise ValueError("coefficient vector must have length p-1")

    # -- constructors

    @staticmethod
    def zero(p: int) -> "CycNum":
        return CycNum(p, (_ZERO,) * (p - 1))

    @staticmethod
    def one(p: int) -> "CycNum":
        return CycNum.from_rational(p, Fraction(1))

    @staticmethod
    def from_rational(p: int, r: Fraction | int) -> "CycNum":
        c = [Fraction(0)] * (p - 1)
        c[0] = Fraction(r)
        return CycNum(p, tuple(c))

    @staticmethod
    def zeta_pow(p: int, k: int) -> "CycNum":
        """zeta_p^k, reduced to the power basis."""
        return _zeta_pow_cached(p, k % p)

    # -- ring structure

    def _check(self, other: "CycNum") -> None:
        if self.prime != other.prime:
            raise DomainError("mixed cyclotomic fields")

    def __add__(self, other: "CycNum") -> "CycNum":
        self._check(other)
        if not any(other.coeffs):
            return self
        if not any(self.coeffs):
            return other
        return CycNum(self.prime, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycNum") -> "CycNum":
        self._check(other)
        return CycNum(self.prime, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycNum":
        return CycNum(self.prime, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycNum | Fraction | int") -> "CycNum":
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        self._check(other)
        # a rational operand (no zeta terms) only scales the other one
        if not any(other.coeffs[1:]):
            return self._scaled(other.coeffs[0])
        if not any(self.coeffs[1:]):
            return other._scaled(self.coeffs[0])
        return CycNum(self.prime, _cyclotomic_product(self.coeffs, other.coeffs, self.prime))

    def _scaled(self, r: "Fraction | int") -> "CycNum":
        if r == 1:
            return self
        return CycNum(self.prime, tuple(a * r if a else _ZERO for a in self.coeffs))

    def __rmul__(self, other: "Fraction | int") -> "CycNum":
        return self.__mul__(other)

    def __truediv__(self, other: "Fraction | int") -> "CycNum":
        if other == 0:
            raise DomainError("division by zero")
        return self * (Fraction(1) / Fraction(other))

    def conj(self) -> "CycNum":
        """Complex conjugation, i.e. the Galois map zeta_p -> zeta_p^{-1}."""
        p = self.prime
        out = [Fraction(0)] * p
        for k, c in enumerate(self.coeffs):
            out[(-k) % p] += c
        return CycNum(p, _reduce_cyclotomic(out, p))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def rational_value(self) -> Fraction:
        """The value as a rational; error if not rational."""
        if any(c != 0 for c in self.coeffs[1:]):
            raise DomainError("not a rational cyclotomic number")
        return self.coeffs[0]

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{k}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyc(p={self.prime}: {body})"


@lru_cache(maxsize=None)
def _zeta_pow_cached(p: int, k: int) -> CycNum:
    raw = [Fraction(0)] * (k + 1)
    raw[k] = Fraction(1)
    return CycNum(p, _reduce_cyclotomic(raw, p))


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (little-endian integer coefficient lists)
# ---------------------------------------------------------------------------


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    a = _poly_trim(list(a))
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p) if p > 2 else m[-1]
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, c in enumerate(m):
            a[i + shift] = (a[i + shift] - factor * c) % p
        _poly_trim(a)
    return a


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _monic_polys(degree: int, p: int) -> Iterator[list[int]]:
    for idx in range(p**degree):
        coeffs = [(idx // p**j) % p for j in range(degree)]
        yield coeffs + [1]


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    n = len(modulus) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        for cand in _monic_polys(d, p):
            if not _poly_mod(modulus, cand, p):
                return False
    return True


# ---------------------------------------------------------------------------
# finite fields F_q = F_p[x]/(modulus)
# ---------------------------------------------------------------------------

_DEFAULT_MODULI: dict[int, tuple[int, int, tuple[int, ...]]] = {
    2: (2, 1, (0, 1)),
    3: (3, 1, (0, 1)),
    4: (2, 2, (1, 1, 1)),
    5: (5, 1, (0, 1)),
    8: (2, 3, (1, 1, 0, 1)),
    9: (3, 2, (1, 0, 1)),
}


@dataclass(frozen=True, eq=False)
class FqField:
    """The finite field F_{p^n} with an explicit monic irreducible modulus.

    Elements are enumerated lexicographically on coefficient vectors with the
    least-significant coefficient first; this enumeration order is part of the
    table/file format contract of the whole package.
    """

    p: int
    n: int
    modulus: tuple[int, ...]

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise DomainError(f"p={self.p} is not prime")
        if len(self.modulus) != self.n + 1 or self.modulus[-1] != 1:
            raise DomainError("modulus must be monic of degree n")
        if not _is_irreducible(self.modulus, self.p):
            raise DomainError("modulus is reducible")
        object.__setattr__(self, "q", self.p**self.n)
        self._build_tables()

    # identity is (p, n, modulus)
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FqField)
            and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    def __repr__(self) -> str:
        return f"F{self.q}"

    # -- internal tables

    def _build_tables(self) -> None:
        p, n, q = self.p, self.n, self.q
        coeffs = [tuple((i // p**j) % p for j in range(n)) for i in range(q)]
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        index_of = {c: i for i, c in enumerate(coeffs)}
        for i in range(q):
            for j in range(q):
                s = tuple((a + b) % p for a, b in zip(coeffs[i], coeffs[j]))
                add[i][j] = index_of[s]
                prod = _poly_mod(_poly_mul(coeffs[i], coeffs[j], p), self.modulus, p)
                prod = tuple(prod + [0] * (n - len(prod)))
                mul[i][j] = index_of[prod]
        neg = [index_of[tuple((-a) % p for a in coeffs[i])] for i in range(q)]
        inv = [0] * q
        for i in range(1, q):
            inv[i] = next(j for j in range(1, q) if mul[i][j] == 1)
        trace = []
        for i in range(q):
            t = i
            acc = i
            for _ in range(n - 1):
                # Frobenius x -> x^p via repeated multiplication
                fr = t
                for _ in range(p - 1):
                    fr = mul[fr][t]
                t = fr
                acc = add[acc][t]
            tc = coeffs[acc]
            if any(tc[1:]):
                raise AssertionError("trace did not land in the prime field")
            trace.append(tc[0])
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_add", add)
        object.__setattr__(self, "_mul", mul)
        object.__setattr__(self, "_neg", neg)
        object.__setattr__(self, "_inv", inv)
        object.__setattr__(self, "_trace", trace)

    # -- index-level arithmetic (used by all table machinery)

    def add_idx(self, i: int, j: int) -> int:
        return self._add[i][j]

    def sub_idx(self, i: int, j: int) -> int:
        return self._add[i][self._neg[j]]

    def neg_idx(self, i: int) -> int:
        return self._neg[i]

    def mul_idx(self, i: int, j: int) -> int:
        return self._mul[i][j]

    def inv_idx(self, i: int) -> int:
        if i == 0:
            raise DomainError("inversion of zero")
        return self._inv[i]

    def trace_idx(self, i: int) -> int:
        return self._trace[i]

    def dot_idx(self, u: Sequence[int], v: Sequence[int]) -> int:
        acc = 0
        for a, b in zip(u, v):
            acc = self._add[acc][self._mul[a][b]]
        return acc

    # -- element-level API

    def elem(self, index: int) -> "FqElem":
        return FqElem(self, self._coeffs[index])

    def from_coeffs(self, coeffs: Sequence[int]) -> "FqElem":
        c = tuple(x % self.p for x in coeffs)
        if len(c) != self.n:
            raise DomainError("coefficient vector has wrong length")
        return FqElem(self, c)

    def zero(self) -> "FqElem":
        return self.elem(0)

    def one(self) -> "FqElem":
        return self.elem(1)

    def __iter__(self) -> Iterator["FqElem"]:
        return (self.elem(i) for i in range(self.q))

    def conj_psi(self, idx: int) -> CycNum:
        """conj(psi(x)) = zeta_p^{-Tr(x)} for the element with the given index."""
        return CycNum.zeta_pow(self.p, -self._trace[idx])

    def psi_idx(self, idx: int) -> CycNum:
        return CycNum.zeta_pow(self.p, self._trace[idx])


@dataclass(frozen=True)
class FqElem:
    """Element of an FqField, stored as its coefficient vector mod p."""

    field: FqField
    coeffs: tuple[int, ...]

    @property
    def index(self) -> int:
        p = self.field.p
        return sum(c * p**j for j, c in enumerate(self.coeffs))

    def _check(self, other: "FqElem") -> None:
        if self.field != other.field:
            raise DomainError("elements of different fields")

    def __add__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return self.field.elem(self.field.add_idx(self.index, other.index))

    def __sub__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return self.field.elem(self.field.sub_idx(self.index, other.index))

    def __neg__(self) -> "FqElem":
        return self.field.elem(self.field.neg_idx(self.index))

    def __mul__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return self.field.elem(self.field.mul_idx(self.index, other.index))

    def inverse(self) -> "FqElem":
        return self.field.elem(self.field.inv_idx(self.index))

    def trace(self) -> int:
        return self.field.trace_idx(self.index)

    def is_zero(self) -> bool:
        return self.index == 0

    def __repr__(self) -> str:
        return f"FqElem({self.field!r}, {self.coeffs})"


def field_for(q: int) -> FqField:
    """Field with the built-in default modulus; q in {2, 3, 4, 5, 8, 9}."""
    if q not in _DEFAULT_MODULI:
        raise DomainError(f"no default modulus for q={q}; supply one explicitly")
    p, n, mod = _DEFAULT_MODULI[q]
    return FqField(p, n, mod)


def split_field_spec(text: str) -> tuple[int, int, tuple[int, ...]]:
    """The p, n and modulus coefficients of a descriptor ``p,n,[c0,...,cn]``,
    read without building the field."""
    head, _, tail = text.partition("[")
    if not tail.endswith("]"):
        raise DomainError(f"malformed field spec: {text!r}")
    parts = [s for s in head.split(",") if s.strip()]
    if len(parts) != 2:
        raise DomainError(f"malformed field spec: {text!r}")
    return int(parts[0]), int(parts[1]), tuple(int(s) for s in tail[:-1].split(","))


def parse_field_spec(text: str) -> FqField:
    """Parse a field descriptor of the form ``p,n,[c0,...,cn]``."""
    return FqField(*split_field_spec(text))


def psi(x: FqElem) -> CycNum:
    """The fixed nontrivial additive character zeta_p^{Tr(x)} of F_q."""
    return CycNum.zeta_pow(x.field.p, x.trace())
