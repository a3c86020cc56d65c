"""CycNum and Rows arithmetic against sympy's exact algebraic numbers.

sympy builds Q(zeta_p) itself, as ``QQ.algebraic_field(exp(2 pi i / p))``
with the minimal polynomial it computes, and does its own arithmetic there.
Every CycNum is mapped into that field through its power-basis
coefficients, and the ring laws, complex conjugation, ``zeta_pow`` and the
row operations must commute with the map exactly.  sympy is a test-only
dependency: without it this module is skipped.
"""

import itertools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from fqharmonic import tables  # noqa: E402
from fqharmonic.exactnum import CycNum  # noqa: E402
from fqharmonic.tables import Rows  # noqa: E402

PRIMES = (2, 3, 5, 7)


class Cyclotomic:
    """sympy's Q(zeta_p) and the map from CycNum into it."""

    def __init__(self, p):
        self.p = p
        self.zeta_expr = sympy.exp(2 * sympy.pi * sympy.I / p)
        self.K = sympy.QQ.algebraic_field(self.zeta_expr)
        self.zeta = self.K.from_sympy(self.zeta_expr)

    def rational(self, r):
        return self.K.from_sympy(sympy.Rational(r.numerator, r.denominator))

    def of(self, c):
        acc = self.K.zero
        for k, x in enumerate(c.coeffs):
            if x:
                acc = acc + self.rational(x) * self.zeta**k
        return acc


@pytest.fixture(scope="module", params=PRIMES)
def field(request):
    return Cyclotomic(request.param)


def values(p, n, seed):
    rng = random.Random(seed)

    def coeff():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5)))

    out = [CycNum.zero(p), CycNum.one(p), CycNum.from_rational(p, Fraction(-3, 4)), CycNum.zeta_pow(p, 1)]
    out += [CycNum(p, tuple(coeff() for _ in range(p - 1))) for _ in range(n)]
    return out


def test_power_basis_is_sympys_field(field):
    # the map is onto a field of degree p - 1 in which zeta has order p
    assert field.K.ext.minpoly.degree() == field.p - 1
    assert field.zeta**field.p == field.K.one
    assert field.p == 2 or field.zeta != field.K.one


def test_zeta_pow(field):
    for k in range(-2 * field.p, 2 * field.p + 1):
        assert field.of(CycNum.zeta_pow(field.p, k)) == field.zeta ** (k % field.p)


def test_ring_laws(field):
    to = field.of
    xs = values(field.p, 5, field.p)
    for a, b in itertools.product(xs, repeat=2):
        assert to(a + b) == to(a) + to(b)
        assert to(a - b) == to(a) - to(b)
        assert to(a * b) == to(a) * to(b)
        assert to(-a) == -to(a)
    for a, b, c in itertools.islice(itertools.product(xs, repeat=3), 0, None, 7):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
    for a in xs:
        for r in (Fraction(0), Fraction(1), Fraction(-7, 3)):
            assert to(a * r) == to(a) * field.rational(r)


def test_conj_is_complex_conjugation(field):
    # sympy conjugates zeta itself; conjugation fixes the rational
    # coefficients, so it maps sum c_k zeta^k to sum c_k conj(zeta)^k
    bar = field.K.from_sympy(sympy.conjugate(field.zeta_expr))
    assert bar * field.zeta == field.K.one
    for a in values(field.p, 6, 10 + field.p):
        expected = field.K.zero
        for k, x in enumerate(a.coeffs):
            expected = expected + field.rational(x) * bar**k
        assert field.of(a.conj()) == expected
        assert a.conj().conj() == a


def test_rows_product_and_dot(field):
    p = field.p
    for n, seed in ((1, 0), (5, 1), (9, 2)):
        xs = values(p, n, 20 + seed)[:n]
        ys = values(p, n, 40 + seed)[-n:]
        a, b = Rows.of(xs, p), Rows.of(ys, p)
        prod = tables.mul_pointwise(a, b)
        assert [field.of(c) for c in prod] == [field.of(x) * field.of(y) for x, y in zip(xs, ys)]
        expected = field.K.zero
        for x, y in zip(xs, ys):
            expected = expected + field.of(x) * field.of(y)
        assert field.of(tables.dot(a, b, p)) == expected
