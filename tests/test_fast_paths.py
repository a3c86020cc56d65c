"""Integer and shortcut paths against the slow Fraction paths they replace.

``CycNum.__mul__``/``__add__`` skip work for zero, one and rational
operands and multiply on integers otherwise; ``tables.scale`` works on
integer coefficient rows; one random cyclotomic number is drawn as a
one-entry table by ``LCG.coeff_rows``.  Each is checked for exact equality with the plain
loop it replaced, and every coefficient must stay a Fraction.
"""

import itertools
import random
from fractions import Fraction

import pytest

from fqharmonic import tables
from fqharmonic.exactnum import CycNum, DomainError, _reduce_cyclotomic, field_for
from fqharmonic.harness.rng import LCG
from fqharmonic.harness.suites import _rand_cyc

PRIMES = [2, 3, 5]


def naive_mul(a, b):
    n = a.prime - 1
    conv = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            conv[i + j] += x * y
    return CycNum(a.prime, _reduce_cyclotomic(conv, a.prime))


def naive_add(a, b):
    return CycNum(a.prime, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def naive_scale(a, c):
    return CycNum(a.prime, tuple(x * c for x in a.coeffs))


def all_fractions(values):
    return all(type(x) is Fraction for v in values for x in v.coeffs)


def operands(p, rng):
    """zero, one, rational, negative rational and general values over Q(zeta_p)."""
    general = [
        CycNum(p, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(p - 1)))
        for _ in range(4)
    ]
    sparse = CycNum(p, tuple(Fraction(0) if k % 2 else Fraction(k + 1, 3) for k in range(p - 1)))
    return [
        CycNum.zero(p),
        CycNum.one(p),
        CycNum.from_rational(p, Fraction(7, 4)),
        CycNum.from_rational(p, -1),
        CycNum.from_rational(p, Fraction(-5, 6)),
        CycNum.zeta_pow(p, 1),
        sparse,
        *general,
    ]


@pytest.mark.parametrize("p", PRIMES)
def test_mul_and_add_match_naive_loops(p):
    values = operands(p, random.Random(p))
    for a, b in itertools.product(values, repeat=2):
        prod, total = a * b, a + b
        assert prod == naive_mul(a, b), (a, b)
        assert total == naive_add(a, b), (a, b)
        assert all_fractions([prod, total])


@pytest.mark.parametrize("p", PRIMES)
def test_scalar_mul_matches_naive_loop(p):
    for a in operands(p, random.Random(10 + p)):
        for c in (0, 1, -1, 5, Fraction(1), Fraction(2, 3), Fraction(-7, 4)):
            for got in (a * c, c * a):
                assert got == naive_scale(a, c)
                assert all_fractions([got])


def test_fast_paths_still_reject_mixed_fields():
    for a, b in ((CycNum.zero(3), CycNum.one(5)), (CycNum.one(3), CycNum.zeta_pow(5, 2))):
        with pytest.raises(DomainError):
            a * b
        with pytest.raises(DomainError):
            b + a


def rand_table(rng, p, n):
    kinds = (
        lambda: CycNum.zero(p),
        lambda: CycNum.from_rational(p, Fraction(rng.randint(-4, 4), rng.randint(1, 6))),
        lambda: CycNum(p, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(p - 1))),
    )
    return tuple(rng.choice(kinds)() for _ in range(n))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_scale_matches_entrywise_product(q):
    p = field_for(q).p
    rng = random.Random(q)
    for dim in range(3):
        for _ in range(5):
            table = rand_table(rng, p, q**dim)
            for c in (1, 0, -1, Fraction(2, 3), 5):
                got = tables.scale(tables.Rows.of(table, p), c)
                assert tuple(got) == tuple(naive_scale(x, c) for x in table)
                assert all_fractions(got)
            factor = rand_table(rng, p, 1)[0]
            got = tables.scale(tables.Rows.of(table, p), factor)
            assert tuple(got) == tuple(naive_mul(x, factor) for x in table)
            assert all_fractions(got)
    assert tuple(tables.scale(tables.Rows.of((), 2), Fraction(1, 2))) == ()


@pytest.mark.parametrize("p", PRIMES)
def test_integer_rows_round_trip(p):
    rng = random.Random(20 + p)
    for n in (1, 4, 9):
        table = rand_table(rng, p, n)
        den, rows = tables._rows(table, p)
        assert len(rows) == p - 1 and all(len(row) == n for row in rows)
        assert all(type(x) is int for row in rows for x in row)
        back = tables._cycs(rows, den, p)
        assert back == table and all_fractions(back)
    with pytest.raises(DomainError):
        tables._rows((CycNum.one(p), CycNum.one(7)), p)


def old_cyc_coeffs(rng, n):
    """The per-coefficient draw loop of one random cyclotomic number."""
    return tuple(old_fraction(rng) if rng.randint(0, 3) else Fraction(0) for _ in range(n))


def old_fraction(rng):
    num = rng.choice([1, 2, 3, -1, -2, 5])
    den = rng.choice([1, 2, 3])
    return Fraction(num, den)


@pytest.mark.parametrize("seed", [0, 1, 20260808])
@pytest.mark.parametrize("p", PRIMES)
def test_cyc_coeffs_keeps_the_draw_stream(seed, p):
    # one number, drawn by _rand_cyc or as a one-entry coeff_rows table,
    # keeps the per-coefficient stream
    new, old = LCG(seed), LCG(seed)
    for _ in range(200):
        got = _rand_cyc(new, p).coeffs
        assert got == old_cyc_coeffs(old, p - 1)
        assert all(type(x) is Fraction for x in got)
        assert new.state == old.state
        rows = new.coeff_rows(1, p - 1)
        assert tuple(Fraction(row[0], 6) for row in rows) == old_cyc_coeffs(old, p - 1)
        assert new.state == old.state
        # interleave other draws so a stream offset would show at once
        assert new.fraction() == old_fraction(old)
        assert new.randint(-1, 1) == old.randint(-1, 1)
        assert new.state == old.state
