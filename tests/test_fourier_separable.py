"""The separable transform against the direct character sum it replaced.

``dense_fourier`` is the O(N^2) definition, kept here only as the oracle:
out(u) = sum_v table(v) conj(psi(u.v)).  Every comparison is exact equality.
"""

import random
from fractions import Fraction

import pytest

from fqharmonic import tables
from fqharmonic.dim0 import FinSpace, Fn0, fourier0
from fqharmonic.exactnum import CycNum, DomainError, field_for

DEFAULT_QS = (2, 3, 4, 5, 8, 9)
MAX_POINTS = 256


def dense_fourier(table, q, dim, field):
    p = field.p
    vecs = [tables.decode(i, q, dim) for i in range(len(table))]
    support = [(vecs[i], c) for i, c in enumerate(table) if c]
    out = []
    for u in vecs:
        acc = CycNum.zero(p)
        for v, c in support:
            acc = acc + c * field.conj_psi(field.dot_idx(u, v))
        out.append(acc)
    return tuple(out)


def fast_fourier(table, q, dim, field):
    """tables.fourier on the rows of a tuple of entries, as a tuple of entries."""
    return tuple(tables.fourier(tables.Rows.of(table, field.p), q, dim, field))


def _shapes():
    for q in DEFAULT_QS:
        dim = 0
        while q**dim <= MAX_POINTS:
            yield q, dim
            dim += 1


SHAPES = list(_shapes())


def _random_table(rng, p, n):
    def coeff():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7)))

    return tuple(CycNum(p, tuple(coeff() for _ in range(p - 1))) for _ in range(n))


def _delta(p, n, idx, value):
    return tuple(value if i == idx else CycNum.zero(p) for i in range(n))


@pytest.mark.parametrize("q,dim", SHAPES)
def test_zero_table(q, dim):
    fld = field_for(q)
    table = tables.zero_table(fld.p, q, dim)
    assert tuple(tables.fourier(table, q, dim, fld)) == dense_fourier(table, q, dim, fld) == tuple(table)


@pytest.mark.parametrize("q,dim", SHAPES)
def test_single_point_deltas(q, dim):
    fld = field_for(q)
    p, n = fld.p, q**dim
    rng = random.Random(1000 * q + dim)
    value = CycNum(p, tuple(Fraction(k + 1, 3) for k in range(p - 1)))
    points = range(n) if n <= 27 else sorted(rng.sample(range(n), 6) + [0, n - 1])
    for idx in points:
        table = _delta(p, n, idx, value)
        assert fast_fourier(table, q, dim, fld) == dense_fourier(table, q, dim, fld)


@pytest.mark.parametrize("q,dim", SHAPES)
def test_random_fractional_tables(q, dim):
    fld = field_for(q)
    rng = random.Random(7919 * q + dim)
    for _ in range(2 if q**dim <= 81 else 1):
        table = _random_table(rng, fld.p, q**dim)
        assert any(x.denominator != 1 for c in table for x in c.coeffs) or q**dim == 1
        assert fast_fourier(table, q, dim, fld) == dense_fourier(table, q, dim, fld)


@pytest.mark.parametrize("q,dim", [(q, d) for q, d in SHAPES if q**d <= 81])
def test_fourier0_delegates(q, dim):
    fld = field_for(q)
    sp = FinSpace(fld, dim)
    f = Fn0(sp, _random_table(random.Random(31 * q + dim), fld.p, sp.size))
    assert tuple(fourier0(f).table) == dense_fourier(f.table, q, dim, fld)


@pytest.mark.parametrize("n", [0, 3, 5, 9])
def test_length_mismatch_raises(n):
    fld = field_for(2)
    with pytest.raises(DomainError):
        tables.fourier(tables.Rows(2, 1, [(0,) * n]), 2, 2, fld)
