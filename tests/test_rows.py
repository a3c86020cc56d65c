"""Every ``tables.Rows`` operation against a tuple-of-CycNum reference.

The references below are the per-entry loops the row operations replace:
they decode and encode indices one at a time and do all arithmetic with
``CycNum``.  Each operation must agree with its reference exactly, over
q in {2, 3, 4, 5, 9}, on dimension 0, all-zero tables, rational-only
tables and tables whose rows share a common factor.  Equality and hashing
of ``Rows`` are structural, which is only sound because the form is
canonical; that is checked here too.
"""

import itertools
import random
from fractions import Fraction

import pytest

from fqharmonic import tables
from fqharmonic.c1 import Window, delta_point_dist, laurent_model, positions, segment_model, window_dim
from fqharmonic.c2 import BiWindow, VirtualMeasure, box_model, bw_dim
from fqharmonic.c2_triples import delta0_fn, delta_nu
from fqharmonic.dim0 import FinSpace, Fn0
from fqharmonic.exactnum import CycNum, DomainError, field_for
from fqharmonic.harness.rng import LCG
from fqharmonic.harness.suites import _rand_table
from fqharmonic.tables import Rows, decode, encode
from test_fast_paths import old_cyc_coeffs, old_fraction

QS = (2, 3, 4, 5, 9)


def shapes(q, max_points=81):
    dim = 0
    while q**dim <= max_points:
        yield dim
        dim += 1


# ---------------------------------------------------------------------------
# references on tuples of CycNum
# ---------------------------------------------------------------------------


def ref_gather(table, index):
    p = table[0].prime
    return tuple(table[i] if i >= 0 else CycNum.zero(p) for i in index)


def ref_scatter(table, index, size):
    out = [CycNum.zero(table[0].prime)] * size
    for i, c in zip(index, table):
        out[i] = out[i] + c
    return tuple(out)


def ref_transport(table, q, src_pos, dst_pos, summed=(), zeroed=()):
    p = table[0].prime
    fiber = [pos for pos in src_pos if pos not in dst_pos and pos in summed]
    out = []
    for idx in range(q ** len(dst_pos)):
        digit = dict(zip(dst_pos, decode(idx, q, len(dst_pos))))
        if any(digit[pos] for pos in dst_pos if pos not in src_pos and pos in zeroed):
            out.append(CycNum.zero(p))
            continue
        acc = CycNum.zero(p)
        for combo in itertools.product(range(q), repeat=len(fiber)):
            free = dict(zip(fiber, combo))
            digits = [digit[pos] if pos in digit else free.get(pos, 0) for pos in src_pos]
            acc = acc + table[encode(digits, q)]
        out.append(acc)
    return tuple(out)


def ref_translate(table, q, dim, shift, field):
    out = []
    for idx in range(len(table)):
        moved = [field.add_idx(d, s) for d, s in zip(decode(idx, q, dim), shift)]
        out.append(table[encode(moved, q)])
    return tuple(out)


def ref_check(table, q, dim, field):
    return tuple(table[encode([field.neg_idx(d) for d in decode(idx, q, dim)], q)] for idx in range(len(table)))


def ref_fourier(table, q, dim, field):
    p = field.p
    vecs = [decode(i, q, dim) for i in range(len(table))]
    out = []
    for u in vecs:
        acc = CycNum.zero(p)
        for v, c in zip(vecs, table):
            acc = acc + c * field.conj_psi(field.dot_idx(u, v))
        out.append(acc)
    return tuple(out)


def ref_psi_linear(field, dim, digits, conj):
    out = []
    for idx in range(field.q**dim):
        t = field.dot_idx(digits, decode(idx, field.q, dim))
        out.append(field.conj_psi(t) if conj else field.psi_idx(t))
    return tuple(out)


def ref_dot(a, b):
    acc = CycNum.zero(a[0].prime)
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def rand_entries(rng, p, n, kind="mixed"):
    """Zero, rational-only and general entries; 'zero' and 'rational' force
    one shape."""

    def coeff():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4, 6)))

    def general():
        return CycNum(p, tuple(coeff() for _ in range(p - 1)))

    def rational():
        return CycNum.from_rational(p, coeff())

    if kind == "zero":
        return tuple(CycNum.zero(p) for _ in range(n))
    if kind == "rational":
        return tuple(rational() for _ in range(n))
    return tuple(rng.choice((lambda: CycNum.zero(p), rational, general, general))() for _ in range(n))


KINDS = ("mixed", "zero", "rational", "scaled")


def cases(q, seed, max_points=81):
    """(dim, entries, Rows) over every shape and every input kind; a 'scaled'
    table is built with its rows and denominator times 4, a non-canonical
    input the constructor must reduce."""
    p = field_for(q).p
    rng = random.Random(seed)
    for dim in shapes(q, max_points):
        for kind in KINDS:
            entries = rand_entries(rng, p, q**dim, "mixed" if kind == "scaled" else kind)
            rows = Rows.of(entries, p)
            if kind == "scaled":
                rows = Rows(p, 4 * rows.den, [[4 * x for x in row] for row in rows.rows])
            yield dim, entries, rows


# ---------------------------------------------------------------------------
# the value itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", QS)
def test_entries_round_trip(q):
    for dim, entries, rows in cases(q, q):
        assert len(rows) == len(entries) == q**dim
        assert tuple(rows) == entries
        assert all(rows[i] == c for i, c in enumerate(entries))
        assert rows[-1] == entries[-1]
        assert tuple(rows[1:3]) == entries[1:3]
        assert all(type(x) is Fraction for c in rows for x in c.coeffs)


def test_canonical_form_of_non_canonical_inputs():
    # 2/4 and 1/2: the same entries, the same fields, the same hash
    half = Rows(3, 2, [(1, 0), (0, 1)])
    for other in (Rows(3, 4, [(2, 0), (0, 2)]), Rows(3, -2, [(-1, 0), (0, -1)]), Rows(3, 20, ((10, 0), (0, 10)))):
        assert other == half and hash(other) == hash(half)
        assert (other.den, other.rows) == (2, ((1, 0), (0, 1)))
    assert Rows.of((CycNum(3, (Fraction(2, 4), Fraction(0))),), 3) == Rows(3, 2, [(1,), (0,)])
    # a zero table has denominator 1 whatever it was built with
    assert Rows(5, 12, [(0, 0)] * 4) == tables.zero_table(5, 2, 1)
    assert tables.zero_table(5, 2, 1).den == 1
    with pytest.raises(DomainError):
        Rows(3, 0, [(1,), (0,)])
    with pytest.raises(DomainError):
        Rows(3, 1, [(1,)])
    with pytest.raises(DomainError):
        Rows(3, 1, [(1,), (0, 0)])


@pytest.mark.parametrize("q", QS)
def test_equality_and_hash_agree_with_entries(q):
    p = field_for(q).p
    built = [rows for _, _, rows in cases(q, 50 + q)]
    # the same values reached by other routes: scaled up and down, and
    # rebuilt from their entries
    built += [tables.scale(tables.scale(rows, Fraction(6, 7)), Fraction(7, 6)) for rows in built]
    built += [Rows.of(tuple(rows), p) for rows in built]
    for a, b in itertools.product(built, repeat=2):
        same = len(a) == len(b) and tuple(a) == tuple(b)
        assert (a == b) == same
        if same:
            assert hash(a) == hash(b)


def test_mixed_fields_are_rejected():
    a, b = tables.zero_table(3, 3, 1), tables.zero_table(5, 3, 1)
    for op in (tables.add, tables.mul_pointwise):
        with pytest.raises(DomainError):
            op(a, b)
    with pytest.raises(DomainError):
        tables.dot(a, b, 3)
    with pytest.raises(DomainError):
        tables.add(a, tables.zero_table(3, 3, 2))
    with pytest.raises(DomainError):
        tables.as_rows(a, 5)
    with pytest.raises(DomainError):
        Rows.of((CycNum.one(3), CycNum.one(5)), 3)


# ---------------------------------------------------------------------------
# index moves
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", QS)
def test_gather_and_scatter(q):
    rng = random.Random(100 + q)
    for dim, entries, rows in cases(q, 100 + q):
        n = len(entries)
        index = [rng.randrange(-1, n) for _ in range(n + 2)]
        assert tuple(tables.gather(rows, index)) == ref_gather(entries, index)
        target = [rng.randrange(3) for _ in range(n)]
        assert tuple(tables.scatter(rows, target, 3)) == ref_scatter(entries, target, 3)


@pytest.mark.parametrize("q", QS)
def test_transport_moves(q):
    rng = random.Random(200 + q)
    for dim, entries, rows in cases(q, 200 + q, max_points=27):
        for new_dim in range(dim, dim + 2):
            if q**new_dim > 81:
                continue
            embed = rng.sample(range(new_dim), dim)
            for mode, zeroed in (("zero", range(new_dim)), ("pullback", ())):
                expect = ref_transport(entries, q, embed, list(range(new_dim)), (), zeroed)
                assert tuple(tables.expand(rows, q, new_dim, embed, mode)) == expect
        for k in range(dim + 1):
            keep = rng.sample(range(dim), k)
            for mode, summed in (("slice", ()), ("sum", range(dim))):
                expect = ref_transport(entries, q, list(range(dim)), keep, summed, ())
                assert tuple(tables.contract(rows, q, dim, keep, mode)) == expect
        perm = rng.sample(range(dim), dim)
        assert tuple(tables.apply_perm(rows, q, perm)) == ref_transport(entries, q, list(range(dim)), perm)
        rev = list(reversed(range(dim)))
        assert tuple(tables.reverse_positions(rows, q, dim)) == ref_transport(entries, q, list(range(dim)), rev)


@pytest.mark.parametrize("q", QS)
def test_translate_and_check_table(q):
    fld = field_for(q)
    rng = random.Random(300 + q)
    for dim, entries, rows in cases(q, 300 + q):
        shift = [rng.randrange(q) for _ in range(dim)]
        # the second table reuses the plans the first one built
        for table in (entries, entries[::-1]):
            rows = Rows.of(table, fld.p)
            assert tuple(tables.translate(rows, q, dim, shift, fld)) == ref_translate(table, q, dim, shift, fld)
            assert tuple(tables.check_table(rows, q, dim, fld)) == ref_check(table, q, dim, fld)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", QS)
def test_scale_add_mul_dot_total(q):
    fld = field_for(q)
    p = fld.p
    rng = random.Random(400 + q)
    general = CycNum(p, tuple(Fraction(k + 1, 3) for k in range(p - 1)))
    factors = (0, 1, -1, Fraction(2, 3), Fraction(-5, 4), CycNum.from_rational(p, Fraction(3, 2)), general)
    for dim, entries, rows in cases(q, 400 + q):
        for c in factors:
            assert tuple(tables.scale(rows, c)) == tuple(x * c for x in entries)
        other_entries = rand_entries(rng, p, len(entries))
        other = Rows.of(other_entries, p)
        assert tuple(tables.add(rows, other)) == tuple(x + y for x, y in zip(entries, other_entries))
        assert tuple(tables.mul_pointwise(rows, other)) == tuple(x * y for x, y in zip(entries, other_entries))
        assert tables.mul_pointwise(rows, rows) == Rows.of(tuple(x * x for x in entries), p)
        assert tables.dot(rows, other, p) == ref_dot(entries, other_entries)
        assert tables.total(rows) == ref_dot(entries, (CycNum.one(p),) * len(entries))
        assert tables.is_zero(rows) == all(x.is_zero() for x in entries)


@pytest.mark.parametrize("q", QS)
def test_constant_zero_and_character_tables(q):
    fld = field_for(q)
    p = fld.p
    rng = random.Random(500 + q)
    for dim in shapes(q):
        for value in rand_entries(rng, p, 3) + (CycNum.zero(p),):
            assert tuple(tables.const_table(value, q, dim)) == (value,) * q**dim
        assert tuple(tables.zero_table(p, q, dim)) == (CycNum.zero(p),) * q**dim
        assert tables.is_zero(tables.zero_table(p, q, dim))
        digits = [rng.randrange(q) for _ in range(dim)]
        for conj in (False, True):
            assert tuple(tables.psi_linear(fld, dim, digits, conj)) == ref_psi_linear(fld, dim, digits, conj)


@pytest.mark.parametrize("q", QS)
def test_fourier_with_factor(q):
    fld = field_for(q)
    for dim, entries, rows in cases(q, 600 + q):
        expect = ref_fourier(entries, q, dim, fld)
        assert tuple(tables.fourier(rows, q, dim, fld)) == expect
        for factor in (Fraction(1, q**dim), Fraction(4, 3), Fraction(-2)):
            got = tables.fourier(rows, q, dim, fld, factor)
            assert tuple(got) == tuple(x * factor for x in expect)
            assert got == tables.scale(tables.fourier(rows, q, dim, fld), factor)


# ---------------------------------------------------------------------------
# random tables drawn straight into rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 20260808])
@pytest.mark.parametrize("q", QS)
def test_row_draw_keeps_the_stream(seed, q):
    fld = field_for(q)
    p = fld.p
    new, old = LCG(seed), LCG(seed)
    for dim in (0, 1, 2, 0, 3):
        n = q**dim
        rows = new.coeff_rows(n, p - 1)
        entries = [old_cyc_coeffs(old, p - 1) for _ in range(n)]
        assert [[Fraction(x, 6) for x in row] for row in rows] == [list(col) for col in zip(*entries)]
        assert new.state == old.state
        # interleave other draws so a stream offset would show at once
        assert new.fraction() == old_fraction(old)
        assert new.state == old.state
    new, old = LCG(seed), LCG(seed)
    for dim in (0, 2, 1):
        table = _rand_table(new, fld, dim)
        assert tuple(table) == tuple(CycNum(p, old_cyc_coeffs(old, p - 1)) for _ in range(q**dim))
        assert new.state == old.state


# ---------------------------------------------------------------------------
# point masses and indicators
# ---------------------------------------------------------------------------


def ref_indicator(p, size, indices, value=1):
    one = CycNum.from_rational(p, Fraction(value))
    return Rows.of((one if i in set(indices) else CycNum.zero(p) for i in range(size)), p)


@pytest.mark.parametrize("q", QS)
def test_indicator_table(q):
    p = field_for(q).p
    rng = random.Random(700 + q)
    for dim in shapes(q):
        n = q**dim
        for value in (1, Fraction(3, 2), Fraction(-2, 5), 0):
            for count in (0, 1, n):
                idx = rng.sample(range(n), count)
                assert tables.indicator_table(p, n, idx, value) == ref_indicator(p, n, idx, value)


def test_point_mass_builders_match_their_entries():
    for q in (2, 3, 4):
        fld = field_for(q)
        p = fld.p
        space = FinSpace(fld, 2)
        vecs = [(1, 0), (0, q - 1), (1, 0)]
        assert Fn0.delta(space, vecs[1]).table == ref_indicator(p, q**2, [space.index(vecs[1])])
        assert Fn0.indicator(space, vecs).table == ref_indicator(p, q**2, [space.index(v) for v in vecs])
        for model in (laurent_model(fld), segment_model(fld, -1, 1)):
            w = Window(-2, 2)
            G = delta_point_dist(model, {(0, 0): 1}, w)
            digits = [1 if pos == (0, 0) else 0 for pos in positions(model, w)]
            assert G.table == ref_indicator(p, q ** window_dim(model, w), [encode(digits, q)])
        bw = BiWindow(-1, 1, -1, 1)
        Q = box_model(fld, None, None, 0, None, "Q")
        assert delta0_fn(Q, 0, bw).table == ref_indicator(p, q ** bw_dim(Q, bw), [0])
        D = box_model(fld, 0, None, None, None, "D")
        nu = VirtualMeasure(D, 0, 0, Fraction(5, 3))
        assert delta_nu(D, nu, bw).table == ref_indicator(p, q ** bw_dim(D, bw), [0], Fraction(5, 3))
