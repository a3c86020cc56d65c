"""Factored tables (``tables.Kron``) against the dense tables they stand for.

A ``Kron`` is a scalar times one q-entry factor per digit.  Its native
operations (transport and its wrappers, scale, the transform, entry access,
``is_zero`` and equality) must give exactly what the ``Rows`` operation
gives on ``dense()``, for q in {2, 3, 4, 5}, dims up to 6, zero factors,
cyclotomic entries and proportional tables with different scalars.  The
summation-identity verifiers build only factored tables, so their verdicts
are checked against the same verifiers run on dense tables, and the
uncapped sweep must never build a dense table.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from fqharmonic import c1_triples, c2_triples, tables
from fqharmonic.c1 import C1Fn, HaarMeasure, Window, character_fn, fn_mul, laurent_model, lattice_model, window_dim
from fqharmonic.c1_triples import interval_triple, poisson1_verify
from fqharmonic.c2 import BiWindow, VirtualMeasure, e2_constant_one, k2_model
from fqharmonic.c2_triples import inner_cut_triple, outer_cut_triple, poisson2_verify
from fqharmonic.dim0 import FinSpace, Fn0
from fqharmonic.exactnum import CapacityError, CycNum, DomainError, field_for
from fqharmonic.tables import DENSE_POINTS, Kron, Rows

QS = (2, 3, 4, 5)
MAX_DIM = {2: 6, 3: 6, 4: 6, 5: 5}  # q^dim stays within 4096 entries


def rand_cyc(rng, p, rational=False):
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(p - 1)]
    if rational:
        coeffs[1:] = [Fraction(0)] * (p - 2)
    return CycNum(p, tuple(coeffs))


def rand_factor(rng, p, q):
    """A random factor: general, rational, a unit factor, or all zero."""
    kind = rng.choice(("general", "general", "rational", "ones", "delta", "zero"))
    if kind == "zero":
        return Rows.of([CycNum.zero(p)] * q, p)
    if kind in ("ones", "delta"):
        return tables._unit_factors(p, q)[kind == "delta"]
    return Rows.of([rand_cyc(rng, p, kind == "rational") for _ in range(q)], p)


def rand_kron(rng, q, dim, zero_factors=True):
    p = field_for(q).p
    factors = [rand_factor(rng, p, q) for _ in range(dim)]
    if not zero_factors:
        ones = tables._unit_factors(p, q)[0]
        factors = [ones if tables.is_zero(f) else f for f in factors]
    scalar = rand_cyc(rng, p, rational=rng.random() < 0.5)
    return Kron(p, scalar, factors)


def cases(seed, per_dim=3):
    rng = random.Random(seed)
    for q in QS:
        for dim in range(MAX_DIM[q] + 1):
            for _ in range(per_dim):
                yield rng, q, dim


# ---------------------------------------------------------------------------
# entries, dense form, zero test
# ---------------------------------------------------------------------------


def test_entries_and_slices_read_the_dense_table():
    for rng, q, dim in cases(1):
        K = rand_kron(rng, q, dim)
        D = K.dense()
        assert len(K) == len(D) == q**dim
        for i in rng.sample(range(len(D)), min(len(D), 20)) + [0, len(D) - 1, -1]:
            assert K[i] == D[i]
        assert K[:4] == D[:4] and str(tuple(K[:4])) == str(tuple(D[:4]))
        assert tuple(K) == tuple(D)
        assert K.is_zero() == tables.is_zero(D)
        with pytest.raises(IndexError):
            K[len(D)]


def test_dim_zero_is_its_scalar():
    for q in QS:
        p = field_for(q).p
        c = CycNum(p, (Fraction(2, 3),) + (Fraction(-1),) * (p - 2))
        K = Kron(p, c, ())
        assert K.dense() == Rows.of([c], p) and K[0] == c and len(K) == 1
        assert tables.const_kron(p, c, q, 0) == K


def test_constructor_checks_its_parts():
    with pytest.raises(DomainError, match="one length"):
        Kron(2, 1, [Rows.of([CycNum.one(2)] * 2, 2), Rows.of([CycNum.one(2)] * 3, 2)])
    with pytest.raises(DomainError, match="mixed cyclotomic fields"):
        Kron(2, 1, [Rows.of([CycNum.one(3)] * 3, 3)])
    with pytest.raises(DomainError, match="one entry"):
        Kron(2, Rows.of([CycNum.one(2)] * 2, 2), ())
    with pytest.raises(TypeError):
        hash(Kron(2, 1, ()))


def test_const_kron_is_const_table():
    for q in QS:
        p = field_for(q).p
        for dim in range(4):
            for value in (1, Fraction(-5, 4), rand_cyc(random.Random(dim), p)):
                c = value if isinstance(value, CycNum) else CycNum.from_rational(p, value)
                assert tuple(tables.const_kron(p, value, q, dim)) == (c,) * q**dim


def test_point_kron_is_the_point_mass():
    rng = random.Random(11)
    for q in QS:
        p = field_for(q).p
        zero = CycNum.zero(p)
        for dim in range(4):
            for value in (1, Fraction(5, 3), rand_cyc(rng, p)):
                c = value if isinstance(value, CycNum) else CycNum.from_rational(p, value)
                digits = [rng.randrange(q) for _ in range(dim)]
                at = tables.encode(digits, q)
                K = tables.point_kron(p, value, q, digits)
                assert tuple(K) == tuple(c if i == at else zero for i in range(q**dim))
    # the delta at 0 shares the unit factor, so its transform shares the ones
    K = tables.point_kron(2, 1, 2, (0, 0))
    assert all(f is tables._unit_factors(2, 2)[1] for f in K.factors)


def test_constants_are_factored():
    # Haar profiles, in both of their builders, and the germ 1
    for q in (2, 3, 4):
        fld = field_for(q)
        p = fld.p
        mu = HaarMeasure(laurent_model(fld), 0, Fraction(3, 2))
        for w in (Window(-1, 1), Window(0, 2)):
            expect = (CycNum.from_rational(p, mu.value_at(w.lo)),) * q ** window_dim(mu.model, w)
            G = mu.as_dist(w)
            assert isinstance(G.table, Kron) and tuple(G.table) == expect
            moved = mu.as_dist(Window(-2, 2)).at(w)
            assert isinstance(moved.table, Kron) and tuple(moved.table) == expect
        bw = BiWindow(-1, 1, -1, 0)
        one = e2_constant_one(k2_model(fld), bw)
        assert isinstance(one.table, Kron) and tuple(one.table) == (CycNum.one(p),) * q**2
        c = rand_cyc(random.Random(q), p)
        assert tuple(Fn0.constant(FinSpace(fld, 2), c).table) == (c,) * q**2


def test_dense_transport_is_refused_past_the_bound_before_it_plans(monkeypatch):
    planned = []
    plan = tables._transport_plan
    monkeypatch.setattr(tables, "_transport_plan", lambda *key: planned.append(key) or plan(*key))
    monkeypatch.setattr(tables, "DENSE_POINTS", 16)
    tables._cached_plan.cache_clear()
    D = rand_kron(random.Random(3), 2, 2).dense()
    assert len(tables.expand(D, 2, 4, [0, 1], "zero")) == 16
    assert len(planned) == 1
    with pytest.raises(CapacityError, match="32 entries exceeds 16"):
        tables.expand(D, 2, 5, [0, 1], "zero")
    with pytest.raises(CapacityError, match="exceeds 16"):
        tables.transport(D, 2, [0, 1], range(60))
    assert len(planned) == 1
    # a factored table is moved on its factors, whatever its size
    assert tables.expand(Kron(2, 1, (tables._unit_factors(2, 2)[0],) * 2), 2, 60, [0, 1], "zero").dim == 60


def test_dense_tables_are_refused_past_the_bound_before_they_allocate(monkeypatch):
    # unbounded, character_fn(laurent_model(F_9), Window(-20, 21), {}) asks
    # psi_linear for 9^41 entries; with the bound at 16, 9^2 is refused alike
    indexed = []
    digit_index = tables.digit_index
    monkeypatch.setattr(tables, "digit_index", lambda digits: indexed.append(len(digits)) or digit_index(digits))
    monkeypatch.setattr(tables, "DENSE_POINTS", 16)
    F2, F9 = field_for(2), field_for(9)
    D = rand_kron(random.Random(5), 2, 2).dense()
    built = [
        tables.indicator_table(2, 16, [3]),
        tables.psi_linear(F2, 4, [1, 0, 1]),
        tables.scatter(D, [0, 5, 9, 15], 16),
    ]
    assert [len(t) for t in built] == [16] * 3 and indexed == [4]
    refused = [
        lambda: tables.indicator_table(2, 17, [3]),
        lambda: tables.psi_linear(F2, 5, [1]),
        lambda: tables.scatter(D, [0, 5, 9, 16], 17),
        lambda: character_fn(laurent_model(F9), Window(-1, 1), {}),
    ]
    for build in refused:
        with pytest.raises(CapacityError, match="exceeds 16"):
            build()
    assert indexed == [4]


def test_dense_is_refused_past_the_bound_without_allocating():
    p, q = 2, 2
    ones = tables._unit_factors(p, q)[0]
    K = Kron(p, 1, (ones,) * 40)
    assert K.size == 2**40 > DENSE_POINTS
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="exceeds"):
            K.dense()
        with pytest.raises(CapacityError):
            list(K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert issubclass(CapacityError, DomainError)
    # entry access and the native operations need no dense table
    assert K[2**40 - 1] == CycNum.one(p)
    delta = tables._unit_factors(p, q)[1]
    assert tables.fourier(K, q, 40, field_for(q)) == Kron(p, 2**40, (delta,) * 40)
    assert tables.contract(K, q, 40, range(20), "sum") == Kron(p, 2**20, (ones,) * 20)


# ---------------------------------------------------------------------------
# native operations against the dense ones
# ---------------------------------------------------------------------------


def rand_move(rng, dim):
    """Source labels 0..dim-1 in random order, destination labels a random
    subset of them plus new ones, random summed and zeroed sets."""
    src = list(range(dim))
    rng.shuffle(src)
    dst = [pos for pos in src if rng.random() < 0.6] + [100 + j for j in range(rng.randint(0, 2))]
    rng.shuffle(dst)
    summed = [pos for pos in src if rng.random() < 0.5]
    zeroed = [pos for pos in dst if rng.random() < 0.5]
    return src, dst, summed, zeroed


def test_transport_matches_dense():
    for rng, q, dim in cases(2, per_dim=4):
        if dim > 5:
            continue  # a move adds up to two labels
        K = rand_kron(rng, q, dim)
        src, dst, summed, zeroed = rand_move(rng, dim)
        got = tables.transport(K, q, src, dst, summed, zeroed)
        assert isinstance(got, Kron)
        assert got.dense() == tables.transport(K.dense(), q, src, dst, summed, zeroed), (q, dim, src, dst)


def test_transport_wrappers_match_dense():
    for rng, q, dim in cases(3):
        if dim > 5:
            continue
        K = rand_kron(rng, q, dim)
        D = K.dense()
        embed = rng.sample(range(dim + 1), dim)
        keep = rng.sample(range(dim), rng.randint(0, dim))
        perm = rng.sample(range(dim), dim)
        for mode in ("pullback", "zero"):
            got = tables.expand(K, q, dim + 1, embed, mode)
            assert isinstance(got, Kron) and got.dense() == tables.expand(D, q, dim + 1, embed, mode)
        for mode in ("slice", "sum"):
            got = tables.contract(K, q, dim, keep, mode)
            assert isinstance(got, Kron) and got.dense() == tables.contract(D, q, dim, keep, mode)
        assert tables.apply_perm(K, q, perm).dense() == tables.apply_perm(D, q, perm)
        rev = range(dim)[::-1]
        got = tables.apply_perm(K, q, rev)
        assert got.factors == K.factors[::-1] and got.dense() == tables.apply_perm(D, q, rev)


def test_apply_perm_reorders_the_factors():
    # a factored table's permutation is its factors reordered, and equals
    # the dense path's label transport
    rng = random.Random(11)
    for q in (2, 3, 4):
        for dim in range(7):
            perms = itertools.permutations(range(dim)) if dim <= 3 else [rng.sample(range(dim), dim) for _ in range(6)]
            for perm in perms:
                K = rand_kron(rng, q, dim)
                got = tables.apply_perm(K, q, perm)
                assert isinstance(got, Kron) and got.factors == tuple(K.factors[j] for j in perm)
                assert got.dense() == tables.apply_perm(K.dense(), q, perm), (q, dim, perm)
    with pytest.raises(DomainError, match="entries, expected"):
        tables.apply_perm(tables.const_kron(2, 1, 2, 3), 2, (1, 0))


def test_transport_checks_the_shape():
    K = Kron(2, 1, (tables._unit_factors(2, 2)[0],) * 2)
    with pytest.raises(DomainError, match="entries, expected"):
        tables.transport(K, 2, [0, 1, 2], [0])
    with pytest.raises(DomainError, match="entries, expected"):
        tables.transport(K, 4, [0], [0])


def test_scale_matches_dense():
    for rng, q, dim in cases(4, per_dim=2):
        K = rand_kron(rng, q, dim)
        p = K.p
        for c in (Fraction(1), Fraction(-3, 7), 0, rand_cyc(rng, p)):
            got = tables.scale(K, c)
            assert isinstance(got, Kron) and got.dense() == tables.scale(K.dense(), c)
        assert tables.scale(K, 1) is K


@pytest.mark.parametrize("c", [0.5, 1.0, "2", None, complex(1, 0)])
def test_scale_refuses_a_factor_that_is_not_exact(c):
    # a float was converted by Fraction on a dense table and raised
    # AttributeError on a factored one; both forms refuse it alike
    K = tables.const_kron(3, 1, 3, 1)
    for table in (K, K.dense()):
        with pytest.raises(DomainError, match="scaled by a rational or a CycNum"):
            tables.scale(table, c)


@pytest.mark.parametrize("c", [CycNum.zeta_pow(5, 1), CycNum.one(5)], ids=["zeta", "one"])
def test_scale_refuses_a_scalar_of_another_field(c):
    K = tables.const_kron(3, 1, 3, 2)
    for table in (K, K.dense()):
        with pytest.raises(DomainError, match="mixed cyclotomic fields"):
            tables.scale(table, c)


def test_fourier_matches_dense():
    for rng, q, dim in cases(5, per_dim=2):
        fld = field_for(q)
        K = rand_kron(rng, q, dim)
        for factor in (1, Fraction(2, 9)):
            got = tables.fourier(K, q, dim, fld, factor)
            assert isinstance(got, Kron)
            assert got.dense() == tables.fourier(K.dense(), q, dim, fld, factor), (q, dim)
    with pytest.raises(DomainError, match="entries, expected"):
        tables.fourier(Kron(2, 1, ()), 2, 1, field_for(2))
    with pytest.raises(DomainError, match="mixed cyclotomic fields"):
        tables.fourier(Kron(3, 1, ()), 2, 0, field_for(2))


def test_translate_and_check_match_dense():
    # one q-entry permutation per factor: the shift's digit map, the negation
    for q in (2, 3, 4):
        fld = field_for(q)
        rng = random.Random(q)
        for dim in range(5):
            for _ in range(3):
                K = rand_kron(rng, q, dim)
                shift = [rng.randrange(q) for _ in range(dim)]
                got = tables.translate(K, q, dim, shift, fld)
                assert isinstance(got, Kron) and got.dense() == tables.translate(K.dense(), q, dim, shift, fld)
                got = tables.check_table(K, q, dim, fld)
                assert isinstance(got, Kron) and got.dense() == tables.check_table(K.dense(), q, dim, fld)
    with pytest.raises(DomainError, match="entries, expected"):
        tables.check_table(Kron(2, 1, (tables._unit_factors(2, 2)[0],) * 2), 2, 3, field_for(2))


def test_wide_check_and_translation_stay_factored(monkeypatch):
    # a move plan indexes the whole table: 9^41 entries here
    plan = tables._digit_map_plan

    def small_only(q, maps):
        if len(maps) > 4:
            raise AssertionError(f"a move plan of {q}^{len(maps)} entries")
        return plan(q, maps)

    monkeypatch.setattr(tables, "_digit_map_plan", small_only)
    tables._cached_plan.cache_clear()
    F = field_for(9)
    with pytest.raises(AssertionError, match="a move plan"):
        tables.check_table(rand_kron(random.Random(0), 9, 5).dense(), 9, 5, F)
    K = laurent_model(F)
    w = Window(-20, 21)
    rng = random.Random(9)
    f = C1Fn(K, "D", w, rand_kron(rng, 9, window_dim(K, w)))
    assert f.dim == 41 and f.table.size == 9**41
    g = f.check()
    assert isinstance(g.table, Kron) and g.check().table == f.table
    shift = [rng.randrange(9) for _ in range(41)]
    moved = tables.translate(f.table, 9, 41, shift, F)
    assert isinstance(moved, Kron)
    for _ in range(20):
        i = rng.randrange(9**41)
        v = tables.decode(i, 9, 41)
        assert g.table[i] == f.table[tables.encode([F.neg_idx(d) for d in v], 9)]
        assert moved[i] == f.table[tables.encode([F.add_idx(d, s) for d, s in zip(v, shift)], 9)]


def test_other_operations_go_through_dense():
    for rng, q, dim in cases(6, per_dim=1):
        p = field_for(q).p
        a, b = rand_kron(rng, q, dim), rand_kron(rng, q, dim)
        A, B = a.dense(), b.dense()
        assert tables.add(a, b) == tables.add(A, B)
        assert tables.mul_pointwise(a, B) == tables.mul_pointwise(A, B)
        assert tables.dot(a, b, p) == tables.dot(A, B, p)
        assert tables.total(a) == tables.total(A)
        index = [rng.randrange(-1, q**dim) for _ in range(q**dim)]
        assert tables.gather(a, index) == tables.gather(A, index)
        assert tables.check_table(a, q, dim, field_for(q)) == tables.check_table(A, q, dim, field_for(q))


WIDE_OPS = {
    "add": lambda t, f: tables.add(t, t),
    "mul_pointwise": lambda t, f: tables.mul_pointwise(t, t),
    "dot": lambda t, f: tables.dot(t, t, t.p),
    "gather": lambda t, f: tables.gather(t, [0]),
    "fn_mul": lambda t, f: fn_mul(f, f),
}


@pytest.mark.parametrize("op", sorted(WIDE_OPS))
def test_dense_fallbacks_refuse_a_table_past_2_63_entries(op):
    # len() of a Kron past 2^63 entries overflows: the dense fallbacks take
    # dense() first, so such a table is refused with CapacityError
    F = field_for(9)
    K = laurent_model(F)
    w = Window(-20, 21)
    ones = tables._unit_factors(F.p, F.q)[0]
    t = Kron(F.p, 1, (ones,) * window_dim(K, w))
    assert t.size == 9**41 > 2**63
    with pytest.raises(CapacityError, match="exceeds"):
        WIDE_OPS[op](t, C1Fn(K, "D", w, t))


# ---------------------------------------------------------------------------
# equality
# ---------------------------------------------------------------------------


def rescaled(rng, K):
    """K with every factor multiplied by a nonzero number and the scalar by
    the inverse of their product: the same table, other factors."""
    p, total = K.p, Fraction(1)
    factors = []
    for f in K.factors:
        c = Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7)))
        factors.append(tables.scale(f, c))
        total *= c
    return Kron(p, K.scalar * (1 / total), factors)


def perturbed(rng, K):
    """K with one entry of one factor (or the scalar) changed."""
    p = K.p
    if not K.factors:
        return Kron(p, K.scalar + CycNum.one(p), ())
    r = rng.randrange(len(K.factors))
    entries = list(K.factors[r])
    d = rng.randrange(len(entries))
    entries[d] = entries[d] + rand_cyc(rng, p)
    return Kron(p, K.scalar, K.factors[:r] + (Rows.of(entries, p),) + K.factors[r + 1:])


def test_equality_matches_dense():
    for rng, q, dim in cases(7, per_dim=3):
        K = rand_kron(rng, q, dim)
        others = [rescaled(rng, K), perturbed(rng, K), rand_kron(rng, q, dim), tables.scale(K, 2), tables.scale(K, 0)]
        for L in [K] + others:
            expect = K.dense() == L.dense()
            assert (K == L) == expect and (L == K) == expect, (q, dim)
            assert (K != L) == (not expect)
            # a factored table against a dense one compares the dense forms
            assert (K == L.dense()) == expect and (L.dense() == K) == expect
    # proportional factors whose pivot values differ only beyond zeta^0:
    # (1, 1, 1) against (1+zeta, 1+zeta, 1+zeta) over F_3, both with scalar 1
    ones = Rows.of([CycNum.one(3)] * 3, 3)
    one_plus_zeta = Rows.of([CycNum(3, (Fraction(1), Fraction(1)))] * 3, 3)
    K, L = Kron(3, 1, (ones,)), Kron(3, 1, (one_plus_zeta,))
    assert K.dense() != L.dense()
    assert K != L and L != K and not K == L


def test_proportional_tables_with_different_scalars():
    for rng, q, dim in cases(8, per_dim=2):
        if dim == 0:
            continue
        K = rand_kron(rng, q, dim, zero_factors=False)
        if K.is_zero():
            continue
        L = rescaled(rng, K)
        M = Kron(K.p, K.scalar * Fraction(1, 2), (tables.scale(K.factors[0], 2),) + K.factors[1:])
        assert M.scalar != K.scalar and K == L == M
        # proportional factors with a wrong scalar: not equal
        assert K != Kron(K.p, L.scalar * 3, L.factors)


def test_zero_tables_are_equal_whatever_their_factors():
    for rng, q, dim in cases(9, per_dim=1):
        if dim == 0:
            continue
        p = field_for(q).p
        zero = Rows.of([CycNum.zero(p)] * q, p)
        K = rand_kron(rng, q, dim, zero_factors=False)
        a = Kron(p, K.scalar, (zero,) + K.factors[1:])
        b = Kron(p, 0, K.factors)
        c = Kron(p, rand_cyc(rng, p), K.factors[:-1] + (zero,))
        assert a == b == c and a.is_zero() and b.is_zero()
        assert (a == K) == K.is_zero()


def test_equality_needs_one_shape():
    ones2, ones4 = tables._unit_factors(2, 2)[0], tables._unit_factors(2, 4)[0]
    assert Kron(2, 1, (ones2, ones2)) != Kron(2, 1, (ones4,))
    assert Kron(2, 1, (ones2,)) != Kron(2, 1, (ones2, ones2))
    assert Kron(2, 1, (ones2,)) != Kron(3, 1, (tables._unit_factors(3, 2)[0],))
    assert Kron(2, 1, (ones2,)) != Rows.of([CycNum.one(2)] * 4, 2)


# ---------------------------------------------------------------------------
# the verifiers: factored against dense, and no dense table on the way
# ---------------------------------------------------------------------------


_const_kron = tables.const_kron


def dense_const_kron(p, value, q, dim):
    """const_kron's table, built dense: every later step then runs on Rows."""
    return _const_kron(p, value, q, dim).dense()


def k2_sweep(q, r, corrupt=None, max_points=256):
    K2 = k2_model(field_for(q))
    Tu, Tt = inner_cut_triple(K2, 0), outer_cut_triple(K2, 0)
    mu = VirtualMeasure(Tt.sub, 0, Tt.sub.outer_sup, Fraction(1))
    nu = VirtualMeasure(Tt.quot, 0, Tt.quot.outer_inf, Fraction(1))
    fault = corrupt or {}
    return [
        poisson2_verify("II", Tu, cut_lo=-r, cut_hi=r, max_points=max_points, corrupt=fault.get("II")),
        poisson2_verify("I", Tt, mu, nu, cut_lo=-r, cut_hi=r, max_points=max_points, corrupt=fault.get("I")),
    ]


@pytest.mark.parametrize("corrupt", [None, {"II": "transition", "I": "measure"}])
def test_factored_and_dense_verdicts_agree_on_the_pm3_sweep(monkeypatch, corrupt):
    factored = k2_sweep(2, 3, corrupt)
    monkeypatch.setattr(c2_triples.tables, "const_kron", dense_const_kron)
    dense = k2_sweep(2, 3, corrupt)
    for f, d in zip(factored, dense):
        assert (f.cases, f.failures) == (d.cases, d.failures)
        assert f.cases == 588
        assert len(f.failures) == (f.cases if corrupt else 0)


@pytest.mark.parametrize("which, fault", [("II", "transition"), ("I", "measure")])
def test_corruption_fails_every_uncapped_bi_window(which, fault):
    rep = k2_sweep(2, 3, {which: fault}, max_points=None)[0 if which == "II" else 1]
    assert rep.cases == 784 and len(rep.failures) == 784


def test_uncapped_pm6_sweep_builds_no_dense_table(monkeypatch):
    calls = []
    dense = Kron.dense

    def counted(self):
        calls.append(self.size)
        return dense(self)

    monkeypatch.setattr(Kron, "dense", counted)
    for rep in k2_sweep(2, 6, max_points=None):
        assert rep.cases == 8281 and rep.failures == []
    assert calls == []


def poisson1_runs(q, corrupt):
    fld = field_for(q)
    T = interval_triple(laurent_model(fld), lattice_model(fld, 0))
    values = (Fraction(1), Fraction(q), Fraction(1, q))
    return [
        poisson1_verify(T, HaarMeasure(T.sub, 0, v1), HaarMeasure(T.mid, 0, v2), cut_lo=-2, cut_hi=2, corrupt=corrupt)
        for v1, v2 in itertools.product(values, values)
    ]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("corrupt", [None, "transition", "measure"])
def test_poisson1_failure_texts_match_the_dense_path(monkeypatch, q, corrupt):
    factored = poisson1_runs(q, corrupt)
    monkeypatch.setattr(c1_triples.tables, "const_kron", dense_const_kron)
    dense = poisson1_runs(q, corrupt)
    for f, d in zip(factored, dense):
        assert (f.cases, f.failures) == (d.cases, d.failures)
        assert f.cases > 0 and bool(f.failures) == bool(corrupt)


def test_poisson1_uncapped_certifies_every_window():
    fld = field_for(2)
    T = interval_triple(laurent_model(fld), lattice_model(fld, 0))
    rep = poisson1_verify(T, HaarMeasure(T.sub, 0, Fraction(1)), HaarMeasure(T.mid, 0, Fraction(2)),
                          cut_lo=-12, cut_hi=12, max_points=None)
    assert rep.cases == 25 * 26 // 2 and rep.failures == []
