import random
from fractions import Fraction

import pytest

from fqharmonic import tables
from fqharmonic.c2 import (
    BiWindow,
    D2Dist,
    D2Elem,
    E2Fn,
    VirtualMeasure,
    box_model,
    bw_dim,
    d2_equal,
    fourier2,
    k2_model,
    module_mul,
    pairing2,
    positions2,
)
from fqharmonic.c2_aut import (
    AutElem,
    AutHatElem,
    authat_identity,
    authat_inverse,
    authat_mul,
    measure_transport,
    rep_act,
)
from fqharmonic.c2_triples import char_dist, char_fn, delta_nu, dual_triple2, inner_cut_triple, outer_cut_triple
from fqharmonic.exactnum import CycNum, DomainError, field_for
from fqharmonic.tables import Kron, Rows

F2 = field_for(2)
F3 = field_for(3)
BW = BiWindow(-1, 1, -1, 1)


def rand_cyc(rng, p):
    return CycNum(p, tuple(Fraction(rng.randint(-2, 2)) for _ in range(p - 1)))


def rand_elem(rng, model, o, bw):
    n = model.field.q ** bw_dim(model, bw)
    return D2Elem(
        model, o, bw,
        tuple(rand_cyc(rng, model.field.p) for _ in range(n)),
        Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2])),
    )


def rand_dist(rng, model, o, bw):
    n = model.field.q ** bw_dim(model, bw)
    return D2Dist(
        model, o, bw,
        tuple(rand_cyc(rng, model.field.p) for _ in range(n)),
        Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2])),
    )


def rand_e2(rng, model, bw, tag="E2"):
    n = model.field.q ** bw_dim(model, bw)
    return E2Fn(model, tag, bw, tuple(rand_cyc(rng, model.field.p) for _ in range(n)))


def rand_lift(rng, model, o=0):
    g = AutElem(
        model,
        rng.randint(-1, 1),
        rng.randint(-1, 1),
        rng.randrange(1, model.field.q),
    )
    mu = VirtualMeasure(
        model, o, g.apply_cut(o), Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))
    )
    return AutHatElem(g, mu)


def test_unit_element():
    rng = random.Random(1)
    K2 = k2_model(F2)
    e = authat_identity(K2, 0)
    for _ in range(10):
        x = rand_lift(rng, K2)
        assert authat_mul(e, x).mu == x.mu and authat_mul(e, x).g == x.g
        assert authat_mul(x, e).mu == x.mu


def test_inverse_law():
    rng = random.Random(2)
    K2 = k2_model(F3)
    for _ in range(40):
        x = rand_lift(rng, K2)
        prod = authat_mul(x, authat_inverse(x))
        assert prod.is_central_scalar() and prod.scalar() == 1
        prod2 = authat_mul(authat_inverse(x), x)
        assert prod2.is_central_scalar() and prod2.scalar() == 1


def test_associativity():
    rng = random.Random(3)
    K2 = k2_model(F2)
    for _ in range(40):
        x, y, z = (rand_lift(rng, K2) for _ in range(3))
        lhs = authat_mul(authat_mul(x, y), z)
        rhs = authat_mul(x, authat_mul(y, z))
        assert lhs.g == rhs.g and lhs.mu == rhs.mu


def test_projection_and_kernel():
    # the projection forgets the measure; its kernel is exactly the scalars
    rng = random.Random(4)
    K2 = k2_model(F2)
    for _ in range(10):
        x = rand_lift(rng, K2)
        y = AutHatElem(x.g, x.mu.scaled(Fraction(5)))
        quotient = authat_mul(y, authat_inverse(x))
        assert quotient.is_central_scalar()
        assert quotient.scalar() == 5


def test_commutator_is_the_q_power():
    # lifts of the two basic shifts do not commute: the commutator is the
    # central scalar q
    for fld in (F2, F3):
        K2 = k2_model(fld)
        q = fld.q
        t_hat = AutHatElem(AutElem(K2, 1, 0, 1), VirtualMeasure(K2, 0, -1, Fraction(1)))
        u_hat = AutHatElem(AutElem(K2, 0, 1, 1), VirtualMeasure(K2, 0, 0, Fraction(1)))
        comm = authat_mul(
            authat_mul(t_hat, u_hat),
            authat_inverse(authat_mul(u_hat, t_hat)),
        )
        assert comm.is_central_scalar()
        assert comm.scalar() == q


def test_measure_transport_multiplicative():
    rng = random.Random(5)
    K2 = k2_model(F2)
    for _ in range(20):
        g = AutElem(K2, rng.randint(-2, 2), rng.randint(-2, 2), 1)
        h = AutElem(K2, rng.randint(-2, 2), rng.randint(-2, 2), 1)
        i, j = rng.randint(-2, 2), rng.randint(-2, 2)
        vm = VirtualMeasure(K2, i, j, Fraction(3, 2))
        lhs = measure_transport(g.compose(h), vm)
        rhs = measure_transport(g, measure_transport(h, vm))
        assert lhs == rhs
        # transport respects composition of measures
        k = rng.randint(-2, 2)
        wm = VirtualMeasure(K2, j, k, Fraction(2))
        assert measure_transport(g, vm.compose(wm)) == measure_transport(g, vm).compose(
            measure_transport(g, wm)
        )


def test_action_is_a_homomorphism():
    rng = random.Random(6)
    K2 = k2_model(F2)
    for _ in range(10):
        x, y = rand_lift(rng, K2), rand_lift(rng, K2)
        f = rand_elem(rng, K2, 0, BW)
        lhs = rep_act(x, rep_act(y, f))
        rhs = rep_act(authat_mul(x, y), f)
        assert d2_equal(lhs, rhs)
        G = rand_dist(rng, K2, 0, BW)
        lhsd = rep_act(x, rep_act(y, G))
        rhsd = rep_act(authat_mul(x, y), G)
        assert d2_equal(lhsd, rhsd)


def test_identity_lift_acts_trivially():
    rng = random.Random(7)
    K2 = k2_model(F3)
    f = rand_elem(rng, K2, 0, BW)
    assert d2_equal(rep_act(authat_identity(K2, 0), f), f)


def test_shift_moves_lattice_indicator():
    # multiplication by the outer uniformizer moves the standard block
    K2 = k2_model(F2)
    T = inner_cut_triple(K2, 0)
    f = char_fn(T, 0, BiWindow(-1, 1, -1, 1))
    g = AutHatElem(AutElem(K2, 1, 0, 1), VirtualMeasure(K2, 0, -1, Fraction(1)))
    moved = rep_act(g, f)
    assert moved.bw == BiWindow(-2, 0, -1, 1)
    # oracle: relabeled indicator of the same block shape
    from fqharmonic import tables as tb

    pos = [(a, b) for a in (-2, -1) for b in (-1, 0)]
    for idx in range(len(moved.table)):
        digs = tb.decode(idx, 2, 4)
        expected_zero = any(digs[j] for j, (a, b) in enumerate(pos) if b >= 0)
        assert moved.table[idx].is_zero() == expected_zero


def test_pairing_invariance():
    rng = random.Random(8)
    K2 = k2_model(F2)
    for _ in range(10):
        x = rand_lift(rng, K2)
        f = rand_elem(rng, K2, 0, BW)
        G = rand_dist(rng, K2, 0, BW)
        assert pairing2(rep_act(x, f), rep_act(x, G)) == pairing2(f, G)


def test_module_compatibility():
    rng = random.Random(9)
    K2 = k2_model(F2)
    for _ in range(8):
        x = rand_lift(rng, K2)
        f = rand_e2(rng, K2, BW)
        H = rand_elem(rng, K2, 0, BW)
        lhs = rep_act(x, module_mul(f, H))
        rhs = module_mul(rep_act(x.g, f), rep_act(x, H))
        assert d2_equal(lhs, rhs)
        G = rand_dist(rng, K2, 0, BW)
        lhsd = rep_act(x, module_mul(f, G))
        rhsd = module_mul(rep_act(x.g, f), rep_act(x, G))
        assert d2_equal(lhsd, rhsd)


def test_transform_intertwines_the_action():
    rng = random.Random(10)
    K2 = k2_model(F2)
    for _ in range(10):
        x = rand_lift(rng, K2)
        f = rand_elem(rng, K2, 0, BW)
        lhs = fourier2(rep_act(x, f))
        rhs = rep_act(x.dual_lift(), fourier2(f))
        assert d2_equal(lhs, rhs)
        G = rand_dist(rng, K2, 0, BW)
        lhsd = fourier2(rep_act(x, G))
        rhsd = rep_act(x.dual_lift(), fourier2(G))
        assert d2_equal(lhsd, rhsd)
    # germ action intertwines without a lift
    g = AutElem(K2, 1, -1, 1)
    e = rand_e2(rng, K2, BW)
    lhs = fourier2(rep_act(g, e))
    rhs = rep_act(g.dual_inverse(), fourier2(e))
    assert lhs.bw == rhs.bw and lhs.table == rhs.table


def test_region_invariance_guard():
    E1 = __import__("fqharmonic.c2", fromlist=["box_model"]).box_model(F2, None, 0, None, None)
    with pytest.raises(DomainError):
        AutElem(E1, 1, 0, 1)
    # the inner shift preserves a column-unbounded region
    AutElem(E1, 0, 3, 1)


def test_shifted_characteristic_distribution():
    # the twisted action takes the characteristic distribution of the sub to
    # the one of the shifted sub, and the transform matches the dual picture
    K2 = k2_model(F2)
    T = outer_cut_triple(K2, 0)
    Td = dual_triple2(T)
    mu = VirtualMeasure(T.sub, 0, T.sub.outer_sup, Fraction(1))
    nu = VirtualMeasure(T.quot, 0, T.quot.outer_inf, Fraction(1))
    delta = char_dist(T, mu, nu, BiWindow(-1, 1, -1, 1))
    for shifts in [(1, 0), (0, 1), (1, -1)]:
        g = AutElem(K2, shifts[0], shifts[1], 1)
        ghat = AutHatElem(g, VirtualMeasure(K2, 0, g.apply_cut(0), Fraction(1)))
        moved = rep_act(ghat, delta)
        # support profile: constant on the shifted sub block, zero transverse
        T_shift = outer_cut_triple(K2, -shifts[0])
        sub_idx, quot_idx = T_shift.split(moved.bw)
        from fqharmonic import tables as tb

        dim = bw_dim(K2, moved.bw)
        for idx in range(len(moved.table)):
            digs = tb.decode(idx, 2, dim)
            if any(digs[r] for r in quot_idx):
                assert moved.table[idx].is_zero()
        # the corollary: transform of the moved object is the dual-moved
        # transform of the dual characteristic distribution
        lhs = fourier2(moved)
        rhs = rep_act(ghat.dual_lift(), fourier2(delta))
        assert d2_equal(lhs, rhs)
        rhs2 = rep_act(
            ghat.dual_lift(),
            char_dist(Td, nu.on_dual(), mu.on_dual(), BiWindow(-1, 1, -1, 1)),
        )
        assert d2_equal(lhs, rhs2)


def test_shifted_characteristic_function():
    # the twist-free analog under a monomial shift
    K2 = k2_model(F2)
    T = inner_cut_triple(K2, 0)
    Td = dual_triple2(T)
    f = char_fn(T, 0, BiWindow(-1, 1, -1, 1))
    g = AutElem(K2, -1, 1, 1)
    ghat = AutHatElem(g, VirtualMeasure(K2, 0, g.apply_cut(0), Fraction(1)))
    lhs = fourier2(rep_act(ghat, f))
    rhs = rep_act(ghat.dual_lift(), char_fn(Td, 0, BiWindow(-1, 1, -1, 1)))
    assert d2_equal(lhs, rhs)


def ref_relabel(g, bw, table):
    """The action's table move as one gather, the form it had before it was a
    transport and a digit map: the output digit at slot (A, B) reads the
    input digit at (A + t_shift, B + u_shift) scaled by the inverse unit."""
    model = g.model
    q, fld = model.field.q, model.field
    bw_out = BiWindow(bw.l - g.t_shift, bw.i - g.t_shift, bw.m - g.u_shift, bw.n - g.u_shift)
    weight = {pos: q**r for r, pos in enumerate(positions2(model, bw))}
    cinv = fld.inv_idx(g.unit)
    digits = [
        [fld.mul_idx(cinv, d) * weight[(A + g.t_shift, B + g.u_shift)] for d in range(q)]
        for (A, B) in positions2(model, bw_out)
    ]
    return bw_out, tables.gather(table, tables.digit_index(digits))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rep_act_matches_the_gather_reference(q):
    fld = field_for(q)
    p = fld.p
    rng = random.Random(40 + q)
    K2 = k2_model(fld)
    for bw in (BiWindow(-1, 0, -1, 0), BiWindow(-1, 1, -1, 0), BiWindow(0, 1, -2, 1), BiWindow(-1, 1, -1, 1)):
        dim = bw_dim(K2, bw)
        for _ in range(3):
            lift = rand_lift(rng, K2)
            g = lift.g
            dense = Rows.of([rand_cyc(rng, p) for _ in range(q**dim)], p)
            factored = Kron(p, rand_cyc(rng, p), [Rows.of([rand_cyc(rng, p) for _ in range(q)], p) for _ in range(dim)])
            for table in (dense, factored):
                bw_out, expect = ref_relabel(g, bw, Rows.of(table, p))
                got = rep_act(g, E2Fn(K2, "E2", bw, table))
                assert got.bw == bw_out and got.table == expect
                assert isinstance(got.table, Kron) == isinstance(table, Kron)
                x = D2Elem(K2, 0, bw, table, Fraction(2))
                got = rep_act(lift, x)
                assert got.bw == bw_out and got.table == expect
                assert isinstance(got.table, Kron) == isinstance(table, Kron)


def test_wide_action_stays_factored(monkeypatch):
    # 9^36 entries: an index of the whole table could never be built
    index = tables.digit_index

    def small_only(digits):
        if len(digits) > 6:
            raise AssertionError(f"an index over {len(digits)} digits")
        return index(digits)

    monkeypatch.setattr(tables, "digit_index", small_only)
    F9 = field_for(9)
    K2 = k2_model(F9)
    bw = BiWindow(-3, 3, -3, 3)
    assert bw_dim(K2, bw) == 36
    germ = E2Fn(K2, "E2", bw, tables.const_kron(F9.p, 1, 9, 36))
    g = AutElem(K2, 1, 0, 2)
    moved = rep_act(g, germ)
    assert isinstance(moved.table, Kron) and moved.bw == BiWindow(-4, 2, -3, 3)
    assert rep_act(g.inverse(), moved).table == germ.table
    D = box_model(F9, 0, None, None, None, "D")
    nu = VirtualMeasure(D, 0, 0, Fraction(5, 3))
    delta = delta_nu(D, nu, bw)
    assert isinstance(delta.table, Kron) and delta.table.size == 9 ** bw_dim(D, bw)
    lift = AutHatElem(AutElem(K2, 1, 1, 2), VirtualMeasure(K2, 0, -1, Fraction(1)))
    x = D2Elem(K2, 0, bw, tables.point_kron(F9.p, 1, 9, [3] * 36), Fraction(1))
    moved = rep_act(lift, x)
    assert isinstance(moved.table, Kron)
    # the digit 3 at every slot, times the inverse of the unit 2
    inv = F9.inv_idx(2)
    point = [next(d for d in range(9) if F9.mul_idx(inv, d) == 3)] * 36
    assert moved.table == tables.point_kron(F9.p, 1, 9, point)
