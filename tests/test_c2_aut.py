import random
from fractions import Fraction

import pytest

from fqharmonic.c2 import (
    BiWindow,
    D2Dist,
    D2Elem,
    E2Fn,
    VirtualMeasure,
    bw_dim,
    d2_equal,
    fourier2,
    k2_model,
    module_mul,
    pairing2,
)
from fqharmonic.c2_aut import (
    AutElem,
    AutHatElem,
    aut_identity,
    authat_identity,
    authat_inverse,
    authat_mul,
    measure_transport,
    rep_act,
)
from fqharmonic.c2_triples import char_dist, char_fn, dual_triple2, inner_cut_triple, outer_cut_triple
from fqharmonic.exactnum import CycNum, DomainError, field_for

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
        VirtualMeasure(model, bw.l, o, Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))),
    )


def rand_dist(rng, model, o, bw):
    n = model.field.q ** bw_dim(model, bw)
    return D2Dist(
        model, o, bw,
        tuple(rand_cyc(rng, model.field.p) for _ in range(n)),
        VirtualMeasure(model, o, bw.l, Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))),
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
