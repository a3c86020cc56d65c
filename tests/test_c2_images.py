import random
from fractions import Fraction

import pytest

from fqharmonic.c1 import CapabilityError, WindowError
from fqharmonic.c2 import (
    BiWindow,
    C2Model,
    D2Dist,
    D2Elem,
    VirtualMeasure,
    box_model,
    bw_dim,
    d2_equal,
    dual_model2,
    fourier2,
    k2_model,
    pairing2,
    positions2,
    vmeas_canonical,
)
from fqharmonic.c2_triples import (
    GradedC2Triple,
    char_dist,
    char_fn,
    delta0_fn,
    delta_nu,
    dual_triple2,
    images2,
    inner_cut_triple,
    one_fn,
    one_mu,
    outer_cut_triple,
    poisson2_verify,
)
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


def sub_measure(T, o=0, scalar=Fraction(1)):
    return VirtualMeasure(T.sub, o, T.sub.outer_sup, scalar)


def quot_measure(T, o=0, scalar=Fraction(1)):
    return VirtualMeasure(T.quot, o, T.quot.outer_inf, scalar)


# ---------------------------------------------------------------------------
# images: examples and adjointness
# ---------------------------------------------------------------------------


def test_graded_triple_decides_the_partition_on_every_cell():
    K2 = k2_model(F2)
    sub = C2Model(F2, ((None, None, None, 0),))
    # sub and quot overlap only at columns a >= 10, row b = -1
    quot = C2Model(F2, ((None, 10, 0, None), (10, None, -1, None)))
    with pytest.raises(DomainError, match=r"overlap at \(10, -1\)"):
        GradedC2Triple(K2, sub, quot)
    # a gap far out breaks the partition too
    quot = C2Model(F2, ((None, 10, 0, None), (10, None, 1, None)))
    with pytest.raises(DomainError, match=r"partition fails at \(10, 0\)"):
        GradedC2Triple(K2, sub, quot)
    GradedC2Triple(K2, sub, C2Model(F2, ((None, None, 0, None),)))


def test_beta_push_lattice_block():
    # pushing the full-block indicator along the outer quotient gives a
    # point-mass-style table on the quotient
    T = outer_cut_triple(k2_model(F2), 0)
    mu = sub_measure(T)
    pos = positions2(T.mid, BW)
    one, zero = CycNum.one(2), CycNum.zero(2)
    sub_idx, quot_idx = T.split(BW)
    # indicator of the sub-block inside the bi-window
    table = []
    for idx in range(2 ** len(pos)):
        digs = [(idx >> r) & 1 for r in range(len(pos))]
        table.append(one if all(digs[r] == 0 for r in quot_idx) else zero)
    f = D2Elem(T.mid, 0, BW, tuple(table), VirtualMeasure(T.mid, -1, 0, Fraction(1)))
    out = images2("beta_push", T, f, mu)
    assert out.model == T.quot
    # in-window fiber count q^2 times the reference volume q^{sigma(-1,1,-1)}
    # = q^{-1} over the single sub column in range
    expect_value = CycNum.from_rational(2, Fraction(2))
    assert out.table[0] == expect_value
    assert all(c.is_zero() for c in out.table[1:])


def test_alpha_pull_restricts():
    rng = random.Random(1)
    T = outer_cut_triple(k2_model(F2), 0)
    nu = quot_measure(T)
    f = rand_elem(rng, T.mid, 0, BW)
    out = images2("alpha_pull", T, f, nu)
    assert out.model == T.sub
    sub_idx, _ = T.split(BW)
    assert len(out.table) == 2 ** len(sub_idx)


def test_roundtrip_through_discrete_quotient():
    # restriction after extension by zero recovers the representative
    rng = random.Random(2)
    T = inner_cut_triple(k2_model(F2), 0)
    f = rand_elem(rng, T.sub, 0, BiWindow(-1, 1, -1, 0))
    up = images2("alpha_push", T, f)
    # slicing the pushed table on the sub slots gives f back
    sub_idx, _ = T.split(up.bw)
    from fqharmonic import tables as tb

    dim = bw_dim(T.mid, up.bw)
    sliced = tb.contract(up.table, 2, dim, sub_idx, "slice")
    assert sliced == f.at(BiWindow(up.bw.l, up.bw.i, up.bw.m, up.bw.n)).table


@pytest.mark.parametrize("cut", [0, 1])
def test_adjointness_outer_maps(cut):
    rng = random.Random(3 + cut)
    T = outer_cut_triple(k2_model(F3), cut)
    mu = sub_measure(T, scalar=Fraction(3, 2))
    nu = quot_measure(T, scalar=Fraction(2))
    bw = BiWindow(min(-1, T.quot.outer_inf), max(1, T.sub.outer_sup), -1, 1)
    for _ in range(4):
        f = rand_elem(rng, T.mid, 0, bw)
        G = rand_dist(rng, T.quot, 0, bw)
        assert pairing2(images2("beta_push", T, f, mu), G) == pairing2(
            f, images2("beta_pull", T, G, mu)
        )
        # twisted extension against restriction
        G1 = rand_dist(rng, T.sub, 0, bw)
        assert pairing2(images2("alpha_pull", T, f, nu), G1) == pairing2(
            f, images2("alpha_push", T, G1, nu)
        )


@pytest.mark.parametrize("cut", [-1, 0, 1])
def test_adjointness_inner_maps(cut):
    rng = random.Random(7 + cut)
    T = inner_cut_triple(k2_model(F2), cut)
    bw = BiWindow(-1, 1, min(-1, cut), max(1, cut))
    for _ in range(4):
        g = rand_elem(rng, T.quot, 0, bw)
        G2 = rand_dist(rng, T.mid, 0, bw)
        assert pairing2(images2("beta_pull", T, g), G2) == pairing2(
            g, images2("beta_push", T, G2)
        )
        f1 = rand_elem(rng, T.sub, 0, bw)
        G2b = rand_dist(rng, T.mid, 0, bw)
        assert pairing2(images2("alpha_push", T, f1), G2b) == pairing2(
            f1, images2("alpha_pull", T, G2b)
        )


def test_class_flags_enforced():
    K2 = k2_model(F2)
    T = outer_cut_triple(K2, 0)
    rng = random.Random(11)
    f = rand_elem(rng, T.quot, 0, BW)
    with pytest.raises(CapabilityError):
        images2("beta_pull", T, f)  # sub is not fiberwise compact
    Ti = inner_cut_triple(K2, 0)
    fi = rand_elem(rng, Ti.mid, 0, BW)
    with pytest.raises(CapabilityError):
        images2("beta_push", Ti, fi, None)  # sub is not outer compact


# ---------------------------------------------------------------------------
# canonical profiles
# ---------------------------------------------------------------------------


def test_char_dist_matches_both_constructions():
    # extension of the measure profile equals the pullback of the point mass
    for cut in (-1, 0, 1):
        T = outer_cut_triple(k2_model(F2), cut)
        mu = sub_measure(T, scalar=Fraction(3))
        nu = quot_measure(T, scalar=Fraction(1, 2))
        bw = BiWindow(min(-1, T.quot.outer_inf), max(1, T.sub.outer_sup), -1, 1)
        via_alpha = char_dist(T, mu, nu, bw)
        via_beta = images2("beta_pull", T, delta_nu(T.quot, nu, bw), mu)
        assert d2_equal(via_alpha, via_beta)


def test_char_fn_matches_both_constructions():
    for cut in (-1, 0, 1):
        T = inner_cut_triple(k2_model(F2), cut)
        bw = BiWindow(-1, 1, min(-1, cut), max(1, cut))
        via_alpha = char_fn(T, 0, bw)
        via_beta = images2("beta_pull", T, delta0_fn(T.quot, 0, bw))
        assert d2_equal(via_alpha, via_beta)


def test_char_dist_profile_shape():
    T = outer_cut_triple(k2_model(F2), 0)
    mu = sub_measure(T)
    nu = quot_measure(T)
    d = char_dist(T, mu, nu, BW)
    sub_idx, quot_idx = T.split(d.bw)
    from fqharmonic import tables as tb

    for idx in range(len(d.table)):
        digs = tb.decode(idx, 2, bw_dim(T.mid, d.bw))
        if any(digs[r] for r in quot_idx):
            assert d.table[idx].is_zero()
        else:
            assert not d.table[idx].is_zero()


def test_transform_exchanges_profiles():
    # the transform swaps the measure profile and the point evaluation
    T = outer_cut_triple(k2_model(F2), 0)
    mu = sub_measure(T, scalar=Fraction(2))
    bw = BiWindow(-1, T.sub.outer_sup, -1, 1)
    lhs = fourier2(one_mu(T.sub, mu, bw))
    dual_sub = dual_model2(T.sub)
    rhs = delta_nu(dual_sub, mu.on_dual(), bw.dual())
    assert d2_equal(lhs, rhs)
    nu = quot_measure(T, scalar=Fraction(1, 2))
    bwq = BiWindow(T.quot.outer_inf, 1, -1, 1)
    lhs2 = fourier2(delta_nu(T.quot, nu, bwq))
    rhs2 = one_mu(dual_model2(T.quot), nu.on_dual(), bwq.dual())
    assert d2_equal(lhs2, rhs2)


# ---------------------------------------------------------------------------
# the summation identities
# ---------------------------------------------------------------------------


def test_poisson_II_standard():
    T = inner_cut_triple(k2_model(F2), 0)
    rep = poisson2_verify("II", T, o=0, cut_lo=-2, cut_hi=2, max_points=256)
    assert rep.cases >= 36 and rep.passed, rep.failures[:1]


def test_poisson_II_shifted_cut():
    for cut in (-1, 1):
        T = inner_cut_triple(k2_model(F2), cut)
        rep = poisson2_verify("II", T, o=0, cut_lo=-1, cut_hi=1, max_points=64)
        assert rep.cases > 0 and rep.passed, rep.failures[:1]


def test_poisson_I_standard_and_rescaled():
    T = outer_cut_triple(k2_model(F2), 0)
    for s_mu in (Fraction(1), Fraction(2), Fraction(1, 2)):
        for s_nu in (Fraction(1), Fraction(2)):
            rep = poisson2_verify(
                "I", T,
                sub_measure(T, scalar=s_mu),
                quot_measure(T, scalar=s_nu),
                o=0, cut_lo=-1, cut_hi=1, max_points=64,
            )
            assert rep.cases > 0 and rep.passed, rep.failures[:1]


def test_poisson_I_q3():
    T = outer_cut_triple(k2_model(F3), 0)
    rep = poisson2_verify(
        "I", T, sub_measure(T), quot_measure(T), o=0, cut_lo=-1, cut_hi=1, max_points=81
    )
    assert rep.cases > 0 and rep.passed


def test_poisson_negative_controls():
    T = outer_cut_triple(k2_model(F2), 0)
    rep = poisson2_verify(
        "I", T, sub_measure(T), quot_measure(T), o=0, cut_lo=-1, cut_hi=1,
        max_points=64, corrupt="measure",
    )
    assert not rep.passed
    assert rep.failures[0]["identity"] == "poisson2_I_characteristic_transform"
    Ti = inner_cut_triple(k2_model(F2), 0)
    rep2 = poisson2_verify("II", Ti, o=0, cut_lo=-1, cut_hi=1, max_points=64, corrupt="transition")
    assert not rep2.passed
    assert rep2.failures[0]["identity"] == "poisson2_II_characteristic_transform"


@pytest.mark.parametrize("fld, cases_ii, cases_i", [(F2, 219, 189), (F3, 196, 144)])
def test_poisson_sweep_on_a_box_middle(fld, cases_ii, cases_i):
    # the dual middle differs from the middle here, so a cap read on the
    # wrong model would drop bi-windows whose widened sides both fit
    T = inner_cut_triple(box_model(fld, -1, 2, None, None), 0)
    assert dual_triple2(T).mid != T.mid
    rep = poisson2_verify("II", T, o=0, cut_lo=-2, cut_hi=2, max_points=256)
    assert (rep.cases, rep.failures) == (cases_ii, [])
    rep = poisson2_verify("I", T, sub_measure(T), quot_measure(T, scalar=Fraction(fld.q)), cut_lo=-2, cut_hi=2)
    assert (rep.cases, rep.failures) == (cases_i, [])


@pytest.mark.parametrize("fld", [F2, F3])
@pytest.mark.parametrize("which, fault", [("II", "transition"), ("I", "measure")])
def test_poisson_corruption_fails_every_bi_window(fld, which, fault):
    box_triple = inner_cut_triple(box_model(fld, -1, 2, None, None), 0)
    k2_triple = (inner_cut_triple if which == "II" else outer_cut_triple)(k2_model(fld), 0)
    for T in (box_triple, k2_triple):
        rep = poisson2_verify(which, T, sub_measure(T), quot_measure(T), cut_lo=-1, cut_hi=1, corrupt=fault)
        assert rep.cases > 0 and len(rep.failures) == rep.cases
        assert {f["identity"] for f in rep.failures} == {f"poisson2_{which}_characteristic_transform"}


# ---------------------------------------------------------------------------
# base change and composition in two dimensions
# ---------------------------------------------------------------------------


def zvezda_cc_dd(c1, c2):
    """E1 = {a<c1} in K2, D = {c1<=a<c2} in E3, both outer cuts."""
    K2 = k2_model(F2)
    T = outer_cut_triple(K2, c1)
    Tg = outer_cut_triple(T.quot, c2)
    X = box_model(F2, None, c2, None, None, "X'")
    T_mono = GradedC2Triple(K2, X, Tg.quot, "mono")
    T_fiber = GradedC2Triple(X, T.sub, Tg.sub, "fiber")
    return T, Tg, T_fiber, T_mono


def zvezda_cf_df(c1, c2):
    K2 = k2_model(F2)
    T = inner_cut_triple(K2, c1)
    Tg = inner_cut_triple(T.quot, c2)
    X = box_model(F2, None, None, None, c2, "X'")
    T_mono = GradedC2Triple(K2, X, Tg.quot, "mono")
    T_fiber = GradedC2Triple(X, T.sub, Tg.sub, "fiber")
    return T, Tg, T_fiber, T_mono


def zvezda_cc_df(c1, c2):
    K2 = k2_model(F2)
    T = outer_cut_triple(K2, c1)
    Tg = inner_cut_triple(T.quot, c2)
    X = C2Model(F2, ((None, c1, None, None), (c1, None, None, c2)), "X'")
    T_mono = GradedC2Triple(K2, X, Tg.quot, "mono")
    T_fiber = GradedC2Triple(X, T.sub, Tg.sub, "fiber")
    return T, Tg, T_fiber, T_mono


def zvezda_cf_dc(c1, c2):
    K2 = k2_model(F2)
    T = inner_cut_triple(K2, c1)
    Tg = outer_cut_triple(T.quot, c2)
    X = C2Model(F2, ((None, c2, None, None), (c2, None, None, c1)), "X'")
    T_mono = GradedC2Triple(K2, X, Tg.quot, "mono")
    T_fiber = GradedC2Triple(X, T.sub, Tg.sub, "fiber")
    return T, Tg, T_fiber, T_mono


def test_base_change_outer_outer():
    rng = random.Random(20)
    for c1, c2 in [(-1, 0), (0, 0), (0, 1), (-1, 1)]:
        T, Tg, T_fiber, T_mono = zvezda_cc_dd(c1, c2)
        mu = sub_measure(T, scalar=Fraction(2))
        nu = quot_measure(Tg, scalar=Fraction(3))
        bw = BiWindow(min(-1, Tg.quot.outer_inf), max(1, T.sub.outer_sup), -1, 1)
        f = rand_elem(rng, T.mid, 0, bw)
        lhs = images2("alpha_pull", Tg, images2("beta_push", T, f, mu), nu)
        rhs = images2("beta_push", T_fiber, images2("alpha_pull", T_mono, f, nu), mu)
        assert d2_equal(lhs, rhs)
        G = rand_dist(rng, Tg.sub, 0, bw)
        lhs = images2("beta_pull", T, images2("alpha_push", Tg, G, nu), mu)
        rhs = images2("alpha_push", T_mono, images2("beta_pull", T_fiber, G, mu), nu)
        assert d2_equal(lhs, rhs)


def test_base_change_inner_inner():
    rng = random.Random(21)
    for c1, c2 in [(-1, 0), (0, 0), (0, 1), (-1, 1)]:
        T, Tg, T_fiber, T_mono = zvezda_cf_df(c1, c2)
        bw = BiWindow(-1, 1, min(-1, c1), max(1, c2))
        f = rand_elem(rng, Tg.sub, 0, bw)
        lhs = images2("beta_pull", T, images2("alpha_push", Tg, f))
        rhs = images2("alpha_push", T_mono, images2("beta_pull", T_fiber, f))
        assert d2_equal(lhs, rhs)
        G = rand_dist(rng, T.mid, 0, bw)
        lhs = images2("alpha_pull", Tg, images2("beta_push", T, G))
        rhs = images2("beta_push", T_fiber, images2("alpha_pull", T_mono, G))
        assert d2_equal(lhs, rhs)


def test_base_change_mixed_cc_df():
    rng = random.Random(22)
    for c1, c2 in [(-1, 0), (0, 1), (0, 0)]:
        T, Tg, T_fiber, T_mono = zvezda_cc_df(c1, c2)
        mu = sub_measure(T, scalar=Fraction(2))
        bw = BiWindow(-1, max(1, T.sub.outer_sup), -1, max(1, c2))
        f = rand_elem(rng, T_mono.sub, 0, bw)
        lhs = images2("beta_push", T, images2("alpha_push", T_mono, f), mu)
        rhs = images2("alpha_push", Tg, images2("beta_push", T_fiber, f, mu))
        assert d2_equal(lhs, rhs)
        G = rand_dist(rng, T.quot, 0, bw)
        lhs = images2("beta_pull", T_fiber, images2("alpha_pull", Tg, G), mu)
        rhs = images2("alpha_pull", T_mono, images2("beta_pull", T, G, mu))
        assert d2_equal(lhs, rhs)


def test_base_change_mixed_cf_dc():
    rng = random.Random(23)
    for c1, c2 in [(-1, 0), (0, 1), (0, 0)]:
        T, Tg, T_fiber, T_mono = zvezda_cf_dc(c1, c2)
        nu = quot_measure(Tg, scalar=Fraction(3, 2))
        bw = BiWindow(min(-1, Tg.quot.outer_inf), 1, min(-1, c1), max(1, c1))
        f = rand_elem(rng, T.quot, 0, bw)
        lhs = images2("beta_pull", T_fiber, images2("alpha_pull", Tg, f, nu))
        rhs = images2("alpha_pull", T_mono, images2("beta_pull", T, f), nu)
        assert d2_equal(lhs, rhs)
        G = rand_dist(rng, T_mono.sub, 0, bw)
        lhs = images2("beta_push", T, images2("alpha_push", T_mono, G, nu))
        rhs = images2("alpha_push", Tg, images2("beta_push", T_fiber, G), nu)
        assert d2_equal(lhs, rhs)


def test_composition_outer_epis():
    rng = random.Random(24)
    for c1, c2 in [(-1, 0), (0, 1), (-1, 1), (0, 0)]:
        T, Tg, T_fiber, T_mono = zvezda_cc_dd(c1, c2)
        mu = sub_measure(T, scalar=Fraction(2))
        nu = sub_measure(Tg, scalar=Fraction(3))
        munu = VirtualMeasure(T_mono.sub, 0, T_mono.sub.outer_sup, mu.scalar * nu.scalar)
        bw = BiWindow(min(-1, Tg.quot.outer_inf), max(1, T_mono.sub.outer_sup), -1, 1)
        f = rand_elem(rng, T.mid, 0, bw)
        lhs = images2("beta_push", T_mono, f, munu)
        rhs = images2("beta_push", Tg, images2("beta_push", T, f, mu), nu)
        assert d2_equal(lhs, rhs)
        G = rand_dist(rng, Tg.quot, 0, bw)
        lhs = images2("beta_pull", T_mono, G, munu)
        rhs = images2("beta_pull", T, images2("beta_pull", Tg, G, nu), mu)
        assert d2_equal(lhs, rhs)


def test_composition_inner_epis():
    rng = random.Random(25)
    for c1, c2 in [(-1, 0), (0, 1), (-1, 1)]:
        T, Tg, T_fiber, T_mono = zvezda_cf_df(c1, c2)
        bw = BiWindow(-1, 1, min(-1, c1), max(1, c2))
        f = rand_elem(rng, Tg.quot, 0, bw)
        lhs = images2("beta_pull", T_mono, f)
        rhs = images2("beta_pull", T, images2("beta_pull", Tg, f))
        assert d2_equal(lhs, rhs)
        G = rand_dist(rng, T.mid, 0, bw)
        lhs = images2("beta_push", T_mono, G)
        rhs = images2("beta_push", Tg, images2("beta_push", T, G))
        assert d2_equal(lhs, rhs)


def trizvezda_outer(c1, c2):
    """E1 = {a<c1} inside E2 = {a<c2} inside the full plane."""
    K2 = k2_model(F2)
    T2 = outer_cut_triple(K2, c2)  # E2 -> K2 -> L'
    E2 = T2.sub
    E1 = box_model(F2, None, c1, None, None, "E1")
    E3 = box_model(F2, c1, c2, None, None, "E3")
    T = GradedC2Triple(E2, E1, E3, "inner-triple")
    coker = box_model(F2, c1, None, None, None, "coker")
    Tc = GradedC2Triple(K2, E1, coker, "composite")
    return T, T2, Tc


def trizvezda_inner(c1, c2):
    K2 = k2_model(F2)
    T2 = inner_cut_triple(K2, c2)
    E2 = T2.sub
    E1 = box_model(F2, None, None, None, c1, "E1")
    E3 = box_model(F2, None, None, c1, c2, "E3")
    T = GradedC2Triple(E2, E1, E3, "inner-triple")
    coker = box_model(F2, None, None, c1, None, "coker")
    Tc = GradedC2Triple(K2, E1, coker, "composite")
    return T, T2, Tc


def test_composition_outer_monos():
    rng = random.Random(26)
    for c1, c2 in [(-1, 0), (0, 1), (-1, 1), (0, 0)]:
        T, T2, Tc = trizvezda_outer(c1, c2)
        mu = quot_measure(T, scalar=Fraction(2))   # on E3
        nu = quot_measure(T2, scalar=Fraction(3))  # on L'
        munu = VirtualMeasure(Tc.quot, 0, Tc.quot.outer_inf, mu.scalar * nu.scalar)
        bw = BiWindow(min(-1, Tc.quot.outer_inf), 1, -1, 1)
        f = rand_elem(rng, T2.mid, 0, bw)
        lhs = images2("alpha_pull", Tc, f, munu)
        rhs = images2("alpha_pull", T, images2("alpha_pull", T2, f, nu), mu)
        assert d2_equal(lhs, rhs)
        G = rand_dist(rng, T.sub, 0, bw)
        lhs = images2("alpha_push", Tc, G, munu)
        rhs = images2("alpha_push", T2, images2("alpha_push", T, G, mu), nu)
        assert d2_equal(lhs, rhs)


def test_composition_inner_monos():
    rng = random.Random(27)
    for c1, c2 in [(-1, 0), (0, 1), (-1, 1)]:
        T, T2, Tc = trizvezda_inner(c1, c2)
        bw = BiWindow(-1, 1, min(-1, c1), max(1, c2))
        f = rand_elem(rng, T.sub, 0, bw)
        lhs = images2("alpha_push", Tc, f)
        rhs = images2("alpha_push", T2, images2("alpha_push", T, f))
        assert d2_equal(lhs, rhs)
        G = rand_dist(rng, T2.mid, 0, bw)
        lhs = images2("alpha_pull", Tc, G)
        rhs = images2("alpha_pull", T, images2("alpha_pull", T2, G))
        assert d2_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# transform/image exchange
# ---------------------------------------------------------------------------


def test_transform_image_diagrams_outer():
    rng = random.Random(28)
    for cut in (-1, 0, 1):
        T = outer_cut_triple(k2_model(F2), cut)
        Td = dual_triple2(T)
        mu = sub_measure(T, scalar=Fraction(2))
        nu = quot_measure(T, scalar=Fraction(3, 2))
        bw = BiWindow(min(-1, T.quot.outer_inf), max(1, T.sub.outer_sup), -1, 1)
        f = rand_elem(rng, T.mid, 0, bw)
        lhs = fourier2(images2("beta_push", T, f, mu))
        rhs = images2("alpha_pull", Td, fourier2(f), mu.on_dual())
        assert d2_equal(lhs, rhs)
        lhs = fourier2(images2("alpha_pull", T, f, nu))
        rhs = images2("beta_push", Td, fourier2(f), nu.on_dual())
        assert d2_equal(lhs, rhs)
        G3 = rand_dist(rng, T.quot, 0, bw)
        lhs = fourier2(images2("beta_pull", T, G3, mu))
        rhs = images2("alpha_push", Td, fourier2(G3), mu.on_dual())
        assert d2_equal(lhs, rhs)
        G1 = rand_dist(rng, T.sub, 0, bw)
        lhs = fourier2(images2("alpha_push", T, G1, nu))
        rhs = images2("beta_pull", Td, fourier2(G1), nu.on_dual())
        assert d2_equal(lhs, rhs)


def test_transform_image_diagrams_inner():
    rng = random.Random(29)
    for cut in (-1, 0, 1):
        T = inner_cut_triple(k2_model(F2), cut)
        Td = dual_triple2(T)
        bw = BiWindow(-1, 1, min(-1, cut), max(1, cut))
        g = rand_elem(rng, T.quot, 0, bw)
        lhs = fourier2(images2("beta_pull", T, g))
        rhs = images2("alpha_push", Td, fourier2(g))
        assert d2_equal(lhs, rhs)
        f1 = rand_elem(rng, T.sub, 0, bw)
        lhs = fourier2(images2("alpha_push", T, f1))
        rhs = images2("beta_pull", Td, fourier2(f1))
        assert d2_equal(lhs, rhs)
        G2 = rand_dist(rng, T.mid, 0, bw)
        lhs = fourier2(images2("beta_push", T, G2))
        rhs = images2("alpha_pull", Td, fourier2(G2))
        assert d2_equal(lhs, rhs)
        lhs = fourier2(images2("alpha_pull", T, G2))
        rhs = images2("beta_push", Td, fourier2(G2))
        assert d2_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# guards: every image rejects what it cannot take, with the same error class
# ---------------------------------------------------------------------------

KIND_SOURCE = {"alpha_pull": "mid", "alpha_push": "sub", "beta_pull": "quot", "beta_push": "mid"}


@pytest.mark.parametrize("make", [rand_elem, rand_dist], ids=["elem", "dist"])
@pytest.mark.parametrize("kind", sorted(KIND_SOURCE))
@pytest.mark.parametrize("cut_triple", [outer_cut_triple, inner_cut_triple], ids=["outer", "inner"])
def test_image_on_wrong_source_model_raises(cut_triple, kind, make):
    T = cut_triple(k2_model(F2), 0)
    wrong = T.quot if KIND_SOURCE[kind] == "mid" else T.mid
    x = make(random.Random(21), wrong, 0, BW)
    aux = sub_measure(T) if T.sub.is_c else None
    with pytest.raises(DomainError) as exc:
        images2(kind, T, x, aux)
    assert exc.type is DomainError  # not a capability or window failure


def test_unknown_kind_and_bare_table_raise():
    T = outer_cut_triple(k2_model(F2), 0)
    f = rand_elem(random.Random(22), T.mid, 0, BW)
    with pytest.raises(DomainError) as exc:
        images2("gamma_pull", T, f, quot_measure(T))
    assert exc.type is DomainError
    with pytest.raises(DomainError) as exc:
        images2("alpha_pull", T, f.table, quot_measure(T))
    assert exc.type is DomainError


# the function side of the beta pair is in test_class_flags_enforced
@pytest.mark.parametrize(
    "cut_triple, kind, make, member",
    [
        # the outer cut's sub is not fiberwise compact, its quotient not fiberwise discrete
        (outer_cut_triple, "beta_push", rand_dist, "mid"),
        (outer_cut_triple, "alpha_push", rand_elem, "sub"),
        (outer_cut_triple, "alpha_pull", rand_dist, "mid"),
        # the inner cut's sub is not outer compact, its quotient not outer discrete
        (inner_cut_triple, "beta_pull", rand_dist, "quot"),
        (inner_cut_triple, "alpha_pull", rand_elem, "mid"),
        (inner_cut_triple, "alpha_push", rand_dist, "sub"),
    ],
)
def test_image_capabilities_raise(cut_triple, kind, make, member):
    T = cut_triple(k2_model(F2), 0)
    x = make(random.Random(23), getattr(T, member), 0, BW)
    with pytest.raises(CapabilityError):
        images2(kind, T, x, None)


@pytest.mark.parametrize(
    "cut_triple, cut, kind, make, member, aux, bw",
    [
        # a function's window top must cover the outer-compact sub
        (outer_cut_triple, 1, "beta_push", rand_elem, "mid", sub_measure, BiWindow(-1, 0, -1, 1)),
        # a function's window bottom must sit below the outer-discrete quotient
        (outer_cut_triple, -1, "alpha_pull", rand_elem, "mid", quot_measure, BiWindow(0, 1, -1, 1)),
        # a distribution's inner window must cover the fiberwise compact sub
        (inner_cut_triple, 1, "beta_push", rand_dist, "mid", None, BiWindow(-1, 1, -1, 0)),
        # a distribution's inner window must reach below the fiberwise discrete quotient
        (inner_cut_triple, -1, "alpha_pull", rand_dist, "mid", None, BiWindow(-1, 1, 0, 1)),
    ],
)
def test_image_window_conditions_raise(cut_triple, cut, kind, make, member, aux, bw):
    T = cut_triple(k2_model(F2), cut)
    x = make(random.Random(24), getattr(T, member), 0, bw)
    with pytest.raises(WindowError):
        images2(kind, T, x, aux(T) if aux else None)
