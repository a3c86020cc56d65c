"""Composition, base change, and transform/image exchange at window level."""

import random
from fractions import Fraction

from fqharmonic.c1 import (
    C1Dist,
    C1Fn,
    HaarMeasure,
    Window,
    dual_window,
    fn_equal,
    fourier1,
    lattice_model,
    laurent_model,
    shift_model,
    window_dim,
)
from fqharmonic.c1_triples import (
    base_change,
    compose_epi,
    compose_mono,
    direct_sum_triple,
    dual_triple,
    images1,
    interval_triple,
    tensor_haar,
)
from fqharmonic.exactnum import CycNum, field_for

F2 = field_for(2)
W = Window(-1, 2)


def rand_cyc(rng, p):
    return CycNum(p, tuple(Fraction(rng.randint(-2, 2)) for _ in range(p - 1)))


def rand_fn(rng, model, w, tag="D"):
    n = model.field.q ** window_dim(model, w)
    return C1Fn(model, tag, w, tuple(rand_cyc(rng, model.field.p) for _ in range(n)))


def rand_dist(rng, model, w, tag="Dp"):
    n = model.field.q ** window_dim(model, w)
    return C1Dist(model, tag, w, tuple(rand_cyc(rng, model.field.p) for _ in range(n)))


def rand_haar(rng, model):
    return HaarMeasure(model, rng.choice([-1, 0, 1]), Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2])))


def epi_setup(rng):
    """T1: E1 -> E2 -> E3 with E2 = K; Tb: L -> H -> E2; both kernels compact."""
    c1 = rng.choice([-1, 0, 1])
    c2 = rng.choice([-1, 0, 1])
    T1 = interval_triple(laurent_model(F2), lattice_model(F2, c1))
    L = lattice_model(F2, c2, label="L")
    Tb = direct_sum_triple(L, laurent_model(F2))
    Tc = compose_epi(T1, Tb)
    nu, mu = rand_haar(rng, L), rand_haar(rng, T1.sub)
    numu = HaarMeasure(Tc.sub, 0, nu.value_at(0) * mu.value_at(0))
    return T1, Tb, Tc, nu, mu, numu


def mono_setup(rng):
    """T: E1 -> E2 -> E3 with E2 = K; T2: E2 -> H' -> L'; E3, L' discrete."""
    c1 = rng.choice([-1, 0, 1])
    c2 = rng.choice([-1, 0, 1])
    T = interval_triple(laurent_model(F2), lattice_model(F2, c1))
    Lp = C1Model_discrete(c2)
    T2 = direct_sum_triple(laurent_model(F2), Lp)
    Tc = compose_mono(T, T2)
    return T, T2, Tc


def C1Model_discrete(cut):
    from fqharmonic.c1 import colattice_model

    return colattice_model(F2, cut, label=f"L'>={cut}")


def bc_setup(rng):
    """Base-change data: T: E1 -> E2 -> E3, Tg: D -> E3 -> B."""
    from fqharmonic.c1 import segment_model

    c1 = rng.choice([-1, 0])
    c2 = rng.choice([0, 1])
    T = interval_triple(laurent_model(F2), lattice_model(F2, c1))
    D = segment_model(F2, c1, c2, label="D")
    Tg = interval_triple(T.quot, D)
    T_fiber, T_mono = base_change(T, Tg)
    return T, Tg, T_fiber, T_mono


CASES = 30


def test_compose_epi_function_formulas():
    rng = random.Random(100)
    for _ in range(CASES):
        T1, Tb, Tc, nu, mu, numu = epi_setup(rng)
        f = rand_fn(rng, Tb.mid, W)
        lhs = images1("beta_push", Tc, f, numu)
        rhs = images1("beta_push", T1, images1("beta_push", Tb, f, nu), mu)
        assert lhs.table == rhs.table and lhs.window == rhs.window
        # germ variant (compact kernels)
        fe = rand_fn(rng, Tb.mid, W, tag="E")
        lhs = images1("beta_push", Tc, fe, numu)
        rhs = images1("beta_push", T1, images1("beta_push", Tb, fe, nu), mu)
        assert lhs.table == rhs.table
        # pullback composition, germ and compact-support versions
        g = rand_fn(rng, T1.quot, W, tag="E")
        assert fn_equal(
            images1("beta_pull", Tc, g),
            images1("beta_pull", Tb, images1("beta_pull", T1, g)),
        )
        gd = rand_fn(rng, T1.quot, W, tag="D")
        assert fn_equal(
            images1("beta_pull", Tc, gd),
            images1("beta_pull", Tb, images1("beta_pull", T1, gd)),
        )


def test_compose_epi_distribution_formulas():
    rng = random.Random(101)
    for _ in range(CASES):
        T1, Tb, Tc, nu, mu, numu = epi_setup(rng)
        G = rand_dist(rng, T1.quot, W)
        lhs = images1("beta_pull", Tc, G, numu)
        rhs = images1("beta_pull", Tb, images1("beta_pull", T1, G, mu), nu)
        assert lhs.table == rhs.table
        Ge = rand_dist(rng, T1.quot, W, tag="ETp")
        lhs = images1("beta_pull", Tc, Ge, numu)
        rhs = images1("beta_pull", Tb, images1("beta_pull", T1, Ge, mu), nu)
        assert lhs.table == rhs.table
        H = rand_dist(rng, Tb.mid, W, tag="ETp")
        lhs = images1("beta_push", Tc, H)
        rhs = images1("beta_push", T1, images1("beta_push", Tb, H))
        assert lhs.table == rhs.table
        Hd = rand_dist(rng, Tb.mid, W, tag="Dp")
        lhs = images1("beta_push", Tc, Hd)
        rhs = images1("beta_push", T1, images1("beta_push", Tb, Hd))
        assert lhs.table == rhs.table


def test_compose_mono_formulas():
    rng = random.Random(102)
    for _ in range(CASES):
        T, T2, Tc = mono_setup(rng)
        for tag in ("D", "E"):
            f = rand_fn(rng, T2.mid, W, tag=tag)
            lhs = images1("alpha_pull", Tc, f)
            rhs = images1("alpha_pull", T, images1("alpha_pull", T2, f))
            assert lhs.table == rhs.table
            g = rand_fn(rng, T.sub, W, tag=tag)
            lhs = images1("alpha_push", Tc, g)
            rhs = images1("alpha_push", T2, images1("alpha_push", T, g))
            assert fn_equal(lhs, rhs)
        for tag in ("Dp", "ETp"):
            G = rand_dist(rng, T.sub, W, tag=tag)
            lhs = images1("alpha_push", Tc, G)
            rhs = images1("alpha_push", T2, images1("alpha_push", T, G))
            assert lhs.table == rhs.table
            H = rand_dist(rng, T2.mid, W, tag=tag)
            lhs = images1("alpha_pull", Tc, H)
            rhs = images1("alpha_pull", T, images1("alpha_pull", T2, H))
            assert lhs.table == rhs.table


def test_base_change_all_twelve():
    rng = random.Random(103)
    for _ in range(CASES):
        T, Tg, T_fiber, T_mono = bc_setup(rng)
        mu = rand_haar(rng, T.sub)
        # compactly supported function along the epi, pulled to the mono
        f = rand_fn(rng, T.mid, W)
        lhs = images1("alpha_pull", Tg, images1("beta_push", T, f, mu))
        rhs = images1("beta_push", T_fiber, images1("alpha_pull", T_mono, f), mu)
        assert lhs.table == rhs.table
        # conjugate version on distributions over the sub of the mono
        G = rand_dist(rng, Tg.sub, W)
        lhs = images1("beta_pull", T, images1("alpha_push", Tg, G), mu)
        rhs = images1("alpha_push", T_mono, images1("beta_pull", T_fiber, G, mu))
        assert lhs.table == rhs.table
        # germ pullback square
        fe = rand_fn(rng, T.quot, W, tag="E")
        lhs = images1("beta_pull", T_fiber, images1("alpha_pull", Tg, fe))
        rhs = images1("alpha_pull", T_mono, images1("beta_pull", T, fe))
        assert lhs.table == rhs.table
        # compactly-supported distribution push square
        Gx = rand_dist(rng, T_mono.sub, W, tag="ETp")
        lhs = images1("beta_push", T, images1("alpha_push", T_mono, Gx))
        rhs = images1("alpha_push", Tg, images1("beta_push", T_fiber, Gx))
        assert lhs.table == rhs.table
        # compact kernel: pullback square on compact supports
        fd = rand_fn(rng, T.quot, W, tag="D")
        lhs = images1("beta_pull", T_fiber, images1("alpha_pull", Tg, fd))
        rhs = images1("alpha_pull", T_mono, images1("beta_pull", T, fd))
        assert lhs.table == rhs.table
        # compact kernel: distribution push square
        Gd = rand_dist(rng, T_mono.sub, W, tag="Dp")
        lhs = images1("beta_push", T, images1("alpha_push", T_mono, Gd))
        rhs = images1("alpha_push", Tg, images1("beta_push", T_fiber, Gd))
        assert lhs.table == rhs.table
        # discrete cokernel: function push square
        fx = rand_fn(rng, T_mono.sub, W)
        lhs = images1("beta_push", T, images1("alpha_push", T_mono, fx), mu)
        rhs = images1("alpha_push", Tg, images1("beta_push", T_fiber, fx, mu))
        assert fn_equal(lhs, rhs)
        # discrete cokernel: distribution pull square
        Gq = rand_dist(rng, T.quot, W)
        lhs = images1("beta_pull", T_fiber, images1("alpha_pull", Tg, Gq), mu)
        rhs = images1("alpha_pull", T_mono, images1("beta_pull", T, Gq, mu))
        assert lhs.table == rhs.table
        # both conditions: D-function square through the fibered product
        fD = rand_fn(rng, Tg.sub, W)
        lhs = images1("beta_pull", T, images1("alpha_push", Tg, fD))
        rhs = images1("alpha_push", T_mono, images1("beta_pull", T_fiber, fD))
        assert fn_equal(lhs, rhs)
        # both conditions: distribution square on the middle model
        G2 = rand_dist(rng, T.mid, W)
        lhs = images1("alpha_pull", Tg, images1("beta_push", T, G2))
        rhs = images1("beta_push", T_fiber, images1("alpha_pull", T_mono, G2))
        assert lhs.table == rhs.table
        # both: germ push square
        fge = rand_fn(rng, T_mono.sub, W, tag="E")
        lhs = images1("beta_push", T, images1("alpha_push", T_mono, fge), mu)
        rhs = images1("alpha_push", Tg, images1("beta_push", T_fiber, fge, mu))
        assert fn_equal(lhs, rhs)
        # both: compactly-supported-dual pull square
        Gte = rand_dist(rng, T.quot, W, tag="ETp")
        lhs = images1("beta_pull", T_fiber, images1("alpha_pull", Tg, Gte), mu)
        rhs = images1("alpha_pull", T_mono, images1("beta_pull", T, Gte, mu))
        assert lhs.table == rhs.table


def test_transform_image_exchange_compact_support():
    """The four squares exchanging push/pull with the transform on D-type."""
    rng = random.Random(104)
    for _ in range(20):
        c = rng.choice([-1, 0, 1])
        T = interval_triple(laurent_model(F2), lattice_model(F2, c))
        Td = dual_triple(T)
        mu1 = rand_haar(rng, T.sub)
        mu3 = rand_haar(rng, T.quot)
        mu2 = tensor_haar(T, mu1, mu3)
        w = Window(-2, 2)
        f = rand_fn(rng, T.mid, w)
        # transform of a fiber integral restricts on the dual side
        lhs = fourier1(images1("beta_push", T, f, mu1), mu3)
        rhs = images1("alpha_pull", Td, fourier1(f, mu2))
        assert fn_equal(lhs, rhs)
        # transform of a restriction is a fiber integral on the dual side
        lhs = fourier1(images1("alpha_pull", T, f), mu1)
        rhs = images1("beta_push", Td, fourier1(f, mu2), mu3.inverse_on_dual())
        assert fn_equal(lhs, rhs)
        # conjugate square on distributions along the mono
        G3 = rand_dist(rng, T.quot, w)
        lhs = fourier1(images1("beta_pull", T, G3, mu1), mu2)
        rhs = images1("alpha_push", Td, fourier1(G3, mu3))
        assert lhs.table == rhs.table
        # conjugate square on distributions along the epi
        G1 = rand_dist(rng, T.sub, w)
        lhs = fourier1(images1("alpha_push", T, G1), mu2)
        rhs = images1("beta_pull", Td, fourier1(G1, mu1), mu3.inverse_on_dual())
        assert lhs.table == rhs.table


def test_transform_image_exchange_germs():
    """The four squares on germs and compactly-supported duals."""
    rng = random.Random(105)
    for _ in range(20):
        c = rng.choice([-1, 0, 1])
        T = interval_triple(laurent_model(F2), lattice_model(F2, c))
        Td = dual_triple(T)
        w = Window(-2, 2)
        f3 = rand_fn(rng, T.quot, w, tag="E")
        lhs = fourier1(images1("beta_pull", T, f3))
        rhs = images1("alpha_push", Td, fourier1(f3))
        assert lhs.table == rhs.table
        G1 = rand_dist(rng, T.sub, w, tag="ETp")
        lhs = fourier1(images1("alpha_push", T, G1))
        rhs = images1("beta_pull", Td, fourier1(G1))
        assert fn_equal(lhs, rhs)
        f2 = rand_fn(rng, T.mid, w, tag="E")
        lhs = fourier1(images1("alpha_pull", T, f2))
        rhs = images1("beta_push", Td, fourier1(f2))
        assert lhs.table == rhs.table
        G2 = rand_dist(rng, T.mid, w, tag="ETp")
        lhs = fourier1(images1("beta_push", T, G2))
        rhs = images1("alpha_pull", Td, fourier1(G2))
        assert fn_equal(lhs, rhs)


def test_reindexing_invariance():
    """A shifted copy of the same filtration computes the same numbers."""
    rng = random.Random(106)
    O = lattice_model(F2, 0)
    O1 = shift_model(O, 1)
    K = laurent_model(F2)
    mu1 = HaarMeasure(O, 0, Fraction(1))
    mu1s = HaarMeasure(O1, 1, Fraction(1))
    # measures of corresponding filtration members agree
    for i in range(-2, 3):
        assert mu1.value_at(i) == mu1s.value_at(i + 1)
    # transforms of corresponding representatives agree table-for-table
    fo = rand_fn(rng, O, Window(-2, 0))
    fo1 = C1Fn(O1, "D", Window(-1, 1), fo.table)
    a = fourier1(fo, mu1)
    b = fourier1(fo1, mu1s)
    assert a.table == b.table
    assert a.window == dual_window(Window(-2, 0))
    assert b.window == dual_window(Window(-1, 1))
    # pushforwards along corresponding triples give shifted copies of the
    # same quotient table
    T = interval_triple(K, O)
    T1 = interval_triple(shift_model(K, 1), O1)
    f = rand_fn(rng, K, Window(-2, 2))
    f1 = C1Fn(T1.mid, "D", Window(-1, 3), f.table)
    lhs = images1("beta_push", T, f, mu1)
    rhs = images1("beta_push", T1, f1, mu1s)
    assert lhs.table == rhs.table
