import random
from fractions import Fraction

import pytest

from fqharmonic.c1 import (
    C1Dist,
    C1Fn,
    CapabilityError,
    HaarMeasure,
    Window,
    WindowError,
    delta_lattice,
    fn_at,
    fn_equal,
    fn_mul,
    i_mu,
    integrate,
    lattice_model,
    laurent_model,
    colattice_model,
    pairing1,
    segment_model,
    window_dim,
)
from fqharmonic import c1_triples, tables
from fqharmonic.c1_triples import (
    char_dist1,
    direct_sum_triple,
    dual_triple,
    images1,
    interval_triple,
    poisson1_verify,
    tensor_haar,
)
from fqharmonic.exactnum import CycNum, DomainError, field_for

F2 = field_for(2)
F3 = field_for(3)


def rand_cyc(rng, p):
    return CycNum(p, tuple(Fraction(rng.randint(-2, 2)) for _ in range(p - 1)))


def rand_fn(rng, model, w, tag="D"):
    n = model.field.q ** window_dim(model, w)
    return C1Fn(model, tag, w, tuple(rand_cyc(rng, model.field.p) for _ in range(n)))


def rand_dist(rng, model, w, tag="Dp"):
    n = model.field.q ** window_dim(model, w)
    return C1Dist(model, tag, w, tuple(rand_cyc(rng, model.field.p) for _ in range(n)))


def standard_triple(fld, cut=0):
    K = laurent_model(fld)
    O = lattice_model(fld, cut)
    return interval_triple(K, O)


def test_interval_triple_decides_inclusion_at_every_cut():
    # the sub leaves the mid only at cuts 20..24, far from the origin
    with pytest.raises(DomainError, match="cut 20"):
        interval_triple(segment_model(F2, 0, 20), segment_model(F2, 5, 25))
    with pytest.raises(DomainError):
        interval_triple(lattice_model(F2, 30), laurent_model(F2))
    T = interval_triple(segment_model(F2, 0, 20), segment_model(F2, 5, 20))
    assert T.quot == segment_model(F2, 0, 5)


def test_beta_push_of_lattice_indicator():
    # pushing the sub indicator with unit mass gives the delta at zero of
    # the quotient; fiber-sum oracle on window (-1, 1)
    T = standard_triple(F2)
    mu1 = HaarMeasure(T.sub, 0, Fraction(1))
    f = fn_at(delta_lattice(T.mid, 0), Window(-1, 1))
    out = images1("beta_push", T, f, mu1)
    assert out.model == T.quot
    # quotient window (-1,1) has one slot (at cut 0); table = (1, 0)
    assert tuple(out.table) == (CycNum.one(2), CycNum.zero(2))
    # oracle: integrate the indicator over each fiber by brute force
    # fiber over 0: {x_{-1} in F_2} -> 2 points, each weighted mu1(F1(-1)) = 1/2
    assert out.table[0] == CycNum.from_rational(2, Fraction(1, 2) * 2)


def test_alpha_pull_restricts_indicator():
    T = standard_triple(F2)
    f = fn_at(delta_lattice(T.mid, 0), Window(-1, 1))
    out = images1("alpha_pull", T, f)
    assert out.model == T.sub
    assert fn_equal(out, delta_lattice(T.sub, 0))


def test_fn_adjointness_all_four():
    rng = random.Random(1)
    for fld in (F2, F3):
        T = standard_triple(fld)
        mu1 = HaarMeasure(T.sub, 0, Fraction(1, fld.q))
        for _ in range(8):
            w = Window(-1, 1)
            f2 = rand_fn(rng, T.mid, w)
            G3 = rand_dist(rng, T.quot, w)
            # <beta^* G3 (x) mu1, f2> = <G3, beta_push(f2 (x) mu1)>
            assert pairing1(images1("beta_pull", T, G3, mu1), f2) == pairing1(
                G3, images1("beta_push", T, f2, mu1)
            )
            f1 = rand_fn(rng, T.sub, w)
            G2 = rand_dist(rng, T.mid, w)
            # <alpha_push G1, f2> = <G1, alpha_pull f2> and conversely
            G1 = rand_dist(rng, T.sub, w)
            assert pairing1(images1("alpha_push", T, G1), f2) == pairing1(
                G1, images1("alpha_pull", T, f2)
            )
            # alpha_push needs the discrete quotient side condition
            lowered = Window(min(w.lo, T.quot.bounds[0]), w.hi)
            G2w = rand_dist(rng, T.mid, lowered)
            assert pairing1(images1("alpha_pull", T, G2w), fn_at(f1, lowered)) == pairing1(
                G2w, images1("alpha_push", T, f1)
            )
            g3 = rand_fn(rng, T.quot, w)
            G2b = rand_dist(rng, T.mid, Window(w.lo, max(w.hi, T.sub.bounds[1])))
            assert pairing1(images1("beta_push", T, G2b), g3) == pairing1(
                G2b, images1("beta_pull", T, g3)
            )


def test_functoriality_push_pull_round_trip():
    rng = random.Random(2)
    T = standard_triple(F2)
    f1 = rand_fn(rng, T.sub, Window(-2, 1))
    assert fn_equal(images1("alpha_pull", T, images1("alpha_push", T, f1)), f1)


def test_side_conditions_raise():
    T = standard_triple(F2)
    # beta_pull of compactly supported functions needs a compact sub;
    # swap roles so the sub is the quotient (not compact)
    Tq = interval_triple(T.mid, colattice_model(F2, 0))
    g = delta_lattice(Tq.quot, 0)
    with pytest.raises(CapabilityError):
        images1("beta_pull", Tq, g)
    f = delta_lattice(Tq.sub, 2)
    with pytest.raises(CapabilityError):
        images1("alpha_push", Tq, f)


def test_fubini():
    # integral over the quotient of the fiberwise integral equals the full
    # integral, whenever the measures multiply
    rng = random.Random(3)
    for fld in (F2, F3):
        T = standard_triple(fld)
        mu1 = HaarMeasure(T.sub, 0, Fraction(1))
        mu3 = HaarMeasure(T.quot, 1, Fraction(3, 2))
        mu2 = tensor_haar(T, mu1, mu3)
        for _ in range(10):
            f = rand_fn(rng, T.mid, Window(-1, 2))
            lhs = integrate(images1("beta_push", T, f, mu1), mu3)
            rhs = integrate(f, mu2)
            assert lhs == rhs


def test_projection_formulas():
    rng = random.Random(4)
    T = standard_triple(F3)
    mu1 = HaarMeasure(T.sub, 0, Fraction(2))
    w = Window(-1, 1)
    for _ in range(8):
        f = rand_fn(rng, T.mid, w)
        g = rand_fn(rng, T.quot, w, tag="E")
        # beta_push(f . beta_pull(g)) = beta_push(f) . g
        lhs = images1("beta_push", T, fn_mul(f, images1("beta_pull", T, g, None)), mu1)
        rhs = fn_mul(images1("beta_push", T, f, mu1), g)
        assert fn_equal(lhs, rhs)
        # germ version (the sub is compact here)
        fe = rand_fn(rng, T.mid, w, tag="E")
        lhs2 = images1("beta_push", T, fn_mul(fe, images1("beta_pull", T, g, None)), mu1)
        rhs2 = fn_mul(images1("beta_push", T, fe, mu1), g)
        assert fn_equal(lhs2, rhs2)
        # alpha version with the discrete quotient
        f1 = rand_fn(rng, T.sub, w, tag="E")
        g2 = rand_fn(rng, T.mid, w, tag="E")
        lhs3 = images1("alpha_push", T, fn_mul(f1, images1("alpha_pull", T, g2)))
        rhs3 = fn_mul(images1("alpha_push", T, f1), g2)
        assert fn_equal(lhs3, rhs3)


def test_density_commutes_with_pullback():
    # I_{mu2}(beta_pull g) = beta_pull(I_{mu3} g (x) mu1), and the
    # compact-kernel pushforward variant
    rng = random.Random(5)
    T = standard_triple(F2)
    mu1 = HaarMeasure(T.sub, 0, Fraction(1))
    mu3 = HaarMeasure(T.quot, 1, Fraction(1, 2))
    mu2 = tensor_haar(T, mu1, mu3)
    w = Window(-1, 2)
    for _ in range(8):
        g = rand_fn(rng, T.quot, w, tag="E")
        lhs = i_mu(images1("beta_pull", T, g), mu2)
        rhs = images1("beta_pull", T, i_mu(g, mu3), mu1)
        assert lhs.table == rhs.table
        f = rand_fn(rng, T.mid, w, tag="E")
        lhs2 = i_mu(images1("beta_push", T, f, mu1), mu3)
        rhs2 = images1("beta_push", T, i_mu(f, mu2))
        assert lhs2.table == rhs2.table


def test_char_dist_profile():
    # the characteristic distribution is the measure profile along the sub,
    # zero transverse to it
    T = standard_triple(F2)
    mu1 = HaarMeasure(T.sub, 0, Fraction(1))
    d = char_dist1(T, mu1, Window(-1, 1))
    # positions: (-1,0) sub, (0,0) quot; mass mu1(F1(-1)) = 1/2 where the
    # quot digit vanishes
    half = CycNum.from_rational(2, Fraction(1, 2))
    zero = CycNum.zero(2)
    assert tuple(d.table) == (half, half, zero, zero)
    # the image of the Haar distribution is no longer Haar-extended
    assert d.tag == "Dp" and d.extension is None


def test_poisson1_standard_lattice():
    T = standard_triple(F2)
    mu1 = HaarMeasure(T.sub, 0, Fraction(1))
    mu2 = HaarMeasure(T.mid, 0, Fraction(1))
    rep = poisson1_verify(T, mu1, mu2, cut_lo=-2, cut_hi=2)
    assert rep.cases > 0 and rep.passed, rep.failures[:1]


def test_poisson1_rescaled_measures():
    T = standard_triple(F3)
    for v1 in (Fraction(1), Fraction(3), Fraction(1, 3)):
        for v2 in (Fraction(1), Fraction(3)):
            rep = poisson1_verify(
                T,
                HaarMeasure(T.sub, 0, v1),
                HaarMeasure(T.mid, 0, v2),
                cut_lo=-2,
                cut_hi=2,
            )
            assert rep.passed


def test_poisson1_shifted_lattice():
    for m in (-2, -1, 1, 2):
        K = laurent_model(F2)
        E1 = lattice_model(F2, -m, label=f"t^{m}O")
        T = interval_triple(K, E1)
        rep = poisson1_verify(
            T,
            HaarMeasure(T.sub, 0, Fraction(1)),
            HaarMeasure(T.mid, 0, Fraction(1)),
            cut_lo=-3,
            cut_hi=3,
        )
        assert rep.passed


def test_poisson1_negative_controls():
    T = standard_triple(F2)
    mu1 = HaarMeasure(T.sub, 0, Fraction(1))
    mu2 = HaarMeasure(T.mid, 0, Fraction(1))
    for fault in ("transition", "measure"):
        rep = poisson1_verify(T, mu1, mu2, cut_lo=-1, cut_hi=1, corrupt=fault)
        assert not rep.passed
        assert rep.failures[0]["identity"] == "poisson1_characteristic_transform"
    # a fault the verifier does not inject is refused, never run clean
    with pytest.raises(DomainError, match="no fault 'psi'"):
        poisson1_verify(T, mu1, mu2, cut_lo=-1, cut_hi=1, corrupt="psi")


@pytest.mark.parametrize("sweep, message", [
    ({"cut_lo": 1, "cut_hi": 0}, "cut_lo = 1 is above cut_hi = 0"),
    ({"max_points": 0}, "max_points = 0 leaves nothing to check"),
    ({"max_points": -4}, "max_points = -4 leaves nothing to check"),
])
def test_poisson1_refuses_a_sweep_that_checks_nothing(sweep, message):
    # such a sweep used to report 0 cases as a pass
    T = standard_triple(F2)
    mu1 = HaarMeasure(T.sub, 0, Fraction(1))
    mu2 = HaarMeasure(T.mid, 0, Fraction(1))
    with pytest.raises(DomainError, match=message):
        poisson1_verify(T, mu1, mu2, **{"cut_lo": -1, "cut_hi": 1, **sweep})
    # no cap checks every window, and a one-cut range its one window
    assert poisson1_verify(T, mu1, mu2, cut_lo=-1, cut_hi=1, max_points=None).cases == 6
    assert poisson1_verify(T, mu1, mu2, cut_lo=1, cut_hi=1, max_points=1).cases == 1


def test_poisson1_dual_pipeline_fault_fails_every_window(monkeypatch):
    # a fault in the dual triple's characteristic distribution alone leaves
    # the transform side as it is and fails the dual pipeline on every window;
    # the lattice below 0 is its own dual triple, the one below 1 is not
    T = standard_triple(F2, cut=1)
    mu1 = HaarMeasure(T.sub, 0, Fraction(1))
    mu2 = HaarMeasure(T.mid, 0, Fraction(1))
    clean = poisson1_verify(T, mu1, mu2, cut_lo=-2, cut_hi=2)
    assert clean.cases > 0 and clean.passed
    Td = dual_triple(T)
    assert Td != T

    def scaled_on_dual(triple, mu, w):
        G = char_dist1(triple, mu, w)
        return G * Fraction(2) if triple == Td else G

    monkeypatch.setattr(c1_triples, "char_dist1", scaled_on_dual)
    rep = poisson1_verify(T, mu1, mu2, cut_lo=-2, cut_hi=2)
    assert rep.cases == clean.cases
    assert [f["identity"] for f in rep.failures] == ["poisson1_dual_pipeline"] * rep.cases


def test_direct_sum_triple_split():
    O = lattice_model(F2, 0)
    Q = colattice_model(F2, 0)
    T = direct_sum_triple(O, laurent_model(F2))
    sub_idx, quot_idx = T.split(Window(-1, 1))
    # positions: (-1,0) O-slot, (-1,1) K-slot, (0,0) K-slot
    assert sub_idx == (0,) and quot_idx == (1, 2)


def test_dual_triple_shapes():
    T = standard_triple(F2)
    Td = dual_triple(T)
    assert Td.sub.is_compact and Td.quot.is_discrete
    sub_idx, quot_idx = Td.split(Window(-2, 2))
    # dual sub = annihilator of the sub = mirrored quotient slots
    assert len(sub_idx) == 2 and len(quot_idx) == 2


# ---------------------------------------------------------------------------
# guards: every image rejects what it cannot take, with the same error class
# ---------------------------------------------------------------------------

KIND_SOURCE = {"alpha_pull": "mid", "alpha_push": "sub", "beta_pull": "quot", "beta_push": "mid"}


@pytest.mark.parametrize("make", [rand_fn, rand_dist], ids=["fn", "dist"])
@pytest.mark.parametrize("kind", sorted(KIND_SOURCE))
def test_image_on_wrong_source_model_raises(kind, make):
    T = standard_triple(F2)
    wrong = T.quot if KIND_SOURCE[kind] == "mid" else T.mid
    x = make(random.Random(5), wrong, Window(-1, 1))
    with pytest.raises(DomainError) as exc:
        images1(kind, T, x, HaarMeasure(T.sub, 0, Fraction(1)))
    assert exc.type is DomainError  # not a capability or window failure


def test_unknown_kind_and_bare_table_raise():
    T = standard_triple(F2)
    f = rand_fn(random.Random(6), T.mid, Window(-1, 1))
    with pytest.raises(DomainError) as exc:
        images1("gamma_pull", T, f)
    assert exc.type is DomainError
    with pytest.raises(DomainError) as exc:
        images1("alpha_pull", T, f.table)
    assert exc.type is DomainError


# the function side of the first two conditions is in test_side_conditions_raise
@pytest.mark.parametrize(
    "kind, make, tag, member",
    [
        ("alpha_pull", rand_dist, "Dp", "mid"),  # needs a discrete quotient
        ("beta_push", rand_dist, "Dp", "mid"),  # a general distribution needs a compact sub
        ("beta_push", rand_fn, "E", "mid"),  # so does a germ
    ],
)
def test_image_capabilities_raise(kind, make, tag, member):
    # a colattice sub is not compact and its quotient is not discrete
    T = interval_triple(laurent_model(F2), colattice_model(F2, 0))
    x = make(random.Random(7), getattr(T, member), Window(-1, 1), tag=tag)
    with pytest.raises(CapabilityError):
        images1(kind, T, x, HaarMeasure(T.sub, 0, Fraction(1)))


@pytest.mark.parametrize("tag", ["Ep", "ETp"])
def test_e_type_beta_push_over_a_non_compact_sub_keeps_its_window(tag):
    # a distribution's beta_push follows beta_pull's rule: over a colattice
    # sub, which is not compact, an E-type distribution is not widened, and
    # its table is its fiber sum on its own window
    K = laurent_model(F3)
    T = interval_triple(K, colattice_model(F3, 0))
    w = Window(-2, 2)
    G = rand_dist(random.Random(11), K, w, tag=tag)
    out = images1("beta_push", T, G)
    assert (out.model, out.tag, out.window) == (T.quot, tag, w)
    _sub_slots, quot_slots = T.split(w)
    expect = [CycNum.zero(3)] * 3 ** len(quot_slots)
    for i, value in enumerate(G.table):
        digits = tables.decode(i, 3, window_dim(K, w))
        at = tables.encode([digits[s] for s in quot_slots], 3)
        expect[at] = expect[at] + value
    assert tuple(out.table) == tuple(expect)
    with pytest.raises(CapabilityError):
        images1("beta_push", T, rand_dist(random.Random(11), K, w, tag="Dp"))


def test_germ_beta_push_needs_window_over_the_fibers():
    T = standard_triple(F2, cut=2)
    g = rand_fn(random.Random(8), T.mid, Window(-1, 1), tag="E")
    mu1 = HaarMeasure(T.sub, 0, Fraction(1))
    with pytest.raises(WindowError):
        images1("beta_push", T, g, mu1)
    wide = rand_fn(random.Random(8), T.mid, Window(-1, 2), tag="E")
    assert images1("beta_push", T, wide, mu1).model == T.quot
