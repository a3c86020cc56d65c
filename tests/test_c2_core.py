import random
from fractions import Fraction

import pytest

from fqharmonic.c1 import HaarMeasure, laurent_model
from fqharmonic.c2 import (
    BiWindow,
    CapabilityError,
    D2Dist,
    D2Elem,
    E2Fn,
    VirtualMeasure,
    WindowError,
    basepoint_change,
    box_model,
    bw_dim,
    d2_equal,
    dual_model2,
    e2_constant_one,
    fourier2,
    k2_model,
    module_mul,
    pairing2,
    pairing2_e,
    positions2,
    vmeas_canonical,
)
from fqharmonic.exactnum import CycNum, DomainError, field_for

F2 = field_for(2)
F3 = field_for(3)


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


def rand_e2(rng, model, bw, tag):
    n = model.field.q ** bw_dim(model, bw)
    return E2Fn(model, tag, bw, tuple(rand_cyc(rng, model.field.p) for _ in range(n)))


# ---------------------------------------------------------------------------
# models and regions
# ---------------------------------------------------------------------------


def test_region_shapes_and_classes():
    K2 = k2_model(F2)
    assert not (K2.is_c or K2.is_d or K2.is_cf or K2.is_df)
    E1 = box_model(F2, None, 0, None, None, "E1")  # series in t, Laurent in u
    assert E1.is_c and not E1.is_d
    E1p = box_model(F2, None, None, None, 0, "E1'")  # Laurent in t, series in u
    assert E1p.is_cf and not E1p.is_df
    Q = box_model(F2, None, None, 0, None, "Q")
    assert Q.is_df
    assert dual_model2(E1p) == Q
    assert dual_model2(dual_model2(E1p)) == E1p
    assert dual_model2(K2) == K2


def test_positions_t_major_order():
    E1p = box_model(F2, None, None, None, 0)
    bw = BiWindow(-1, 1, -2, 1)
    assert positions2(E1p, bw) == ((-1, -2), (-1, -1), (0, -2), (0, -1))
    assert bw_dim(k2_model(F2), bw) == 6


def test_count_helpers():
    E1p = box_model(F3, None, None, None, 2)
    assert E1p.count_above(0, 2) == 4  # b in {0,1} over two columns
    assert E1p.sigma(0, 2, -1) == -2
    assert E1p.sigma(0, 2, 1) == 2
    K2 = k2_model(F3)
    with pytest.raises(CapabilityError):
        K2.count_above(0, 1)


# ---------------------------------------------------------------------------
# virtual measures
# ---------------------------------------------------------------------------


def test_vmeasure_group_laws():
    K2 = k2_model(F2)
    rng = random.Random(1)
    for _ in range(20):
        i, j, k = (rng.randint(-4, 4) for _ in range(3))
        a = VirtualMeasure(K2, i, j, Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2])))
        b = VirtualMeasure(K2, j, k, Fraction(rng.choice([1, 2, 5])))
        assert a.compose(a.inverse()).scalar == 1
        assert a.compose(a.inverse()).src == a.compose(a.inverse()).dst == i
        c = VirtualMeasure(K2, k, i, Fraction(7))
        assert a.compose(b.compose(c)).scalar == a.compose(b).compose(c).scalar
        assert VirtualMeasure(K2, i, i, Fraction(1)).compose(a).scalar == a.scalar
    with pytest.raises(DomainError):
        VirtualMeasure(K2, 0, 1, Fraction(1)).compose(VirtualMeasure(K2, 0, 1, Fraction(1)))


def test_canonical_elements_compose():
    E1p = box_model(F2, None, None, None, 0, "E1'")
    for i in range(-4, 5):
        assert vmeas_canonical(E1p, i, i, "one").scalar == 1
    for i in range(-4, 5):
        for j in range(-4, 5):
            for k in range(-4, 5):
                a = vmeas_canonical(E1p, i, j, "one")
                b = vmeas_canonical(E1p, j, k, "one")
                assert a.compose(b).scalar == vmeas_canonical(E1p, i, k, "one").scalar
    # the mass-1 element of one extra column with one slot above zero
    E = box_model(F2, None, None, None, 1)
    assert vmeas_canonical(E, 0, 1, "one").scalar == Fraction(1, 2)


def test_canonical_delta_normalization():
    Q = box_model(F2, None, None, -1, None, "Q")  # one slot below zero per column
    # the unit point mass weighs q per column against the reference basis
    assert vmeas_canonical(Q, 0, 1, "delta").scalar == 2
    for i in range(-3, 4):
        for j in range(-3, 4):
            for k in range(-3, 4):
                a = vmeas_canonical(Q, i, j, "delta")
                b = vmeas_canonical(Q, j, k, "delta")
                assert a.compose(b).scalar == vmeas_canonical(Q, i, k, "delta").scalar


def test_canonical_kinds_respect_class_flags():
    K2 = k2_model(F2)
    with pytest.raises(CapabilityError):
        vmeas_canonical(K2, 0, 1, "one")
    with pytest.raises(CapabilityError):
        vmeas_canonical(K2, 0, 1, "delta")


def test_duality_preserves_scalars():
    E1p = box_model(F2, None, None, None, 0)
    for i in range(-4, 5):
        for j in range(-4, 5):
            v = VirtualMeasure(E1p, i, j, Fraction(3, 2))
            d = v.on_dual()
            assert d.scalar == v.scalar and d.src == -i and d.dst == -j
            assert d.model == dual_model2(E1p)
    # reference-basis stability: volume exponents add over stacked kernels
    K2 = k2_model(F3)
    for l2 in range(-2, 1):
        for l in range(l2, 2):
            for i in range(l, 3):
                for m in (-2, 0, 1):
                    assert K2.sigma(l2, i, m) == K2.sigma(l2, l, m) + K2.sigma(l, i, m)


# ---------------------------------------------------------------------------
# transport of representatives
# ---------------------------------------------------------------------------


def test_elem_transport_consistency():
    rng = random.Random(2)
    for model in (k2_model(F2), box_model(F2, None, None, None, 1)):
        x = rand_elem(rng, model, 0, BiWindow(-1, 2, -1, 1))
        one_step = x.at(BiWindow(0, 2, -1, 1)).at(BiWindow(1, 1, -2, 2))
        direct = x.at(BiWindow(1, 1, -2, 2))
        assert one_step.folded() == direct.folded()


def test_dist_transport_consistency():
    rng = random.Random(3)
    model = k2_model(F2)
    G = rand_dist(rng, model, 0, BiWindow(0, 1, -1, 2))
    one_step = G.at(BiWindow(-1, 1, -1, 2)).at(BiWindow(-1, 2, 0, 1))
    direct = G.at(BiWindow(-1, 2, 0, 1))
    assert one_step.folded() == direct.folded()


def test_elem_outer_push_volume():
    # pushing the bottom up across one full column multiplies by the
    # reference volume of the kernel's inner cut
    model = k2_model(F2)
    one = CycNum.one(2)
    x = D2Elem(model, 0, BiWindow(-1, 0, -1, 0), (one, one), Fraction(1))
    pushed = x.at(BiWindow(0, 0, -1, 0))
    # kernel column a=-1 with inner cut m=-1: sigma = -1, factor 1/2; the
    # fiber sum adds the two values
    assert tuple(pushed.table) == (CycNum.from_rational(2, Fraction(2, 2)),)


def test_pairing_contracts_twists():
    rng = random.Random(4)
    model = k2_model(F3)
    f = rand_elem(rng, model, 0, BiWindow(-1, 2, -1, 1))
    G = rand_dist(rng, model, 0, BiWindow(0, 1, -2, 2))
    val = pairing2(f, G)
    # moving either side before pairing changes nothing
    f2 = f.at(BiWindow(-1, 1, -2, 1))
    assert pairing2(f2, G) == val
    G2 = G.at(BiWindow(-1, 2, -1, 2))
    assert pairing2(f, G2) == val


def test_basepoint_change_commutes_with_pairing():
    rng = random.Random(5)
    model = k2_model(F2)
    f = rand_elem(rng, model, 0, BiWindow(0, 1, -1, 1))
    G = rand_dist(rng, model, 0, BiWindow(0, 1, -1, 1))
    vm = VirtualMeasure(model, 0, 2, Fraction(5, 3))
    f1 = basepoint_change(f, vm)
    G1 = basepoint_change(G, vm.inverse())
    assert pairing2(f1, G1) == pairing2(f, G)


@pytest.mark.parametrize("cls", [D2Elem, D2Dist])
@pytest.mark.parametrize("twist", [Fraction(0), 0.5, "1/2", None])
def test_a_twist_is_a_nonzero_fraction(cls, twist):
    model = k2_model(F2)
    bw = BiWindow(0, 1, -1, 1)
    table = (CycNum.one(2),) * 2 ** bw_dim(model, bw)
    with pytest.raises(DomainError, match="a twist is a nonzero Fraction"):
        cls(model, 0, bw, table, twist)


@pytest.mark.parametrize("build, message", [
    (lambda: VirtualMeasure(k2_model(F2), 0, 1, 2.5), "nonzero Fraction"),
    (lambda: VirtualMeasure(k2_model(F2), 0, 1, Fraction(0)), "nonzero Fraction"),
    (lambda: VirtualMeasure(k2_model(F2), 0, None, Fraction(1)), "int cuts"),
    (lambda: VirtualMeasure(k2_model(F2), "0", 1, Fraction(1)), "int cuts"),
    (lambda: HaarMeasure(laurent_model(F2), 0, 2.5), "nonzero Fraction"),
    (lambda: HaarMeasure(laurent_model(F2), 0, Fraction(0)), "nonzero Fraction"),
    (lambda: HaarMeasure(laurent_model(F2), "0", Fraction(1)), "int cut"),
    (lambda: HaarMeasure(laurent_model(F2), None, Fraction(1)), "int cut"),
], ids=["vm-float", "vm-zero", "vm-none-end", "vm-str-end", "haar-float", "haar-zero", "haar-str-ref", "haar-none-ref"])
def test_a_measure_is_rational_on_int_cuts(build, message):
    with pytest.raises(DomainError, match=message):
        build()


@pytest.mark.parametrize("cls, ends, vm_field, message", [
    (D2Elem, (1, 2), F2, "comparison must start at the old basepoint"),
    (D2Dist, (2, 1), F2, "comparison must end at the old basepoint"),
    # the ends match the basepoint; only the model is wrong
    (D2Elem, (0, 2), F3, "comparison measure on a different model"),
    (D2Dist, (2, 0), F3, "comparison measure on a different model"),
])
def test_basepoint_change_refuses_a_mismatched_measure(cls, ends, vm_field, message):
    rng = random.Random(6)
    model = k2_model(F2)
    x = (rand_elem if cls is D2Elem else rand_dist)(rng, model, 0, BiWindow(0, 1, -1, 1))
    with pytest.raises(DomainError, match=message):
        basepoint_change(x, VirtualMeasure(k2_model(vm_field), *ends, Fraction(5, 3)))


# ---------------------------------------------------------------------------
# the transform
# ---------------------------------------------------------------------------


def test_fourier2_lattice_block():
    # indicator of the series-in-u block inside a full bi-window transforms
    # to the indicator of its annihilator block, exactly
    model = k2_model(F2)
    bw = BiWindow(-1, 1, -1, 1)
    pos = positions2(model, bw)
    one, zero = CycNum.one(2), CycNum.zero(2)
    sub = [r for r, (a, b) in enumerate(pos) if b < 0]
    table = []
    for idx in range(2 ** len(pos)):
        digs = [(idx >> r) & 1 for r in range(len(pos))]
        table.append(one if all(digs[r] == 0 for r in range(len(pos)) if r not in sub) else zero)
    x = D2Elem(model, -1, bw, tuple(table), Fraction(1))
    y = fourier2(x)
    assert y.model == k2_model(F2)
    assert y.bw == bw
    # expect exactly the same block indicator (the annihilator block mirrors
    # onto the same shape) with scalar 1
    assert y.folded() == x.folded()


def test_fourier2_double_is_check():
    rng = random.Random(6)
    for model in (k2_model(F2), box_model(F2, None, None, None, 1), box_model(F2, None, 1, None, None)):
        for _ in range(4):
            x = rand_elem(rng, model, 0, BiWindow(-1, 1, -1, 1))
            twice = fourier2(fourier2(x))
            assert twice.model == model and twice.o == x.o
            assert d2_equal(twice, x.check())
            G = rand_dist(rng, model, 0, BiWindow(-1, 1, -1, 1))
            gtwice = fourier2(fourier2(G))
            assert d2_equal(gtwice, G.check())


def test_fourier2_adjoint():
    rng = random.Random(7)
    model = k2_model(F3)
    dm = dual_model2(model)
    bw = BiWindow(-1, 1, -1, 1)
    f = rand_elem(rng, model, 0, bw)
    G = rand_dist(rng, dm, 0, bw)
    assert pairing2(fourier2(f), G) == pairing2(f, fourier2(G))


def test_fourier2_germ_tags_and_roundtrip():
    rng = random.Random(8)
    model = k2_model(F2)
    for tag, out_tag in (("E2", "E2tp"), ("E2t", "E2p")):
        g = rand_e2(rng, model, BiWindow(-1, 1, -1, 1), tag)
        h = fourier2(g)
        assert h.tag == out_tag
        back = fourier2(h)
        assert back.tag == tag
        assert back.table == g.check().table


def test_fourier2_mixed_adjointness():
    rng = random.Random(9)
    model = k2_model(F2)
    dm = dual_model2(model)
    bw = BiWindow(-1, 1, -1, 1)
    f = rand_e2(rng, model, bw, "E2")
    g = rand_e2(rng, dm, bw, "E2t")
    lhs = pairing2_e(g, fourier2(f))
    rhs = pairing2_e(f, fourier2(g))
    assert lhs == rhs


def test_pairing2_e_moves_the_germ_down_onto_the_dual():
    # a germ moves every edge down, so it pairs with a dual whose bi-window
    # lies below its own, and with no dual whose bi-window lies above
    rng = random.Random(15)
    model = k2_model(F2)
    f = rand_e2(rng, model, BiWindow(-1, 1, -1, 1), "E2")
    G = rand_e2(rng, model, BiWindow(-2, 1, -1, 1), "E2p")
    assert pairing2_e(f, G) == pairing2_e(f.at(G.bw), G)
    low = rand_e2(rng, model, BiWindow(-2, 1, -1, 1), "E2")
    with pytest.raises(WindowError):
        pairing2_e(low, rand_e2(rng, model, BiWindow(-1, 1, -1, 1), "E2p"))


def test_fourier2_commutes_with_basepoint_change():
    rng = random.Random(10)
    model = k2_model(F2)
    x = rand_elem(rng, model, 0, BiWindow(0, 1, -1, 1))
    vm = VirtualMeasure(model, 0, 1, Fraction(7, 4))
    lhs = fourier2(basepoint_change(x, vm))
    rhs = basepoint_change(fourier2(x), vm.on_dual())
    assert d2_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# module structure
# ---------------------------------------------------------------------------


def test_module_unit_and_associativity():
    rng = random.Random(11)
    model = k2_model(F2)
    bw = BiWindow(-1, 1, -1, 1)
    x = rand_elem(rng, model, 0, bw)
    one = e2_constant_one(model, bw)
    assert d2_equal(module_mul(one, x), x)
    g1, g2 = rand_e2(rng, model, bw, "E2"), rand_e2(rng, model, bw, "E2")
    lhs = module_mul(g1, module_mul(g2, x))
    rhs = module_mul(module_mul(g1, g2), x)
    assert d2_equal(lhs, rhs)


def test_module_germ_moves_down_onto_the_representative():
    # a germ moves every edge down, so it acts on a representative whose
    # bi-window lies below its own on every edge, and on no other
    rng = random.Random(14)
    model = k2_model(F2)
    x = rand_elem(rng, model, 0, BiWindow(-1, 1, -1, 1))
    g = rand_e2(rng, model, BiWindow(-1, 1, 0, 1), "E2")
    lhs, rhs = module_mul(g, x), module_mul(g.at(x.bw), x)
    assert (lhs.bw, lhs.table, lhs.twist) == (rhs.bw, rhs.table, rhs.twist)
    with pytest.raises(WindowError):
        module_mul(rand_e2(rng, model, BiWindow(-1, 1, -2, 1), "E2"), x)


def test_module_refuses_a_dual_factor():
    rng = random.Random(16)
    model = k2_model(F2)
    bw = BiWindow(-1, 1, -1, 1)
    g = rand_e2(rng, model, bw, "E2")
    for tag in ("E2p", "E2tp"):
        with pytest.raises(DomainError, match="dual"):
            module_mul(g, rand_e2(rng, model, bw, tag))


def test_module_pairing_compatibility():
    rng = random.Random(12)
    model = k2_model(F3)
    bw = BiWindow(-1, 1, -1, 1)
    f = rand_elem(rng, model, 0, bw)
    G = rand_dist(rng, model, 0, bw)
    g = rand_e2(rng, model, bw, "E2")
    assert pairing2(f, module_mul(g, G)) == pairing2(module_mul(g, f), G)


def test_module_respects_projections():
    # multiplying after an outer push equals pushing the product when the
    # germ factor only depends on the quotient directions
    rng = random.Random(13)
    model = k2_model(F2)
    x = rand_elem(rng, model, 0, BiWindow(-1, 1, -1, 1))
    g = rand_e2(rng, model, BiWindow(0, 1, -1, 1), "E2")
    pushed = x.at(BiWindow(0, 1, -1, 1))
    lhs = module_mul(g, pushed)
    gx = g.at(BiWindow(0, 1, -1, 1))
    rhs = module_mul(gx, x.at(BiWindow(0, 1, -1, 1)))
    assert d2_equal(lhs, rhs)
