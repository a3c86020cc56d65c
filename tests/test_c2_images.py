import random
import weakref
from fractions import Fraction
from functools import partial

import pytest

from fqharmonic import c2_triples
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
    lower_inner_bottom,
    lower_outer_bottom,
    one_mu,
    outer_cut_triple,
    poisson2_verify,
    raise_inner_top,
    raise_outer_top,
)
from fqharmonic.exactnum import CycNum, DomainError, field_for

F2 = field_for(2)
F3 = field_for(3)
F4 = field_for(4)
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


def sub_measure(T, o=0, scalar=Fraction(1)):
    return VirtualMeasure(T.sub, o, T.sub.outer_sup, scalar)


def quot_measure(T, o=0, scalar=Fraction(1)):
    return VirtualMeasure(T.quot, o, T.quot.outer_inf, scalar)


def measures(which, T, nu_scalar=Fraction(1)):
    """The (mu, nu) that identity I consumes; the twist-free identity II reads none."""
    return (sub_measure(T), quot_measure(T, scalar=nu_scalar)) if which == "I" else (None, None)


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
    f = D2Elem(T.mid, 0, BW, tuple(table), Fraction(1))
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
    # each identity injects only its own fault; the other one is refused
    with pytest.raises(DomainError, match="identity II injects no fault 'measure'"):
        poisson2_verify("II", Ti, o=0, cut_lo=-1, cut_hi=1, max_points=64, corrupt="measure")
    with pytest.raises(DomainError, match="identity I injects no fault 'transition'"):
        poisson2_verify("I", T, sub_measure(T), quot_measure(T), cut_lo=-1, cut_hi=1, corrupt="transition")


@pytest.mark.parametrize("which", ["II", "I"])
@pytest.mark.parametrize("sweep, message", [
    ({"cut_lo": 1, "cut_hi": 0}, "cut_lo = 1 is above cut_hi = 0"),
    ({"max_points": 0}, "max_points = 0 leaves nothing to check"),
    ({"max_points": -4}, "max_points = -4 leaves nothing to check"),
])
def test_poisson2_refuses_a_sweep_that_checks_nothing(which, sweep, message):
    # such a sweep used to report 0 cases as a pass
    T = (inner_cut_triple if which == "II" else outer_cut_triple)(k2_model(F2), 0)
    mu, nu = measures(which, T)
    with pytest.raises(DomainError, match=message):
        poisson2_verify(which, T, mu, nu, **{"cut_lo": -1, "cut_hi": 1, **sweep})
    # no cap checks every bi-window, and a one-cut range its one bi-window
    assert poisson2_verify(which, T, mu, nu, cut_lo=-1, cut_hi=1, max_points=None).cases == 36
    assert poisson2_verify(which, T, mu, nu, cut_lo=1, cut_hi=1, max_points=1).cases == 1


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
        rep = poisson2_verify(which, T, *measures(which, T), cut_lo=-1, cut_hi=1, corrupt=fault)
        assert rep.cases > 0 and len(rep.failures) == rep.cases
        assert {f["identity"] for f in rep.failures} == {f"poisson2_{which}_characteristic_transform"}


def reference_poisson2(which, T, mu, nu, cut_lo, cut_hi, max_points, corrupt, o=0):
    """(cases, failures) of a sweep that builds both sides of every
    bi-window afresh, as the verifier did before it shared them."""
    Td = dual_triple2(T)
    q = T.mid.field.q
    if which == "II":
        widen, fault = raise_inner_top, "transition"
        primal, dual = partial(char_fn, T, o), partial(char_fn, Td, -o)
    else:
        widen, fault = raise_outer_top, "measure"
        primal, dual = partial(char_dist, T, mu, nu), partial(char_dist, Td, nu.on_dual(), mu.on_dual())
    cases, failures = 0, []
    for bw, primal_bw, dual_bw in widened_sides(which, T, cut_lo, cut_hi, max_points):
        cases += 1
        x = primal(primal_bw)
        if corrupt == fault:
            x = x * Fraction(q)
        if not d2_equal(fourier2(x), dual(dual_bw)):
            failures.append(f"bi-window {bw}")
    return cases, failures


def widened_sides(which, T, cut_lo, cut_hi, max_points):
    """(bi-window, widened primal bi-window, widened dual bi-window) of each
    bi-window a sweep compares, in sweep order."""
    Td = dual_triple2(T)
    q = T.mid.field.q
    widen = raise_inner_top if which == "II" else raise_outer_top
    cuts = range(cut_lo, cut_hi + 1)
    windows = [(a, b) for a in cuts for b in cuts if a <= b]
    for l, i in windows:
        for m, n in windows:
            bw = BiWindow(l, i, m, n)
            primal_bw, dual_bw = widen(T.sub, bw.dual()), widen(Td.sub, bw)
            if max_points is not None and max(
                q ** bw_dim(T.mid, primal_bw), q ** bw_dim(Td.mid, dual_bw)
            ) > max_points:
                continue
            yield bw, primal_bw, dual_bw


def distinct_keys(which, T, cut_lo, cut_hi, max_points):
    """The distinct primal and dual side keys of a sweep: each widened
    bi-window lowered by the image rule of its own side's quotient."""
    Td = dual_triple2(T)
    lower = lower_inner_bottom if which == "II" else lower_outer_bottom
    sides = list(widened_sides(which, T, cut_lo, cut_hi, max_points))
    return {lower(T.quot, p) for _bw, p, _d in sides}, {lower(Td.quot, d) for _bw, _p, d in sides}


def counted_builds(monkeypatch):
    """Record (triple, bi-window) of every characteristic object the
    verifier builds, and the input of every transform it takes."""
    builds, transforms = [], []
    for name in ("char_fn", "char_dist"):
        build = getattr(c2_triples, name)
        monkeypatch.setattr(
            c2_triples, name, lambda T, *args, build=build: builds.append((T, args[-1])) or build(T, *args)
        )
    monkeypatch.setattr(c2_triples, "fourier2", lambda x: transforms.append(x.bw) or fourier2(x))
    return builds, transforms


def shared_side_triples(fld):
    K2 = k2_model(fld)
    box = inner_cut_triple(box_model(fld, -1, 2, None, None), 0)
    return {
        "II": (inner_cut_triple(K2, 0), box, inner_cut_triple(K2, 1)),
        "I": (outer_cut_triple(K2, 0), box, outer_cut_triple(K2, -1)),
    }


@pytest.mark.parametrize("fld", [F2, F3, F4])
@pytest.mark.parametrize("max_points", [256, None])
@pytest.mark.parametrize("which, fault", [("II", "transition"), ("I", "measure")])
def test_shared_sides_match_a_sweep_that_builds_every_side(fld, max_points, which, fault):
    for T in shared_side_triples(fld)[which]:
        mu, nu = measures(which, T, Fraction(fld.q))
        for corrupt in (None, fault):
            rep = poisson2_verify(which, T, mu, nu, cut_lo=-2, cut_hi=2, max_points=max_points, corrupt=corrupt)
            cases, failures = reference_poisson2(which, T, mu, nu, -2, 2, max_points, corrupt)
            assert rep.cases == cases > 0
            assert [f["context"] for f in rep.failures] == failures
            assert len(failures) == (cases if corrupt else 0)


def unequal_argument_sweeps(fld):
    """(which, T, mu, nu, o) of sweeps whose dual constructor gets other
    arguments than the primal one, so no object may be shared between them."""
    K2 = k2_model(fld)
    triples = shared_side_triples(fld)
    Tu, Tt = inner_cut_triple(K2, 0), outer_cut_triple(K2, 0)
    sweeps = [
        (which, T, *measures(which, T), 0)
        for which in ("II", "I") for T in triples[which][1:]
    ]
    # a self-dual triple whose dual basepoint -o differs from o
    sweeps += [("II", Tu, None, None, o) for o in (1, -1)]
    # a self-dual triple whose dual measures (nu*, mu*) differ from (mu, nu)
    for s_mu, s_nu in ((Fraction(1), Fraction(fld.q)), (Fraction(1, 2), Fraction(3))):
        mu, nu = sub_measure(Tt, scalar=s_mu), quot_measure(Tt, scalar=s_nu)
        assert nu.on_dual() != mu
        sweeps.append(("I", Tt, mu, nu, 0))
    return sweeps


@pytest.mark.parametrize("fld", [F2, F3])
def test_unequal_arguments_share_no_object(monkeypatch, fld):
    # sharing is keyed by value: a primal and a dual object are one object
    # only when their constructors get equal arguments
    builds, transforms = counted_builds(monkeypatch)
    for which, T, mu, nu, o in unequal_argument_sweeps(fld):
        fault = "transition" if which == "II" else "measure"
        primal_keys, dual_keys = distinct_keys(which, T, -2, 2, 256)
        for corrupt in (None, fault):
            builds.clear()
            transforms.clear()
            rep = poisson2_verify(which, T, mu, nu, o=o, cut_lo=-2, cut_hi=2, corrupt=corrupt)
            cases, failures = reference_poisson2(which, T, mu, nu, -2, 2, 256, corrupt, o=o)
            assert rep.cases == cases > 0
            assert [f["context"] for f in rep.failures] == failures
            assert len(failures) == (cases if corrupt else 0)
            assert len(builds) == len(primal_keys) + len(dual_keys)
            assert len(transforms) == len(primal_keys)


@pytest.mark.parametrize("fld, cases", [(F2, 216), (F3, 186)])
def test_poisson_II_off_the_basepoint(fld, cases):
    T = inner_cut_triple(k2_model(fld), 0)
    for o in (1, -1):
        rep = poisson2_verify("II", T, o=o, cut_lo=-2, cut_hi=2)
        assert (rep.cases, rep.failures) == (cases, [])


def test_poisson_II_reads_no_measures():
    # a measure given to the twist-free identity would go unread
    T = inner_cut_triple(k2_model(F2), 0)
    mu, nu = VirtualMeasure(T.sub, 0, 0, Fraction(5)), VirtualMeasure(T.quot, 0, 0, Fraction(5))
    for given in ((mu, nu), (mu, None), (None, nu)):
        with pytest.raises(DomainError, match="the twist-free identity reads no measures"):
            poisson2_verify("II", T, *given, cut_lo=-1, cut_hi=1)


@pytest.mark.parametrize("fld, cases", [(F2, 216), (F3, 186)])
def test_poisson_I_off_the_basepoint(fld, cases):
    # identity I runs at its measures' source; its fault fails every bi-window
    T = outer_cut_triple(k2_model(fld), 0)
    for o in (1, -1):
        mu, nu = sub_measure(T, o), quot_measure(T, o)
        rep = poisson2_verify("I", T, mu, nu, o=o, cut_lo=-2, cut_hi=2)
        assert (rep.cases, rep.failures) == (cases, [])
        rep = poisson2_verify("I", T, mu, nu, o=o, cut_lo=-2, cut_hi=2, corrupt="measure")
        assert rep.cases == len(rep.failures) == cases
        # an o the measures do not start at was never read: refused
        with pytest.raises(DomainError, match=f"runs at its measures' source {o}, not at o = {-o}"):
            poisson2_verify("I", T, mu, nu, o=-o, cut_lo=-2, cut_hi=2)


@pytest.mark.parametrize("fld", [F2, F3, F4])
@pytest.mark.parametrize("max_points", [256, None])
@pytest.mark.parametrize("which", ["II", "I"])
def test_every_shared_side_is_the_side_built_at_its_widened_window(monkeypatch, fld, max_points, which):
    # an object is kept under its lowered window and may be shared by both
    # sides, and a verdict is kept under the keys of both sides, so for
    # every bi-window the pair compared under its keys must be the pair
    # built afresh at its widened windows (same model, basepoint,
    # bi-window, table and twist), and its verdict must be that pair's
    compared = {}  # (transform window, dual window) -> the pair compared

    def recorded(x, y):
        # each pair of sides is compared once; the verdicts alternate, so
        # a bi-window that read another pair's verdict would show
        assert (x.bw, y.bw) not in compared
        compared[(x.bw, y.bw)] = (x, y)
        return len(compared) % 2 == 0

    monkeypatch.setattr(c2_triples, "d2_equal", recorded)
    sweeps = [(T, *measures(which, T, Fraction(fld.q))) for T in shared_side_triples(fld)[which]]
    if which == "I":
        # the self-dual triple with unit measures, whose dual constructor
        # gets the primal's arguments
        T = outer_cut_triple(k2_model(fld), 0)
        sweeps.append((T, sub_measure(T), quot_measure(T)))
    for T, mu, nu in sweeps:
        Td = dual_triple2(T)
        if which == "II":
            primal, dual = partial(char_fn, T, 0), partial(char_fn, Td, 0)
        else:
            primal, dual = partial(char_dist, T, mu, nu), partial(char_dist, Td, nu.on_dual(), mu.on_dual())
        compared.clear()
        rep = poisson2_verify(which, T, mu, nu, cut_lo=-2, cut_hi=2, max_points=max_points)
        asked = list(widened_sides(which, T, -2, 2, max_points))
        assert rep.cases == len(asked) > 0
        failures, keys = [], set()
        for bw, primal_bw, dual_bw in asked:
            fresh = (fourier2(primal(primal_bw)), dual(dual_bw))
            keys.add((fresh[0].bw, fresh[1].bw))
            sides = compared[(fresh[0].bw, fresh[1].bw)]
            for side, built in zip(sides, fresh):
                assert type(side) is type(built)
                assert (side.model, side.o, side.bw, side.twist) == (built.model, built.o, built.bw, built.twist)
                assert side.table == built.table
            if list(compared).index((fresh[0].bw, fresh[1].bw)) % 2 == 0:
                failures.append(f"bi-window {bw}")
        assert [f["context"] for f in rep.failures] == failures
        # every pair compared is the pair of some bi-window
        assert set(compared) == keys


@pytest.mark.parametrize("r, max_points, calls", [(2, 256, 126), (2, None, 135), (6, None, 4459)])
def test_each_side_pair_is_compared_once(monkeypatch, r, max_points, calls):
    # on the self-dual triples over F_2, the verdict of a bi-window is fixed
    # by its sides' keys: 216 bi-windows at +-2 capped, 225 uncapped and
    # 8281 at +-6 uncapped come down to 126, 135 and 4459 comparisons
    compared = []

    def counted(x, y):
        compared.append((x.bw, y.bw))
        return d2_equal(x, y)

    monkeypatch.setattr(c2_triples, "d2_equal", counted)
    K2 = k2_model(F2)
    for which, T in (("II", inner_cut_triple(K2, 0)), ("I", outer_cut_triple(K2, 0))):
        compared.clear()
        rep = poisson2_verify(which, T, *measures(which, T), cut_lo=-r, cut_hi=r, max_points=max_points)
        assert rep.passed and rep.cases == {256: 216, None: (2 * r + 1) ** 2 * (r + 1) ** 2}[max_points]
        assert len(compared) == len(set(compared)) == calls


def bound_models():
    """The 2d models the tests build: K2, boxes, a two-box staircase, the
    members of the cut triples and the base-change diagrams, and the
    empty model, each with its dual."""
    models = []
    for fld in (F2, F3):
        K2 = k2_model(fld)
        box = box_model(fld, -1, 2, None, None)
        stair = C2Model(fld, ((None, 0, None, 1), (0, None, None, -1)), "stair")
        models += [K2, box, stair, C2Model(fld, ()), box_model(fld, -2, 1, -1, 3), box_model(fld, None, 1, 0, None)]
        for cut in (-1, 0, 1):
            for T in (inner_cut_triple(K2, cut), outer_cut_triple(K2, cut), inner_cut_triple(box, cut)):
                models += [T.mid, T.sub, T.quot]
    for make in (zvezda_cc_dd, zvezda_cf_df, zvezda_cc_df, zvezda_cf_dc):
        for T in make(-1, 1):
            models += [T.mid, T.sub, T.quot]
    return list(dict.fromkeys(models + [dual_model2(m) for m in models]))


# each rule written directly on a bi-window: the oracle of its bound form
BOUND_ORACLES = {
    "raise_outer_top": lambda model, bw: BiWindow(bw.l, max(bw.i, model.outer_sup), bw.m, bw.n),
    "raise_inner_top": lambda model, bw: BiWindow(
        bw.l, bw.i, bw.m, bw.n if model.inner_sup(bw.l, bw.i) is None else max(bw.n, model.inner_sup(bw.l, bw.i))
    ),
    "lower_outer_bottom": lambda model, bw: BiWindow(min(bw.l, model.outer_inf), bw.i, bw.m, bw.n),
    "lower_inner_bottom": lambda model, bw: BiWindow(
        bw.l, bw.i, bw.m if model.inner_inf(bw.l, bw.i) is None else min(bw.m, model.inner_inf(bw.l, bw.i)), bw.n
    ),
}


def test_each_bound_form_is_its_bi_window_rule():
    # every outer cut pair in [-8, 8] and every one-cut inner pair there, so
    # each inner edge meets the bound from both sides
    cuts = range(-8, 9)
    outer = [(l, i) for l in cuts for i in cuts if l <= i]
    for model in bound_models():
        for name, oracle in BOUND_ORACLES.items():
            rule = getattr(c2_triples, name)
            if rule.bound(model, 0, 0) is None and rule.edge < 2:
                continue  # no outer bound: the model is not outer-compact or outer-discrete
            for l, i in outer:
                pins = rule.pins(model, l, i, 8)
                for c in cuts:
                    bw = BiWindow(l, i, c, c)
                    want = oracle(model, bw)
                    assert rule(model, bw) == want, (model, name, bw)
                    pinned = BiWindow(pins[0], pins[1], min(c, pins[2]), max(c, pins[3]))
                    assert pinned == want, (model, name, bw)


def test_each_side_bound_is_the_widened_and_lowered_window():
    # the bounds a sweep reads once per outer pair give, at every inner
    # pair, the widened window and its key that the rules give
    cuts = range(-4, 5)
    pairs = [(a, b) for a in cuts for b in cuts if a <= b]
    for fld in (F2, F3):
        triples = shared_side_triples(fld)
        for which, widen, lower in (
            ("II", raise_inner_top, lower_inner_bottom), ("I", raise_outer_top, lower_outer_bottom)
        ):
            for T in triples[which]:
                for l, i in pairs:
                    (wl, wi, wm, wn), (kl, ki, km, kn) = c2_triples._side_bounds(widen, lower, T, l, i, 4)
                    for m, n in pairs:
                        widened = widen(T.sub, BiWindow(l, i, m, n))
                        assert widened == BiWindow(wl, wi, min(m, wm), max(n, wn))
                        assert lower(T.quot, widened) == BiWindow(kl, ki, min(m, km), max(n, kn))


def test_each_widened_side_is_built_once(monkeypatch):
    # at +-2 over F_2 with the default cap, 216 bi-windows of each identity
    # widen to 171 distinct bi-windows a side, which the image rule of the
    # side's own quotient lowers onto 126 distinct keys; both triples are
    # their own duals and at o = 0 with unit measures the dual constructor
    # gets the primal's arguments, so the 126 dual keys are primal keys and
    # one judgment builds the objects of a key and of its mirror
    builds, transforms = counted_builds(monkeypatch)
    compared = []
    monkeypatch.setattr(c2_triples, "d2_equal", lambda x, y: compared.append((x.bw, y.bw)) or d2_equal(x, y))
    # a weak reference to every object built, and whether its judgment's
    # first object was still alive when it was built
    alive, paired = [], []
    for name in ("char_fn", "char_dist"):
        build = getattr(c2_triples, name)

        def held(*args, build=build):
            # nothing built earlier is alive but the other object of this
            # judgment, built just before and not itself a second object
            live = [k for k, ref in enumerate(alive) if ref() is not None]
            assert live in ([], [len(alive) - 1]) and not (live and paired[-1]), live
            x = build(*args)
            alive.append(weakref.ref(x))
            paired.append(bool(live))
            return x

        monkeypatch.setattr(c2_triples, name, held)

    K2 = k2_model(F2)
    for which, T in (("II", inner_cut_triple(K2, 0)), ("I", outer_cut_triple(K2, 0))):
        for cuts, cases, calls in (((-2, 2), 216, 126), ((-1, 2), 99, 94)):
            builds.clear()
            transforms.clear()
            compared.clear()
            alive.clear()
            paired.clear()
            rep = poisson2_verify(which, T, *measures(which, T), cut_lo=cuts[0], cut_hi=cuts[1])
            assert rep.passed and rep.cases == cases
            assert len(builds) == len(set(builds)) == len(alive) == calls
            assert len(transforms) == len(set(transforms)) == calls
            assert len(compared) == len(set(compared)) == calls
            assert not any(ref() for ref in alive)
        # at +-2 the primal keys are closed under the mirror, so every
        # verdict a judgment gives is read; at -1..2 the mirror of a key
        # need not be a key, and its verdict is judged with the objects
        # already built though no bi-window reads it
        primal_keys, dual_keys = distinct_keys(which, T, -2, 2, 256)
        assert dual_keys == primal_keys == {key.dual() for key in primal_keys} and len(primal_keys) == 126


def mirror_triples(fld):
    """The triples the mirror identity is checked on, by identity: those
    whose sides are shared, and the cut triples of K2 and of a box at cuts
    -1..1 that each identity accepts."""
    K2 = k2_model(fld)
    box = box_model(fld, -1, 2, None, None)
    out = {}
    for which, triples in shared_side_triples(fld).items():
        cut = [make(mid, c) for make in (inner_cut_triple, outer_cut_triple) for mid in (K2, box) for c in (-1, 0, 1)]
        out[which] = list(dict.fromkeys(triples + tuple(T for T in cut if accepts(which, T))))
    return out


def accepts(which, T):
    try:
        c2_triples.poisson2_conditions(which, T)
    except CapabilityError:
        return False
    return True


@pytest.mark.parametrize("fld", [F2, F3])
@pytest.mark.parametrize(
    "which, widen, lower", [("II", raise_inner_top, lower_inner_bottom), ("I", raise_outer_top, lower_outer_bottom)]
)
def test_the_dual_side_is_the_primal_side_mirrored(fld, which, widen, lower):
    # the sweep judges each primal key with its mirror: at every bi-window
    # with cuts in [-4, 4] the dual side's key is the primal key mirrored,
    # and the dual widened bi-window is the mirror of the quotient-lowered
    # mirrored bi-window, so the cap may read either
    cuts = range(-4, 5)
    pairs = [(a, b) for a in cuts for b in cuts if a <= b]
    triples = mirror_triples(fld)[which]
    assert len(triples) >= 5
    for T in triples:
        Td = dual_triple2(T)
        for l, i in pairs:
            for m, n in pairs:
                bw = BiWindow(l, i, m, n)
                primal, dual = widen(T.sub, bw.dual()), widen(Td.sub, bw)
                assert lower(Td.quot, dual) == lower(T.quot, primal).dual(), (T, bw)
                assert dual == lower(T.quot, bw.dual()).dual(), (T, bw)


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
