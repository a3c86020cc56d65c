import random
from fractions import Fraction

import pytest

from fqharmonic.c1 import (
    DIST_TAGS,
    FN_TAGS,
    C1Dist,
    C1Fn,
    CapabilityError,
    HaarMeasure,
    Window,
    character_fn,
    delta_lattice,
    dist_at,
    dual_model,
    dual_window,
    eval_fn_at,
    fn_at,
    fn_equal,
    fn_mul,
    fourier1,
    i_mu,
    laurent_model,
    lattice_model,
    mul_dist,
    pairing1,
    translate_dist,
    translate_fn,
    window_dim,
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


def test_transform_of_lattice_indicators():
    # the indicator of F(i) goes to mu(F(i)) times the indicator of the
    # annihilator lattice
    for q, rng_i in [(2, range(-3, 4)), (3, range(-2, 3))]:
        fld = field_for(q)
        K = laurent_model(fld)
        dK = dual_model(K)
        mu = HaarMeasure(K, 0, Fraction(1))
        for i in rng_i:
            out = fourier1(delta_lattice(K, i), mu)
            expect = delta_lattice(dK, -i) * mu.value_at(i)
            assert fn_equal(out, expect)


def test_transform_scales_linearly_in_the_measure():
    rng = random.Random(1)
    K = laurent_model(F2)
    mu = HaarMeasure(K, 0, Fraction(1))
    nu = mu.scaled(Fraction(3, 4))
    f = rand_fn(rng, K, Window(-1, 2))
    assert fn_equal(fourier1(f, nu), fourier1(f, mu) * Fraction(3, 4))


def test_inversion_to_check():
    rng = random.Random(2)
    for fld in (F2, F3):
        K = laurent_model(fld)
        mu = HaarMeasure(K, 0, Fraction(2))
        for _ in range(5):
            f = rand_fn(rng, K, Window(-1, 1))
            back = fourier1(fourier1(f, mu), mu.inverse_on_dual())
            assert fn_equal(back, f.check())


def test_translation_twist_lemma():
    # transform of a translate is the matching character times the transform
    rng = random.Random(3)
    K = laurent_model(F3)
    mu = HaarMeasure(K, 0, Fraction(1))
    for _ in range(5):
        f = rand_fn(rng, K, Window(-2, 2))
        a = {(-1, 0): rng.randrange(3), (1, 0): rng.randrange(3)}
        lhs = fourier1(translate_fn(f, a), mu)
        chi = character_fn(dual_model(K), dual_window(f.window), a)
        rhs = fn_mul(chi, fourier1(f, mu))
        assert fn_equal(lhs, rhs)


def test_character_twist_lemma():
    # transform of psi_b . f is the translate by -b of the transform
    rng = random.Random(4)
    K = laurent_model(F2)
    dK = dual_model(K)
    mu = HaarMeasure(K, 0, Fraction(1))
    for _ in range(5):
        f = rand_fn(rng, K, Window(-2, 2))
        b = {(-1, 0): 1}
        chi = character_fn(K, f.window, b)
        lhs = fourier1(fn_mul(chi, f), mu)
        neg_b = {k: 1 for k in b}  # -1 = 1 over F_2
        rhs = translate_fn(fourier1(f, mu), neg_b)
        assert fn_equal(lhs, rhs)


def test_dist_transform_by_adjointness_oracle():
    rng = random.Random(5)
    K = laurent_model(F3)
    dK = dual_model(K)
    mu = HaarMeasure(K, 0, Fraction(1, 3))
    for _ in range(5):
        G = rand_dist(rng, K, Window(-1, 1))
        FG = fourier1(G, mu)
        for _ in range(3):
            f = rand_fn(rng, dK, Window(-1, 1))
            assert pairing1(FG, f) == pairing1(G, fourier1(f, mu.inverse_on_dual()))


def test_dist_double_transform_is_check():
    rng = random.Random(6)
    K = laurent_model(F2)
    mu = HaarMeasure(K, 0, Fraction(1))
    for _ in range(5):
        G = rand_dist(rng, K, Window(-1, 2))
        twice = fourier1(fourier1(G, mu), mu.inverse_on_dual())
        assert twice.table == G.check().table


def test_transform_of_haar_is_point_mass():
    K = laurent_model(F2)
    mu = HaarMeasure(K, 0, Fraction(1))
    nu = mu.scaled(Fraction(5))
    G = fourier1(nu.as_dist(Window(-1, 1)), mu)
    # constant-ratio point mass at the zero coset on every window
    for w in [Window(-1, 1), Window(-2, 2)]:
        T = dist_at(G, w).table
        assert T[0] == CycNum.from_rational(2, 5)
        assert all(c.is_zero() for c in T[1:])


def test_dist_transform_translation_lemma():
    rng = random.Random(7)
    K = laurent_model(F2)
    mu = HaarMeasure(K, 0, Fraction(1))
    G = rand_dist(rng, K, Window(-2, 2))
    a = {(0, 0): 1}
    lhs = fourier1(translate_dist(G, a), mu)
    chi = character_fn(dual_model(K), Window(-2, 2), a)
    rhs = mul_dist(chi, fourier1(G, mu))
    assert lhs.table == rhs.table


def test_germ_transform_round_trip():
    rng = random.Random(8)
    K = laurent_model(F3)
    for tag in ("E", "ET"):
        f = rand_fn(rng, K, Window(-1, 1), tag=tag)
        back = fourier1(fourier1(f))
        assert back.window == f.window
        assert back.table == f.check().table


def test_germ_transform_mixed_adjointness():
    rng = random.Random(9)
    K = laurent_model(F2)
    dK = dual_model(K)
    w = Window(-1, 1)
    f = rand_fn(rng, K, w, tag="E")
    g = rand_fn(rng, dK, dual_window(w), tag="ET")
    assert pairing1(fourier1(f), g) == pairing1(fourier1(g), f)


def test_germ_inverse_via_characters():
    # the inverse transform evaluates through the character pairing:
    # f(v) = <F(f), psi_v>
    rng = random.Random(10)
    K = laurent_model(F2)
    f = rand_fn(rng, K, Window(-1, 1), tag="E")
    G = fourier1(f)
    for point in [{}, {(-1, 0): 1}, {(0, 0): 1}, {(-1, 0): 1, (0, 0): 1}]:
        chi = character_fn(dual_model(K), G.window, point)
        assert pairing1(G, chi) == eval_fn_at(f, point)


def test_density_transform_compatibility():
    # F_{mu^{-1}} o I_mu = I_{mu^{-1}} o F_mu on compactly-supported functions
    rng = random.Random(11)
    K = laurent_model(F3)
    mu = HaarMeasure(K, 0, Fraction(1))
    f = rand_fn(rng, K, Window(-1, 1))
    lhs = fourier1(i_mu(f, mu), mu)
    rhs = i_mu(fourier1(f, mu), mu.inverse_on_dual())
    assert lhs.window == rhs.window and lhs.table == rhs.table


def test_fourier_on_compact_and_discrete_models():
    # lattice and quotient models transform into each other's shape
    O = lattice_model(F2, 0)
    muO = HaarMeasure(O, 0, Fraction(1))
    one_on_o = delta_lattice(O, 0)  # the constant 1 on a compact model
    out = fourier1(one_on_o, muO)
    assert out.model == dual_model(O)
    assert dual_model(O).is_discrete
    # it transforms to the delta at zero of the discrete dual
    assert fn_equal(out, delta_lattice(dual_model(O), 0))


@pytest.mark.parametrize("tag", FN_TAGS + DIST_TAGS)
def test_fourier1_refuses_what_its_measure_does_not_serve(tag):
    # a measure serves D functions and every distribution; no measure serves
    # the germs and the compactly-supported distributions
    rng = random.Random(12)
    K = laurent_model(F3)
    mu = HaarMeasure(K, 0, Fraction(1, 3))
    draw = rand_fn if tag in FN_TAGS else rand_dist
    x = draw(rng, K, Window(-1, 1), tag=tag)
    for m, served in ((mu, tag == "D" or tag in DIST_TAGS), (None, tag in ("E", "ET", "Ep", "ETp"))):
        if served:
            assert fourier1(x, m).model == dual_model(K)
        else:
            with pytest.raises(CapabilityError):
                fourier1(x, m)


@pytest.mark.parametrize("tag", ["D", "Dp", "Ep", "Haar"])
def test_fourier1_refuses_a_measure_on_another_model(tag):
    rng = random.Random(13)
    K = laurent_model(F2)
    draw = rand_fn if tag in FN_TAGS else rand_dist
    x = draw(rng, K, Window(-1, 1), tag=tag)
    with pytest.raises(DomainError) as err:
        fourier1(x, HaarMeasure(lattice_model(F2, 0), 0, Fraction(1)))
    assert type(err.value) is DomainError
