import random
from fractions import Fraction

import pytest

from fqharmonic.c1 import (
    C1Dist,
    C1Fn,
    HaarMeasure,
    WindowError,
    Window,
    character_fn,
    delta_lattice,
    delta_point_dist,
    dist_at,
    dist_vanishes_at,
    dual_model,
    eval_fn_at,
    fn_at,
    fn_mul,
    i_mu,
    integrate,
    lattice_model,
    laurent_model,
    mul_dist,
    pairing1,
    positions,
    shift_model,
    sum_model,
    translate_dist,
    translate_fn,
    window_dim,
)
from fqharmonic.exactnum import CycNum, DomainError, field_for


def rand_cyc(rng, p):
    return CycNum(p, tuple(Fraction(rng.randint(-2, 2)) for _ in range(p - 1)))


def rand_fn(rng, model, w, tag="D"):
    dim = window_dim(model, w)
    q = model.field.q
    return C1Fn(model, tag, w, tuple(rand_cyc(rng, model.field.p) for _ in range(q**dim)))


def rand_dist(rng, model, w, tag="Dp"):
    dim = window_dim(model, w)
    q = model.field.q
    return C1Dist(model, tag, w, tuple(rand_cyc(rng, model.field.p) for _ in range(q**dim)))


F2 = field_for(2)
F3 = field_for(3)


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------


def test_refine_lattice_indicator():
    K = laurent_model(F2)
    f = delta_lattice(K, 0)
    moved = fn_at(f, Window(-1, 1))
    # positions (-1,0) then (0,0); indicator of the slot at cut 0 vanishing
    one, zero = CycNum.one(2), CycNum.zero(2)
    assert tuple(moved.table) == (one, one, zero, zero)


def test_refine_haar_fiber_sum_oracle():
    K = laurent_model(F2)
    mu = HaarMeasure(K, 0, Fraction(1))
    G = mu.as_dist(Window(-1, 1))
    # slicing the top keeps the profile at mu(F(-1)) = 1/2
    low = dist_at(G, Window(-1, 0))
    assert all(c == CycNum.from_rational(2, Fraction(1, 2)) for c in low.table)
    # summing the bottom fiber of the constant 1/2 recovers mu(F(0)) = 1
    hi = dist_at(G, Window(0, 1))
    assert all(c == CycNum.one(2) for c in hi.table)


def test_refine_transitive_on_random_tables():
    rng = random.Random(7)
    K = laurent_model(F3)
    for _ in range(10):
        f = rand_fn(rng, K, Window(0, 1))
        once = fn_at(fn_at(f, Window(-1, 1)), Window(-2, 2))
        direct = fn_at(f, Window(-2, 2))
        assert once.table == direct.table
        g = rand_dist(rng, K, Window(-2, 2))
        step = dist_at(dist_at(g, Window(-1, 2)), Window(-1, 1))
        assert step.table == dist_at(g, Window(-1, 1)).table


def test_refine_illegal_moves():
    K = laurent_model(F2)
    f = delta_lattice(K, 0)
    with pytest.raises(WindowError):
        fn_at(fn_at(f, Window(-1, 1)), Window(0, 0))
    G = rand_dist(random.Random(0), K, Window(0, 1))
    with pytest.raises(WindowError):
        dist_at(G, Window(-1, 1))


# ---------------------------------------------------------------------------
# integration and the density map
# ---------------------------------------------------------------------------


def test_integral_of_lattice_indicator_is_its_measure():
    K = laurent_model(F3)
    mu = HaarMeasure(K, 0, Fraction(1))
    for i in range(-2, 3):
        val = integrate(delta_lattice(K, i), mu)
        assert val == CycNum.from_rational(3, mu.value_at(i))
    # representative independence
    f = fn_at(delta_lattice(K, 0), Window(-2, 2))
    assert integrate(f, mu) == CycNum.one(3)


def test_integral_of_zero():
    K = laurent_model(F2)
    mu = HaarMeasure(K, 0, Fraction(3, 2))
    z = C1Fn(K, "D", Window(0, 1), (CycNum.zero(2), CycNum.zero(2)))
    assert integrate(z, mu).is_zero()


def test_integral_translation_invariant():
    rng = random.Random(9)
    K = laurent_model(F2)
    mu = HaarMeasure(K, 0, Fraction(2))
    for _ in range(10):
        f = rand_fn(rng, K, Window(-1, 2))
        a = {(-1, 0): rng.randrange(2), (0, 0): rng.randrange(2), (1, 0): rng.randrange(2)}
        assert integrate(translate_fn(f, a), mu) == integrate(f, mu)


def test_i_mu_delta_lattice():
    K = laurent_model(F2)
    mu = HaarMeasure(K, 0, Fraction(1))
    G = i_mu(fn_at(delta_lattice(K, 0), Window(0, 1)), mu)
    assert tuple(G.table) == (CycNum.one(2), CycNum.zero(2))


def test_i_mu_module_rule():
    # I_mu(f g) = f . I_mu(g) for a germ f and compactly-supported g
    rng = random.Random(10)
    K = laurent_model(F3)
    mu = HaarMeasure(K, 0, Fraction(1, 3))
    f = rand_fn(rng, K, Window(-1, 1), tag="E")
    g = rand_fn(rng, K, Window(-1, 1), tag="D")
    lhs = i_mu(fn_mul(f, g), mu)
    rhs = mul_dist(f, i_mu(g, mu))
    assert lhs.table == rhs.table and lhs.window == rhs.window


def test_i_mu_zero_and_injective():
    rng = random.Random(11)
    K = laurent_model(F2)
    mu = HaarMeasure(K, 0, Fraction(1))
    z = C1Fn(K, "D", Window(0, 1), (CycNum.zero(2),) * 2)
    assert i_mu(z, mu).is_zero()
    f = rand_fn(rng, K, Window(-1, 1))
    if not f.is_zero():
        assert not i_mu(f, mu).is_zero()


def test_i_mu_pairing_is_weighted_integral():
    rng = random.Random(12)
    K = laurent_model(F2)
    mu = HaarMeasure(K, 0, Fraction(1))
    f = rand_fn(rng, K, Window(-1, 1), tag="E")
    g = rand_fn(rng, K, Window(-1, 1), tag="D")
    assert pairing1(i_mu(f, mu), g) == integrate(fn_mul(f, g), mu)


# ---------------------------------------------------------------------------
# translation
# ---------------------------------------------------------------------------


def test_translate_identity_and_inverse():
    rng = random.Random(13)
    K = laurent_model(F3)
    f = rand_fn(rng, K, Window(-1, 1))
    assert translate_fn(f, {}).table == f.table
    a = {(-1, 0): 2, (0, 0): 1}
    back = translate_fn(translate_fn(f, a), {k: (3 - v) % 3 for k, v in a.items()})
    assert back.table == f.table


def test_translate_haar_invariant():
    K = laurent_model(F2)
    mu = HaarMeasure(K, 0, Fraction(1))
    G = mu.as_dist(Window(-1, 2))
    for a in [{(0, 0): 1}, {(-1, 0): 1, (1, 0): 1}]:
        assert translate_dist(G, a).table == G.table


def test_translate_grows_window_when_needed():
    K = laurent_model(F2)
    f = delta_lattice(K, 0)
    g = translate_fn(f, {(1, 0): 1})
    assert g.window == Window(0, 2)
    assert eval_fn_at(g, {(1, 0): 1}).is_zero() is False


def test_haar_uniqueness_properties():
    # a translation-invariant profile is constant; a random non-constant
    # table fails invariance under some window translation
    rng = random.Random(14)
    K = laurent_model(F2)
    G = rand_dist(rng, K, Window(-1, 1))
    if len(set(G.table)) > 1:
        moves = [{(-1, 0): 1}, {(0, 0): 1}]
        assert any(translate_dist(G, a).table != G.table for a in moves)
    mu = HaarMeasure(K, 0, Fraction(5, 3))
    H = mu.as_dist(Window(-2, 2))
    assert len(set(H.table)) == 1


# ---------------------------------------------------------------------------
# duality, evaluation, support
# ---------------------------------------------------------------------------


def test_dual_model_shapes():
    K = laurent_model(F2)
    O = lattice_model(F2, 0)
    dK = dual_model(K)
    assert dK.dim_between(0, 3) == 3 and not dK.is_compact and not dK.is_discrete
    dO = dual_model(O)
    assert dO.is_discrete and not dO.is_compact
    assert dual_model(dO) == O
    assert dual_model(dK) == K
    S = sum_model(K, O)
    assert dual_model(dual_model(S)) == S


def test_positions_and_dims():
    K = laurent_model(F2)
    O = lattice_model(F2, 0)
    assert positions(K, Window(-1, 1)) == ((-1, 0), (0, 0))
    assert positions(O, Window(-1, 1)) == ((-1, 0),)
    KO = sum_model(K, O)
    assert positions(KO, Window(-1, 1)) == ((-1, 0), (-1, 1), (0, 0))
    assert window_dim(KO, Window(-1, 1)) == 3


def test_eval_characterization():
    # compactly supported + locally constant: zero outside F(hi), constant
    # on F(lo)-cosets
    K = laurent_model(F2)
    f = fn_at(delta_lattice(K, 0), Window(-1, 1))
    assert eval_fn_at(f, {(1, 0): 1}).is_zero()
    assert eval_fn_at(f, {(-1, 0): 1}) == eval_fn_at(f, {})
    assert eval_fn_at(f, {(-2, 0): 1, (-1, 0): 1}) == eval_fn_at(f, {(-1, 0): 1})
    assert eval_fn_at(f, {(0, 0): 1}).is_zero()


def test_dist_support():
    K = laurent_model(F2)
    d = delta_point_dist(K, {(0, 0): 1})
    assert dist_vanishes_at(d, {})
    assert not dist_vanishes_at(d, {(0, 0): 1})
    mu = HaarMeasure(K, 0, Fraction(1))
    G = mu.as_dist(Window(0, 2))
    assert not dist_vanishes_at(G, {(1, 0): 1})


def test_shift_reindexing_invariance():
    # the same filtration with indices shifted gives the same numbers
    rng = random.Random(15)
    K = laurent_model(F3)
    K1 = shift_model(K, 1)
    assert K1 == K  # a shifted full pattern is the same pattern
    O = lattice_model(F3, 0)
    O1 = shift_model(O, 1)
    mu = HaarMeasure(O, 0, Fraction(1))
    mu1 = HaarMeasure(O1, 1, Fraction(1))
    f = rand_fn(rng, O, Window(-2, 0))
    f1 = C1Fn(O1, "D", Window(-1, 1), f.table)
    assert integrate(f, mu) == integrate(f1, mu1)


def test_character_window_guard():
    K = laurent_model(F2)
    with pytest.raises(WindowError):
        character_fn(K, Window(-1, 1), {(5, 0): 1})


def test_negative_slot_index_is_refused():
    # slot -1 does not exist; it must not be read as the origin
    K = laurent_model(F2)
    f = delta_lattice(K, 0)
    G = HaarMeasure(K, 0, Fraction(1)).as_dist(Window(-1, 1))
    bad = {(0, -1): 1}
    calls = [
        lambda: delta_point_dist(K, bad, Window(-1, 1)),
        lambda: translate_fn(f, bad),
        lambda: translate_dist(G, bad),
        lambda: eval_fn_at(f, bad),
        lambda: dist_vanishes_at(G, bad),
        lambda: character_fn(K, Window(-1, 1), bad),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="missing slot"):
            call()
    # the slots that exist still work: slot 1 of a two-slot cut
    K2s = sum_model(K, K)
    assert eval_fn_at(delta_lattice(K2s, 0), {(-1, 1): 1}) == CycNum.one(2)


@pytest.mark.parametrize("q", [2, 3])
def test_out_of_range_point_value_is_refused(q):
    # a point value is a field element index: q, 7 or -1 is refused, never
    # reduced mod q onto another point
    K = laurent_model(field_for(q))
    f = delta_lattice(K, 0)
    for v in (q, 7, -1):
        bad = {0: v}
        calls = [
            lambda: translate_fn(f, bad),
            lambda: delta_point_dist(K, bad, Window(-1, 1)),
            lambda: character_fn(K, Window(-1, 1), bad),
        ]
        for call in calls:
            with pytest.raises(DomainError, match=f"point value {v} at \\(0, 0\\) is not a field element index"):
                call()
    # every index in range is still a point: q - 1 moves the lattice off 0
    top = {0: q - 1}
    assert translate_fn(f, top).table != fn_at(f, Window(0, 1)).table
    assert delta_point_dist(K, top, Window(-1, 1)).table != delta_point_dist(K, {}, Window(-1, 1)).table
    assert character_fn(K, Window(-1, 1), top).table != character_fn(K, Window(-1, 1), {}).table
