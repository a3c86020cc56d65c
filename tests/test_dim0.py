import random
from fractions import Fraction

import pytest

from fqharmonic.dim0 import (
    FinSpace,
    Fn0,
    LinMap,
    Subspace0,
    all_subspaces,
    annihilator0,
    fibered_square,
    fourier0,
    pairing0,
    pull0,
    push0,
)
from fqharmonic.exactnum import CycNum, DomainError, field_for


def rand_cyc(rng, p):
    return CycNum(p, tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(p - 1)))


def rand_fn(rng, space):
    return Fn0(space, tuple(rand_cyc(rng, space.field.p) for _ in range(space.size)))


def rand_map(rng, source, target):
    rows = tuple(
        tuple(rng.randrange(source.field.q) for _ in range(source.dim))
        for _ in range(target.dim)
    )
    return LinMap(source, target, rows)


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def test_pairing_delta_orthogonality():
    sp = FinSpace(field_for(2), 2)
    for v in sp.vectors():
        for w in sp.vectors():
            val = pairing0(Fn0.delta(sp, v), Fn0.delta(sp, w))
            assert val == (CycNum.one(2) if v == w else CycNum.zero(2))


def test_pairing_constant_one_f2sq():
    sp = FinSpace(field_for(2), 2)
    one = Fn0.constant(sp, CycNum.one(2))
    assert pairing0(one, one) == CycNum.from_rational(2, 4)


def test_pairing_evaluates():
    rng = random.Random(1)
    sp = FinSpace(field_for(3), 2)
    f = rand_fn(rng, sp)
    for v in sp.vectors():
        assert pairing0(f, Fn0.delta(sp, v)) == f.table[sp.index(v)]


@pytest.mark.parametrize("vec", [(2, 0), (1, 1, 1), (0, 2), (0, -1), (1,)])
def test_vectors_outside_the_space_are_refused(vec):
    # a digit outside [0, q) or a wrong length names no point of F_2^2
    sp = FinSpace(field_for(2), 2)
    with pytest.raises(DomainError, match="not a vector of F_2"):
        sp.index(vec)
    with pytest.raises(DomainError, match="not a vector of F_2"):
        Fn0.delta(sp, vec)


@pytest.mark.parametrize("index", [-1, 4, 5])
def test_indices_outside_the_space_are_refused(index):
    # decoding alone would wrap an index outside [0, q^dim) onto some point
    sp = FinSpace(field_for(2), 2)
    with pytest.raises(DomainError, match="indexes no point of F_2"):
        sp.vec(index)
    assert [sp.index(sp.vec(i)) for i in range(sp.size)] == [0, 1, 2, 3]


def test_pairing_space_mismatch():
    f2 = field_for(2)
    with pytest.raises(DomainError):
        pairing0(
            Fn0.constant(FinSpace(f2, 1), CycNum.one(2)),
            Fn0.constant(FinSpace(f2, 2), CycNum.one(2)),
        )


# ---------------------------------------------------------------------------
# direct and inverse images
# ---------------------------------------------------------------------------


def test_push_identity():
    rng = random.Random(2)
    sp = FinSpace(field_for(2), 2)
    f = rand_fn(rng, sp)
    assert push0(LinMap.identity(sp), f) == f


def test_push_projection_constant():
    f2 = field_for(2)
    V, W = FinSpace(f2, 2), FinSpace(f2, 1)
    proj = LinMap(V, W, ((1, 0),))
    out = push0(proj, Fn0.constant(V, CycNum.one(2)))
    assert out == Fn0.constant(W, CycNum.from_rational(2, 2))


def test_push_zero_map_sends_delta_to_delta0():
    f2 = field_for(2)
    V = FinSpace(f2, 2)
    z = LinMap.zero(V, V)
    for v in V.vectors():
        assert push0(z, Fn0.delta(V, v)) == Fn0.delta(V, (0, 0))


def test_pull_identity():
    rng = random.Random(3)
    sp = FinSpace(field_for(3), 1)
    g = rand_fn(rng, sp)
    assert pull0(LinMap.identity(sp), g) == g


def test_pull_projection_fiber_indicator():
    f2 = field_for(2)
    V, W = FinSpace(f2, 2), FinSpace(f2, 1)
    proj = LinMap(V, W, ((1, 0),))
    out = pull0(proj, Fn0.delta(W, (1,)))
    # fiber over 1 = {(1,0), (1,1)}
    assert out == Fn0.indicator(V, [(1, 0), (1, 1)])


@pytest.mark.parametrize("q", [2, 3])
def test_adjointness_randomized(q):
    rng = random.Random(10 + q)
    fld = field_for(q)
    for _ in range(30):
        V = FinSpace(fld, rng.randint(0, 2))
        W = FinSpace(fld, rng.randint(0, 2))
        pi = rand_map(rng, V, W)
        f, g = rand_fn(rng, V), rand_fn(rng, W)
        assert pairing0(pull0(pi, g), f) == pairing0(g, push0(pi, f))


@pytest.mark.parametrize("q", [2, 3])
def test_functoriality_randomized(q):
    rng = random.Random(20 + q)
    fld = field_for(q)
    for _ in range(25):
        V1 = FinSpace(fld, rng.randint(0, 2))
        V2 = FinSpace(fld, rng.randint(0, 2))
        V3 = FinSpace(fld, rng.randint(0, 2))
        p1, p2 = rand_map(rng, V1, V2), rand_map(rng, V2, V3)
        f, g = rand_fn(rng, V1), rand_fn(rng, V3)
        assert push0(p2, push0(p1, f)) == push0(p2.compose(p1), f)
        assert pull0(p1, pull0(p2, g)) == pull0(p2.compose(p1), g)


@pytest.mark.parametrize("q", [2, 3])
def test_base_change_on_cartesian_squares(q):
    rng = random.Random(30 + q)
    fld = field_for(q)
    for _ in range(20):
        V = FinSpace(fld, rng.randint(0, 2))
        W = FinSpace(fld, rng.randint(0, 2))
        S = FinSpace(fld, rng.randint(0, 2))
        pi, alpha = rand_map(rng, V, S), rand_map(rng, W, S)
        P, alpha_v, pi_w = fibered_square(pi, alpha)
        # the square commutes
        for vec in P.vectors():
            assert pi.apply(alpha_v.apply(vec)) == alpha.apply(pi_w.apply(vec))
        h = rand_fn(rng, W)
        assert pull0(pi, push0(alpha, h)) == push0(alpha_v, pull0(pi_w, h))


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------


def test_fourier_delta0_is_one():
    sp = FinSpace(field_for(3), 2)
    assert fourier0(Fn0.delta(sp, (0, 0))) == Fn0.constant(sp, CycNum.one(3))


def test_fourier_line_in_f2sq():
    f2 = field_for(2)
    sp = FinSpace(f2, 2)
    H = Subspace0.from_vectors(sp, [(1, 0)])
    out = fourier0(H.indicator())
    # annihilator of span{(1,0)} is the second dual coordinate line
    expect = Fn0.indicator(sp, [(0, 0), (0, 1)]) * 2
    assert out == expect


def test_fourier_squared_is_size_times_check():
    rng = random.Random(40)
    sp = FinSpace(field_for(3), 2)
    f = rand_fn(rng, sp)
    assert fourier0(fourier0(f)) == f.check() * sp.size


def test_fourier_selfadjoint_and_linear():
    rng = random.Random(41)
    sp = FinSpace(field_for(2), 3)
    f, g = rand_fn(rng, sp), rand_fn(rng, sp)
    assert pairing0(fourier0(f), g) == pairing0(f, fourier0(g))
    assert fourier0(f + g) == fourier0(f) + fourier0(g)


@pytest.mark.parametrize("q", [2, 3])
def test_fourier_image_diagrams(q):
    # push/pull exchange under the transform, with the exact 1/size scalings
    rng = random.Random(50 + q)
    fld = field_for(q)
    for _ in range(15):
        V = FinSpace(fld, rng.randint(0, 2))
        W = FinSpace(fld, rng.randint(0, 2))
        pi = rand_map(rng, V, W)
        f, g = rand_fn(rng, V), rand_fn(rng, W)
        assert fourier0(push0(pi, f)) == pull0(pi.dual(), fourier0(f))
        lhs = fourier0(pull0(pi, g)) * Fraction(1, V.size)
        rhs = push0(pi.dual(), fourier0(g) * Fraction(1, W.size))
        assert lhs == rhs


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2)])
def test_poisson_dim0_small(q, n):
    fld = field_for(q)
    sp = FinSpace(fld, n)
    for H in all_subspaces(sp):
        perp = annihilator0(H)
        assert fourier0(H.indicator()) == perp.indicator() * H.size()


# ---------------------------------------------------------------------------
# subspaces and annihilators
# ---------------------------------------------------------------------------


def test_annihilator_trivial_cases():
    sp = FinSpace(field_for(3), 2)
    zero = Subspace0(sp, ())
    full = Subspace0.from_vectors(sp, [(1, 0), (0, 1)])
    assert annihilator0(zero).dim == 2
    assert annihilator0(full).dim == 0
    assert annihilator0(annihilator0(zero)) == zero


def test_annihilator_matches_exhaustive_kernel_scan():
    f2 = field_for(2)
    sp = FinSpace(f2, 2)
    H = Subspace0.from_vectors(sp, [(1, 1)])
    perp = annihilator0(H)
    # oracle: brute-force scan of all u with u(h) = 0 for all h in H
    expected = set()
    for u in sp.vectors():
        if all(f2.dot_idx(u, h) == 0 for h in H.points()):
            expected.add(u)
    assert set(perp.points()) == expected
    assert H.dim + perp.dim == sp.dim


def test_annihilator_dimension_law():
    rng = random.Random(60)
    sp = FinSpace(field_for(3), 3)
    for _ in range(15):
        vecs = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(rng.randint(0, 3))]
        H = Subspace0.from_vectors(sp, vecs)
        assert H.dim + annihilator0(H).dim == sp.dim


def test_subspace_count_matches_gaussian_binomial():
    sp = FinSpace(field_for(3), 3)
    # 1 + (q^3-1)/(q-1) * 2 + 1 = 2 + 2*13 = 28 subspaces of F_3^3
    assert sum(1 for _ in all_subspaces(sp)) == 28
