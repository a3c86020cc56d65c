"""The commuting-square runner of the image-law suites.

The draw stream of every suite that states its laws as squares (compose1,
base_change1, base_change2, fubini_projection, fourier_image1,
images2_adjoint, fourier_image2 and fourier1_props) is pinned here by
(cases, failures, final generator state): a JSON digest cannot see a change
in draw order while every check passes, this can. The negative controls make
sure the runner's type-chosen equality sees a square that does not commute,
for every kind of step.
"""

from fractions import Fraction
from functools import partial

import pytest

from fqharmonic.c1 import HaarMeasure, Window, laurent_model, lattice_model
from fqharmonic.c1_triples import dual_triple, interval_triple, tensor_haar
from fqharmonic.c2 import BiWindow, VirtualMeasure, k2_model
from fqharmonic.c2_triples import dual_triple2, outer_cut_triple
from fqharmonic.exactnum import field_for
from fqharmonic.harness.report import Report
from fqharmonic.harness.rng import LCG
from fqharmonic.harness.suites import (
    SUITES,
    SuiteContext,
    _c1_draws,
    _commutes,
    _d2_draws,
    _projection,
    _square,
    _twin,
)

# (suite, q, seed) -> (cases, failures, final LCG state), at the case counts
# of CASES
STREAMS = {
    ("compose1", 2, 1): (90, 0, 9488883691750860723),
    ("compose1", 2, 5): (90, 0, 15541648833647212945),
    ("compose1", 2, 20260808): (90, 0, 11954636648173235352),
    ("compose1", 3, 1): (90, 0, 16634340927067375911),
    ("compose1", 3, 5): (90, 0, 2993952985213712241),
    ("compose1", 3, 20260808): (90, 0, 16113497041036312326),
    ("base_change1", 2, 1): (70, 0, 16921002184634331349),
    ("base_change1", 2, 5): (70, 0, 9514082980833477131),
    ("base_change1", 2, 20260808): (70, 0, 4789028673616227496),
    ("base_change1", 3, 1): (70, 0, 17764657777048846903),
    ("base_change1", 3, 5): (70, 0, 14783428581030644845),
    ("base_change1", 3, 20260808): (70, 0, 12370361509957506200),
    ("base_change2", 2, 1): (64, 0, 8661856246152215153),
    ("base_change2", 2, 5): (64, 0, 12000433831923797765),
    ("base_change2", 2, 20260808): (64, 0, 4246399085591385794),
    ("base_change2", 3, 1): (64, 0, 5066498319642300897),
    ("base_change2", 3, 5): (64, 0, 14350360423289578369),
    ("base_change2", 3, 20260808): (64, 0, 1476880624219375850),
    ("fubini_projection", 2, 1): (60, 0, 14274426015358261843),
    ("fubini_projection", 2, 5): (60, 0, 7855014282129460683),
    ("fubini_projection", 2, 20260808): (60, 0, 4708812338162250801),
    ("fubini_projection", 3, 1): (60, 0, 16890599171456180257),
    ("fubini_projection", 3, 5): (60, 0, 7461925204308956613),
    ("fubini_projection", 3, 20260808): (60, 0, 16816954129735646980),
    ("fourier_image1", 2, 1): (40, 0, 239200235066674875),
    ("fourier_image1", 2, 5): (40, 0, 10487032333029643242),
    ("fourier_image1", 2, 20260808): (40, 0, 12070458443216507159),
    ("fourier_image1", 3, 1): (40, 0, 16500114473574273437),
    ("fourier_image1", 3, 5): (40, 0, 8506158634100199515),
    ("fourier_image1", 3, 20260808): (40, 0, 14494229113732865894),
    ("images2_adjoint", 2, 1): (24, 0, 11321866598777739805),
    ("images2_adjoint", 2, 5): (24, 0, 4972621784443787283),
    ("images2_adjoint", 2, 20260808): (24, 0, 17044159485714034532),
    ("images2_adjoint", 3, 1): (24, 0, 7750440037883691647),
    ("images2_adjoint", 3, 5): (24, 0, 6123315992131199649),
    ("images2_adjoint", 3, 20260808): (24, 0, 13973083209731219692),
    ("fourier_image2", 2, 1): (8, 0, 11321866598777739805),
    ("fourier_image2", 2, 5): (8, 0, 12974114783119746379),
    ("fourier_image2", 2, 20260808): (8, 0, 8701408613143025292),
    ("fourier_image2", 3, 1): (8, 0, 7750440037883691647),
    ("fourier_image2", 3, 5): (8, 0, 10959782623802771011),
    ("fourier_image2", 3, 20260808): (8, 0, 13973083209731219692),
    ("fourier1_props", 2, 1): (83, 0, 2659154849870269759),
    ("fourier1_props", 2, 5): (83, 0, 6114462731960355873),
    ("fourier1_props", 2, 20260808): (83, 0, 2400967294424965114),
    ("fourier1_props", 3, 1): (83, 0, 11973449475569090881),
    ("fourier1_props", 3, 5): (83, 0, 15446996860599662393),
    ("fourier1_props", 3, 20260808): (83, 0, 12589511275948846870),
}
CASES = {
    "compose1": 10,
    "base_change1": 10,
    "base_change2": 4,
    "fubini_projection": 10,
    "fourier_image1": 10,
    "images2_adjoint": 4,
    "fourier_image2": 4,
    "fourier1_props": 10,
}


@pytest.mark.parametrize("name,q,seed", sorted(STREAMS))
def test_image_suite_draw_stream_is_pinned(name, q, seed):
    ctx = SuiteContext(field_for(q), {"cases": CASES[name]}, LCG(seed))
    rep = SUITES[name][0](ctx)
    assert (rep.cases, len(rep.failures), ctx.rng.state) == STREAMS[(name, q, seed)]


def _c1_square(q, kind, dist):
    """A one-step beta square on C_1 and the same square with mu doubled."""
    F = field_for(q)
    T = interval_triple(laurent_model(F), lattice_model(F, 0))
    mu = HaarMeasure(T.sub, 0, Fraction(1, 2))
    fn, _germ, dist_draw, _etp = _c1_draws(LCG(7), Window(-1, 2))
    draw = dist_draw if dist else fn
    return draw, [(kind, T, mu)], [(kind, T, mu)], [(kind, T, mu.scaled(Fraction(2)))]


def _c2_square(q, kind, dist):
    """A one-step beta square on C_2 and the same square with mu doubled."""
    T = outer_cut_triple(k2_model(field_for(q)), 0)
    mu = VirtualMeasure(T.sub, 0, 0, Fraction(1, 2))
    fn, dist_draw = _d2_draws(LCG(7), BiWindow(-1, 1, -1, 1))
    draw = dist_draw if dist else fn
    twice = VirtualMeasure(T.sub, 0, 0, Fraction(1))
    return draw, [(kind, T, mu)], [(kind, T, mu)], [(kind, T, twice)]


def _c1_triple(q):
    """A C_1 triple with measures mu1, mu3 and their product mu2, and drawers."""
    F = field_for(q)
    T = interval_triple(laurent_model(F), lattice_model(F, 0))
    mu1 = HaarMeasure(T.sub, 0, Fraction(1, 2))
    mu3 = HaarMeasure(T.quot, 0, Fraction(3))
    return T, mu1, mu3, tensor_haar(T, mu1, mu3), _c1_draws(LCG(7), Window(-1, 2))


def _c1_transform_square(q):
    """fourier_image_push_restrict, and the same square with mu2 doubled."""
    T, mu1, mu3, mu2, (fn, *_draws) = _c1_triple(q)
    Td = dual_triple(T)
    a = [("beta_push", T, mu1), ("fourier", mu3)]
    b = [("fourier", mu2), ("alpha_pull", Td, None)]
    return fn(T.mid), a, b, [("fourier", mu2.scaled(Fraction(2))), ("alpha_pull", Td, None)]


def _germ_transform_square(q):
    """The measure-free transform of a germ is F_{mu^-1} after the density of
    mu, for every mu; and the same square with the density's mu doubled."""
    T, _mu1, mu3, _mu2, (_fn, germ, *_draws) = _c1_triple(q)
    b = [("density", mu3), ("fourier", mu3)]
    return germ(T.quot), [("fourier", None)], b, [("density", mu3.scaled(Fraction(2))), ("fourier", mu3)]


def _c2_transform_square(q):
    """fourier_image2's twisted beta_push square; the dual measure doubled."""
    T = outer_cut_triple(k2_model(field_for(q)), 0)
    Td, F = dual_triple2(T), ("fourier",)
    mu = VirtualMeasure(T.sub, 0, 0, Fraction(1, 2))
    fn, _dist = _d2_draws(LCG(7), BiWindow(-1, 1, -1, 1))
    b = [F, ("alpha_pull", Td, mu.on_dual())]
    return fn(T.mid), [("beta_push", T, mu), F], b, [F, ("alpha_pull", Td, mu.on_dual().scaled(Fraction(2)))]


def _density_square(q):
    """density_pullback_compat, and the same square with mu3 doubled."""
    T, mu1, mu3, mu2, (_fn, germ, *_draws) = _c1_triple(q)
    a = [("beta_pull", T, None), ("density", mu2)]
    b = [("density", mu3), ("beta_pull", T, mu1)]
    return germ(T.quot), a, b, [("density", mu3.scaled(Fraction(2))), ("beta_pull", T, mu1)]


def _product_square(q):
    """The compact-support projection formula; the germ factor doubled."""
    T, mu1, _mu3, _mu2, (fn, germ, *_draws) = _c1_triple(q)
    f, g, push = fn(T.mid), germ(T.quot), ("beta_push", T, mu1)
    x, a, b = _projection(f, g, push, ("beta_pull", T, None))
    return x, a, b, [push, ("mul", g * Fraction(2))]


def _integral_square(q):
    """Fubini, and the same square with the product measure doubled."""
    T, mu1, mu3, mu2, (fn, *_draws) = _c1_triple(q)
    a = [("beta_push", T, mu1), ("integrate", mu3)]
    return fn(T.mid), a, [("integrate", mu2)], [("integrate", mu2.scaled(Fraction(2)))]


def _one_square(rep, identity, x, a, b, context):
    """Book a(x) == b(x) for an x already drawn, as the step squares are."""
    _commutes(rep, identity, context, (x, a, b))


# the image squares go through _square, which draws x itself, and double the
# measure of the kind that consumes it: beta_push for functions, beta_pull for
# distributions (which follow the conjugate kind's side conditions); the
# squares of the other step kinds are built on a drawn x
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "build,book",
    [
        (partial(_c1_square, kind="beta_push", dist=False), _square),
        (partial(_c1_square, kind="beta_pull", dist=True), _square),
        (partial(_c2_square, kind="beta_push", dist=False), _square),
        (partial(_c2_square, kind="beta_pull", dist=True), _square),
        (_c1_transform_square, _one_square),
        (_germ_transform_square, _one_square),
        (_c2_transform_square, _one_square),
        (_density_square, _one_square),
        (_product_square, _one_square),
        (_integral_square, _one_square),
    ],
    ids=["C1Fn", "C1Dist", "D2Elem", "D2Dist", "fourier1", "fourier1-germ", "fourier2", "density", "mul", "integrate"],
)
def test_square_books_one_failure_when_it_does_not_commute(build, book, q):
    source, a, same, doubled = build(q)
    rep = Report("squares", ["law"])
    book(rep, "law", source, a, same, "ok")
    assert (rep.cases, rep.failures) == (1, [])
    book(rep, "law", source, a, doubled, "c=2")
    assert rep.cases == 2
    assert [(f["identity"], f["context"]) for f in rep.failures] == [("law", "c=2")]


def test_twin_of_twin_is_the_square():
    F = field_for(3)
    T = interval_triple(laurent_model(F), lattice_model(F, 0))
    mu = HaarMeasure(T.sub, 0, Fraction(3, 2))
    a = [("beta_push", T, mu), ("alpha_pull", T, None)]
    b = [("alpha_push", T, None), ("beta_pull", T, mu), ("alpha_pull", T, None)]
    assert _twin(*_twin(a, b)) == (a, b)
    # a twin reverses each path and conjugates every kind, measures kept
    assert _twin(a, b)[0] == [("alpha_push", T, None), ("beta_pull", T, mu)]
