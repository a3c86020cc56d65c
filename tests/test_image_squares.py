"""The commuting-square runner of the image-law suites.

The draw stream of compose1, base_change1 and base_change2 is pinned here by
(cases, failures, final generator state): a JSON digest cannot see a change
in draw order while every check passes, this can. The negative controls make
sure the runner's type-chosen equality sees a square that does not commute.
"""

from fractions import Fraction

import pytest

from fqharmonic.c1 import HaarMeasure, Window, laurent_model, lattice_model
from fqharmonic.c1_triples import interval_triple
from fqharmonic.c2 import BiWindow, VirtualMeasure, k2_model
from fqharmonic.c2_triples import outer_cut_triple
from fqharmonic.exactnum import field_for
from fqharmonic.harness.report import Report
from fqharmonic.harness.rng import LCG
from fqharmonic.harness.suites import (
    SUITES,
    SuiteContext,
    _c1_draws,
    _d2_draws,
    _square,
    _twin,
)

# (suite, q, seed) -> (cases, failures, final LCG state), with
# cases = 10 for compose1 and base_change1 and 4 for base_change2
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
}
CASES = {"compose1": 10, "base_change1": 10, "base_change2": 4}


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


# the kind that consumes the measure: beta_push for functions, beta_pull for
# distributions (which follow the conjugate kind's side conditions)
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "build,kind,dist",
    [
        (_c1_square, "beta_push", False),
        (_c1_square, "beta_pull", True),
        (_c2_square, "beta_push", False),
        (_c2_square, "beta_pull", True),
    ],
    ids=["C1Fn", "C1Dist", "D2Elem", "D2Dist"],
)
def test_square_books_one_failure_when_it_does_not_commute(build, kind, dist, q):
    draw, a, same, doubled = build(q, kind, dist)
    rep = Report("squares", ["law"])
    _square(rep, "law", draw, a, same, "ok")
    assert (rep.cases, rep.failures) == (1, [])
    _square(rep, "law", draw, a, doubled, "c=2")
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
