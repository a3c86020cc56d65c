"""Acceptance gate: every criterion runs at its stated scale with exact
equality as the only tolerance, and prints one pass/fail line with timing."""

import time
from fractions import Fraction
from pathlib import Path

import pytest

from fqharmonic.c2 import VirtualMeasure, k2_model
from fqharmonic.c2_triples import outer_cut_triple, poisson2_verify
from fqharmonic.exactnum import DomainError, field_for
from fqharmonic.harness.config import parse_config
from fqharmonic.harness.rng import LCG
from fqharmonic.harness.suites import SUITES, SuiteContext

EXAMPLE = (Path(__file__).resolve().parents[1] / "scripts" / "example.cfg").read_text()


def _ctx(q=2, params=None, seed=20260808):
    return SuiteContext(field_for(q), params or {}, LCG(seed))


def _run(name, ctx):
    fn, _tags = SUITES[name]
    return fn(ctx)


def _line(num, name, rep, budget, t0):
    dt = time.monotonic() - t0
    status = "PASS" if rep.passed else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({rep.cases} checks, {dt:.1f}s, budget {budget}s)")
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.1f}s)"
    assert rep.passed, rep.failures[:3]


def test_criterion_01_level_zero_summation():
    t0 = time.monotonic()
    rep = _run("poisson0", _ctx(params={"max_dim": 3}))
    # all subspaces for n <= 3: 24 over F_2, 37 over F_3, 54 over F_4
    assert rep.cases == 24 + 37 + 54
    _line(1, "level-zero summation over all subspaces", rep, 5, t0)


def test_criterion_02_level_zero_transform_properties():
    t0 = time.monotonic()
    rep = _run("fourier0_props", _ctx(params={"cases": 200}))
    assert rep.cases >= 2 * 200
    _line(2, "level-zero transform and image properties", rep, 10, t0)


def test_criterion_03_one_dimensional_summation():
    # full lattice family t^m O for m in -2..2, all measure pairs in
    # {1, q, 1/q}, plus a deep sweep covering every window up to q^8 points
    t0 = time.monotonic()
    rep = _run("poisson1", _ctx(params={"cut_hi": 2, "deep_cut": 4, "max_points": 256}))
    assert rep.cases >= 45 * 15
    _line(3, "one-dimensional summation for shifted lattices", rep, 10, t0)


def test_criterion_04_lattice_indicator_transform():
    t0 = time.monotonic()
    rep = _run("fourier1_delta", _ctx(params={"i_lo": -3, "i_hi": 3}))
    assert rep.cases == 7
    _line(4, "lattice indicator transform", rep, 2, t0)


def test_criterion_05_image_calculus():
    t0 = time.monotonic()
    reps = [
        _run("fubini_projection", _ctx(params={"cases": 100})),
        _run("compose1", _ctx(params={"cases": 100})),
        _run("base_change1", _ctx(params={"cases": 100})),
        _run("fourier_image1", _ctx(params={"cases": 100})),
    ]
    merged = reps[0]
    for r in reps[1:]:
        merged.cases += r.cases
        merged.failures.extend(r.failures)
    assert all(r.cases >= 100 for r in reps)
    _line(5, "fiber integrals, projections, composition, base change", merged, 30, t0)


def test_criterion_06_virtual_measure_laws():
    t0 = time.monotonic()
    rep = _run("vmeasure", _ctx())
    assert rep.cases >= 9**3
    _line(6, "virtual measure laws over |i| <= 4", rep, 2, t0)


def test_criterion_07_two_dimensional_summation_twist_free():
    t0 = time.monotonic()
    rep = _run("poisson2_ii", _ctx(params={"cut_lo": -2, "cut_hi": 2, "max_points": 256}))
    assert rep.cases >= 200
    _line(7, "two-dimensional twist-free summation", rep, 30, t0)


def test_criterion_08_two_dimensional_summation_twisted():
    t0 = time.monotonic()
    rep = _run("poisson2_i", _ctx(params={"cut_lo": -1, "cut_hi": 1, "max_points": 256}))
    assert rep.cases >= 9 * 36
    # deepen the canonical-measure run to the full point cap
    K2 = k2_model(field_for(2))
    T = outer_cut_triple(K2, 0)
    deep = poisson2_verify(
        "I", T,
        VirtualMeasure(T.sub, 0, T.sub.outer_sup, Fraction(1)),
        VirtualMeasure(T.quot, 0, T.quot.outer_inf, Fraction(1)),
        o=0, cut_lo=-2, cut_hi=2, max_points=256,
    )
    rep.cases += deep.cases
    rep.failures.extend(deep.failures)
    _line(8, "two-dimensional twisted summation with corollaries", rep, 30, t0)


def test_criterion_09_central_extension():
    t0 = time.monotonic()
    rep = _run("central_ext", _ctx(params={"cases": 100, "rep_cases": 15}))
    assert rep.cases >= 300
    _line(9, "central extension and twisted representations", rep, 30, t0)


def test_criterion_10_two_dimensional_base_change():
    t0 = time.monotonic()
    rep = _run("base_change2", _ctx(params={"cases": 8}))
    rep2 = _run("fourier_image2", _ctx(params={"cases": 8}))
    rep.cases += rep2.cases
    rep.failures.extend(rep2.failures)
    assert rep.cases >= 96
    _line(10, "two-dimensional base change and transform diagrams", rep, 60, t0)


def test_criterion_11_negative_controls():
    t0 = time.monotonic()
    bad_psi = _run("psi_character", _ctx(params={"corrupt": "psi"}))
    assert not bad_psi.passed
    assert any(f["identity"] == "psi_nontrivial" for f in bad_psi.failures)
    bad_transition = _run("poisson1", _ctx(params={"cut_hi": 1, "corrupt": "transition"}))
    assert not bad_transition.passed
    assert bad_transition.failures[0]["identity"] == "poisson1_characteristic_transform"
    bad_measure = _run("poisson1", _ctx(params={"cut_hi": 1, "corrupt": "measure"}))
    assert not bad_measure.passed
    bad2 = _run("poisson2_i", _ctx(params={"cut_lo": -1, "cut_hi": 1, "corrupt": "measure"}))
    assert not bad2.passed
    assert bad2.failures[0]["identity"] == "poisson2_I_characteristic_transform"
    # a fault the suite does not inject is refused before the suite runs
    with pytest.raises(DomainError, match="psi_character injects no fault 'pxi'"):
        _run("psi_character", _ctx(params={"corrupt": "pxi"}))
    print(f"[criterion 11] negative controls name the violated identity: PASS "
          f"({time.monotonic() - t0:.1f}s)")


def test_full_default_config_is_green():
    from fqharmonic.harness.suites import run_suites

    cfg = parse_config(EXAMPLE)
    reports = run_suites(cfg)
    assert all(r.passed for r in reports), [
        (r.name, r.failures[:1]) for r in reports if not r.passed
    ]


def test_default_config_is_green_over_f4():
    # over a non-prime field an element's index is not its integer value, so
    # a sign or a sum taken on indices instead of in the field shows up here
    from fqharmonic.harness.suites import run_suites

    cfg = parse_config(EXAMPLE.replace("spec = 2,1,[0,1]", "spec = 2,2,[1,1,1]"))
    assert cfg.field.q == 4
    reports = run_suites(cfg)
    assert all(r.passed for r in reports), [
        (r.name, r.failures[:1]) for r in reports if not r.passed
    ]
