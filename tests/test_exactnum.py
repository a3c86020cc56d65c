from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqharmonic.exactnum import (
    CycNum,
    DomainError,
    FqElem,
    FqField,
    field_for,
    psi,
    split_field_spec,
)

ALL_Q = [2, 3, 4, 5, 8, 9]


def small_cyc(p):
    frac = st.fractions(
        min_value=-3, max_value=3, max_denominator=3
    )
    return st.tuples(*[frac] * (p - 1)).map(lambda cs: CycNum(p, cs))


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def test_psi_p2_values():
    f2 = field_for(2)
    assert psi(f2.one()) == CycNum.from_rational(2, -1)
    assert psi(f2.zero()) == CycNum.one(2)


def test_psi_sum_over_f3_vanishes():
    # geometric-sum identity: 1 + zeta + zeta^2 = 0, computed by enumeration
    f3 = field_for(3)
    total = CycNum.zero(3)
    for x in f3:
        total = total + psi(x)
    assert total.is_zero()


@pytest.mark.parametrize("q", ALL_Q)
def test_psi_additive_exhaustive(q):
    fld = field_for(q)
    for a in fld:
        for b in fld:
            assert psi(a + b) == psi(a) * psi(b)


@pytest.mark.parametrize("q", ALL_Q + [16])
def test_psi_nontrivial_exhaustive(q):
    fld = field_for(q) if q != 16 else FqField(2, 4, (1, 1, 0, 0, 1))
    total = CycNum.zero(fld.p)
    for x in fld:
        total = total + psi(x)
    assert total.is_zero()
    assert any(psi(x) != CycNum.one(fld.p) for x in fld)


def test_psi_conj_is_psi_of_negation():
    for q in ALL_Q:
        fld = field_for(q)
        for x in fld:
            assert psi(x).conj() == psi(-x)


# ---------------------------------------------------------------------------
# cyclotomic arithmetic
# ---------------------------------------------------------------------------


def test_conj_fixes_reals():
    z = CycNum.from_rational(2, -1)
    assert z.conj() == z


def test_conj_zeta3_power_basis():
    # conj(zeta) = zeta^2 = -1 - zeta after reduction by 1 + zeta + zeta^2 = 0
    z = CycNum.zeta_pow(3, 1)
    assert z.conj() == CycNum(3, (Fraction(-1), Fraction(-1)))


def test_zeta_power_reduction():
    # zeta_5^4 = -(1 + zeta + zeta^2 + zeta^3)
    z4 = CycNum.zeta_pow(5, 4)
    assert z4 == CycNum(5, tuple(Fraction(-1) for _ in range(4)))
    assert CycNum.zeta_pow(5, 5) == CycNum.one(5)


@settings(max_examples=40, deadline=None)
@given(small_cyc(5))
def test_conj_involution(z):
    assert z.conj().conj() == z


@settings(max_examples=25, deadline=None)
@given(small_cyc(3), small_cyc(3), small_cyc(3))
def test_cyc_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + CycNum.zero(3) == a
    assert a * CycNum.one(3) == a


@settings(max_examples=25, deadline=None)
@given(small_cyc(3), small_cyc(3))
def test_conj_is_ring_hom(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


def test_scalar_ops():
    z = CycNum.zeta_pow(3, 1)
    assert (z * 2) / 2 == z
    assert z * Fraction(1, 3) == z / 3
    with pytest.raises(DomainError):
        z / 0


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------


def test_f4_multiplication_table_entry():
    # x * x = x + 1 in F_2[x]/(x^2 + x + 1), checked against a direct
    # polynomial-reduction oracle
    f4 = field_for(4)
    x = FqElem(f4, (0, 1))
    prod = x * x
    # oracle: x^2 = x^2 mod (x^2 + x + 1) = x + 1 over F_2
    raw = [0, 0, 1]
    mod = [1, 1, 1]
    while len(raw) > 2:
        lead = raw.pop()
        if lead:
            for k in range(3):
                raw_idx = len(raw) - 2 + k
                if raw_idx < len(raw):
                    raw[raw_idx] = (raw[raw_idx] - lead * mod[k]) % 2
    assert prod.coeffs == (1, 1)


def test_add_zero_identity():
    for q in ALL_Q:
        fld = field_for(q)
        for a in fld:
            assert a + fld.zero() == a


def test_f9_inverses_exhaustive():
    f9 = field_for(9)
    for a in f9:
        if a.is_zero():
            with pytest.raises(DomainError):
                a.inverse()
        else:
            assert a.inverse() * a == f9.one()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_field_axioms_exhaustive(q):
    fld = field_for(q)
    elems = list(fld)
    for a in elems:
        assert a + fld.zero() == a
        assert a * fld.one() == a
        assert a + (-a) == fld.zero()
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c


def test_reducible_modulus_rejected():
    with pytest.raises(DomainError):
        FqField(2, 2, (0, 0, 1))  # x^2 = x * x
    with pytest.raises(DomainError):
        FqField(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2


def test_nonprime_p_rejected():
    with pytest.raises(DomainError):
        FqField(4, 1, (0, 1))


def test_parse_field_spec():
    fld = FqField(*split_field_spec("2,2,[1,1,1]"))
    assert fld == field_for(4)
    with pytest.raises(DomainError):
        split_field_spec("2,2")


def test_enumeration_order_contract():
    # least-significant coefficient first: index i has coeffs (i%p, (i//p)%p, ...)
    f9 = field_for(9)
    assert f9.elem(5).coeffs == (2, 1)
    for i in range(9):
        assert f9.elem(i).index == i


def test_trace_f4():
    # Tr(x) = x + x^2 over F_4: Tr(0)=0, Tr(1)=0, Tr(x)=1, Tr(x+1)=1
    f4 = field_for(4)
    traces = [f4.trace_idx(i) for i in range(4)]
    assert traces == [0, 0, 1, 1]
