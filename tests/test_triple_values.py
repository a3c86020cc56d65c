"""Triples are values: cells of slot flags, structural equality, shared splits.

The reference below is the earlier encoding of a one-dimensional triple: a
predicate is_sub(k, s) on the slots of the middle model, built by each
constructor as a closure over its parts' predicates.  Every constructor's
cells must give the splits that the reference predicate gives.
"""

from fractions import Fraction

import pytest

from fqharmonic import tables
from fqharmonic.c1 import (
    C1Fn,
    HaarMeasure,
    Window,
    colattice_model,
    dual_model,
    fourier1,
    lattice_model,
    laurent_model,
    positions,
    segment_model,
)
from fqharmonic.c1_triples import (
    TripleC1,
    base_change,
    compose_epi,
    compose_mono,
    direct_sum_triple,
    dual_triple,
    interval_triple,
    split_flags,
    triple_split,
)
from fqharmonic.c2 import BiWindow, C2Model, E2Fn, box_model, dual_model2, fourier2, k2_model, positions2
from fqharmonic.c2_triples import GradedC2Triple, dual_triple2, inner_cut_triple, outer_cut_triple
from fqharmonic.exactnum import DomainError, field_for

WINDOWS = [Window(a, b) for a in range(-4, 5) for b in range(a, 5)]


# -- the reference: slot predicates chained through closures


def ref_leading(sub):
    return lambda k, s: s < sub.mult(k)


def ref_dual(pred, mid):
    """Dual slot s at cut k pairs with primal slot mid.mult(-k-1) - 1 - s."""
    return lambda k, s: not pred(-k - 1, mid.mult(-k - 1) - 1 - s)


def ref_slot_within(pred, k, s, value):
    """Index of slot (k, s) within the slots of the same truth value at cut k."""
    return sum(1 for s2 in range(s) if pred(k, s2) == value)


def ref_nth_slot(pred, mid, k, j, value):
    cnt = 0
    for s in range(mid.mult(k)):
        if pred(k, s) == value:
            if cnt == j:
                return s
            cnt += 1
    raise DomainError("slot index out of range")


def ref_epi(inner, outer):
    def pred(k, s):
        if outer(k, s):
            return True
        return inner(k, ref_slot_within(outer, k, s, False))

    return pred


def ref_mono(inner, outer):
    def pred(k, s):
        if not outer(k, s):
            return False
        return inner(k, ref_slot_within(outer, k, s, True))

    return pred


def ref_base_change(pred, pred_g, mid):
    in_x = ref_epi(pred_g, pred)

    def fiber(k, s):
        return pred(k, ref_nth_slot(in_x, mid, k, s, True))

    return fiber, in_x


def ref_split(pred, mid, w):
    return split_flags([pred(k, s) for k, s in positions(mid, w)])


def _family(field):
    """(triple, reference predicate) for every constructor, nested ones too."""
    K = laurent_model(field)
    out = []
    for c in (-1, 0, 1):
        O, Q, S = lattice_model(field, c), colattice_model(field, c), segment_model(field, c, c + 2)
        for sub in (O, Q, S):
            out.append((interval_triple(K, sub), ref_leading(sub)))
        out.append((interval_triple(O, segment_model(field, c - 2, c)), ref_leading(segment_model(field, c - 2, c))))
        for a, b in ((O, K), (S, Q), (K, K), (Q, O)):
            out.append((direct_sum_triple(a, b), ref_leading(a)))
    for c1 in (-1, 0, 1):
        for c2 in (-1, 0, 1):
            T1, r1 = interval_triple(K, lattice_model(field, c1)), ref_leading(lattice_model(field, c1))
            L = lattice_model(field, c2)
            Tb, rb = direct_sum_triple(L, K), ref_leading(L)
            Tc, rc = compose_epi(T1, Tb), ref_epi(r1, rb)
            out.append((Tc, rc))
            # an epi onto a composite, a mono into one and the duals
            L2 = segment_model(field, c2, c2 + 1)
            Tb2 = direct_sum_triple(L2, Tc.mid)
            out.append((compose_epi(Tc, Tb2), ref_epi(rc, ref_leading(L2))))
            Tm2 = direct_sum_triple(Tc.mid, colattice_model(field, c2))
            out.append((compose_mono(Tc, Tm2), ref_mono(rc, ref_leading(Tc.mid))))
            out.append((dual_triple(Tc), ref_dual(rc, Tc.mid)))
            Lp = colattice_model(field, c2)
            T2, r2 = direct_sum_triple(K, Lp), ref_leading(K)
            Tcm, rcm = compose_mono(T1, T2), ref_mono(r1, r2)
            out.append((Tcm, rcm))
            out.append((compose_mono(dual_triple(T1), direct_sum_triple(dual_triple(T1).mid, L)),
                        ref_mono(ref_dual(r1, T1.mid), ref_leading(dual_triple(T1).mid))))
            # both outputs of a base change, of a plain and of a composite triple
            for T, r in ((T1, r1), (Tc, rc)):
                D = segment_model(field, c1, c1 + 1 + (c2 + 1) % 2)
                Tg, rg = interval_triple(T.quot, D), ref_leading(D)
                (T_fiber, T_mono), (r_fiber, r_mono) = base_change(T, Tg), ref_base_change(r, rg, T.mid)
                out += [(T_fiber, r_fiber), (T_mono, r_mono), (dual_triple(T_mono), ref_dual(r_mono, T_mono.mid))]
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_cells_split_as_the_reference_predicates(q):
    family = _family(field_for(q))
    assert len(family) > 100
    for T, pred in family:
        for w in WINDOWS:
            assert T.split(w) == ref_split(pred, T.mid, w), (T.label, w)


@pytest.mark.parametrize("q", [2, 3])
def test_dual_triples_are_involutions(q):
    field = field_for(q)
    for T, _ in _family(field):
        back = dual_triple(dual_triple(T))
        assert back == T and hash(back) == hash(T)
    K2 = k2_model(field)
    box = box_model(field, -1, 2, None, 1)
    for T in (inner_cut_triple(K2, 0), outer_cut_triple(K2, 1), outer_cut_triple(box, 0), inner_cut_triple(box, -1)):
        back = dual_triple2(dual_triple2(T))
        assert back == T and hash(back) == hash(T)


@pytest.mark.parametrize("q", [2, 3])
def test_a_dual_window_lists_the_primal_positions_mirrored_in_reverse(q):
    # the one duality convention of both dimensions: a dual window lists its
    # slots as the primal ones mirrored, in reverse order, and a transform
    # reads primal position r back at dual position dim - 1 - r
    field = field_for(q)
    p, minus_one = field.p, field.neg_idx(1)

    def point_masses(dim):
        """(the point mass at e_r, the table of v -> conj psi(v_{dim-1-r})) for each r."""
        for r in range(dim):
            digits, expect = [0] * dim, [0] * dim
            digits[r], expect[dim - 1 - r] = 1, minus_one
            yield tables.point_kron(p, 1, q, digits), tuple(tables.psi_linear(field, dim, expect))

    singles = [laurent_model(field), lattice_model(field, 0), colattice_model(field, -1), segment_model(field, -1, 2)]
    for A in singles:
        for B in singles:
            T = direct_sum_triple(A, B)
            assert dual_triple(T) == direct_sum_triple(dual_model(B), dual_model(A))
            for w in (Window(-2, 1), Window(-1, 2)):
                pos, dual_pos = positions(T.mid, w), positions(dual_model(T.mid), w.dual())
                assert dual_pos == tuple((-k - 1, T.mid.mult(k) - 1 - s) for k, s in reversed(pos))
                for table, expect in point_masses(len(pos)):
                    out = fourier1(C1Fn(T.mid, "D", w, table), HaarMeasure(T.mid, w.lo, Fraction(1)))
                    assert (out.model, out.window) == (dual_model(T.mid), w.dual())
                    assert tuple(out.table) == expect, (T.label, w)
    # a box of every shape, two boxes side by side, and their transforms
    spans = ((None, None), (None, 0), (0, None), (-1, 1), (0, 2))
    regions = [C2Model(field, ((*a, *b),)) for a in spans for b in spans]
    regions += [C2Model(field, ((None, 0, *b), (0, None, *c))) for b in spans for c in spans]
    two_boxes = C2Model(field, ((None, 0, -1, 1), (0, None, 0, 2)))
    for model in regions:
        for bw in (BiWindow(-1, 1, -1, 1), BiWindow(-2, 1, 0, 2)):
            pos, dual_pos = positions2(model, bw), positions2(dual_model2(model), bw.dual())
            assert dual_pos == tuple((-a - 1, -b - 1) for a, b in reversed(pos)), (model, bw)
            if model in (two_boxes, k2_model(field), box_model(field, -1, 1, None, 0)):
                for table, expect in point_masses(len(pos)):
                    assert tuple(fourier2(E2Fn(model, "E2p", bw, table)).table) == expect, (model, bw)


def test_triples_differing_only_in_label_are_equal():
    F2 = field_for(2)
    K, O = laurent_model(F2), lattice_model(F2, 0)
    a, b = interval_triple(K, O, "a"), interval_triple(K, O, "b")
    assert a == b and hash(a) == hash(b) and a.label != b.label
    K2 = k2_model(F2)
    a2, b2 = inner_cut_triple(K2, 0, "a"), inner_cut_triple(K2, 0, "b")
    assert a2 == b2 and hash(a2) == hash(b2)
    assert a2 != inner_cut_triple(K2, 1) and a != interval_triple(K, lattice_model(F2, 1))
    # the same three models with another slot assignment are another triple
    T = direct_sum_triple(K, K)
    flipped = TripleC1(T.mid, K, K, ((None, (False, True)),))
    assert T != flipped and T.split(Window(0, 1)) == ((0,), (1,)) and flipped.split(Window(0, 1)) == ((1,), (0,))
    # cells split where the flags do not change give the same triple
    assert TripleC1(T.mid, K, K, ((None, (True, False)), (3, (True, False)))) == T


def test_repr_holds_no_address():
    F2 = field_for(2)
    K = laurent_model(F2)
    T = interval_triple(K, lattice_model(F2, 0))
    Tc = compose_epi(T, direct_sum_triple(lattice_model(F2, 1), K))
    for x in (T, dual_triple(T), Tc, *base_change(T, interval_triple(T.quot, segment_model(F2, 0, 1)))):
        assert "0x" not in repr(x)
    assert "0x" not in repr(inner_cut_triple(k2_model(F2), 0))


def test_inconsistent_triples_raise_domain_error():
    F2 = field_for(2)
    K, O, Q = laurent_model(F2), lattice_model(F2, 0), colattice_model(F2, 0)
    # every slot flagged sub, but the sub has no slot at or above 0
    T = TripleC1(K, O, Q, ((None, (True,)),))
    assert T.split(Window(-2, 0)) == ((0, 1), ())
    with pytest.raises(DomainError, match="inconsistent"):
        T.split(Window(-1, 1))
    # flags of the wrong length at a cut
    with pytest.raises(DomainError, match="inconsistent"):
        TripleC1(K, O, Q, ((None, (True, False)),)).split(Window(0, 1))
    for cells in ((), ((0, (True,)),), ((None, (True,)), (1, (False,)), (1, (True,))), ((None, ()), (None, ()))):
        with pytest.raises(DomainError, match="cells"):
            TripleC1(K, O, Q, cells)
    with pytest.raises(DomainError):
        GradedC2Triple(k2_model(F2), C2Model(F2, ((None, None, None, 0),)), C2Model(F2, ((None, None, 1, None),)))


def test_equal_triples_built_apart_share_their_splits():
    F3 = field_for(3)
    K = laurent_model(F3)
    w = Window(-2, 2)
    a = compose_epi(interval_triple(K, lattice_model(F3, 0)), direct_sum_triple(lattice_model(F3, 1), K), "a")
    b = compose_epi(interval_triple(K, lattice_model(F3, 0)), direct_sum_triple(lattice_model(F3, 1), K), "b")
    assert a is not b and a.split(w) is b.split(w) is triple_split(a, w)
