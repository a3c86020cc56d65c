"""tables.transport against a per-entry oracle, and the move caches.

The oracle decodes every destination index, classifies each label and sums
the fiber explicitly; transport plans each distinct move once and reuses the
plan.  Both must agree exactly on every split of a small label set into
shared, summed, sliced, zeroed and pulled-back labels, in any digit order,
on the call that builds the plan and on a later call that reuses it.  The
caches of slot labels and splits are checked here too: they key by value,
and every check of a move still runs once its plan is kept.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from fqharmonic import tables
from fqharmonic.c1 import C1Fn, C1Model, Window, WindowError, laurent_model, lattice_model, positions, window_move
from fqharmonic.c1_triples import direct_sum_triple
from fqharmonic.c2 import BiWindow, C2Model, E2Fn, box_model, positions2
from fqharmonic.c2_triples import outer_cut_triple
from fqharmonic.exactnum import CycNum, DomainError, field_for
from fqharmonic.tables import Rows, decode, encode

ROLES = ("shared", "summed", "sliced", "zeroed", "pulled")


def slow_transport(table, q, src_pos, dst_pos, summed=(), zeroed=()):
    p = table[0].prime
    fiber = [pos for pos in src_pos if pos not in dst_pos and pos in summed]
    out = []
    for idx in range(q ** len(dst_pos)):
        digit = dict(zip(dst_pos, decode(idx, q, len(dst_pos))))
        if any(digit[pos] for pos in dst_pos if pos not in src_pos and pos in zeroed):
            out.append(CycNum.zero(p))
            continue
        acc = CycNum.zero(p)
        for combo in itertools.product(range(q), repeat=len(fiber)):
            free = dict(zip(fiber, combo))
            # shared labels keep their digit, sliced ones read 0
            digits = [digit[pos] if pos in digit else free.get(pos, 0) for pos in src_pos]
            acc = acc + table[encode(digits, q)]
        out.append(acc)
    return tuple(out)


def rand_table(rng, q, dim):
    """Zero, rational-only and general entries with denominators 1..6, so fiber
    sums meet a common denominator and rows of zeros."""
    p = field_for(q).p

    def coeff():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 6))

    def general():
        return CycNum(p, tuple(coeff() for _ in range(p - 1)))

    # half the entries are general, a quarter zero, a quarter rational
    kinds = (lambda: CycNum.zero(p), lambda: CycNum.from_rational(p, coeff()), general, general)
    return tuple(rng.choice(kinds)() for _ in range(q**dim))


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("extra", [False, True])
def test_transport_matches_oracle_on_every_split(q, n, extra):
    rng = random.Random(1000 * q + 10 * n + extra)
    for roles in itertools.product(ROLES, repeat=n):
        labels = {role: [(r, k) for k, r in enumerate(roles) if r == role] for role in ROLES}
        src = labels["shared"] + labels["summed"] + labels["sliced"]
        dst = labels["shared"] + labels["zeroed"] + labels["pulled"]
        rng.shuffle(src)
        rng.shuffle(dst)
        summed, zeroed = labels["summed"], labels["zeroed"]
        if extra:
            # summed only acts on source-only labels, zeroed on destination-only ones
            summed = summed + labels["shared"] + labels["zeroed"] + labels["pulled"]
            zeroed = zeroed + labels["shared"] + labels["summed"] + labels["sliced"]
        # the second call reuses the plan of the first, on a new table
        for call in range(2):
            hits = tables._cached_plan.cache_info().hits
            table = rand_table(rng, q, len(src))
            got = tables.transport(Rows.of(table, field_for(q).p), q, src, dst, summed, zeroed)
            assert tuple(got) == slow_transport(table, q, src, dst, summed, zeroed), (roles, call)
            assert len(got) == q ** len(dst)
            if call:
                assert tables._cached_plan.cache_info().hits == hits + 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_expand_contract_apply_perm_match_oracle(q):
    rng = random.Random(q)
    for old_dim in range(4):
        table = rand_table(rng, q, old_dim)
        rows = Rows.of(table, field_for(q).p)
        for new_dim in range(old_dim, 4):
            embed = rng.sample(range(new_dim), old_dim)
            for mode, zeroed in (("zero", range(new_dim)), ("pullback", ())):
                expect = slow_transport(table, q, embed, list(range(new_dim)), (), zeroed)
                assert tuple(tables.expand(rows, q, new_dim, embed, mode)) == expect
        for k in range(old_dim + 1):
            keep = rng.sample(range(old_dim), k)
            for mode, summed in (("slice", ()), ("sum", range(old_dim))):
                expect = slow_transport(table, q, list(range(old_dim)), keep, summed, ())
                assert tuple(tables.contract(rows, q, old_dim, keep, mode)) == expect
        perm = rng.sample(range(old_dim), old_dim)
        permuted = tables.apply_perm(rows, q, perm)
        assert tuple(permuted) == slow_transport(table, q, list(range(old_dim)), perm)
        for idx in range(len(table)):
            digs = decode(idx, q, old_dim)
            assert permuted[encode([digs[perm[j]] for j in range(old_dim)], q)] == table[idx]


def test_transport_rejects_a_table_of_the_wrong_size():
    one = CycNum.one(2)
    with pytest.raises(DomainError):
        tables.transport((one,) * 4, 2, ["a"], ["a"])


# ---------------------------------------------------------------------------
# the move caches
# ---------------------------------------------------------------------------

F2 = field_for(2)


def test_positions_are_kept_by_model_value():
    w, bw = Window(-2, 2), BiWindow(-2, 2, -1, 2)
    a = C1Model(F2, ((None, 0), (-1, None)), "a")
    b = C1Model(F2, ((None, 0), (-1, None)), "b")
    other = C1Model(F2, ((None, 1), (-1, None)), "a")
    assert a is not b and a == b and a.label != b.label
    assert positions(a, w) == positions(b, w) == positions.__wrapped__(b, w)
    assert positions(other, w) != positions(a, w)
    assert positions(other, w) == positions.__wrapped__(other, w)
    m = box_model(F2, -1, 1, None, 0, "m")
    n = C2Model(F2, ((-1, 1, None, 0),), "n")
    wider = box_model(F2, -1, 2, None, 0, "m")
    assert m is not n and m == n
    assert positions2(m, bw) == positions2(n, bw) == positions2.__wrapped__(n, bw)
    assert positions2(wider, bw) != positions2(m, bw)
    assert positions2(wider, bw) == positions2.__wrapped__(wider, bw)


def test_a_kept_plan_still_checks_the_table_size():
    one = CycNum.one(2)
    src, dst = ["a", "b"], ["b", "c"]
    tables.transport(Rows.of((one,) * 4, 2), 2, src, dst)
    tables.transport(Rows.of((one,) * 4, 2), 2, src, dst)
    assert tables._cached_plan.cache_info().hits > 0
    with pytest.raises(DomainError):
        tables.transport(Rows.of((one,) * 8, 2), 2, src, dst)
    # the size check comes before the table's rows are read
    with pytest.raises(DomainError):
        tables.transport((one,) * 2, 2, src, dst)


def test_a_refused_move_is_refused_again_after_the_legal_reverse_is_kept():
    K = laurent_model(F2)
    small, big = Window(-1, 1), Window(-2, 2)
    # a compactly supported function moves its lower edge down and its upper edge up
    g = C1Fn(K, "D", big, (CycNum.one(2),) * 16)
    f = C1Fn(K, "D", small, (CycNum.one(2),) * 4)
    for _ in range(2):
        with pytest.raises(WindowError):
            g.at(small)
    assert f.at(big).at(big).window == big  # the legal move, planned and kept
    for _ in range(2):
        with pytest.raises(WindowError):
            g.at(small)
        with pytest.raises(WindowError):
            window_move(g.dirs, big, small, positions(K, big), positions(K, small))
    # a germ on a bi-window moves every edge down only
    M = box_model(F2, -2, 2, -2, 2)
    inner, outer = BiWindow(0, 1, 0, 1), BiWindow(-1, 1, -1, 1)
    germ = E2Fn(M, "E2", inner, (CycNum.one(2),) * 2)
    wide = germ.at(outer)
    for _ in range(2):
        with pytest.raises(WindowError):
            wide.at(inner)
        assert germ.at(outer).table == wide.table


def test_kept_splits_and_plans_are_tuples():
    T = direct_sum_triple(lattice_model(F2, 0), laurent_model(F2))
    w = Window(-1, 1)
    split = T.split(w)
    # kept by value: an equal triple built apart gets the same split object
    assert direct_sum_triple(lattice_model(F2, 0), laurent_model(F2), "other").split(w) is split
    assert isinstance(split, tuple) and all(isinstance(part, tuple) for part in split)
    T2 = outer_cut_triple(box_model(F2, -2, 2, -2, 2), 0)
    bw = BiWindow(-1, 1, -1, 1)
    split2 = T2.split(bw)
    assert outer_cut_triple(box_model(F2, -2, 2, -2, 2), 0, "other").split(bw) is split2
    assert isinstance(split2, tuple) and all(isinstance(part, tuple) for part in split2)
    plan = tables._cached_plan(tables._transport_plan, 2, (0, 1, 2), (2, 0), (1,), ())
    assert plan.fibers and all(isinstance(f, tuple) for f in plan.fibers)
    assert isinstance(plan.fibers, tuple) and isinstance(plan.index, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.index = ()
