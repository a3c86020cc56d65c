"""tables.transport against a per-entry oracle.

The oracle decodes every destination index, classifies each label and sums
the fiber explicitly; transport builds one index map per call.  Both must
agree exactly on every split of a small label set into shared, summed,
sliced, zeroed and pulled-back labels, in any digit order.
"""

import itertools
import random
from fractions import Fraction

import pytest

from fqharmonic import tables
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
        table = rand_table(rng, q, len(src))
        got = tables.transport(Rows.of(table, field_for(q).p), q, src, dst, summed, zeroed)
        assert tuple(got) == slow_transport(table, q, src, dst, summed, zeroed), roles
        assert len(got) == q ** len(dst)


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
