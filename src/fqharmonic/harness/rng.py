"""Deterministic 64-bit linear congruential generator.

Suites draw every random choice from this generator so that failures are
reproducible from the seed alone, across runs and across implementations.
The recurrence is

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64

and each draw returns the top 32 bits of the new state.  ``fraction`` picks
from a fixed 6 x 3 grid of rationals, and ``cyc_coeffs`` draws all the
coefficients of a cyclotomic number in one call, with the same stream as
drawing them one at a time.  ``coeff_rows`` draws a whole table of such
numbers straight into integer rows over the denominator 6, which every grid
value divides, with the same stream as one ``cyc_coeffs`` call per entry.
"""

from __future__ import annotations

from fractions import Fraction

_MUL = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1

# fraction() draws a numerator from (1, 2, 3, -1, -2, 5), then a denominator from (1, 2, 3)
_FRACTIONS = tuple(tuple(Fraction(num, den) for den in (1, 2, 3)) for num in (1, 2, 3, -1, -2, 5))
_ZERO = Fraction(0)
# 6 * fraction(): every grid denominator divides 6
_SIXTHS = tuple(tuple(6 * num // den for den in (1, 2, 3)) for num in (1, 2, 3, -1, -2, 5))


class LCG:
    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u32(self) -> int:
        self.state = (_MUL * self.state + _INC) & _MASK
        return self.state >> 32

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u32() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def fraction(self) -> Fraction:
        """Small nonzero rational for measure values and coefficients."""
        row = _FRACTIONS[self.next_u32() % 6]
        return row[self.next_u32() % 3]

    def cyc_coeffs(self, n: int) -> tuple[Fraction, ...]:
        """n power-basis coefficients of a random cyclotomic number.

        Each coefficient is 0 when randint(0, 3) draws 0 and fraction()
        otherwise; the recurrence runs inline on a local copy of the state,
        so the draws and the final state are those of that loop.
        """
        s = self.state
        out = []
        for _ in range(n):
            s = (_MUL * s + _INC) & _MASK
            if (s >> 32) % 4:
                s = (_MUL * s + _INC) & _MASK
                row = _FRACTIONS[(s >> 32) % 6]
                s = (_MUL * s + _INC) & _MASK
                out.append(row[(s >> 32) % 3])
            else:
                out.append(_ZERO)
        self.state = s
        return tuple(out)

    def coeff_rows(self, n: int, width: int) -> list[list[int]]:
        """6 times the coefficients of n random cyclotomic numbers, as rows.

        rows[k][i] is 6 times coefficient k of entry i; entry i draws its
        width coefficients in order exactly as ``cyc_coeffs(width)`` does, so
        the draws and the final state are those of n such calls.
        """
        s = self.state
        rows = [[0] * n for _ in range(width)]
        for i in range(n):
            for row in rows:
                s = (_MUL * s + _INC) & _MASK
                if (s >> 32) % 4:
                    s = (_MUL * s + _INC) & _MASK
                    grid = _SIXTHS[(s >> 32) % 6]
                    s = (_MUL * s + _INC) & _MASK
                    row[i] = grid[(s >> 32) % 3]
        self.state = s
        return rows
