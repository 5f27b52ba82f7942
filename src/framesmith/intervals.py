"""Canonical finite unions of half-open rational intervals, on one integer grid.

An IntervalSet is a union of disjoint pieces [l, r) (in pi units) stored as
its integer form: `cells` (LO, HI) for the pieces [LO / den, HI / den),
sorted, nonempty and not touching, den the least denominator of the ends.
Equal sets have one form, which equality and hash compare.  The constructor
takes such cells over any den and reduces it; `parse`, the one way in from
rational pairs (for `of` and the family loader), sorts and merges them on
integers, as `_merged` does for producers whose cells overlap or touch.
Intersection and difference run on the one endpoint sweep `_overlay` (self
weighted 1, the other set 2) over the sets re-gridded by `_regrid` onto the
lcm of their denominators; `translate` and `scale` (which reverses the cells
for c < 0) move the ends.  Boundary points follow the half-open convention.
`pieces`, the Fraction read-out, is built on demand for output and oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Iterable, List, Sequence, Tuple

from .rationals import as_fraction


@dataclass(init=False, repr=False, unsafe_hash=True)
class IntervalSet:
    """The union of the cells [LO / den, HI / den), in canonical form."""

    den: int
    cells: Tuple[Tuple[int, int], ...]

    def __init__(self, den: int = 1, cells: Iterable[Tuple[int, int]] = ()):
        """The set of `cells` over den > 0, canonical but for den."""
        cells = tuple(cells)
        g = math.gcd(den, *(x for cell in cells for x in cell)) if den != 1 else 1
        if g != 1:
            den //= g
            cells = tuple((lo // g, hi // g) for lo, hi in cells)
        self.den, self.cells = den, cells

    @classmethod
    def parse(cls, pairs: Iterable[Sequence[Tuple[int, int]]]) -> "IntervalSet":
        """The canonical set of (lo, hi) pairs of (numerator, denominator > 0) pairs."""
        pairs = list(pairs)
        den = math.lcm(*(d for pair in pairs for _, d in pair))
        return _merged(den, [(ln * (den // ld), hn * (den // hd))
                             for (ln, ld), (hn, hd) in pairs])

    @staticmethod
    def of(*pairs) -> "IntervalSet":
        """Build from (lo, hi) pairs given as ints/Fractions/ratio strings."""
        return IntervalSet.parse([(q.numerator, q.denominator) for q in map(as_fraction, pair)]
                                 for pair in pairs)

    @cached_property
    def pieces(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        """The cells as (lo, hi) Fractions, built on demand."""
        den = self.den
        return tuple((Fraction(lo, den), Fraction(hi, den)) for lo, hi in self.cells)

    def __bool__(self) -> bool:
        return bool(self.cells)

    def measure(self) -> Fraction:
        return Fraction(sum(hi - lo for lo, hi in self.cells), self.den)

    def hull(self) -> Tuple[Fraction, Fraction]:
        lo, hi = (self.cells[0][0], self.cells[-1][1]) if self.cells else (0, 0)
        return (Fraction(lo, self.den), Fraction(hi, self.den))

    def contains(self, x) -> bool:
        """lo <= x < hi iff LO <= floor(x den) < HI, compared on integers."""
        x = as_fraction(x)
        X = x.numerator * self.den // x.denominator
        return any(lo <= X < hi for lo, hi in self.cells)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return union_all([self, other])

    def _cover(self, other: "IntervalSet", value: int) -> "IntervalSet":
        """The cells of value `value` in the overlay of self and other (they
        never touch: touching cells of the overlay differ in value)."""
        den, (mine, theirs) = _regrid([self, other])
        cells = _overlay(mine + theirs, [1] * len(mine) + [2] * len(theirs))
        return IntervalSet(den, [(lo, hi) for lo, hi, v in cells if v == value])

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return self._cover(other, 3)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self._cover(other, 1)

    def translate(self, t) -> "IntervalSet":
        """S + t for t = n / d: over den d, ends X d + n den."""
        t = as_fraction(t)
        d, move = t.denominator, t.numerator * self.den
        return IntervalSet(self.den * d, [(lo * d + move, hi * d + move) for lo, hi in self.cells])

    def scale(self, c) -> "IntervalSet":
        """Image {c*x : x in S} for c = n / d: over den d, ends X n.  For c < 0
        the result keeps the [l, r) convention (measure-zero discrepancy)."""
        c = as_fraction(c)
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        n = c.numerator
        cells = self.cells if n > 0 else [(hi, lo) for lo, hi in reversed(self.cells)]
        return IntervalSet(self.den * c.denominator, [(lo * n, hi * n) for lo, hi in cells])

    def __repr__(self) -> str:
        body = " ".join(f"[{lo},{hi})" for lo, hi in self.pieces)
        return f"IntervalSet({body})" if body else "IntervalSet(empty)"


def _merged(den: int, cells: Iterable[Tuple[int, int]]) -> IntervalSet:
    """The set of integer cells over den in any order: overlaps and touches merge."""
    out: List[list] = []
    for lo, hi in sorted(cells):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        elif lo < hi:
            out.append([lo, hi])
    return IntervalSet(den, map(tuple, out))


def _regrid(sets: Sequence[IntervalSet]) -> Tuple[int, List[List[Tuple[int, int]]]]:
    """(den, cells): each set's cells on x = X / den, den the lcm of theirs."""
    den = math.lcm(*(s.den for s in sets))
    return den, [[(lo * (den // s.den), hi * (den // s.den)) for lo, hi in s.cells]
                 for s in sets]


def union_all(sets: Sequence[IntervalSet]) -> IntervalSet:
    den, cells = _regrid(sets)
    return _merged(den, (cell for grid in cells for cell in grid))


def _overlay(pairs: Iterable[Tuple[int, int]], weights: Iterable[int] | None = None
             ) -> List[Tuple[int, int, int]]:
    """(lo, hi, value) cells, value != 0, of a family of nonempty [lo, hi)
    intervals with integer ends: one sweep over their distinct ends.  The
    value of a cell is the sum of the weights of the intervals covering
    it, so with the default weight 1 it is the multiplicity, and with
    distinct powers of 2 on intervals that may overlap it is the bitmask of
    those covering it.  Touching cells of one value are merged."""
    deltas: dict[int, int] = {}
    for (lo, hi), w in zip(pairs, repeat(1) if weights is None else weights):
        deltas[lo] = deltas.get(lo, 0) + w
        deltas[hi] = deltas.get(hi, 0) - w
    out: List[Tuple[int, int, int]] = []
    count = prev = 0
    for x in sorted(deltas):
        if count:
            if out and out[-1][2] == count and out[-1][1] == prev:
                out[-1] = (out[-1][0], x, count)
            else:
                out.append((prev, x, count))
        count += deltas[x]
        prev = x
    return out
