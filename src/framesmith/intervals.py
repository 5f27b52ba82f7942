"""Canonical finite unions of half-open rational intervals.

An IntervalSet is a sorted tuple of pairwise disjoint pieces [l, r) with
rational endpoints (in pi units).  Adjacent pieces are merged, so equal sets
have identical representations and byte-identical serializations.  All set
algebra is exact; boundary points follow the half-open convention, so
partitions have no double counting.  Intersection and difference run on the
one endpoint sweep `_overlay`, with self weighted 1 and the other set 2.
Those two, `translate` and `scale` (which reverses the pieces for c < 0)
keep the canonical form and build through `_trusted`; the constructor and
`of` canonicalize what they are given.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence, Tuple

from .rationals import as_fraction, common_denominator


def _canonicalize(pairs: Iterable[Tuple[Fraction, Fraction]]) -> Tuple[Tuple[Fraction, Fraction], ...]:
    pieces = sorted((lo, hi) for lo, hi in pairs if lo < hi)
    merged: list[list[Fraction]] = []
    for lo, hi in pieces:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint half-open intervals [l, r), canonical form."""

    pieces: Tuple[Tuple[Fraction, Fraction], ...] = ()

    @staticmethod
    def of(*pairs) -> "IntervalSet":
        """Build from (lo, hi) pairs given as ints/Fractions/ratio strings."""
        return IntervalSet(_canonicalize(
            (as_fraction(lo), as_fraction(hi)) for lo, hi in pairs))

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet()

    def __post_init__(self):
        object.__setattr__(self, "pieces", _canonicalize(self.pieces))

    @classmethod
    def _trusted(cls, pieces: Tuple[Tuple[Fraction, Fraction], ...]) -> "IntervalSet":
        """The set of `pieces` taken as given: the constructor of the
        internal producers whose output is canonical already (sorted,
        nonempty pieces of Fractions that neither overlap nor touch)."""
        s = object.__new__(cls)
        object.__setattr__(s, "pieces", pieces)
        return s

    def __bool__(self) -> bool:
        return bool(self.pieces)

    def __iter__(self) -> Iterator[Tuple[Fraction, Fraction]]:
        return iter(self.pieces)

    def is_empty(self) -> bool:
        return not self.pieces

    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.pieces), Fraction(0))

    def hull(self) -> Tuple[Fraction, Fraction]:
        if not self.pieces:
            return (Fraction(0), Fraction(0))
        return (self.pieces[0][0], self.pieces[-1][1])

    def contains(self, x) -> bool:
        x = as_fraction(x)
        for lo, hi in self.pieces:
            if lo <= x < hi:
                return True
            if lo > x:
                break
        return False

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.pieces + other.pieces)

    def _cover(self, other: "IntervalSet", value: int) -> "IntervalSet":
        """The cells of value `value` in the overlay of self and other
        (touching cells of the overlay differ in value, so they never
        touch)."""
        cells = _overlay(self.pieces + other.pieces,
                         [1] * len(self.pieces) + [2] * len(other.pieces))
        return IntervalSet._trusted(tuple((lo, hi) for lo, hi, v in cells if v == value))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return self._cover(other, 3)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self._cover(other, 1)

    def translate(self, t) -> "IntervalSet":
        t = as_fraction(t)
        return IntervalSet._trusted(tuple((lo + t, hi + t) for lo, hi in self.pieces))

    def scale(self, c) -> "IntervalSet":
        """Image {c*x : x in S}.  For c < 0 the half-open boundary flips;
        the result keeps the [l, r) convention (measure-zero discrepancy)."""
        c = as_fraction(c)
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        if c > 0:
            return IntervalSet._trusted(tuple((lo * c, hi * c) for lo, hi in self.pieces))
        return IntervalSet._trusted(tuple((hi * c, lo * c)
                                          for lo, hi in reversed(self.pieces)))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self.pieces == other.pieces

    def __hash__(self) -> int:
        return hash(self.pieces)

    def __repr__(self) -> str:
        body = " ".join(f"[{lo},{hi})" for lo, hi in self.pieces)
        return f"IntervalSet({body})" if body else "IntervalSet(empty)"


def union_all(sets: Sequence[IntervalSet]) -> IntervalSet:
    pieces: list[Tuple[Fraction, Fraction]] = []
    for s in sets:
        pieces.extend(s.pieces)
    return IntervalSet(tuple(pieces))


def _overlay(pairs: Iterable[Tuple[Fraction, Fraction]],
             weights: Iterable[int] | None = None
             ) -> list[Tuple[Fraction, Fraction, int]]:
    """(lo, hi, value) cells, value != 0, of a family of nonempty [lo, hi)
    intervals: exact sweep over their endpoints.  The value of a cell is the
    sum of the weights of the intervals covering it, so with the default
    weight 1 it is the multiplicity, and with distinct powers of 2 on
    intervals that may overlap it is the bitmask of those covering it.
    The sweep sorts and compares the endpoints as integers over their
    common denominator; the sort is stable, so tied endpoints keep their
    order, and the cells hold the endpoints as given."""
    events: list[Tuple[Fraction, int]] = []
    for (lo, hi), w in zip(pairs, repeat(1) if weights is None else weights):
        events.append((lo, w))
        events.append((hi, -w))
    den = common_denominator(x for x, _ in events)
    keyed = sorted(((x.numerator * (den // x.denominator), x, delta) for x, delta in events),
                   key=itemgetter(0))
    out: list[Tuple[Fraction, Fraction, int]] = []
    count = 0
    prev = prev_key = end_key = None   # end_key: the key of out[-1]'s hi
    for key, x, delta in keyed:
        if count and key > prev_key:
            if out and out[-1][2] == count and end_key == prev_key:
                out[-1] = (out[-1][0], x, count)
            else:
                out.append((prev, x, count))
            end_key = key
        count += delta
        prev, prev_key = x, key
    return out
