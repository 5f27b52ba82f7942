"""Folding into the fundamental domain [-pi, pi) and layered partitions.

The fundamental domain is [-1, 1) in pi units and the translation lattice is
the even integers.  per_multiplicity counts, exactly and piecewise,
how many points of a bounded interval set are congruent to each residue;
layered_partition peels the set into layers K_1..K_p that are each injective
modulo the lattice, assigning congruent representatives to layers in
ascending position order (deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .intervals import IntervalSet, _overlay
from .rationals import as_fraction

Chunk = Tuple[Fraction, Fraction, int]  # residue cell [lo, hi) carried by shift 2k


def _windows(lo: Fraction, hi: Fraction) -> range:
    """The k whose window [2k - 1, 2k + 1) meets the nonempty [lo, hi)."""
    return range((lo + 1) // 2, -((-1 - hi) // 2))


def _shifts(xi: Fraction, lo: Fraction, hi: Fraction) -> range:
    """The k with lo <= xi + 2k < hi."""
    n, d = xi.numerator, xi.denominator
    # -floor((xi - e) / 2) for e = lo, hi, over one integer denominator
    return range(-((n * lo.denominator - lo.numerator * d) // (2 * d * lo.denominator)),
                 -((n * hi.denominator - hi.numerator * d) // (2 * d * hi.denominator)))


def fold_chunks(K: IntervalSet) -> List[Chunk]:
    """Split K at odd integers and map each chunk into [-1, 1) by an even
    translation; returns (residue_lo, residue_hi, k) with chunk = cell + 2k."""
    out: List[Chunk] = []
    for lo, hi in K.pieces:
        for k in _windows(lo, hi):
            out.append((max(lo, Fraction(2 * k - 1)) - 2 * k,
                        min(hi, Fraction(2 * k + 1)) - 2 * k, k))
    out.sort()
    return out


@dataclass(frozen=True)
class FoldedMultiplicity:
    """Piecewise-constant integer multiplicity on [-1, 1); cells with count 0
    are omitted."""

    cells: Tuple[Tuple[Fraction, Fraction, int], ...]

    def max_value(self) -> int:
        return max((c for _, _, c in self.cells), default=0)

    def integral(self) -> Fraction:
        return sum((c * (hi - lo) for lo, hi, c in self.cells), Fraction(0))

    def value_at(self, x) -> int:
        x = as_fraction(x)
        for lo, hi, c in self.cells:
            if lo <= x < hi:
                return c
        return 0

    def level_set(self, i: int) -> IntervalSet:
        """{residues with multiplicity >= i} as an interval set."""
        return IntervalSet(tuple((lo, hi) for lo, hi, c in self.cells if c >= i))


def per_multiplicity(K: IntervalSet) -> FoldedMultiplicity:
    """Exact periodization multiplicity of chi_K on the fundamental domain."""
    return FoldedMultiplicity(tuple(_overlay((lo, hi) for lo, hi, _ in fold_chunks(K))))


def layered_partition(K: IntervalSet) -> List[IntervalSet]:
    """Partition K into layers K_1..K_p, pairwise disjoint with union K, each
    injective mod 2pi, K_i congruent to {multiplicity >= i} up to measure 0."""
    chunks = fold_chunks(K)
    if not chunks:
        return []
    boundaries = sorted({x for lo, hi, _ in chunks for x in (lo, hi)})
    layers: list[list[tuple[Fraction, Fraction]]] = []
    for clo, chi in zip(boundaries, boundaries[1:]):
        ks = sorted(k for lo, hi, k in chunks if lo <= clo and chi <= hi)
        for i, k in enumerate(ks):
            while len(layers) <= i:
                layers.append([])
            layers[i].append((clo + 2 * k, chi + 2 * k))
    return [IntervalSet(tuple(pieces)) for pieces in layers]
