"""Folding onto the fundamental domains of translation and of dilation.

Translation: the fundamental domain is [-1, 1) in pi units and the lattice
is the even integers.  per_multiplicity counts, exactly and piecewise, how
many points of a bounded interval set are congruent to each residue;
layered_partition peels the set into layers K_1..K_p that are each injective
modulo the lattice, assigning congruent representatives to layers in
ascending position order (deterministic).

Dilation: the annulus A = {r <= |xi| < |a| r} is a fundamental domain of
xi -> a xi for either sign of a (an odd power of a negative a swaps the two
sides).  fold_dilation cuts A into cells and lists, per cell and per set,
the scales j with a^j cell inside the set, so it sees the whole orbit of
every xi != 0.  All three run on the one endpoint sweep `intervals._overlay`,
on integers: a set's chunks and layers on its grid, the dilation cuts on one
grid that holds them all.  Fractions are only read out: the `cells` of a
FoldedMultiplicity and the residue cell that `_repeated_residue` names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Sequence, Tuple

from .intervals import IntervalSet, _merged, _overlay, _regrid


def window(k: int) -> IntervalSet:
    """The translated fundamental window [2k - 1, 2k + 1)."""
    return IntervalSet(1, ((2 * k - 1, 2 * k + 1),))


def _windows(lo, hi, den: int = 1) -> range:
    """The k whose window [2k - 1, 2k + 1) meets the nonempty [lo, hi) / den."""
    return range((lo + den) // (2 * den), -((-den - hi) // (2 * den)))


def _shifts(p: int, q: int, lo: int, hi: int, den: int) -> range:
    """The k with lo <= (p / q + 2k) den < hi, for q, den > 0: -floor((p / q
    - e / den) / 2) for e = lo, hi, over one integer denominator."""
    pd, w = p * den, 2 * den * q
    return range(-((pd - lo * q) // w), -((pd - hi * q) // w))


def _chunk(lo: int, hi: int, k: int, den: int) -> Tuple[int, int, int]:
    """The part of [lo, hi) / den in the window [2k - 1, 2k + 1), moved by -2k."""
    c = 2 * k * den
    return (max(lo, c - den) - c, min(hi, c + den) - c, k)


def fold_chunks(K: IntervalSet) -> List[Tuple[int, int, int]]:
    """Split K at odd integers and map each chunk into [-1, 1) by an even
    translation; returns (residue_lo, residue_hi, k) on K's grid X / K.den,
    with chunk = cell + 2k."""
    return sorted(_chunk(lo, hi, k, K.den) for lo, hi in K.cells for k in _windows(lo, hi, K.den))


@dataclass(frozen=True)
class FoldedMultiplicity:
    """Integer multiplicity on [-1, 1): `grid` cells (LO, HI, count != 0) of
    [LO / den, HI / den) over the least den, read out by `cells`."""

    den: int
    grid: Tuple[Tuple[int, int, int], ...]

    @cached_property
    def cells(self) -> Tuple[Tuple[Fraction, Fraction, int], ...]:
        return tuple((Fraction(lo, self.den), Fraction(hi, self.den), c)
                     for lo, hi, c in self.grid)

    def max_value(self) -> int:
        return max((c for _, _, c in self.grid), default=0)

    def integral(self) -> Fraction:
        return Fraction(sum(c * (hi - lo) for lo, hi, c in self.grid), self.den)


def per_multiplicity(K: IntervalSet) -> FoldedMultiplicity:
    """Exact periodization multiplicity of chi_K on the fundamental domain.
    A piece adds its first and last chunks and, weighted by their count, the
    full windows between them, so its length costs nothing."""
    den = K.den
    pairs, weights = [], []
    for lo, hi in K.cells:
        ks = _windows(lo, hi, den)
        for k in {ks[0], ks[-1]}:
            pairs.append(_chunk(lo, hi, k, den)[:2])
            weights.append(1)
        if len(ks) > 2:
            pairs.append((-den, den))
            weights.append(len(ks) - 2)
    cells = _overlay(pairs, weights)
    g = math.gcd(den, *(x for cell in cells for x in cell[:2]))
    return FoldedMultiplicity(den // g, tuple((lo // g, hi // g, c) for lo, hi, c in cells))


def _repeated_residue(K: IntervalSet):
    """The first residue cell (lo, hi, multiplicity) that K meets at least
    twice mod 2, or None when K is injective mod 2 (at once when its hull is
    no longer than 2: two of its points then differ by less than 2)."""
    if not K.cells or K.cells[-1][1] - K.cells[0][0] <= 2 * K.den:
        return None
    m = per_multiplicity(K)
    return next(((Fraction(lo, m.den), Fraction(hi, m.den), c)
                 for lo, hi, c in m.grid if c >= 2), None)


def layered_partition(K: IntervalSet) -> List[IntervalSet]:
    """Partition K into layers K_1..K_p, pairwise disjoint with union K, each
    injective mod 2pi, K_i congruent to {multiplicity >= i} up to measure 0.
    The chunks of one window k are disjoint, so weighted by the bit of k
    their overlay lists the windows over each cell; the i-th goes to K_i."""
    den = K.den
    chunks = fold_chunks(K)
    ks = sorted({k for _, _, k in chunks})
    bits = {k: 1 << n for n, k in enumerate(ks)}
    layers: list[list[tuple[int, int]]] = []
    for lo, hi, mask in _overlay([c[:2] for c in chunks], [bits[c[2]] for c in chunks]):
        covering = [k for n, k in enumerate(ks) if mask >> n & 1]
        layers.extend([] for _ in range(len(covering) - len(layers)))
        for layer, k in zip(layers, covering):
            layer.append((lo + 2 * k * den, hi + 2 * k * den))
    return [_merged(den, cells) for cells in layers]


# -- dilation ------------------------------------------------------------------

# The lowest scale listed.  With r the least nonzero |endpoint|, the shells
# a^j A, j <= -1, lie in (-r, r), where each set is constant on each side of
# 0: below -1 the scales of a cell repeat with period 2 (1 for a > 0), and
# two periods suffice to read the least gap between two scale lists.
DILATION_FLOOR = -4


def fold_dilation(sets: Sequence[IntervalSet], a: int
                  ) -> Tuple[int, int, List[Tuple[int, int, tuple]]]:
    """(den, r, cells) on the grid x = X / den: cells (lo, hi, scales)
    partition the annulus A = {r <= |xi| den < |a| r}, negative side first,
    r / den the least nonzero |endpoint| of the sets (1 if none); scales[i]
    lists the j >= DILATION_FLOOR with a^j [lo, hi) / den inside sets[i],
    up to measure zero.  Each piece is cut at the shells a^j A it meets,
    from DILATION_FLOOR up when it reaches 0, and each cut is mapped back by
    a^-j onto the sets' grid refined by |a|^(J - DILATION_FLOOR), J >= 0 the
    highest scale cut; one sweep overlays the cuts, each weighted by the bit
    of its (i, j), on A itself, weighted 1, which keeps the cells with no scale."""
    m = abs(a)
    lift = m ** -DILATION_FLOOR
    base, grids = _regrid(sets)
    ends = [abs(x) * lift for cells in grids for cell in cells for x in cell]
    r = min((x for x in ends if x), default=base * lift)
    top, shell = 0, r
    while m * shell < max(ends, default=0):
        top, shell = top + 1, m * shell
    bits: dict[Tuple[int, int], int] = {}
    pairs, weights = [(-m * shell, -shell), (shell, m * shell)], [1, 1]
    for i, cells in enumerate(grids):
        for lo, hi in cells:
            lo, hi = lo * lift, hi * lift
            # the piece's part on each side of 0, as |xi| in [inner, outer)
            for left, inner, outer in ((True, max(-hi, 0), -lo), (False, max(lo, 0), hi)):
                j, shell = (0, r) if inner else (DILATION_FLOOR, r // lift)
                while m * shell <= inner:  # shell j: shell <= |xi| < m*shell
                    j, shell = j + 1, m * shell
                while shell < outer:
                    f = m ** (top - j)  # a^-j maps shell j onto A, scaled by m^top
                    cut = (max(inner, shell) * f, min(outer, m * shell) * f)
                    pairs.append((-cut[1], -cut[0]) if left != (a < 0 and j % 2 == 1) else cut)
                    weights.append(2 << bits.setdefault((i, j), len(bits)))
                    j, shell = j + 1, m * shell
    cells = []
    for lo, hi, mask in _overlay(pairs, weights):
        scales = [[] for _ in sets]
        for (i, j), bit in bits.items():
            if mask >> (bit + 1) & 1:
                scales[i].append(j)
        cells.append((lo, hi, tuple(tuple(sorted(js)) for js in scales)))
    return base * lift * m ** top, r * m ** top, cells
