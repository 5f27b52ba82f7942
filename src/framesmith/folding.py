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
every xi != 0.  per_multiplicity, layered_partition and fold_dilation all
run on the one endpoint sweep `intervals._overlay`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .intervals import IntervalSet, _overlay
from .rationals import as_fraction

Chunk = Tuple[Fraction, Fraction, int]  # residue cell [lo, hi) carried by shift 2k


def window(k: int) -> IntervalSet:
    """The translated fundamental window [2k - 1, 2k + 1)."""
    return IntervalSet.of((2 * k - 1, 2 * k + 1))


def _windows(lo: Fraction, hi: Fraction) -> range:
    """The k whose window [2k - 1, 2k + 1) meets the nonempty [lo, hi)."""
    return range((lo + 1) // 2, -((-1 - hi) // 2))


def _shifts(xi: Fraction, lo: Fraction, hi: Fraction) -> range:
    """The k with lo <= xi + 2k < hi."""
    n, d = xi.numerator, xi.denominator
    # -floor((xi - e) / 2) for e = lo, hi, over one integer denominator
    return range(-((n * lo.denominator - lo.numerator * d) // (2 * d * lo.denominator)),
                 -((n * hi.denominator - hi.numerator * d) // (2 * d * hi.denominator)))


def _chunk(lo: Fraction, hi: Fraction, k: int) -> Chunk:
    """The part of [lo, hi) in the window [2k - 1, 2k + 1), moved by -2k."""
    return (max(lo, Fraction(2 * k - 1)) - 2 * k, min(hi, Fraction(2 * k + 1)) - 2 * k, k)


def fold_chunks(K: IntervalSet) -> List[Chunk]:
    """Split K at odd integers and map each chunk into [-1, 1) by an even
    translation; returns (residue_lo, residue_hi, k) with chunk = cell + 2k."""
    out = [_chunk(lo, hi, k) for lo, hi in K.pieces for k in _windows(lo, hi)]
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
    """Exact periodization multiplicity of chi_K on the fundamental domain.
    A piece adds its first and last chunks and, weighted by their count, the
    full windows between them, so its length costs nothing."""
    pairs, weights = [], []
    for lo, hi in K.pieces:
        ks = _windows(lo, hi)
        for k in {ks[0], ks[-1]}:
            pairs.append(_chunk(lo, hi, k)[:2])
            weights.append(1)
        if len(ks) > 2:
            pairs.append((Fraction(-1), Fraction(1)))
            weights.append(len(ks) - 2)
    return FoldedMultiplicity(tuple(_overlay(pairs, weights)))


def _repeated_residue(K: IntervalSet):
    """The first residue cell (lo, hi, multiplicity) that K meets at least
    twice mod 2, or None when K is injective mod 2 (at once when its hull is
    no longer than 2: two of its points then differ by less than 2)."""
    lo, hi = K.hull()
    if hi - lo <= 2:
        return None
    return next((c for c in per_multiplicity(K).cells if c[2] >= 2), None)


def layered_partition(K: IntervalSet) -> List[IntervalSet]:
    """Partition K into layers K_1..K_p, pairwise disjoint with union K, each
    injective mod 2pi, K_i congruent to {multiplicity >= i} up to measure 0.
    The chunks of one window k are disjoint, so weighted by the bit of k
    their overlay lists the windows over each cell; the i-th goes to K_i."""
    chunks = fold_chunks(K)
    ks = sorted({k for _, _, k in chunks})
    layers: list[list[tuple[Fraction, Fraction]]] = []
    for lo, hi, mask in _overlay([c[:2] for c in chunks],
                                 [1 << ks.index(c[2]) for c in chunks]):
        covering = [k for n, k in enumerate(ks) if mask >> n & 1]
        layers.extend([] for _ in range(len(covering) - len(layers)))
        for layer, k in zip(layers, covering):
            layer.append((lo + 2 * k, hi + 2 * k))
    return [IntervalSet(tuple(pieces)) for pieces in layers]


# -- dilation ------------------------------------------------------------------

# The lowest scale listed.  With r the least nonzero |endpoint|, the shells
# a^j A, j <= -1, lie in (-r, r), where each set is constant on each side of
# 0: below -1 the scales of a cell repeat with period 2 (1 for a > 0), and
# two periods suffice to read the least gap between two scale lists.
DILATION_FLOOR = -4


def fold_dilation(sets: Sequence[IntervalSet], a: int
                  ) -> Tuple[Fraction, List[Tuple[Fraction, Fraction, tuple]]]:
    """(r, cells): cells (lo, hi, scales) partition the annulus
    A = {r <= |xi| < |a| r}, negative side first, r the least nonzero
    |endpoint| of the sets (1 if none); scales[i] lists the j >=
    DILATION_FLOOR with a^j [lo, hi) inside sets[i], up to measure zero.
    Each piece is cut at the shells a^j A it meets, from DILATION_FLOOR up
    when it reaches 0, and each cut is mapped back by a^-j; one sweep
    overlays the cuts, each weighted by the bit of its (i, j), on A itself,
    weighted 1, which keeps the cells with no scale."""
    m = abs(a)
    r = min((abs(x) for s in sets for piece in s.pieces for x in piece if x),
            default=Fraction(1))
    bits: dict[Tuple[int, int], int] = {}
    pairs, weights = [(-m * r, -r), (r, m * r)], [1, 1]
    for i, s in enumerate(sets):
        for lo, hi in s.pieces:
            # the piece's part on each side of 0, as |xi| in [inner, outer)
            for sign, inner, outer in ((-1, max(-hi, 0), -lo), (1, max(lo, 0), hi)):
                j = 0 if inner else DILATION_FLOOR
                shell = r * Fraction(m) ** j  # shell j: shell <= |xi| < m*shell
                while m * shell <= inner:
                    j, shell = j + 1, m * shell
                c = sign * Fraction(a) ** -j  # maps shell j back to A
                while shell < outer:
                    cut = (max(inner, shell) * c, min(outer, m * shell) * c)
                    pairs.append(cut if c > 0 else cut[::-1])
                    weights.append(2 << bits.setdefault((i, j), len(bits)))
                    j, shell, c = j + 1, m * shell, c / a
    cells = []
    for lo, hi, mask in _overlay(pairs, weights):
        scales = [[] for _ in sets]
        for (i, j), bit in bits.items():
            if mask >> (bit + 1) & 1:
                scales[i].append(j)
        cells.append((lo, hi, tuple(tuple(sorted(js)) for js in scales)))
    return r, cells
