"""Exactly-represented piecewise-linear functions and square-root profiles.

A PiecewiseLinear is a finite list of half-open pieces [lo, hi) carrying an
affine map alpha*x + beta with rational coefficients, 0 outside them.  Its
value is one integer form: `cells` (LO, HI, A, B) with f(X / den) =
(A X + B) / scale on [LO / den, HI / den), canonical -- cells sorted,
disjoint and nonempty, no zero line, touching cells with distinct lines,
den the least denominator of the ends, scale = e den for e the least common
denominator of alpha = A den / scale and beta = B / scale.  The one
constructor takes such cells over any den and scale that hold them and
reduces the two; every producer (sums, `restrict`, the compositions,
`scale_value`, `indicator`) builds through it on integers.  `parse`, the
one way in from rational pieces (as integer pairs, for `of` and the family
loader), sorts, drops empty and zero pieces, merges touching pieces with
one line and refuses overlaps, on integers.  Supports (`IntervalSet`s on
the same grid), breakpoints and hulls are read off the cells; `pieces`, the
Fraction read-out, is built on demand for output and oracles.
Whatever takes several functions at once (sums, restriction, product
integrals, quadrature cells) runs on one sweep, `refine`, over their cells
re-gridded by `_on_grid` onto the lcm of their denominators: exact sums are
integer sums with one Fraction at the end.  Every point read (`eval`,
`eval_left`, and through `_numerator` the norm-sum walk of `verification`,
the `trace` CSV and the trace identities) looks the cell up on integers;
`_numerator` builds no Fraction, so a reader sums integer numerators over
one denominator `scale` q.

A SqrtProfile represents x -> sqrt(square(x)), supported where its square
is.  The square root is never expanded; everything downstream works with
the exact square, and roots are taken only where a value is enclosed (the
dilated trace) or integrated (quadrature).  A GeneratorSet is a tuple of
profiles read as the Fourier transforms of the generators of a
shift-invariant space; its `spectral` is the one sum of their squares,
computed once per set.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .folding import _repeated_residue
from .intervals import IntervalSet
from .rationals import as_fraction

Piece = Tuple[Fraction, Fraction, Fraction, Fraction]  # lo, hi, alpha, beta
Cell = Tuple[int, int, int, int]  # LO, HI, A, B on the integer grid


def refine(fns: Sequence) -> Iterator[Tuple[Fraction, Fraction, list]]:
    """(lo, hi, pieces) over the common refinement of the functions' pieces,
    left to right: pieces[n] is the piece of fns[n] holding [lo, hi), or
    None.  A PiecewiseLinear, an IntervalSet and a `_Grid` walk alike, one
    pointer each: each has sorted, disjoint half-open pieces that start with
    their ends."""
    lists = [f.pieces for f in fns]
    at = [0] * len(lists)
    lo = min((ps[0][0] for ps in lists if ps), default=None)
    while lo is not None:
        pieces, hi = [], None
        for ps, i in zip(lists, at):
            p = ps[i] if i < len(ps) else None
            if p is not None:
                if lo < p[0]:
                    end, p = p[0], None
                else:
                    end = p[1]
                if hi is None or end < hi:
                    hi = end
            pieces.append(p)
        if hi is None:
            return
        yield lo, hi, pieces
        for n, p in enumerate(pieces):
            if p is not None and p[1] == hi:
                at[n] += 1
        lo = hi


@dataclass(init=False, repr=False, unsafe_hash=True)
class PiecewiseLinear:
    """f(X / den) = (A X + B) / scale on each cell [LO / den, HI / den), 0
    elsewhere, in the canonical form above: equality and hash compare it."""

    den: int
    cells: Tuple[Cell, ...]
    scale: int

    def __init__(self, den: int, cells: Iterable[Cell], scale: int):
        """The function of `cells` over den and scale > 0: the cells must be
        canonical but for the two denominators, which are reduced here."""
        cells = tuple(cells)
        if not cells:
            den = scale = 1
        else:
            g = math.gcd(den, *(x for cell in cells for x in cell[:2]))
            c = math.gcd(scale, *(cell[2] * den for cell in cells), *(cell[3] for cell in cells))
            if g != 1 or c != den:
                # alpha = A den / scale and beta = B / scale over e = scale / c
                least = den // g
                cells = tuple((lo // g, hi // g, a * den // c, b // c * least)
                              for lo, hi, a, b in cells)
                den, scale = least, scale // c * least
        self.den, self.cells, self.scale = den, cells, scale
        self._starts = tuple(cell[0] for cell in cells)  # the point reads bisect these

    @classmethod
    def parse(cls, pieces: Iterable[Sequence[Tuple[int, int]]]) -> "PiecewiseLinear":
        """The canonical function of (lo, hi, alpha, beta) pieces of rationals
        given as (numerator, denominator > 0) pairs, in any order; ValueError
        names the start of the second of two overlapping pieces."""
        pieces = list(pieces)
        den = math.lcm(*(d for piece in pieces for _, d in piece[:2]))
        e = math.lcm(*(d for piece in pieces for _, d in piece[2:]))
        kept = sorted(cell for cell in (
            (ln * (den // ld), hn * (den // hd), an * (e // ad), bn * (e // bd) * den)
            for (ln, ld), (hn, hd), (an, ad), (bn, bd) in pieces)
            if cell[0] < cell[1] and (cell[2] or cell[3]))
        cells: List[list] = []
        for lo, hi, a, b in kept:
            if cells and lo < cells[-1][1]:
                raise ValueError(f"overlapping pieces at {Fraction(lo, den)}")
            if cells and cells[-1][1] == lo and cells[-1][2:] == [a, b]:
                cells[-1][1] = hi
            else:
                cells.append([lo, hi, a, b])
        return cls(den, map(tuple, cells), e * den)

    @staticmethod
    def of(*pieces) -> "PiecewiseLinear":
        """Build from (lo, hi, alpha, beta) tuples of ints/Fractions/strings."""
        return PiecewiseLinear.parse(
            [(q.numerator, q.denominator) for q in map(as_fraction, piece)]
            for piece in pieces)

    @staticmethod
    def zero() -> "PiecewiseLinear":
        return PiecewiseLinear(1, (), 1)

    @staticmethod
    def indicator(sets: IntervalSet) -> "PiecewiseLinear":
        den = sets.den
        return PiecewiseLinear(den, [(lo, hi, 0, den) for lo, hi in sets.cells], den)

    @cached_property
    def pieces(self) -> Tuple[Piece, ...]:
        """The cells as (lo, hi, alpha, beta) Fractions, built on demand."""
        den, scale = self.den, self.scale
        return tuple((Fraction(lo, den), Fraction(hi, den), Fraction(a * den, scale),
                      Fraction(b, scale)) for lo, hi, a, b in self.cells)

    # -- evaluation -----------------------------------------------------

    def _numerator(self, p: int, q: int) -> int:
        """N with f(p / q) = N / (`scale` q), for integers p and q > 0, not
        necessarily coprime: lo <= p / q < hi holds iff LO <= floor(p den / q)
        < HI, so the half-open lookup compares integers only."""
        x = p * self.den // q
        i = bisect.bisect_right(self._starts, x) - 1
        if i < 0 or x >= self.cells[i][1]:
            return 0
        _, _, a, b = self.cells[i]
        return a * p * self.den + b * q

    def eval(self, x) -> Fraction:
        x = as_fraction(x)
        return Fraction(self._numerator(x.numerator, x.denominator), self.scale * x.denominator)

    def eval_left(self, x) -> Fraction:
        """The limit from below at x: lo < x <= hi iff LO < ceil(x den) <= HI."""
        x = as_fraction(x)
        p, q = x.numerator, x.denominator
        up = -(-p * self.den // q)
        i = bisect.bisect_left(self._starts, up) - 1
        if i < 0 or up > self.cells[i][1]:
            return Fraction(0)
        _, _, a, b = self.cells[i]
        return Fraction(a * p * self.den + b * q, self.scale * q)

    # -- structure ------------------------------------------------------

    def _runs(self) -> List[int]:
        """The first index of each run of touching cells, then len(cells)."""
        cells = self.cells
        return [i for i in range(len(cells)) if not i or cells[i][0] != cells[i - 1][1]
                ] + [len(cells)]

    def breakpoints(self) -> list[Fraction]:
        runs, cells, den = self._runs(), self.cells, self.den
        return [Fraction(x, den) for i, j in zip(runs, runs[1:])
                for x in (cells[i][0], *(c[1] for c in cells[i:j]))]

    def support(self) -> IntervalSet:
        """Essential support: the pieces carrying a not-identically-zero line
        (isolated interior zeros are measure zero and stay included), one
        interval per run of touching pieces, read off the cells."""
        runs, cells = self._runs(), self.cells
        return IntervalSet(self.den, [(cells[i][0], cells[j - 1][1])
                                      for i, j in zip(runs, runs[1:])])

    def is_zero(self) -> bool:
        return not self.cells

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return _sum([self, other])

    def __sub__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return _sum([self, -other])

    def __neg__(self) -> "PiecewiseLinear":
        return self.scale_value(-1)

    def scale_value(self, c) -> "PiecewiseLinear":
        c = as_fraction(c)
        n = c.numerator  # c = 0 gives the zero function, with no cells
        return PiecewiseLinear(self.den, [(lo, hi, a * n, b * n) for lo, hi, a, b in self.cells
                                          if n], self.scale * c.denominator)

    def compose_scale(self, c) -> "PiecewiseLinear":
        """g(x) = f(c*x) for rational c = n / d != 0: over den |n|, ends
        LO d and HI d, line (A sign(n) X + B d) / (scale d)."""
        c = as_fraction(c)
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        n, d = c.numerator, c.denominator
        if n > 0:
            cells = [(lo * d, hi * d, a, b * d) for lo, hi, a, b in self.cells]
        else:  # half-open boundary flips; keep [l, r) (measure-zero shift)
            cells = [(-hi * d, -lo * d, -a, b * d) for lo, hi, a, b in reversed(self.cells)]
        return PiecewiseLinear(self.den * abs(n), cells, self.scale * d)

    def compose_shift(self, t) -> "PiecewiseLinear":
        """g(x) = f(x + t) for t = n / d: over den d, ends moved by n den,
        line (A X + A den n + B d) / (scale d)."""
        t = as_fraction(t)
        n, d = t.numerator, t.denominator
        move = n * self.den
        return PiecewiseLinear(self.den * d, [(lo * d - move, hi * d - move, a, a * move + b * d)
                                              for lo, hi, a, b in self.cells], self.scale * d)

    def restrict(self, where: IntervalSet) -> "PiecewiseLinear":
        # a cell boundary between two kept cells is a piece end of self, as
        # the set's pieces never touch, so the kept lines stay distinct
        den, (grid, mask) = _on_grid([self, PiecewiseLinear.indicator(where)])
        return PiecewiseLinear(den, [(lo, hi, p[2], p[3]) for lo, hi, (p, w)
                                     in refine([grid, mask]) if p and w], grid.scale)

    def first_negative_witness(self) -> Fraction | None:
        """A point where the function is negative, or None.  Linearity on each
        piece means checking the two endpoint values (limits) suffices.

        The point is the middle of the open stretch of the piece where the
        line is negative, never a breakpoint, so it stays a witness for any
        function that equals this one away from finitely many points."""
        for lo, hi, a, b in self.cells:
            at_lo, at_hi = a * lo + b, a * hi + b
            if at_lo < 0 and at_hi < 0:
                return Fraction(lo + hi, 2 * self.den)
            if at_lo < 0 or at_hi < 0:
                # the line crosses 0 inside [lo, hi] at X = -b / a
                end = lo if at_lo < 0 else hi
                return Fraction(a * end - b, 2 * a * self.den)
        return None

    def dilation_rise(self, c) -> Fraction | None:
        """A point x with f(c x) > f(x), or None when f(c x) <= f(x) for all
        x (for almost all x at c < 0, where `compose_scale` moves the ends
        of the pieces it reflects)."""
        return (self - self.compose_scale(c)).first_negative_witness()

    def max_value(self) -> Fraction:
        """Exact maximum (attained at a piece endpoint or 0 outside)."""
        best = 0
        for lo, hi, a, b in self.cells:
            best = max(best, a * lo + b, a * hi + b)
        return Fraction(best, self.scale)

    def zero_neighborhood(self) -> tuple[Fraction, Fraction, Fraction] | None:
        """(left limit, right limit, max slope) describing f near 0.

        max slope = max |alpha| of the pieces touching 0, so f is within
        slope |x| of its one-sided limit up to the nearest breakpoint on each
        side (the 0-clearance).  For sigma that bounds the norm sum's tail:
        `verification.TAIL_TARGET` when the slope is nonzero, attained at
        xi = TAIL_TARGET |a|^n / slope whenever slope * clearance >
        TAIL_TARGET, and 0 when it is zero.  Returns None when 0 is outside
        the support closure on both sides.
        """
        touching = [abs(a) for lo, hi, a, _ in self.cells if lo <= 0 <= hi]
        if not touching:
            return None
        # the right limit is the value at 0, by half-openness
        return (self.eval_left(0), self.eval(0),
                Fraction(max(touching) * self.den, self.scale))

    def __repr__(self) -> str:
        body = " ".join(f"[{lo},{hi}):{a}x+{b}" for lo, hi, a, b in self.pieces)
        return f"PiecewiseLinear({body})" if body else "PiecewiseLinear(0)"


def _linear_product(lines: Iterable[Tuple[int, int]]) -> list[int]:
    """Monomial coefficients, constant term first, of the product of the
    lines alpha*x + beta given as (alpha, beta) pairs."""
    poly = [1]
    for a, b in lines:
        new = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i] += c * b
            new[i + 1] += c * a
        poly = new
    return poly


class _Grid(NamedTuple):
    """A PiecewiseLinear's cells re-gridded onto a finer x = X / den, over its
    own scale.  `refine` walks grids as it walks the functions."""

    pieces: Sequence[Cell]
    scale: int


def _on_grid(fns: Sequence[PiecewiseLinear]) -> Tuple[int, List[_Grid]]:
    """(den, grids): den the lcm of the functions' denominators, and each
    function's cells re-gridded onto x = X / den: for m = den / f.den the
    ends and B are m times f's and the scale m times f.scale."""
    den = math.lcm(*(f.den for f in fns))
    grids = []
    for f in fns:
        m = den // f.den
        grids.append(_Grid(f.cells, f.scale) if m == 1 else _Grid(
            [(lo * m, hi * m, a, b * m) for lo, hi, a, b in f.cells], f.scale * m))
    return den, grids


def integrate_product(factors: Sequence[PiecewiseLinear]) -> Fraction:
    """Exact integral of a product of piecewise-linear functions: on the
    integer grid of `_on_grid` each cell adds sum_i c_i (HI^(i+1) -
    LO^(i+1)) w / (i + 1), c_i the coefficients of the product of the
    integer lines and w = lcm(1..degree + 1), and one Fraction divides the
    sum by w, den and every scale."""
    den, grids = _on_grid(factors)
    w = math.lcm(*range(1, len(factors) + 2))
    total = 0
    for lo, hi, pieces in refine(grids):
        if None in pieces:
            continue
        poly = _linear_product((p[2], p[3]) for p in pieces)
        total += sum(c * (w // (i + 1)) * (hi ** (i + 1) - lo ** (i + 1))
                     for i, c in enumerate(poly))
    return Fraction(total, w * den * math.prod(g.scale for g in grids))


@dataclass(frozen=True)
class SqrtProfile:
    """Nonnegative Fourier-domain profile sqrt(square), supported where the
    square is; a caller that wants it on a layer restricts the square."""

    square: PiecewiseLinear

    def __post_init__(self):
        witness = self.square.first_negative_witness()
        if witness is not None:
            raise ValueError(f"square negative at {witness}")

    @staticmethod
    def indicator(sets: IntervalSet) -> "SqrtProfile":
        return SqrtProfile(PiecewiseLinear.indicator(sets))

    def support(self) -> IntervalSet:
        return self.square.support()

    def value_sq(self, x) -> Fraction:
        """|profile(x)|^2, exact."""
        return self.square.eval(x)

    def is_indicator(self) -> bool:
        top = self.square.scale
        return all(a == 0 and b == top for _, _, a, b in self.square.cells)


def _sum(fns: Sequence[PiecewiseLinear]) -> PiecewiseLinear:
    """The pointwise sum, in one pass over the common refinement of the
    functions on the integer grid of `_on_grid`.  Each cell's lines are
    summed as integers over L, the lcm of the functions' scales; zero cells
    are dropped and touching cells with equal integer lines merged, so the
    cells are canonical over den and L."""
    den, grids = _on_grid(fns)
    top = math.lcm(*(g.scale for g in grids))
    lifts = [top // g.scale for g in grids]
    out: List[list] = []
    for lo, hi, pieces in refine(grids):
        a = b = 0
        for p, m in zip(pieces, lifts):
            if p is not None:
                a += p[2] * m
                b += p[3] * m
        if not (a or b):
            continue
        if out and out[-1][1] == lo and out[-1][2] == a and out[-1][3] == b:
            out[-1][1] = hi
        else:
            out.append([lo, hi, a, b])
    return PiecewiseLinear(den, map(tuple, out), top)


def _square_sum(profiles: Iterable[SqrtProfile]) -> PiecewiseLinear:
    """sum of |profile|^2 over the profiles, exact."""
    return _sum([p.square for p in profiles])


@dataclass(frozen=True)
class GeneratorSet:
    """Profiles interpreted as Fourier transforms of the generators of a
    shift-invariant space.

    The premise of every exact formula downstream (the local traces in
    `trace`, the `check` suites in `verification`, the exact energies in
    `frametest`) is that each support meets every residue class mod 2 at
    most once, as in every family the program builds or loads.  Each fiber
    (phi_hat(xi + 2k))_k then holds one entry per profile, so the fiber
    Gramian is diagonal: G(xi)[k, k] = S(xi + 2k) with S = `spectral`, and
    every cross term vanishes (Bownik, J. Funct. Anal. 177, 2000).
    `spectral` decides the premise; that the profiles form an NTF generator
    is not checked."""

    profiles: Tuple[SqrtProfile, ...]
    dilation: int = 2

    @cached_property
    def spectral(self) -> PiecewiseLinear:
        """S = sum_phi |phi_hat|^2, the diagonal of the fiber Gramian, built
        once per set.  A support that repeats a residue mod 2 breaks the
        premise and raises ValueError naming the profile."""
        for i, p in enumerate(self.profiles):
            cell = _repeated_residue(p.support())
            if cell is not None:
                raise ValueError(f"profile {i} meets the residue cell [{cell[0]}, "
                                 f"{cell[1]}) {cell[2]} times mod 2; the diagonal "
                                 f"fiber Gramian needs supports injective mod 2")
        return _square_sum(self.profiles)

    @cached_property
    def dilated_supports(self) -> Tuple[IntervalSet, ...]:
        """a supp(phi) for each profile, a the dilation: the reach of the
        terms of the dilated trace, taken once per set."""
        return tuple(p.support().scale(self.dilation) for p in self.profiles)

    def support_hull(self) -> Tuple[Fraction, Fraction]:
        """(least first start, greatest last end) of the supports, or (0, 0)."""
        squares = [p.square for p in self.profiles if p.square.cells]
        den = math.lcm(*(f.den for f in squares))
        return (Fraction(min((f.cells[0][0] * (den // f.den) for f in squares), default=0), den),
                Fraction(max((f.cells[-1][1] * (den // f.den) for f in squares), default=0), den))

    def breakpoints(self) -> List[Fraction]:
        den = math.lcm(*(p.square.den for p in self.profiles))
        ends = {x * (den // p.square.den) for p in self.profiles
                for cell in p.square.cells for x in cell[:2]}
        return [Fraction(x, den) for x in sorted(ends)]
