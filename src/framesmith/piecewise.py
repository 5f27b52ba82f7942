"""Exactly-represented piecewise-linear functions and square-root profiles.

A PiecewiseLinear is a finite list of half-open pieces [lo, hi) carrying an
affine map alpha*x + beta with rational coefficients; the function is 0
outside its pieces.  Canonical form (sorted pieces, zero pieces dropped,
touching pieces with the same line merged) makes equality of canonical
objects coincide with pointwise equality away from a finite breakpoint set.
The constructor puts whatever it is given in that form and refuses
overlapping pieces; `of` and the loader go through it.  The internal
producers whose output is canonical already -- `_sum`, `restrict`,
`compose_shift`, `scale_value` and `compose_scale` -- build through
`_trusted` instead, which takes the pieces as given: each keeps the pieces
sorted and disjoint (a reflection reverses them), drops or never makes a
zero line, and never gives two touching pieces one line.
Whatever takes several functions at once (sums, differences, restriction to
an IntervalSet, the integral of a product, square sums) runs on the one
forward sweep over their common refinement, `refine`.  Sums, the integral of
a product and the frame-test quadrature cells take that sweep on an integer
grid (`_on_grid`): every breakpoint an integer over the functions' common
denominator D, and every line an integer line over one denominator per
function, so their exact sums are integer sums with one Fraction, or one
int / int division, at the end.  `_sum` adds each cell's lines over one lcm
scale, drops zero cells and merges touching cells with equal integer lines
before it builds one Fraction per coefficient.  Each function keeps one
cached integer form, `_form`: itself alone on that grid.  Every point read
(`eval`, `eval_left`, and through `_numerator` the norm-sum walk of
`verification` and the exact trace identities of `trace`) looks the piece
up on it with integers only and builds at most one Fraction; `_numerator`
builds none, so a reader sums integer numerators over one denominator
`_scale` q.

A SqrtProfile represents x -> sqrt(square(x)) * chi_domain(x).  The square
root is never expanded; everything downstream works with the exact square,
and roots are taken only where a value is enclosed (the dilated trace) or
integrated (quadrature).  A GeneratorSet is a tuple of profiles read as the
Fourier transforms of the generators of a shift-invariant space; its
`spectral` is the one sum of their squares, computed once per set.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .folding import _repeated_residue
from .intervals import IntervalSet, union_all
from .rationals import as_fraction, common_denominator

Piece = Tuple[Fraction, Fraction, Fraction, Fraction]  # lo, hi, alpha, beta


def _canonical_pieces(pieces: Iterable[Piece]) -> Tuple[Piece, ...]:
    kept = [(lo, hi, a, b) for lo, hi, a, b in pieces
            if lo < hi and not (a == 0 and b == 0)]
    kept.sort()
    for i in range(1, len(kept)):
        if kept[i][0] < kept[i - 1][1]:
            raise ValueError(f"overlapping pieces at {kept[i][0]}")
    merged: list[Piece] = []
    for p in kept:
        if merged and merged[-1][1] == p[0] and merged[-1][2:] == p[2:]:
            merged[-1] = (merged[-1][0], p[1], p[2], p[3])
        else:
            merged.append(p)
    return tuple(merged)


def refine(fns: Sequence) -> Iterator[Tuple[Fraction, Fraction, list]]:
    """(lo, hi, pieces) over the common refinement of the functions' pieces,
    left to right: pieces[n] is the piece of fns[n] holding [lo, hi), or
    None.  A PiecewiseLinear and an IntervalSet walk alike, one pointer each:
    both have sorted, disjoint half-open pieces that start with their ends."""
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


@dataclass(frozen=True)
class PiecewiseLinear:
    pieces: Tuple[Piece, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "pieces", _canonical_pieces(self.pieces))

    @classmethod
    def _trusted(cls, pieces: Tuple[Piece, ...]) -> "PiecewiseLinear":
        """The function of `pieces` taken as given: the constructor of the
        internal producers whose output is canonical already (sorted,
        disjoint and nonempty pieces of Fractions, no zero line, touching
        pieces with distinct lines).  Everything from outside goes through
        the checking constructor."""
        f = object.__new__(cls)
        object.__setattr__(f, "pieces", pieces)
        return f

    @cached_property
    def _form(self) -> Tuple[int, List[int], "_Grid"]:
        """(den, starts, grid): the function alone on the integer grid of
        `_on_grid`, x = X / den, and the integer starts LO of its pieces."""
        den, (grid,) = _on_grid([self])
        return den, [p[0] for p in grid.pieces], grid

    @property
    def _scale(self) -> int:
        """The scale of `_form`: f(p / q) = `_numerator(p, q)` / (_scale q)."""
        return self._form[2].scale

    @staticmethod
    def of(*pieces) -> "PiecewiseLinear":
        """Build from (lo, hi, alpha, beta) tuples of ints/Fractions/strings."""
        return PiecewiseLinear(tuple(
            (as_fraction(lo), as_fraction(hi), as_fraction(a), as_fraction(b))
            for lo, hi, a, b in pieces))

    @staticmethod
    def zero() -> "PiecewiseLinear":
        return PiecewiseLinear()

    @staticmethod
    def indicator(sets: IntervalSet) -> "PiecewiseLinear":
        return PiecewiseLinear(tuple(
            (lo, hi, Fraction(0), Fraction(1)) for lo, hi in sets.pieces))

    # -- evaluation -----------------------------------------------------

    def _numerator(self, p: int, q: int) -> int:
        """N with f(p / q) = N / (`_scale` q), for integers p and q > 0,
        p / q not necessarily reduced.  For the integer ends LO = lo den and
        HI = hi den, lo <= p / q < hi holds iff LO <= floor(p den / q) < HI,
        so the half-open lookup compares integers only."""
        den, starts, grid = self._form
        x = p * den // q
        i = bisect.bisect_right(starts, x) - 1
        if i < 0 or x >= grid.pieces[i][1]:
            return 0
        _, _, a, b = grid.pieces[i]
        return a * p * den + b * q

    def eval(self, x) -> Fraction:
        x = as_fraction(x)
        q = x.denominator
        return Fraction(self._numerator(x.numerator, q), self._form[2].scale * q)

    def eval_left(self, x) -> Fraction:
        """One-sided limit from below at x (exact): lo < x <= hi holds iff
        LO < ceil(x den) <= HI."""
        x = as_fraction(x)
        p, q = x.numerator, x.denominator
        den, starts, grid = self._form
        up = -(-p * den // q)
        i = bisect.bisect_left(starts, up) - 1
        if i < 0 or up > grid.pieces[i][1]:
            return Fraction(0)
        _, _, a, b = grid.pieces[i]
        return Fraction(a * p * den + b * q, grid.scale * q)

    # -- structure ------------------------------------------------------

    def breakpoints(self) -> list[Fraction]:
        pts: list[Fraction] = []
        for lo, hi, _, _ in self.pieces:
            if not pts or pts[-1] != lo:
                pts.append(lo)
            pts.append(hi)
        return pts

    def support(self) -> IntervalSet:
        """Essential support: the pieces carrying a not-identically-zero line
        (isolated interior zeros are measure zero and stay included)."""
        return IntervalSet(tuple((lo, hi) for lo, hi, _, _ in self.pieces))

    def is_zero(self) -> bool:
        return not self.pieces

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return _sum([self, other])

    def __sub__(self, other: "PiecewiseLinear") -> "PiecewiseLinear":
        return _sum([self, -other])

    def __neg__(self) -> "PiecewiseLinear":
        return self.scale_value(-1)

    def scale_value(self, c) -> "PiecewiseLinear":
        c = as_fraction(c)
        if c == 0:
            return PiecewiseLinear._trusted(())
        return PiecewiseLinear._trusted(tuple(
            (lo, hi, a * c, b * c) for lo, hi, a, b in self.pieces))

    def compose_scale(self, c) -> "PiecewiseLinear":
        """g(x) = f(c*x) for rational c != 0."""
        c = as_fraction(c)
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        if c > 0:
            return PiecewiseLinear._trusted(tuple(
                (lo / c, hi / c, a * c, b) for lo, hi, a, b in self.pieces))
        # half-open boundary flips; keep [l, r) (measure-zero shift)
        return PiecewiseLinear._trusted(tuple(
            (hi / c, lo / c, a * c, b) for lo, hi, a, b in reversed(self.pieces)))

    def compose_shift(self, t) -> "PiecewiseLinear":
        """g(x) = f(x + t)."""
        t = as_fraction(t)
        return PiecewiseLinear._trusted(tuple(
            (lo - t, hi - t, a, a * t + b) for lo, hi, a, b in self.pieces))

    def restrict(self, where: IntervalSet) -> "PiecewiseLinear":
        # a cell boundary between two kept cells is a piece end of self, as
        # the set's pieces never touch, so the kept lines stay distinct
        return PiecewiseLinear._trusted(tuple(
            (lo, hi, p[2], p[3]) for lo, hi, (p, w) in refine([self, where])
            if p and w))

    def first_negative_witness(self) -> Fraction | None:
        """A point where the function is negative, or None.  Linearity on each
        piece means checking the two endpoint values (limits) suffices.

        The point is the middle of the open stretch of the piece where the
        line is negative, never a breakpoint, so it stays a witness for any
        function that equals this one away from finitely many points."""
        for lo, hi, a, b in self.pieces:
            at_lo, at_hi = a * lo + b, a * hi + b
            if at_lo < 0 and at_hi < 0:
                return (lo + hi) / 2
            if at_lo < 0 or at_hi < 0:
                root = -b / a  # the line crosses 0 inside [lo, hi]
                return (lo + root) / 2 if at_lo < 0 else (root + hi) / 2
        return None

    def dilation_rise(self, c) -> Fraction | None:
        """A point x with f(c x) > f(x), or None when f(c x) <= f(x) for all
        x (for almost all x at c < 0, where `compose_scale` moves the ends
        of the pieces it reflects)."""
        return (self - self.compose_scale(c)).first_negative_witness()

    def max_value(self) -> Fraction:
        """Exact maximum (attained at a piece endpoint or 0 outside)."""
        best = Fraction(0)
        for lo, hi, a, b in self.pieces:
            best = max(best, a * lo + b, a * hi + b)
        return best

    # -- integrals ------------------------------------------------------

    def integral(self) -> Fraction:
        total = Fraction(0)
        for lo, hi, a, b in self.pieces:
            total += a * (hi * hi - lo * lo) / 2 + b * (hi - lo)
        return total

    def zero_neighborhood(self) -> tuple[Fraction, Fraction, Fraction, Fraction] | None:
        """(left limit, right limit, clearance, max slope) describing f near 0.

        clearance = distance from 0 to the nearest breakpoint strictly inside
        the adjacent pieces; max slope = max |alpha| of the pieces touching 0.
        Returns None when 0 is outside the support closure on both sides.
        """
        left = self.eval_left(0)
        right = self.eval(0)  # the limit from above, by half-openness
        clearance = None
        slope = Fraction(0)
        for lo, hi, a, b in self.pieces:
            if lo <= 0 < hi:  # piece carrying the right limit
                d = hi if lo == 0 else min(hi, -lo)
                clearance = d if clearance is None else min(clearance, d)
                slope = max(slope, abs(a))
            if lo < 0 <= hi:  # piece carrying the left limit
                d = -lo if hi == 0 else min(-lo, hi)
                clearance = d if clearance is None else min(clearance, d)
                slope = max(slope, abs(a))
        if clearance is None:
            return None
        return (left, right, clearance, slope)

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
    """A PiecewiseLinear on an integer grid x = X / den: pieces (LO, HI, A, B)
    of integers with f(X / den) = (A X + B) / scale on [LO, HI).  `refine`
    walks grids as it walks the functions: it only orders ends."""

    pieces: List[Tuple[int, int, int, int]]
    scale: int


def _on_grid(fns: Sequence[PiecewiseLinear]) -> Tuple[int, List[_Grid]]:
    """(den, grids): den the common denominator of the breakpoints of fns,
    and each function on the grid x = X / den, with one coefficient
    denominator per function: alpha X / den + beta = (A X + B) / scale for
    A = alpha e, B = beta e den, scale = e den, e the common denominator of
    the function's coefficients."""
    den = common_denominator(x for f in fns for p in f.pieces for x in p[:2])
    grids = []
    for f in fns:
        e = common_denominator(c for p in f.pieces for c in p[2:])
        grids.append(_Grid([(lo.numerator * (den // lo.denominator),
                             hi.numerator * (den // hi.denominator),
                             a.numerator * (e // a.denominator),
                             b.numerator * (e // b.denominator) * den)
                            for lo, hi, a, b in f.pieces], e * den))
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
    """Nonnegative Fourier-domain profile sqrt(square) * chi_domain; the
    domain defaults to the square's support."""

    square: PiecewiseLinear
    domain: IntervalSet | None = None

    def __post_init__(self):
        sq = self.square if self.domain is None else self.square.restrict(self.domain)
        witness = sq.first_negative_witness()
        if witness is not None:
            raise ValueError(f"square negative at {witness}")
        object.__setattr__(self, "square", sq)
        object.__setattr__(self, "domain", sq.support())

    @staticmethod
    def indicator(sets: IntervalSet) -> "SqrtProfile":
        return SqrtProfile(PiecewiseLinear.indicator(sets), sets)

    def support(self) -> IntervalSet:
        return self.domain

    def value_sq(self, x) -> Fraction:
        """|profile(x)|^2, exact."""
        return self.square.eval(x)

    def is_indicator(self) -> bool:
        return all(a == 0 and b == 1 for _, _, a, b in self.square.pieces)


def _sum(fns: Sequence[PiecewiseLinear]) -> PiecewiseLinear:
    """The pointwise sum, in one pass over the common refinement of the
    functions on the integer grid of `_on_grid`.  Each cell's lines are
    summed as integers over L, the lcm of the functions' scales; zero cells
    are dropped and touching cells with equal integer lines merged, so the
    pieces are canonical.  Only then is one Fraction built per coefficient,
    alpha = A den / L and beta = B / L, and the cells keep the given
    Fraction endpoints."""
    den, grids = _on_grid(fns)
    top = math.lcm(*(g.scale for g in grids))
    lifts = [top // g.scale for g in grids]
    ends = {}
    for f, g in zip(fns, grids):
        for (lo, hi, _, _), (x, y, _, _) in zip(f.pieces, g.pieces):
            ends[x], ends[y] = lo, hi
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
    return PiecewiseLinear._trusted(tuple(
        (ends[lo], ends[hi], Fraction(a * den, top), Fraction(b, top))
        for lo, hi, a, b in out))


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
        return union_all([p.support() for p in self.profiles]).hull()

    def breakpoints(self) -> List[Fraction]:
        cells = list(refine([p.square for p in self.profiles]))
        return [lo for lo, _, _ in cells] + [hi for _, hi, _ in cells[-1:]]
