"""The one refinement sweep of each piecewise type, against the loops it
replaced.

`piecewise.refine` walks the common refinement of piecewise-linear functions
(sums, differences, restriction, product integrals, square sums, quadrature
cells) and `intervals._overlay` sweeps the endpoints of interval sets
(intersection, difference, layers).  Each result must be identical to the
loop it replaced, kept in `oracles`, on seeded functions and sets whose
pieces often touch at shared ends, and on their images under compose_scale.
"""

import operator
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from framesmith.construction import build_family, example_by_name
from framesmith.folding import layered_partition
from framesmith.frametest import TestSignal, _scaled_square
from framesmith.intervals import IntervalSet
from framesmith.piecewise import (PiecewiseLinear, SqrtProfile, _square_sum,
                                  integrate_product, refine)
from framesmith.quadrature import QuadPlan
from oracles import (closed_cells_oracle, combine_oracle, difference_oracle,
                     integrate_product_oracle, intersect_oracle,
                     layered_partition_oracle, piece_at, restrict_oracle)

SEEDS = range(600)
SCALES = (2, 3, -2, -3, 4)


def _ends(rng: random.Random, n: int) -> list:
    """n + 1 increasing quarter-integer ends, so consecutive pieces can share
    an end."""
    ends = sorted({F(rng.randint(-24, 24), 4) for _ in range(2 * n + 2)})
    return ends[:n + 1] if len(ends) > n else ends


def random_pwl(rng: random.Random, nonneg: bool = False) -> PiecewiseLinear:
    """Up to 5 pieces; each touches the previous one with probability 1/2,
    and some carry equal lines, which canonical form merges.  A nonneg
    function runs between values in [0, 2] at the ends of each piece."""
    ends = _ends(rng, rng.randint(0, 5))
    line = (F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-4, 4), 2))
    pieces = []
    for lo, hi in zip(ends, ends[1:]):
        if pieces and rng.random() < 0.5:
            lo = (lo + hi) / 2   # a gap before this piece
        if nonneg:
            at_lo, at_hi = F(rng.randint(0, 4), 2), F(rng.randint(0, 4), 2)
            slope = (at_hi - at_lo) / (hi - lo)
            line = (slope, at_lo - slope * lo)
        elif rng.random() < 0.7:
            line = (F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-4, 4), 2))
        pieces.append((lo, hi) + line)
    return PiecewiseLinear(tuple(pieces))


def random_set(rng: random.Random) -> IntervalSet:
    return random_pwl(rng).support()


def _images(rng: random.Random, f):
    """f and its image under compose_scale (or scale, for a set) by a
    random a from SCALES."""
    a = rng.choice(SCALES)
    return [f, f.compose_scale(a) if isinstance(f, PiecewiseLinear) else f.scale(a)]


def _cases():
    for seed in SEEDS:
        rng = random.Random(seed)
        f, g = _images(rng, random_pwl(rng))
        h = rng.choice([random_pwl(rng), g, f.compose_shift(F(rng.randint(-4, 4), 2))])
        A, B = _images(rng, random_set(rng))
        C = rng.choice([random_set(rng), B, A, f.support()])
        squares = [sq for _ in range(rng.randint(1, 4))
                   for sq in _images(rng, random_pwl(rng, nonneg=True))]
        yield seed, f, g, h, A, B, C, squares


def test_refine_cells_hold_the_pieces_at_their_left_ends():
    for seed, f, g, h, A, B, C, squares in _cases():
        fns = [f, g, h, A]
        cells = list(refine(fns))
        ends = sorted({x for fn in fns for p in fn.pieces for x in p[:2]})
        assert [lo for lo, _, _ in cells] + [hi for _, hi, _ in cells[-1:]] == ends, seed
        for lo, hi, pieces in cells:
            assert pieces == [piece_at(fn, lo) for fn in fns], (seed, lo)


def test_piecewise_algebra_matches_oracles():
    for seed, f, g, h, A, B, C, squares in _cases():
        assert f + g == combine_oracle(f, g, operator.add), seed
        assert f - h == combine_oracle(f, h, operator.sub), seed
        assert g - g == PiecewiseLinear.zero(), seed
        for fn in (f, g, h):
            assert fn.restrict(A) == restrict_oracle(fn, A), seed
            assert fn.restrict(C) == restrict_oracle(fn, C), seed
        for factors in ([f, g], [f, g, h], [h, h], [g]):
            assert integrate_product(factors) == integrate_product_oracle(factors), seed
        profiles = [SqrtProfile(sq) for sq in squares]
        pairwise = PiecewiseLinear.zero()
        for p in profiles:
            pairwise = combine_oracle(pairwise, p.square, operator.add)
        assert _square_sum(profiles) == pairwise, seed


def test_set_algebra_and_layers_match_oracles():
    for seed, f, g, h, A, B, C, squares in _cases():
        for X, Y in ((A, B), (B, A), (A, C), (C, B), (A, A)):
            assert X.intersect(Y) == intersect_oracle(X, Y), seed
            assert X.difference(Y) == difference_oracle(X, Y), seed
        for K in (A, B, C, A.scale(3) if A else A):
            assert layered_partition(K) == layered_partition_oracle(K), seed


def _as_tuple(cell):
    return cell._replace(coeffs=tuple(cell.coeffs))


@pytest.mark.parametrize("name", ["shannon", "journe", "pwl:a=1/2,b=1/2",
                                  "pwl:a=3/4,b=5/4"])
def test_quadplan_cells_match_oracle_on_builtins(name):
    signals = [TestSignal.tent(-1, 1), TestSignal.indicator(F(-1, 3), 2)]
    built = cells = 0
    for a in SCALES:
        try:
            _, wavelets = build_family(replace(example_by_name(name), dilation=a))
        except ValueError:
            continue   # journe is not admissible at every a
        built += 1
        for f in signals:
            for psi in wavelets.psis:
                for j in (-2, -1, 0, 1, 2):
                    square = _scaled_square(psi, a, j)
                    got = [_as_tuple(c) for c in QuadPlan(f.hat, square).closed]
                    want = [_as_tuple(c) for c in closed_cells_oracle(f.hat, square)]
                    assert got == want, (a, f.label, j)
                    cells += len(got)
    assert built >= 3 and cells
