"""The one refinement sweep of each piecewise type, against the loops it
replaced.

`piecewise.refine` walks the common refinement of piecewise-linear functions
(sums, differences, restriction, product integrals, square sums, quadrature
cells) and `intervals._overlay` sweeps the endpoints of interval sets
(intersection, difference, layers).  Each result must be identical to the
loop it replaced, kept in `oracles`, on seeded functions and sets whose
pieces often touch at shared ends, and on their images under compose_scale.
Product integrals, the endpoint sweep, the quadrature cells and their break
terms run on integers over common denominators; each must equal its
Fraction form, the floats of the cells and break terms bit for bit.  The
producers that skip canonicalisation -- every PiecewiseLinear and
IntervalSet producer that builds through its integer constructor -- must
give the canonical form already.
"""

import math
import operator
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from framesmith.construction import build_family, example_by_name
from framesmith.folding import layered_partition
from framesmith.frametest import TestSignal, _scaled_square
from framesmith.intervals import IntervalSet, _overlay
from framesmith.piecewise import (PiecewiseLinear, SqrtProfile, _square_sum, _sum,
                                  integrate_product, refine)
from framesmith.quadrature import QuadPlan
from oracles import (_canonical_pieces, _canonicalize, break_terms_oracle, closed_cells_oracle,
                     combine_oracle,
                     difference_oracle, integrate_product_oracle, intersect_oracle,
                     layered_partition_oracle, overlay_oracle, piece_at,
                     restrict_oracle, sum_oracle)

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
    return PiecewiseLinear.of(*pieces)


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


def test_integrate_product_matches_oracle_on_deep_grids():
    """1 to 4 factors with gaps, each squeezed by 3^k, k <= 12, and some
    shifted, so the breakpoint denominators reach 4 * 3^12."""
    nonzero = 0
    for seed in range(600):
        rng = random.Random(f"deep{seed}")
        factors = []
        for _ in range(rng.randint(1, 4)):
            f = random_pwl(rng).compose_scale(rng.choice([1, -1]) * 3 ** rng.randint(0, 12))
            if rng.random() < 0.3:
                f = f.compose_shift(F(rng.randint(-4, 4), 3 ** rng.randint(0, 12)))
            factors.append(f)
        got = integrate_product(factors)
        assert got == integrate_product_oracle(factors), seed
        nonzero += got != 0
    assert nonzero >= 150


def test_overlay_matches_fraction_sweep_on_tied_ends():
    """The integer sweep against the Fraction one: ends drawn from a few
    values over unlike denominators, so many intervals start or end
    together, with unit, bitmask and arbitrary weights; the integer sweep
    takes the ends over their common denominator."""
    for seed in range(400):
        rng = random.Random(f"overlay{seed}")
        ends = sorted({F(rng.randint(-9, 9), rng.choice([1, 2, 3, 6, 9 ** 5]))
                       for _ in range(rng.randint(2, 6))})
        if len(ends) < 2:
            continue
        pairs = []
        for _ in range(rng.randint(1, 8)):
            lo, hi = sorted(rng.sample(ends, 2))
            pairs.append((lo, hi))
        for weights in (None, [1 << n for n in range(len(pairs))],
                        [rng.randint(-3, 3) or 1 for _ in pairs]):
            den = math.lcm(*(x.denominator for x in ends))
            got = _overlay([(int(lo * den), int(hi * den)) for lo, hi in pairs], weights)
            assert all(type(x) is int for cell in got for x in cell)
            assert [(F(lo, den), F(hi, den), v) for lo, hi, v in got] \
                == overlay_oracle(pairs, weights), seed


def _producer_cases(rng: random.Random):
    """(name, trusted result, the raw pieces its producer built before) for
    every trusted producer on one seeded draw.  The functions are squeezed
    by 3^k, k <= 12, and shifted by n / 3^k, so breakpoint denominators
    reach 4 * 3^12; scale factors include 0, a^(+-40) and c < 0; the sums
    include f - f and f + (line - f), whose cells must merge into one
    line; and the restrictions take sets whose pieces start and end at
    piece ends of f."""
    f, g = random_pwl(rng), random_pwl(rng)
    if rng.random() < 0.5:
        f = f.compose_scale(rng.choice([1, -1]) * 3 ** rng.randint(0, 12))
    if rng.random() < 0.5:
        g = g.compose_shift(F(rng.randint(-4, 4), 3 ** rng.randint(0, 12)))
    a = rng.choice(SCALES)
    for c in (0, -1, a, F(1, a), F(a) ** 40, F(a) ** -40,
              F(rng.randint(-9, 9), rng.randint(1, 9))):
        yield ("scale_value", f.scale_value(c),
               [(lo, hi, al * c, be * c) for lo, hi, al, be in f.pieces])
        if c:
            c = F(c)
            yield ("compose_scale", f.compose_scale(c),
                   [(lo / c, hi / c, al * c, be) if c > 0 else (hi / c, lo / c, al * c, be)
                    for lo, hi, al, be in f.pieces])
    t = F(rng.randint(-9, 9), 3 ** rng.randint(0, 12))
    yield ("compose_shift", f.compose_shift(t),
           [(lo - t, hi - t, al, al * t + be) for lo, hi, al, be in f.pieces])
    ends = f.breakpoints()
    cuts = sorted(rng.sample(ends, min(len(ends), rng.randint(2, 4)))) if ends else []
    for where in (IntervalSet.of(*zip(cuts[::2], cuts[1::2])), f.support(),
                  random_set(rng)):
        yield ("restrict", f.restrict(where),
               [(lo, hi, p[2], p[3]) for lo, hi, (p, w) in refine([f, where]) if p and w])
    hull = (min(ends, default=F(0)) - 1, max(ends, default=F(0)) + 1)
    line = PiecewiseLinear.of((hull[0], hull[1], F(rng.randint(-3, 3), 2), F(1, 3)))
    rest = sum_oracle([line, f.scale_value(-1)])
    for fns in ([f, g], [f, f.scale_value(-1)], [f, rest], [f, g, rest, f],
                [f.compose_scale(F(a) ** 40), g], [], [f]):
        yield "_sum", _sum(fns), list(sum_oracle(fns).pieces)
    assert f + rest == line and len(line.pieces) == 1
    assert (f - f).is_zero()
    A, B = random_set(rng), random_set(rng).translate(t)
    for X, Y in ((A, B), (B, A), (A, A), (A, f.support())):
        for value, result in ((3, X.intersect(Y)), (1, X.difference(Y))):
            yield ("_cover", result, [(lo, hi) for lo, hi, v in overlay_oracle(
                X.pieces + Y.pieces, [1] * len(X.pieces) + [2] * len(Y.pieces))
                if v == value])
    yield "translate", A.translate(t), [(lo + t, hi + t) for lo, hi in A.pieces]
    for c in (F(a) ** 40, F(a) ** -40, F(-1), F(1, a)):
        yield ("scale", A.scale(c), [(lo * c, hi * c) if c > 0 else (hi * c, lo * c)
                                     for lo, hi in A.pieces])


def test_trusted_producers_are_canonical():
    """Each producer that skips canonicalisation gives pieces that are
    canonical already: equal to their own canonical form and to the
    canonical form of the pieces it built before, all Fractions.  It equals
    the parse of those pieces, so its integer form ((den, cells, scale) of
    a function, (den, cells) of a set) is the canonical one too."""
    counts = {}
    for seed in range(300):
        rng = random.Random(f"trusted{seed}")
        for name, got, raw in _producer_cases(rng):
            canonical = (_canonical_pieces if isinstance(got, PiecewiseLinear)
                         else _canonicalize)
            assert got.pieces == canonical(got.pieces) == canonical(raw), (seed, name)
            parsed = (PiecewiseLinear.of(*raw) if isinstance(got, PiecewiseLinear)
                      else IntervalSet.of(*raw))
            assert got == parsed and hash(got) == hash(parsed), (seed, name)
            assert all(type(x) is F for p in got.pieces for x in p), (seed, name)
            counts[name] = counts.get(name, 0) + bool(got.pieces)
    assert min(counts.values()) >= 100, counts


def _cell_fields(cell):
    """A cell's float fields, and whether it keeps break-term data."""
    return cell._replace(coeffs=tuple(cell.coeffs), poly=cell.poly is not None)


def _signals(name):
    rng = random.Random(f"signals:{name}")
    seeded = [TestSignal.tent(F(rng.randint(-12, 0), rng.randint(1, 9)),
                              F(rng.randint(1, 12), rng.randint(1, 9)))
              for _ in range(2)]
    return [TestSignal.parse("tent:[-1,1)"), TestSignal.parse("chi:[1,2)"),
            TestSignal.indicator(F(-1, 3), 2)] + seeded


@pytest.mark.parametrize("name", ["shannon", "journe", "pwl:a=1/2,b=1/2",
                                  "pwl:a=3/4,b=5/4"])
def test_quadplan_cells_match_oracle_on_builtins(name):
    """The plan's cells on the integer grid against the Fraction cells of
    the cut loop, and its break terms bit for bit against the Fraction
    sums, on every buildable a and j in -8..8."""
    built = cells = breaks = 0
    for a in SCALES:
        try:
            _, wavelets = build_family(replace(example_by_name(name), dilation=a))
        except ValueError:
            continue   # journe is not admissible at every a
        built += 1
        for f in _signals(name):
            for psi in wavelets.profiles:
                for j in range(-8, 9):
                    square = _scaled_square(psi, a, j)
                    plan = QuadPlan(f.hat, square)
                    want = closed_cells_oracle(f.hat, square)
                    assert ([_cell_fields(c) for c in plan.closed]
                            == [_cell_fields(c) for c in want]), (a, f.label, j)
                    cells += len(want)
                    polys = [c for c in want if c.poly is not None]
                    if polys:
                        xs, jumps = break_terms_oracle(polys)
                        assert plan._xs.tobytes() == xs.tobytes(), (a, f.label, j)
                        assert plan._jumps.tobytes() == jumps.tobytes(), (a, f.label, j)
                        assert plan._jumps.shape == jumps.shape, (a, f.label, j)
                        breaks += len(xs)
    assert built >= 3 and cells and (breaks or name.startswith("pwl"))
