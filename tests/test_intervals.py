import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from framesmith.intervals import IntervalSet, _overlay, union_all

from oracles import (_canonicalize, difference_oracle, intersect_oracle, overlay_oracle,
                     set_oracle)


def test_adjacent_pieces_merge():
    assert IntervalSet.of((-1, 0), (0, 1)) == IntervalSet.of((-1, 1))


def test_scale_and_measure():
    assert IntervalSet.of((1, 2)).scale(2) == IntervalSet.of((2, 4))
    assert IntervalSet.of((F(-1, 2), F(3, 4))).measure() == F(5, 4)


def test_canonical_form_unique_under_permutation():
    pieces = [(0, 2), (1, 3), (5, 6), (-2, 0)]
    rng = random.Random(3)
    base = IntervalSet.of(*pieces)
    for _ in range(20):
        rng.shuffle(pieces)
        assert IntervalSet.of(*pieces) == base
    assert base == IntervalSet.of((-2, 3), (5, 6))


def test_negative_dilation_flips():
    s = IntervalSet.of((1, 2), (3, 4)).scale(-2)
    assert s == IntervalSet.of((-4, -2), (-8, -6))
    assert s.measure() == 4


rational = st.integers(-24, 24).map(lambda n: F(n, 4))


@st.composite
def interval_sets(draw):
    n = draw(st.integers(0, 4))
    pairs = []
    for _ in range(n):
        a = draw(rational)
        b = draw(rational)
        if a != b:
            pairs.append((min(a, b), max(a, b)))
    return IntervalSet.of(*pairs)


@given(interval_sets(), interval_sets(), st.integers(-97, 97))
@settings(max_examples=300, deadline=None)
def test_boolean_algebra_against_membership_oracle(A, B, num):
    # probe at eighths so piece boundaries are hit too
    x = F(num, 8)
    in_a, in_b = A.contains(x), B.contains(x)
    assert A.union(B).contains(x) == (in_a or in_b)
    assert A.intersect(B).contains(x) == (in_a and in_b)
    assert A.difference(B).contains(x) == (in_a and not in_b)


@given(interval_sets(), interval_sets())
@settings(max_examples=200, deadline=None)
def test_measure_laws(A, B):
    assert A.union(B).measure() + A.intersect(B).measure() \
        == A.measure() + B.measure()
    assert A.translate(2).measure() == A.measure()
    assert A.scale(3).measure() == 3 * A.measure()
    if not A.intersect(B):
        assert A.union(B).measure() == A.measure() + B.measure()


def test_overlay_counts():
    pairs = [(0, 2), (1, 3)]
    assert _overlay(pairs) == [(0, 1, 1), (1, 2, 2), (2, 3, 1)]
    # distinct powers of 2 as weights: the value is the bitmask of the cover
    assert _overlay(pairs, [1, 2]) == [(0, 1, 1), (1, 2, 3), (2, 3, 2)]


def test_union_all_and_hull():
    s = union_all([IntervalSet.of((0, 1)), IntervalSet.of((2, 3))])
    assert s.hull() == (F(0), F(3))
    assert not s.contains(F(3, 2))


def test_scale_rejects_zero():
    with pytest.raises(ValueError):
        IntervalSet.of((0, 1)).scale(0)


# -- the integer form against the Fraction oracles ------------------------------

# ends over unlike denominators, so the sets' grids differ and often touch
mixed_end = st.builds(F, st.integers(-60, 60), st.sampled_from([1, 2, 3, 5, 6, 7, 12, 35]))
mixed_pairs = st.lists(st.tuples(mixed_end, mixed_end), max_size=6)
nonzero = st.builds(F, st.integers(-40, 40).filter(bool), st.sampled_from([1, 2, 3, 7, 10]))


def _canonical_form(S: IntervalSet) -> bool:
    """Sorted, nonempty, not touching, over the least denominator."""
    ends = [x for cell in S.cells for x in cell]
    return (ends == sorted(set(ends)) and len(ends) == 2 * len(S.cells)
            and math.gcd(S.den, *ends) == 1 and all(type(x) is int for x in ends))


@given(mixed_pairs)
@settings(max_examples=300, deadline=None)
def test_parse_matches_fraction_canonicalization(pairs):
    S = IntervalSet.of(*pairs)
    assert S.pieces == _canonicalize(pairs)
    assert _canonical_form(S)
    # the pieces read-out parses back to the same form
    again = IntervalSet.of(*S.pieces)
    assert again == S and hash(again) == hash(S) and (again.den, again.cells) == (S.den, S.cells)
    assert all(type(x) is F for piece in S.pieces for x in piece)
    assert IntervalSet.parse([(lo.numerator, lo.denominator), (hi.numerator, hi.denominator)]
                             for lo, hi in pairs) == S


@given(mixed_pairs, mixed_pairs)
@settings(max_examples=300, deadline=None)
def test_algebra_matches_oracles_over_mixed_denominators(p, q):
    A, B = IntervalSet.of(*p), IntervalSet.of(*q)
    for got, want in ((A.intersect(B), intersect_oracle(A, B)),
                      (A.difference(B), difference_oracle(A, B)),
                      (A.union(B), set_oracle(A.pieces + B.pieces)),
                      (union_all([A, B, A]), set_oracle(A.pieces + B.pieces))):
        assert got == want and got.pieces == want.pieces and _canonical_form(got)


@given(mixed_pairs, nonzero)
@settings(max_examples=300, deadline=None)
def test_translate_and_scale_by_rationals(pairs, c):
    A = IntervalSet.of(*pairs)
    t = c / 7  # never an integer unless c is a multiple of 7
    moved = A.translate(t)
    assert moved.pieces == _canonicalize((lo + t, hi + t) for lo, hi in A.pieces)
    assert _canonical_form(moved) and moved.translate(-t) == A
    for factor in (c, -c, 1 / c):
        image = A.scale(factor)
        assert image.pieces == _canonicalize(
            (lo * factor, hi * factor) if factor > 0 else (hi * factor, lo * factor)
            for lo, hi in A.pieces)
        assert _canonical_form(image) and image.measure() == abs(factor) * A.measure()
        assert image.scale(1 / factor) == A


@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 12)), max_size=8),
       st.sampled_from([1, 2, 3, 5, 12]))
@settings(max_examples=300, deadline=None)
def test_overlay_matches_fraction_sweep(pairs, den):
    pairs = [(lo, lo + width) for lo, width in pairs]
    weights = [1 << n for n in range(len(pairs))]
    for w in (None, weights):
        got = _overlay(pairs, w)
        want = overlay_oracle([(F(lo, den), F(hi, den)) for lo, hi in pairs], w)
        assert [(F(lo, den), F(hi, den), v) for lo, hi, v in got] == want


def test_equal_sets_spelled_over_different_denominators():
    spellings = [IntervalSet.of((F(1, 2), 1)), IntervalSet.of((F(2, 4), F(3, 3))),
                 IntervalSet.of(("3/6", "7/7")), IntervalSet.parse([((3, 6), (14, 14))]),
                 IntervalSet(6, [(3, 6)]), IntervalSet.of((F(1, 2), F(3, 4)), (F(3, 4), 1)),
                 IntervalSet.of((F(1, 6), F(2, 3))).translate(F(1, 3)),
                 IntervalSet.of((-2, -1)).scale(F(-1, 2))]
    assert len(set(spellings)) == 1 and len({hash(s) for s in spellings}) == 1
    assert all(s == spellings[0] for s in spellings)
    assert (spellings[0].den, spellings[0].cells) == (2, ((1, 2),))
    assert IntervalSet(12, []) == IntervalSet.of() and IntervalSet(12, []).den == 1
    assert repr(spellings[0]) == "IntervalSet([1/2,1))"
