import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from framesmith.intervals import IntervalSet, _overlay, union_all


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
    if A.intersect(B).is_empty():
        assert A.union(B).measure() == A.measure() + B.measure()


def test_overlay_counts():
    pairs = [(F(0), F(2)), (F(1), F(3))]
    assert _overlay(pairs) == [(F(0), F(1), 1), (F(1), F(2), 2), (F(2), F(3), 1)]
    # distinct powers of 2 as weights: the value is the bitmask of the cover
    assert _overlay(pairs, [1, 2]) == [(F(0), F(1), 1), (F(1), F(2), 3), (F(2), F(3), 2)]


def test_union_all_and_hull():
    s = union_all([IntervalSet.of((0, 1)), IntervalSet.of((2, 3))])
    assert s.hull() == (F(0), F(3))
    assert not s.contains(F(3, 2))


def test_scale_rejects_zero():
    with pytest.raises(ValueError):
        IntervalSet.of((0, 1)).scale(0)
