import random
from fractions import Fraction as F

from framesmith.folding import (_repeated_residue, fold_chunks, layered_partition,
                               per_multiplicity)
from framesmith.intervals import IntervalSet, union_all

from oracles import per_multiplicity_chunks


def brute_force_count(K: IntervalSet, xi: F, k_span: int = 40) -> int:
    """Oracle: count congruent representatives by trying every even shift."""
    return sum(1 for k in range(-k_span, k_span + 1) if K.contains(xi + 2 * k))


def test_fundamental_domain_is_single_layer():
    K = IntervalSet.of((-1, 1))
    m = per_multiplicity(K)
    assert m.cells == ((F(-1), F(1), 1),)
    assert m.max_value() == 1
    assert layered_partition(K) == [K]


def test_double_cover():
    K = IntervalSet.of((-2, 2))
    m = per_multiplicity(K)
    assert m.max_value() == 2
    assert m.integral() == K.measure()
    # ascending-representative rule, half-open convention
    assert layered_partition(K) == [IntervalSet.of((-2, 0)), IntervalSet.of((0, 2))]


def test_annulus_single_layer():
    K = IntervalSet.of((-2, -1), (1, 2))
    m = per_multiplicity(K)
    assert m.max_value() == 1
    assert m.cells == ((F(-1), F(1), 1),)
    assert layered_partition(K) == [K]


def test_fold_against_brute_force_oracle():
    rng = random.Random(17)
    for _ in range(50):
        pieces = []
        for _ in range(rng.randint(1, 5)):
            lo = F(rng.randint(-60, 50), 8)
            width = F(rng.randint(1, 40), 8)
            pieces.append((lo, lo + width))
        K = IntervalSet.of(*pieces)
        m = per_multiplicity(K)
        for _ in range(40):
            xi = F(rng.randint(-8, 7), 8) + F(rng.randint(0, 15), 128)
            assert m.value_at(xi) == brute_force_count(K, xi), (K, xi)


def test_partition_postconditions_randomized():
    rng = random.Random(23)
    for _ in range(50):
        pieces = []
        for _ in range(rng.randint(1, 4)):
            lo = F(rng.randint(-40, 30), 4)
            width = F(rng.randint(1, 30), 4)
            pieces.append((lo, lo + width))
        K = IntervalSet.of(*pieces)
        m = per_multiplicity(K)
        layers = layered_partition(K)
        assert len(layers) == m.max_value()
        # pairwise disjoint with union exactly K
        assert union_all(layers) == K
        total = sum((layer.measure() for layer in layers), F(0))
        assert total == K.measure()
        for i, layer in enumerate(layers):
            mult = per_multiplicity(layer)
            assert mult.max_value() <= 1
            # congruent (mod 2pi, up to measure zero) to {multiplicity >= i+1}
            assert mult.level_set(1) == m.level_set(i + 1)


def test_partition_deterministic():
    K = IntervalSet.of((F(-7, 3), F(5, 2)), (3, F(9, 2)))
    a = layered_partition(K)
    b = layered_partition(K)
    assert a == b
    assert repr(a) == repr(b)


def test_fold_chunks_cover_and_translate_back():
    K = IntervalSet.of((F(5, 2), F(7, 2)))
    chunks = fold_chunks(K)
    rebuilt = IntervalSet.of(*[(lo + 2 * k, hi + 2 * k) for lo, hi, k in chunks])
    assert rebuilt == K
    assert all(F(-1) <= lo < hi <= F(1) for lo, hi, _ in chunks)


def test_empty_set():
    assert layered_partition(IntervalSet.empty()) == []
    assert per_multiplicity(IntervalSet.empty()).max_value() == 0


def test_weighted_windows_match_chunk_overlay():
    rng = random.Random(31)
    for _ in range(3000):
        pieces = []
        for _ in range(rng.randint(1, 4)):
            lo = F(rng.randint(-80, 60), rng.choice((1, 2, 3, 4, 8)))
            pieces.append((lo, lo + F(rng.randint(1, 120), rng.choice((1, 2, 4, 5)))))
        K = IntervalSet.of(*pieces)
        assert per_multiplicity(K) == per_multiplicity_chunks(K), K


def test_long_piece_folds_without_walking_its_windows():
    # [1, 2^40) meets 2^39 windows; the interior ones enter as one weighted pair
    m = per_multiplicity(IntervalSet.of((1, 2 ** 40)))
    assert m.cells == ((F(-1), F(0), 2 ** 39), (F(0), F(1), 2 ** 39 - 1))
    assert m.integral() == 2 ** 40 - 1


def test_repeated_residue_matches_the_fold():
    # a hull no longer than 2 answers at once; the fold decides the rest
    rng = random.Random(31)
    for _ in range(300):
        start = F(rng.randint(-40, 40), rng.choice((1, 2, 3, 8)))
        ends = sorted({start + F(rng.randint(0, 36), 12) for _ in range(rng.randint(2, 6))})
        K = IntervalSet.of(*zip(ends[::2], ends[1::2]))
        expected = next((c for c in per_multiplicity(K).cells if c[2] >= 2), None)
        assert _repeated_residue(K) == expected
    assert _repeated_residue(IntervalSet.of((-1, 1))) is None
    assert _repeated_residue(IntervalSet.of((-1, F(1, 2)), (F(3, 4), F(11, 10)))) \
        == (F(-1), F(-9, 10), 2)
