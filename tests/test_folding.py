import random
from fractions import Fraction as F

import pytest

from framesmith.construction import LayeredFamily
from framesmith.folding import (_repeated_residue, fold_chunks, layered_partition,
                               per_multiplicity)
from framesmith.intervals import IntervalSet, union_all
from framesmith.piecewise import PiecewiseLinear, SqrtProfile
from framesmith.verification import check_semiorthogonal, check_wavelet_set_tiling

from oracles import (fold_chunks_oracle, layered_partition_oracle, per_multiplicity_chunks,
                     semiorth_oracle, tiling_oracle)


def _value_at(m, xi: F) -> int:
    """The multiplicity m reads at xi."""
    return next((c for lo, hi, c in m.cells if lo <= xi < hi), 0)


def _level_set(m, i: int) -> IntervalSet:
    """{residues with multiplicity >= i} as an interval set."""
    return IntervalSet.of(*((lo, hi) for lo, hi, c in m.cells if c >= i))


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
            assert _value_at(m, xi) == brute_force_count(K, xi), (K, xi)


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
            assert _level_set(mult, 1) == _level_set(m, i + 1)


def test_partition_deterministic():
    K = IntervalSet.of((F(-7, 3), F(5, 2)), (3, F(9, 2)))
    a = layered_partition(K)
    b = layered_partition(K)
    assert a == b
    assert repr(a) == repr(b)


def test_fold_chunks_cover_and_translate_back():
    K = IntervalSet.of((F(5, 2), F(7, 2)))
    chunks = [(F(lo, K.den), F(hi, K.den), k) for lo, hi, k in fold_chunks(K)]
    rebuilt = IntervalSet.of(*[(lo + 2 * k, hi + 2 * k) for lo, hi, k in chunks])
    assert rebuilt == K
    assert all(F(-1) <= lo < hi <= F(1) for lo, hi, _ in chunks)


def test_empty_set():
    assert layered_partition(IntervalSet()) == []
    assert per_multiplicity(IntervalSet()).max_value() == 0


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


# -- the integer folds against the Fraction oracles -----------------------------

def _mixed_set(rng: random.Random) -> IntervalSet:
    """Up to five pieces over unlike denominators, touching or overlapping
    now and then."""
    pieces = []
    for _ in range(rng.randint(1, 5)):
        lo = F(rng.randint(-90, 70), rng.choice((1, 2, 3, 5, 7, 12)))
        pieces.append((lo, lo + F(rng.randint(1, 90), rng.choice((1, 3, 4, 10)))))
    return IntervalSet.of(*pieces)


def test_folds_match_oracles_over_mixed_denominators():
    rng = random.Random(41)
    repeated = 0
    for _ in range(600):
        K = _mixed_set(rng)
        m, want = per_multiplicity(K), per_multiplicity_chunks(K)
        assert m == want and m.cells == want.cells, K
        assert layered_partition(K) == layered_partition_oracle(K), K
        expected = next((c for c in want.cells if c[2] >= 2), None)
        assert _repeated_residue(K) == expected, K
        repeated += expected is not None
        chunks = [(F(lo, K.den), F(hi, K.den), k) for lo, hi, k in fold_chunks(K)]
        assert chunks == fold_chunks_oracle(K), K
    assert 100 < repeated < 600


WIDE_DILATIONS = (4, 5, -4, -5)


def _annulus_sets(a: int, n: int = 40):
    """Unions of pieces of an annulus {r0 <= |xi| < |a| r0}, each dilated by
    a^j, |j| <= 1, over unlike denominators; every other one with a piece
    moved, so some tile by dilation and some do not."""
    rng = random.Random(600 + a)
    m, out = abs(a), []
    for count in range(n):
        r0 = F(rng.randint(1, 9), rng.choice((3, 5, 8)))
        pieces = []
        for sign in (1, -1):
            cuts = sorted({r0 + (m - 1) * r0 * F(k, 15) for k in rng.sample(range(1, 15), 2)})
            ends = [r0] + cuts + [m * r0]
            for lo, hi in zip(ends, ends[1:]):
                c = sign * F(a) ** rng.randint(-1, 1)
                pieces.append((lo * c, hi * c) if c > 0 else (hi * c, lo * c))
        if count % 2:
            i = rng.randrange(len(pieces))
            lo, hi = pieces[i]
            pieces[i] = (lo, hi + (hi - lo) / rng.choice((-3, 5)))
        out.append(IntervalSet.of(*pieces))
    return out


def _tiles(E, a) -> bool:
    report = check_wavelet_set_tiling([E], a)
    return next(c for c in report.checks if c.name == "dilation_tiling").status == "pass"


@pytest.mark.parametrize("a", WIDE_DILATIONS)
def test_dilation_fold_matches_oracles_at_wide_dilations(a):
    sets = _annulus_sets(a)
    verdicts = {_tiles(E, a) for E in sets}
    assert verdicts == {True, False}
    for E in sets:
        assert _tiles(E, a) == tiling_oracle(E, a), (E, a)
    rng = random.Random(700 + a)
    gaps = set()
    for _ in range(30):
        supports = rng.sample(sets, rng.randint(1, 3))
        fam = LayeredFamily(tuple(SqrtProfile.indicator(s) for s in supports),
                            tuple(supports), PiecewiseLinear.zero(), a)
        row = check_semiorthogonal(fam).checks[0]
        found = semiorth_oracle(supports, a)
        gaps.add(found is None)
        if found is None:
            assert row.status == "pass"
        else:
            i, i2, delta, ov = found
            w = row.witness
            assert (w["psi"], w["psi_other"], w["scale_gap"], w["overlap_lo"],
                    w["overlap_hi"]) == (i, i2, delta, *ov.pieces[0]), (supports, a)
    assert False in gaps
