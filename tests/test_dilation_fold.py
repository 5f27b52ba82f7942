"""The dilation fold against the truncated searches it replaces.

`fold_dilation` decides the wavelet-set tiling, the closure of the
contracted copies and the least overlapping scale gap for all xi.  Each
test here runs the windowed overlay, the depth-40 membership test or the
capped gap loop of `oracles` next to it on seeded sets at a = 2, 3, -2, -3
and 4 -- unions of dilated annulus pieces, perturbed ones, one-sided ones
and ones that touch 0 -- whose other pieces lie in 1/128 <= |xi| <= 80,
where the truncations see every scale that matters.
"""

import random
from fractions import Fraction as F

import pytest

from framesmith.construction import (ClosureDidNotStabilize, LayeredFamily,
                                     SpectralSpec, build_family,
                                     example_by_name, random_admissible_spec,
                                     waveletset_closure)
from framesmith.folding import DILATION_FLOOR, fold_dilation
from framesmith.intervals import IntervalSet
from framesmith.piecewise import PiecewiseLinear, SqrtProfile
from framesmith.verification import check_semiorthogonal, check_wavelet_set_tiling

from oracles import closure_member, semiorth_oracle, tiling_oracle

DILATIONS = (2, 3, -2, -3, 4)
SETS_PER_DILATION = 60
# a prime denominator no endpoint of a set or of its contracted copies has
PROBE_DEN = 7919


def _annulus_set(rng: random.Random, a: int) -> IntervalSet:
    """A union of pieces of the annulus {r0 <= |xi| < |a| r0}, each dilated
    by a^j, |j| <= 2: a wavelet set unless pieces collide."""
    m = abs(a)
    r0 = F(rng.randint(1, 8), 8)
    pieces = []
    for sign in (1, -1):
        cuts = sorted(r0 + (m - 1) * r0 * F(k, 16)
                      for k in rng.sample(range(1, 16), rng.randint(0, 3)))
        ends = [r0] + cuts + [m * r0]
        for lo, hi in zip(ends, ends[1:]):
            piece = IntervalSet.of((lo, hi) if sign > 0 else (-hi, -lo))
            pieces.append(piece.scale(F(a) ** rng.randint(-2, 2)))
    return IntervalSet.of(*(p for s in pieces for p in s.pieces))


def _perturbed(rng: random.Random, E: IntervalSet, a: int) -> IntervalSet:
    """E with one edit: a moved end, a dropped piece, a dropped side, an
    extra piece, or a piece reaching 0 from one side or from both."""
    pieces = list(E.pieces)
    kind = rng.choice(("move", "drop", "one_sided", "extra", "zero", "zero2"))
    if kind == "move":
        i = rng.randrange(len(pieces))
        lo, hi = pieces[i]
        pieces[i] = (lo, hi + (hi - lo) * F(rng.choice((-1, 1)), rng.randint(3, 9)))
    elif kind == "drop" and len(pieces) > 1:
        pieces.pop(rng.randrange(len(pieces)))
    elif kind == "one_sided":
        pieces = [p for p in pieces if p[0] > 0]
    elif kind == "extra":
        lo = F(rng.randint(1, 64), 8)
        pieces.append((lo, lo + F(rng.randint(1, 8), 8)))
    elif kind == "zero":
        x = F(rng.randint(1, 8), 64)
        pieces.append((0, x) if rng.random() < 0.5 else (-x, 0))
    else:
        pieces.append((-F(rng.randint(1, 8), 64), F(rng.randint(1, 8), 64)))
    return IntervalSet.of(*pieces)


def _seeded_sets(a: int):
    rng = random.Random(9000 + a)
    out = []
    for n in range(SETS_PER_DILATION):
        E = _annulus_set(rng, a)
        out.append(_perturbed(rng, E, a) if n % 2 else E)
    return out


def _probe_points(rng: random.Random, n: int):
    return [F(rng.randint(-64 * PROBE_DEN, 64 * PROBE_DEN) or 1, PROBE_DEN)
            for _ in range(n)]


def _tiles(report) -> bool:
    return next(c for c in report.checks if c.name == "dilation_tiling").status == "pass"


class TestFold:
    @pytest.mark.parametrize("a", DILATIONS)
    def test_cells_partition_annulus_and_list_every_scale(self, a):
        m = abs(a)
        for E in _seeded_sets(a)[:20]:
            den, r, cells = fold_dilation([E, E.scale(F(1, 3))], a)
            r, cells = F(r, den), [(F(lo, den), F(hi, den), js) for lo, hi, js in cells]
            covered = IntervalSet.of(*((lo, hi) for lo, hi, _ in cells))
            assert covered == IntervalSet.of((-m * r, -r), (r, m * r))
            assert sum(hi - lo for lo, hi, _ in cells) == 2 * (m - 1) * r
            for lo, hi, scales in cells:
                mid = (lo + hi) / 2
                for s, js in zip((E, E.scale(F(1, 3))), scales):
                    got = [j for j in range(DILATION_FLOOR, 40)
                           if s.contains(mid * F(a) ** j)]
                    assert list(js) == got, (E, a, lo, hi)


class TestTiling:
    @pytest.mark.parametrize("a", DILATIONS)
    def test_verdict_equals_windowed_overlay(self, a):
        verdicts = set()
        for E in _seeded_sets(a):
            got = _tiles(check_wavelet_set_tiling([E], a))
            assert got == tiling_oracle(E, a), (E, a)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_shannon_at_every_dilation_sign(self):
        shannon = IntervalSet.of((-2, -1), (1, 2))
        assert check_wavelet_set_tiling([shannon], -2).status == "pass"

    @pytest.mark.parametrize("E", [IntervalSet.of((0, 1)), IntervalSet.of((-1, 0)),
                                   IntervalSet.of((-1, 1), (2, 3))])
    def test_set_meeting_zero_fails_there(self, E):
        row = next(c for c in check_wavelet_set_tiling([E], 2).checks
                   if c.name == "dilation_tiling")
        assert row.status == "fail" and row.witness == {"xi": 0}

    def test_far_wavelet_set_passes_beyond_any_window(self):
        # the Shannon set dilated by 2^8 still tiles, outside [-64, 64]
        far = IntervalSet.of((-2, -1), (1, 2)).scale(F(2) ** 8)
        assert _tiles(check_wavelet_set_tiling([far], 2))
        assert not tiling_oracle(far, 2)


class TestClosure:
    @pytest.mark.parametrize("a", DILATIONS)
    def test_agrees_with_membership(self, a):
        rng = random.Random(500 + a)
        kinds = set()
        for E in _seeded_sets(a):
            try:
                U = waveletset_closure(E, a)
            except ClosureDidNotStabilize as e:
                kinds.add("raise")
                lo, hi = e.cell
                # no dilate of E reaches the named cell's orbit, while the
                # orbit of another cell on its side(s) is in U down to 0
                assert not any(closure_member(E, a, (lo + hi) / 2 * F(a) ** k)
                               for k in range(-30, 30))
                den, _, cells = fold_dilation([E], a)
                reached = next(c for c in cells
                               if c[2][0] and (a < 0 or (c[0] > 0) == (lo > 0)))
                assert closure_member(E, a, F(reached[0] + reached[1], 2 * den) * F(a) ** -30)
                continue
            kinds.add("finite")
            assert all(isinstance(x, F) for piece in U.pieces for x in piece)
            for x in _probe_points(rng, 60):
                assert U.contains(x) == closure_member(E, a, x), (E, a, x)
        assert kinds == {"raise", "finite"}

    def test_one_sided_closure(self):
        assert waveletset_closure(IntervalSet.of((2, 10)), 3) == IntervalSet.of((0, F(10, 3)))

    def test_one_orbit_side_unreached_raises_with_cell(self):
        with pytest.raises(ClosureDidNotStabilize, match=r"annulus cell \[-3,-1\)") as e:
            waveletset_closure(IntervalSet.of((1, 2)), -3)
        assert e.value.cell == (-3, -1)


def _semiorth_families():
    fams = []
    for name in ("shannon", "journe", "pwl:a=1/2,b=1/2", "pwl:a=3/4,b=5/4"):
        for a in DILATIONS:
            try:
                fams.append(build_family(SpectralSpec(example_by_name(name).sigma, a))[1])
            except ValueError:  # journe is not admissible at |a| = 3
                pass
    for seed in range(30):
        a = DILATIONS[seed % len(DILATIONS)]
        fams.append(build_family(random_admissible_spec(random.Random(4000 + seed), a))[1])
    return fams


def _witness(report):
    row = report.checks[0]
    if row.status == "pass":
        return None
    w = row.witness
    return (w["psi"], w["psi_other"], w["scale_gap"], w["overlap_lo"], w["overlap_hi"])


def _oracle_witness(supports, a):
    found = semiorth_oracle(supports, a)
    if found is None:
        return None
    i, i2, delta, ov = found
    return (i, i2, delta, ov.pieces[0][0], ov.pieces[0][1])


class TestSemiOrthogonality:
    def test_families_match_gap_loop(self):
        witnesses = set()
        for fam in _semiorth_families():
            got = _witness(check_semiorthogonal(fam))
            assert got == _oracle_witness([p.support() for p in fam.profiles], fam.dilation)
            witnesses.add(got is None)
        assert witnesses == {True, False}

    @pytest.mark.parametrize("a", DILATIONS)
    def test_seeded_sets_match_gap_loop(self, a):
        # indicator profiles on one to three seeded sets each
        rng = random.Random(77 + a)
        sets = _seeded_sets(a)
        fails = 0
        for n in range(SETS_PER_DILATION):
            supports = rng.sample(sets, rng.randint(1, 3))
            fam = LayeredFamily(tuple(SqrtProfile.indicator(s) for s in supports),
                                tuple(supports), PiecewiseLinear.zero(), a)
            got = _witness(check_semiorthogonal(fam))
            assert got == _oracle_witness(supports, a), (supports, a)
            fails += got is not None
        assert 0 < fails < SETS_PER_DILATION
