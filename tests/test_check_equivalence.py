"""The checks against the direct evaluations they replace.

`check_split` decides the shifted splits from the supports, `norm_sum`
telescopes the scale sum to two values of sigma, and density's
`dilation_monotone` is one exact piecewise-linear inequality instead of a
walk along sampled orbits.  Each test here runs the plain per-shift loop, per-scale loop or
64-step walk next to the checker and asks for the same verdict: no shifted
residual on any grid point wherever the splits pass for all xi, and away
from the measure-zero orbits that meet a jump of sigma for the scale sum
and the walk at a < 0.  The frame test's out-of-range energy telescopes the
same way; it is held against the 80-scale sum of per-scale energies that
it replaces.
"""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from framesmith.construction import (LayeredFamily, SpectralSpec, build_family,
                                     build_scaling, example_by_name,
                                     random_admissible_spec)
from framesmith.folding import window
from framesmith.frametest import TestSignal, out_of_range_energy, per_scale_energy_exact
from framesmith.intervals import IntervalSet
from framesmith.piecewise import GeneratorSet, PiecewiseLinear, SqrtProfile, _square_sum
from framesmith.rationals import as_fraction
from framesmith.verification import (check_density, check_ntf_multiwavelet,
                                     check_split, family_grid)

from oracles import fiber, inward_depth, norm_sum_oracle, pair_sum, partial_at

EXAMPLES = ("shannon", "journe", "pwl:a=1/2,b=1/2", "pwl:a=3/4,b=5/4")
DILATIONS = (2, 3, -2, -3, 4)


def _families():
    out = {}
    for name in EXAMPLES:
        for a in DILATIONS:
            try:
                out[f"{name}@{a}"] = build_family(
                    SpectralSpec(example_by_name(name).sigma, a))
            except ValueError:  # journe is not admissible at |a| = 3
                pass
    for seed in range(4):
        for a in (2, 3):
            spec = random_admissible_spec(random.Random(7000 + 10 * seed + a), a)
            out[f"random{seed}@{a}"] = build_family(spec)
    return out


FAMILIES = _families()


def shifted_split_residuals(phi_fam, psi_fam, grid):
    """The shift-by-shift loop over pair_sum: (s, xi) for every nonzero
    residual of the split at shift s != 0 inside the supports' shift
    window."""
    a = psi_fam.dilation
    phis = phi_fam.generator_set().profiles
    psis = psi_fam.generator_set().profiles
    lo1, hi1 = phi_fam.generator_set().support_hull()
    lo2, hi2 = psi_fam.generator_set().support_hull()
    radius = max(abs(x) for x in (lo1, hi1, lo2, hi2)) or F(1)
    s_window = int(radius) * abs(a) + 1
    found = []
    for s in range(-s_window, s_window + 1):
        if s == 0:
            continue
        for xi in grid:
            val = -pair_sum(phis, xi, xi + 2 * s) - pair_sum(psis, xi, xi + 2 * s)
            if s % a == 0:
                val = val + pair_sum(phis, xi / F(a), (xi + 2 * s) / F(a))
            if not val.is_zero():
                found.append((s, xi))
    return found


def split_rows(report):
    return [(c.name, c.status) for c in report.checks]


def _repeating_wavelets(a):
    # a wavelet on [1, 4) repeats residues: psi(xi) psi(xi + 2) = 1 near 1
    scaling, wavelets = FAMILIES[f"shannon@{a}"]
    layer = IntervalSet.of((1, 4))
    return scaling, LayeredFamily((SqrtProfile.indicator(layer),), (layer,),
                                  wavelets.sigma, a)


def _two_repeating_wavelets(a):
    # the second is a sqrt(linear) profile with irrational roots
    scaling, wavelets = FAMILIES[f"shannon@{a}"]
    layer = IntervalSet.of((F(1, 3), 4))
    ramp = PiecewiseLinear.of((F(1, 3), 4, F(1, 5), F(1, 7)))
    psis = (SqrtProfile.indicator(layer), SqrtProfile(ramp))
    return scaling, LayeredFamily(psis, (layer, layer), wavelets.sigma, a)


def _repeating_scaling(a):
    # the lattice shifts s = a*k pair phi_hat(xi/a) with phi_hat(xi/a + 2k)
    scaling, wavelets = FAMILIES[f"shannon@{a}"]
    ramp = PiecewiseLinear.of((F(-1, 2), 3, F(1, 6), F(1, 2)))
    phis = (SqrtProfile.indicator(IntervalSet.of((F(-1, 2), 3))), SqrtProfile(ramp))
    return replace(scaling, profiles=phis, layers=(window(0), window(1))), wavelets


REPEATING = [(_repeating_wavelets, a) for a in (2, -3)] + \
    [(_two_repeating_wavelets, a) for a in (2, 3, -2)] + \
    [(_repeating_scaling, a) for a in (2, 3, -2)]


class TestSplitFromSupports:
    @pytest.mark.parametrize("key", sorted(FAMILIES))
    def test_matches_pair_sum_loop(self, key):
        scaling, wavelets = FAMILIES[key]
        scaling.validate()
        wavelets.validate()
        grid = family_grid(scaling.generator_set(), wavelets.generator_set())
        assert shifted_split_residuals(scaling, wavelets, grid) == []
        report = check_split(scaling, wavelets)
        assert split_rows(report) == [("two_scale_split[s=0]", "pass"),
                                      ("shifted_splits", "pass")]
        assert "for all xi" in report.checks[1].detail

    @pytest.mark.parametrize("build, a", REPEATING,
                             ids=[f"{b.__name__}@{a}" for b, a in REPEATING])
    def test_repeated_residue_raises(self, build, a):
        # the loop sees the shifted residuals that the premise rules out
        scaling, wavelets = build(a)
        grid = family_grid(scaling.generator_set(), wavelets.generator_set())
        assert shifted_split_residuals(scaling, wavelets, grid)
        with pytest.raises(ValueError, match=r"^profile 0 meets the residue cell .*; "
                                             r"the diagonal fiber Gramian needs "
                                             r"supports injective mod 2$"):
            check_split(scaling, wavelets)

    def test_irrational_residuals(self):
        # doubling one wavelet square breaks the split at s = 0 only
        scaling, wavelets = FAMILIES["pwl:a=3/4,b=5/4@2"]
        psis = (SqrtProfile(wavelets.profiles[0].square.scale_value(2)),) \
            + wavelets.profiles[1:]
        bogus = replace(wavelets, profiles=psis)
        grid = family_grid(scaling.generator_set(), bogus.generator_set())
        assert shifted_split_residuals(scaling, bogus, grid) == []
        report = check_split(scaling, bogus)
        assert split_rows(report) == [("two_scale_split[s=0]", "fail"),
                                      ("shifted_splits", "pass")]
        assert report.status == "fail"

    @pytest.mark.parametrize("key", ["pwl:a=3/4,b=5/4@-3", "random1@3"])
    def test_fiber_entries_are_profile_values(self, key):
        scaling, wavelets = FAMILIES[key]
        for p in scaling.generator_set().profiles + wavelets.generator_set().profiles:
            lo, hi = p.support().hull()
            for xi in (F(1, 3), F(-5, 7), F(9, 4)):
                ks = range(int((lo - xi) / 2) - 1, int((hi - xi) / 2) + 2)
                expected = {k: p.value_sq(xi + 2 * k) for k in ks
                            if p.value_sq(xi + 2 * k)}
                assert fiber(p, xi) == expected


def loop_partial(family, xi, J, Jout):
    square_sum = _square_sum(family.profiles)
    return sum((square_sum.eval(xi * F(family.dilation) ** j)
                for j in range(-J, Jout + 1)), F(0))


def jumps(f: PiecewiseLinear) -> set:
    return {b for b in f.breakpoints() if f.eval_left(b) != f.eval(b)}


def orbit_meets(points: set, a: int, xi, js) -> bool:
    return any(xi * F(a) ** j in points for j in js)


class TestTelescopedNormSum:
    @pytest.mark.parametrize("key", sorted(FAMILIES))
    def test_partial_equals_scale_loop(self, key):
        # norm_sum's partial sum is sigma(a^{-J-1} xi) - sigma(a^Jout xi).
        # At a < 0 the gain, built by compose_scale with [l, r) pieces, takes
        # the left limit of sigma: the loop then differs where the orbit
        # meets a jump of sigma, a measure-zero set of xi.
        wavelets = FAMILIES[key][1]
        a, sigma = wavelets.dilation, wavelets.sigma
        assert _square_sum(wavelets.profiles) == wavelets.gain()
        rng = random.Random(key)
        grid = family_grid(wavelets.generator_set())[::7]
        # orbits through every breakpoint of sigma, jumps included
        points = grid + [b * F(a) ** m for b in sigma.breakpoints() if b
                         for m in (-3, -1, 0, 1, 2)]
        compared = 0
        for xi in points:
            J, Jout = rng.randint(0, 12), rng.randint(0, 4)
            if a < 0 and orbit_meets(jumps(sigma), a, xi, range(-J - 1, Jout)):
                continue
            compared += 1
            telescoped = (sigma.eval(xi / F(a) ** (J + 1))
                          - sigma.eval(xi * F(a) ** Jout))
            assert telescoped == loop_partial(wavelets, xi, J, Jout)
        assert compared >= len(grid)
        assert check_ntf_multiwavelet(wavelets).status == "pass"

    def test_negative_dilation_jump_keeps_loop_bytes(self):
        # -1/2 * (-2)^j hits the jumps of sigma = chi_[-1,1) at -1 and 1: the
        # loop counts psi there twice, the telescoped sum takes sigma's values
        wavelets = FAMILIES["shannon@-2"][1]
        xi = F(-1, 2)
        J, Jout = 0, 3  # the depths of the norm sum's rule at this point
        assert inward_depth(wavelets, xi) == J
        assert loop_partial(wavelets, xi, J, Jout) == 2
        assert partial_at(wavelets, xi) == 1
        report = check_ntf_multiwavelet(wavelets)
        assert report.checks[-1] == norm_sum_oracle(wavelets, True)[0]
        assert report.checks[-1].to_jsonable()["tail_bound"] == "0"

    @pytest.mark.parametrize("a", [2, 3, -2, -3])
    def test_orbit_through_the_clearance_edge(self, a):
        # |xi| = |a|^n: the orbit meets the ends of sigma = chi_[-1,1), where
        # the inward end term must already lie strictly inside (-1, 1)
        wavelets = FAMILIES[f"shannon@{a}"][1]
        for xi in [F(s * abs(a) ** n) for s in (1, -1) for n in range(3)]:
            assert partial_at(wavelets, xi) == 1, xi
        assert check_ntf_multiwavelet(wavelets).status == "pass"

    def test_untelescoped_family_has_no_norm_sum_row(self):
        # a corrupted square sum no longer equals the gain: the identity's
        # witness is the verdict, and no scale window is sampled
        wavelets = FAMILIES["pwl:a=1/2,b=1/2@2"][1]
        psis = (SqrtProfile(wavelets.profiles[0].square.scale_value(F(9, 4))),) \
            + wavelets.profiles[1:]
        bogus = replace(wavelets, profiles=psis)
        report = check_ntf_multiwavelet(bogus)
        names = [(c.name, c.status) for c in report.checks]
        assert names[-1] == ("scale_sum_telescopes", "fail")
        assert report.checks[-1].witness["difference"] != 0
        assert not any(name == "norm_sum" for name, _ in names)


def full_walk(phi_sq, a, xi):
    """The 64-step orbit walk: the first (j, value, previous) with a
    decrease, or None."""
    prev = None
    for j in range(64):
        val = phi_sq.eval(xi / F(a) ** j)
        if prev is not None and val < prev:
            return (j, val, prev)
        if val == 1 and prev == 1:
            return None
        prev = val
    return None


def row(report, name):
    return next(c for c in report.checks if c.name == name)


def _windowed(square: PiecewiseLinear, a: int) -> LayeredFamily:
    """The scaling family sqrt(square) on each window: its square sum is
    square, and each support is injective mod 2."""
    return build_scaling(SpectralSpec(square, a))


def assert_agrees_with_walk(square: PiecewiseLinear, a: int, grid) -> str:
    """The exact check against the 64-step walk from each grid point: a dip
    the walk finds makes the check fail, and a fail witness x (a point with
    square(a x) > square(x)) is a one-step decrease of the walk from a x.  At a < 0 the walk may also see a dip at
    the single point whose orbit meets jumps of the square on two
    consecutive steps (compose_scale moves the ends of reflected pieces),
    so those orbits are left out."""
    monotone = row(check_density(_windowed(square, a)), "dilation_monotone")
    if monotone.status == "fail":
        x = as_fraction(monotone.witness["xi"])
        assert square.eval(x) < square.eval(a * x)
        assert full_walk(square, a, a * x) == (1, square.eval(x), square.eval(a * x))
    else:
        assert monotone.status == "pass" and "everywhere" in monotone.detail
    if a < 0:
        steps = jumps(square)
        grid = [xi for xi in grid if not orbit_meets(steps, a, xi, range(0, -65, -1))]
    if any(full_walk(square, a, xi) for xi in grid):
        assert monotone.status == "fail"
    return monotone.status


class TestShortOrbitWalk:
    @pytest.mark.parametrize("a", [2, -3])
    def test_planted_deep_decrease(self, a):
        # 1 - |x|/2 on [-1, 1) with a dip to 1/4 on [d, 3d), d = 3^-20
        d = F(1, 3 ** 20)
        line_r, line_l = (F(-1, 2), F(1)), (F(1, 2), F(1))
        square = PiecewiseLinear.of((-1, 0, *line_l), (0, d, *line_r),
                                    (d, 3 * d, 0, F(1, 4)), (3 * d, 1, *line_r))
        grid = [F(3, 4), F(-2, 3), F(1, 5), F(-7, 9), F(5, 7)]
        walks = [w for w in (full_walk(square, a, xi) for xi in grid) if w]
        assert walks, "the dip must be reached by some orbit"
        assert max(j for j, _, _ in walks) > 12
        assert assert_agrees_with_walk(square, a, grid) == "fail"

    def test_second_step_after_entry_decides(self):
        # a = -3: 1 - x on [0, 1), 1 on [-1, 0); the orbit of 1/2 rises on
        # its first step inside and falls on its second
        square = PiecewiseLinear.of((-1, 0, 0, 1), (0, 1, -1, 1))
        xi = F(1, 2)
        assert full_walk(square, -3, xi) == (2, F(17, 18), F(1))
        assert assert_agrees_with_walk(square, -3, [xi]) == "fail"

    @pytest.mark.parametrize("key", sorted(FAMILIES))
    def test_builtins_match_full_walk(self, key):
        scaling = FAMILIES[key][0]
        phi_sq = _square_sum(scaling.profiles)
        grid = family_grid(scaling.generator_set())
        assert row(check_density(scaling), "unit_limit_inward").status == "pass"
        assert assert_agrees_with_walk(phi_sq, scaling.dilation, grid) == "pass"


_EDGES = st.lists(st.fractions(F(1, 12), F(2), max_denominator=12),
                  min_size=1, max_size=4, unique=True).map(sorted)
_VALUES = st.fractions(0, F(3, 2), max_denominator=6)


@st.composite
def squares_with_limit_one(draw):
    """A nonnegative piecewise-linear square on a bounded set with both
    one-sided limits 1 at 0; every piece may jump at either end."""
    pieces = []
    for side in (1, -1):
        ends = [F(0)] + draw(_EDGES)
        start = F(1)
        for near, far in zip(ends, ends[1:]):
            stop = draw(_VALUES)
            slope = (stop - start) / (far - near) * side
            lo, hi = sorted((side * near, side * far))
            pieces.append((lo, hi, slope, start - slope * side * near))
            start = draw(_VALUES)
    return PiecewiseLinear.of(*pieces)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(squares_with_limit_one(), st.sampled_from([2, 3, -2, -3]))
def test_exact_orbit_check_agrees_with_walk(square, a):
    assert row(check_density(_windowed(square, a)), "unit_limit_inward").status == "pass"
    grid = family_grid(GeneratorSet((SqrtProfile(square),), a))[::3]
    grid += [b * F(a) ** m for b in square.breakpoints() if b for m in (-1, 0, 1)]
    assert_agrees_with_walk(square, a, grid)


@pytest.mark.parametrize("key", sorted(k for k in FAMILIES if not k.startswith("random")))
@pytest.mark.parametrize("signal, j_min, j_max", [("tent:[-1,1)", -8, 8),
                                                  ("chi:[-3,-1/5)", 1, 4)])
def test_frame_tail_covers_the_80_scale_sum(key, signal, j_min, j_max):
    """The exact out-of-range energy against the 80-scale sum it replaces:
    it adds the scales past 40 on either side, which are >= 0 and below
    1e-10 ||f||^2 together."""
    wavelets = FAMILIES[key][1]
    a = wavelets.dilation
    f = TestSignal.parse(signal)
    tail_js = list(range(j_min - 40, j_min)) + list(range(j_max + 1, j_max + 41))
    loop = sum(per_scale_energy_exact(f, psi, a, j)
               for j in tail_js for psi in wavelets.profiles)
    tail = out_of_range_energy(f, wavelets, j_min, j_max)
    assert 0 <= tail - loop <= F(1, 10 ** 10) * f.norm2()
