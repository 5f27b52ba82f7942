import json
import math
import warnings
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framesmith.construction import SpectralSpec, build_family, \
    example_by_name, example_pwl, example_shannon
from framesmith.frametest import (TestSignal, _meets, coefficient, frame_energy,
                                  out_of_range_energy, per_scale_energy_exact)
from framesmith.intervals import IntervalSet
from framesmith.piecewise import PiecewiseLinear, SqrtProfile
from oracles import riemann_oracle


@pytest.fixture(scope="module")
def shannon():
    return build_family(example_shannon())


@pytest.fixture(scope="module")
def worked_half():
    return build_family(example_pwl(F(1, 2), F(1, 2)))


class TestSignals:
    def test_norms(self):
        assert TestSignal.indicator(1, 2).norm2() == F(1, 2)
        assert TestSignal.tent(-1, 1).norm2() == F(1, 3)

    def test_parse_grammar(self):
        s = TestSignal.parse("tent:[-1,1)")
        assert s.hat.eval(0) == 1
        c = TestSignal.parse("chi:[1/2,3/4)")
        assert c.hat.eval(F(5, 8)) == 1
        with pytest.raises(ValueError):
            TestSignal.parse("box(0,1)")
        with pytest.raises(ValueError):
            TestSignal.parse("tent:[1,1)")


class TestCoefficient:
    def test_shannon_dc_coefficient(self, shannon):
        f = TestSignal.indicator(1, 2)
        assert coefficient(f, shannon[1].profiles[0], 0, 0) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_supports_exact_zero(self, shannon):
        f = TestSignal.indicator(1, 2)
        assert coefficient(f, shannon[1].profiles[0], 5, 0) == 0

    def test_against_brute_force_riemann(self, worked_half):
        eta = worked_half[1].profiles[0]
        tent = TestSignal.tent(-1, 1)
        for j, k in ((0, 0), (0, 3), (0, 11), (-1, 4), (0, -3), (-1, -4)):
            sq = eta.square.compose_scale(F(2) ** (-j))
            oracle = 0.5 * (2.0 ** (-j / 2)) * riemann_oracle(
                [(tent.hat, False), (sq, True)], math.pi * k * 2.0 ** (-j))
            got = coefficient(tent, eta, j, k)
            assert abs(got - oracle) < 1e-6

    def test_oscillatory_phase_convention(self, shannon):
        # chi_[1,2) against the Shannon profile: closed form
        # (1/2) int_1^2 e^{i pi k u} du
        f = TestSignal.indicator(1, 2)
        for k in (1, 2, 5):
            want = (np.exp(2j * math.pi * k) - np.exp(1j * math.pi * k)) \
                / (2j * math.pi * k)
            got = coefficient(f, shannon[1].profiles[0], 0, k)
            assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("j, k", [(0, 1), (0, 7), (-1, 4), (2, 3), (-3, 250)])
    def test_negative_k_is_conjugate(self, worked_half, j, k):
        # the integrand f_hat * sqrt(|psi_hat|^2) is real
        eta = worked_half[1].profiles[0]
        tent = TestSignal.tent(-1, 1)
        got = coefficient(tent, eta, j, -k)
        assert got != 0 and got == coefficient(tent, eta, j, k).conjugate()


class TestPerScaleEnergy:
    def test_matches_k_sum(self, worked_half):
        eta = worked_half[1].profiles[0]
        tent = TestSignal.tent(-1, 1)
        exact = float(per_scale_energy_exact(tent, eta, 2, 0))
        vals = np.array([coefficient(tent, eta, 0, k) for k in range(801)])
        # k and -k carry the same energy (conjugate symmetry)
        total = 2 * np.sum(np.abs(vals) ** 2) - abs(vals[0]) ** 2
        assert abs(exact - total) < 1e-6

    def test_shannon_geometry(self, shannon):
        f = TestSignal.indicator(1, 2)
        psi = shannon[1].profiles[0]
        assert per_scale_energy_exact(f, psi, 2, 0) == F(1, 2)
        assert per_scale_energy_exact(f, psi, 2, 1) == 0


class TestFrameEnergy:
    def test_shannon_ratio_tight(self, shannon):
        f = TestSignal.indicator(1, 2)
        rep = frame_energy(f, shannon[1], j_min=-4, j_max=4,
                           k_tail_target=2e-7, k_budget=1 << 23)
        assert not rep.inconclusive
        assert abs(rep.ratio - 1.0) <= 1e-6

    def test_worked_family_ratio(self, worked_half):
        tent = TestSignal.tent(-1, 1)
        rep = frame_energy(tent, worked_half[1], j_min=-14, j_max=8)
        assert not rep.inconclusive
        assert abs(rep.ratio - 1.0) <= 3e-3

    def test_halved_profile_quarters_energy(self, worked_half):
        # the consistent family: quartered squares telescope to sigma/4
        wavelets = worked_half[1]
        halved = replace(
            wavelets,
            profiles=tuple(SqrtProfile(p.square.scale_value(F(1, 4)))
                           for p in wavelets.profiles),
            sigma=wavelets.sigma.scale_value(F(1, 4)))
        tent = TestSignal.tent(-1, 1)
        rep = frame_energy(tent, halved, j_min=-14, j_max=8)
        assert abs(rep.ratio - 0.25) <= 2e-3
        assert abs(rep.ratio + rep.tail_estimate / float(rep.norm2) - 0.25) <= 1e-5

    def test_squares_off_the_gain_rejected(self, worked_half):
        # quartered squares with sigma kept: the tail identity does not hold
        wavelets = worked_half[1]
        quartered = replace(wavelets, profiles=tuple(
            SqrtProfile(p.square.scale_value(F(1, 4))) for p in wavelets.profiles))
        with pytest.raises(ValueError, match="telescope"):
            frame_energy(TestSignal.tent(-1, 1), quartered, j_min=-2, j_max=2)

    def test_zero_signal_rejected(self, shannon):
        zero = TestSignal(TestSignal.tent(-1, 1).hat.scale_value(0))
        with pytest.raises(ValueError, match="zero"):
            frame_energy(zero, shannon[1])

    def test_energy_monotone_in_scale_range(self, worked_half):
        tent = TestSignal.tent(-1, 1)
        narrow = frame_energy(tent, worked_half[1], j_min=-4, j_max=2)
        wide = frame_energy(tent, worked_half[1], j_min=-8, j_max=4)
        assert wide.ratio >= narrow.ratio - 1e-12
        assert all(s.computed >= 0 for s in wide.scales)

    @pytest.mark.parametrize("j_max", [-1, -2])
    def test_inverted_scale_range_rejected(self, shannon, j_max):
        with pytest.raises(ValueError, match=f"empty scale range 0..{j_max}"):
            frame_energy(TestSignal.tent(-1, 1), shannon[1], j_min=0, j_max=j_max)

    def test_zero_wavelet_adds_nothing(self, shannon):
        wavelets = shannon[1]
        padded = replace(
            wavelets, profiles=wavelets.profiles + (SqrtProfile(PiecewiseLinear.zero()),))
        tent = TestSignal.tent(-1, 1)
        plain = frame_energy(tent, wavelets, j_min=-2, j_max=2)
        rep = frame_energy(tent, padded, j_min=-2, j_max=2)
        assert (rep.ratio, rep.tail_estimate) == (plain.ratio, plain.tail_estimate)

    def test_budget_exhaustion_is_inconclusive(self, shannon):
        f = TestSignal.indicator(1, 2)
        rep = frame_energy(f, shannon[1], j_min=0, j_max=0,
                           k_tail_target=1e-9, k_budget=256)
        assert rep.inconclusive
        assert rep.detail

    def test_negative_dilation_odd_scales_converge(self):
        # at a < 0 the frequency unit of an odd scale is negative; the
        # quadrature plan must still be refined for |frequency|
        wavelets = build_family(example_pwl(F(3, 4), F(5, 4), -2))[1]
        tent = TestSignal.tent(1, 3)
        rep = frame_energy(tent, wavelets, j_min=1, j_max=3)
        assert not rep.inconclusive
        for scale in rep.scales:
            exact = sum(per_scale_energy_exact(tent, psi, -2, scale.j)
                        for psi in wavelets.profiles)
            assert abs(scale.computed - float(exact)) <= 1e-6

    def test_three_quarter_family_default_range(self):
        # the k sweep reaches past 32000 here; closed-form cells keep it cheap
        wavelets = build_family(example_pwl(F(3, 4), F(5, 4)))[1]
        tent = TestSignal.tent(-1, 1)
        rep = frame_energy(tent, wavelets)
        assert not rep.inconclusive
        assert max(s.k_used for s in rep.scales) > 32000
        for scale in rep.scales:
            exact = sum(per_scale_energy_exact(tent, psi, 2, scale.j)
                        for psi in wavelets.profiles)
            assert abs(scale.computed - float(exact)) <= 1e-6

    def test_scaling_covariance(self, worked_half):
        # f_hat(a xi) with the j-range shifted by one gives the same ratio
        tent = TestSignal.tent(-1, 1)
        squeezed = TestSignal(tent.hat.compose_scale(2))
        a_rep = frame_energy(tent, worked_half[1], j_min=-9, j_max=5)
        b_rep = frame_energy(squeezed, worked_half[1], j_min=-10, j_max=4)
        assert abs(a_rep.ratio - b_rep.ratio) < 2e-4


# per-scale k_used, j = -8..8, of the default tent:[-1,1) run
PINNED_K_USED = {
    ("journe", 2): [191, 191, 191, 447, 4031, 32703, 81855, 98239, 81855] + [0] * 8,
    ("journe", -2): [191, 191, 191, 447, 4031, 32703, 81855, 98239, 81855] + [0] * 8,
    ("shannon", 4): [191, 191, 191, 191, 191, 191, 447, 32703] + [0] * 9,
}


@pytest.mark.parametrize("name, a", sorted(PINNED_K_USED))
def test_default_range_k_used_pinned(name, a):
    """The k sweep stops at the same k on every scale: the break form of the
    polynomial cells changes no stopping decision."""
    wavelets = build_family(SpectralSpec(example_by_name(name).sigma, a))[1]
    rep = frame_energy(TestSignal.tent(-1, 1), wavelets)
    assert [s.j for s in rep.scales] == list(range(-8, 9))
    assert [s.k_used for s in rep.scales] == PINNED_K_USED[name, a]
    assert not rep.inconclusive


# The deepest scales a family meets a float at: from j = -45 at a = 2 and
# j = -27 at a = -3 down, the head series of a rooted cell has |c| s1 <= 2
# with |c| near 1e14, where (i c)^n / n! overflows a float and s1^(n+1)
# underflows unless the series runs in the dimensionless w * s.
DEEP_SCALES = {2: range(-45, -61, -1), -3: range(-27, -61, -1)}


@pytest.mark.parametrize("a", sorted(DEEP_SCALES))
def test_deep_single_scales_are_finite(a):
    f = TestSignal.tent(-1, 1)
    norm2 = float(f.norm2())
    built = 0
    for name in ("shannon", "journe", "pwl:a=1/2,b=1/2", "pwl:a=3/4,b=5/4"):
        try:
            wavelets = build_family(SpectralSpec(example_by_name(name).sigma, a))[1]
        except ValueError:
            continue  # journe is refused at |a| = 3
        built += 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for j in DEEP_SCALES[a]:
                rep = frame_energy(f, wavelets, j_min=j, j_max=j)
                (scale,) = rep.scales
                assert math.isfinite(rep.ratio) and math.isfinite(rep.tail_estimate), (name, j)
                json.dumps(rep.to_jsonable(), allow_nan=False)
                exact = sum(per_scale_energy_exact(f, psi, a, j)
                            for psi in wavelets.profiles)
                assert abs(scale.computed + scale.k_tail - float(exact)) <= 1e-6 * norm2, (name, j)
    assert built >= 3


IDENTITY_SIGNALS = ("tent:[-1,1)", "chi:[1,2)", "tent:[-1/3,5/7)", "chi:[-3,-1/5)")
IDENTITY_RANGES = ((-8, 8), (1, 4), (0, 0))


@pytest.mark.parametrize("name", ["shannon", "journe", "pwl:a=1/2,b=1/2",
                                  "pwl:a=3/4,b=5/4"])
def test_out_of_range_energy_completes_the_norm(name):
    """The exact tail plus the exact energies of the scales in range is
    ||f||^2 as a Fraction: the Parseval identity for f, over all of Z."""
    built = 0
    for a in (2, 3, -2, 4, -3):
        try:
            wavelets = build_family(SpectralSpec(example_by_name(name).sigma, a))[1]
        except ValueError:
            continue  # journe at |a| = 3 is refused
        built += 1
        for signal in IDENTITY_SIGNALS:
            f = TestSignal.parse(signal)
            for j_min, j_max in IDENTITY_RANGES:
                in_range = sum(per_scale_energy_exact(f, psi, a, j)
                               for j in range(j_min, j_max + 1)
                               for psi in wavelets.profiles)
                tail = out_of_range_energy(f, wavelets, j_min, j_max)
                assert tail + in_range == f.norm2(), (a, signal, j_min, j_max)
    assert built >= 3


_QUARTERS = st.integers(-12, 12).map(lambda n: F(n, 4))


@given(st.lists(st.tuples(_QUARTERS, _QUARTERS), max_size=3),
       st.tuples(_QUARTERS, _QUARTERS), st.booleans(),
       st.sampled_from([2, 3, -2, -3]), st.integers(-2, 2))
@settings(max_examples=300, deadline=None)
def test_meets_is_support_intersection(domain, ends, tent, a, j):
    """The piece-by-piece test decides exactly as the intersection of the
    supports, touching half-open ends included."""
    lo, hi = sorted(ends)
    if lo == hi:
        hi += 1
    f = TestSignal.tent(lo, hi) if tent else TestSignal.indicator(lo, hi)
    psi = SqrtProfile.indicator(IntervalSet.of(*((l, h) for l, h in domain if l < h)))
    exact = f.hat.support().intersect(psi.support().scale(F(a) ** j))
    assert _meets(f, psi, F(a) ** j) == bool(exact)
