import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framesmith.construction import SpectralSpec, WaveletFamily, build_family, \
    example_by_name, example_pwl, example_shannon
from framesmith.frametest import (TestSignal, _DeepScales, _meets, coefficient,
                                  coefficients_for_scale, frame_energy,
                                  per_scale_energy_exact)
from framesmith.intervals import IntervalSet
from framesmith.piecewise import PiecewiseLinear, SqrtProfile
from framesmith.quadrature import Factor, riemann_oracle


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
        assert coefficient(f, shannon[1].psis[0], 0, 0) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_supports_exact_zero(self, shannon):
        f = TestSignal.indicator(1, 2)
        assert coefficient(f, shannon[1].psis[0], 5, 0) == 0

    def test_against_brute_force_riemann(self, worked_half):
        eta = worked_half[1].psis[0]
        tent = TestSignal.tent(-1, 1)
        factors = [Factor(tent.hat), Factor(eta.square, is_sqrt=True)]
        for j, k in ((0, 0), (0, 3), (0, 11), (-1, 4)):
            sq = eta.square.compose_scale(F(2) ** (-j))
            fac = [Factor(tent.hat), Factor(sq, is_sqrt=True)]
            oracle = 0.5 * (2.0 ** (-j / 2)) * riemann_oracle(
                fac, math.pi * k * 2.0 ** (-j))
            got = coefficient(tent, eta, j, k)
            assert abs(got - oracle) < 1e-6

    def test_oscillatory_phase_convention(self, shannon):
        # chi_[1,2) against the Shannon profile: closed form
        # (1/2) int_1^2 e^{i pi k u} du
        f = TestSignal.indicator(1, 2)
        for k in (1, 2, 5):
            want = (np.exp(2j * math.pi * k) - np.exp(1j * math.pi * k)) \
                / (2j * math.pi * k)
            got = coefficient(f, shannon[1].psis[0], 0, k)
            assert abs(got - want) < 1e-12


class TestPerScaleEnergy:
    def test_matches_k_sum(self, worked_half):
        eta = worked_half[1].psis[0]
        tent = TestSignal.tent(-1, 1)
        exact = float(per_scale_energy_exact(tent, eta, 2, 0))
        ks = np.arange(-800, 801)
        vals = coefficients_for_scale(tent, eta, 2, 0, ks)
        assert abs(exact - float(np.sum(np.abs(vals) ** 2))) < 1e-6

    def test_shannon_geometry(self, shannon):
        f = TestSignal.indicator(1, 2)
        psi = shannon[1].psis[0]
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
        wavelets = worked_half[1]
        halved = WaveletFamily(
            tuple(p.scale_amplitude_sq(F(1, 4)) for p in wavelets.psis),
            wavelets.partition, wavelets.sigma, wavelets.dilation)
        tent = TestSignal.tent(-1, 1)
        rep = frame_energy(tent, halved, j_min=-14, j_max=8)
        assert abs(rep.ratio - 0.25) <= 2e-3

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
        padded = WaveletFamily(
            wavelets.psis + (SqrtProfile.from_square(PiecewiseLinear.zero()),),
            wavelets.partition, wavelets.sigma, wavelets.dilation)
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
                        for psi in wavelets.psis)
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
                        for psi in wavelets.psis)
            assert abs(scale.computed - float(exact)) <= 1e-6

    def test_scaling_covariance(self, worked_half):
        # f_hat(a xi) with the j-range shifted by one gives the same ratio
        tent = TestSignal.tent(-1, 1)
        squeezed = TestSignal(tent.hat.compose_scale(2))
        a_rep = frame_energy(tent, worked_half[1], j_min=-9, j_max=5)
        b_rep = frame_energy(squeezed, worked_half[1], j_min=-10, j_max=4)
        assert abs(a_rep.ratio - b_rep.ratio) < 2e-4


DEEP_SIGNALS = ("tent:[-1,1)", "chi:[0,1)", "chi:[-1/2,3/2)", "tent:[-1/3,5/7)",
                "tent:[1,2)", "chi:[-3,-1/5)", "tent:[-5/4,0)")
# every scale up to 10 from 0 (both window edges), then two deep ones per side
DEEP_JS = list(range(-10, 11)) + [-48, -47, 47, 48]


@pytest.mark.parametrize("name", ["shannon", "journe", "pwl:a=1/2,b=1/2",
                                  "pwl:a=3/4,b=5/4", "pwl:a=1,b=3",
                                  "pwl:a=1/3,b=2/7"])
def test_deep_scale_closed_form_is_exact(name):
    """The closed-form energies of the inward and outward windows equal the
    integrated ones as Fractions, at both signs of the dilation."""
    routes = {"inward": 0, "outward": 0, "integrated": 0}
    for a in (2, 3, -2, -3, 4):
        try:
            wavelets = build_family(SpectralSpec(example_by_name(name).sigma, a))[1]
        except ValueError:
            continue  # journe at |a| = 3 and pwl:a=1,b=3 at -2 are refused
        for signal in DEEP_SIGNALS:
            f = TestSignal.parse(signal)
            for psi in wavelets.psis:
                closed = _DeepScales(f, psi, a)
                for j in DEEP_JS:
                    energy = closed.energy(j)
                    if energy is None:
                        routes["integrated"] += 1
                        continue
                    inward = abs(F(a) ** j) * closed.s_reach <= closed.f_clear
                    routes["inward" if inward else "outward"] += 1
                    assert energy == per_scale_energy_exact(f, psi, a, j), (a, signal, j)
    assert all(routes.values()), routes



_QUARTERS = st.integers(-12, 12).map(lambda n: F(n, 4))


@given(st.lists(st.tuples(_QUARTERS, _QUARTERS), max_size=3),
       st.tuples(_QUARTERS, _QUARTERS), st.booleans(),
       st.sampled_from([2, 3, -2, -3]), st.integers(-2, 2))
@settings(max_examples=300, deadline=None)
def test_meets_is_support_intersection(domain, ends, tent, a, j):
    """The hull test decides exactly as the intersection of the supports,
    touching half-open ends included."""
    lo, hi = sorted(ends)
    if lo == hi:
        hi += 1
    f = TestSignal.tent(lo, hi) if tent else TestSignal.indicator(lo, hi)
    psi = SqrtProfile.indicator(IntervalSet.of(*((l, h) for l, h in domain if l < h)))
    exact = f.hat.support().intersect(psi.domain.scale(F(a) ** j))
    assert _meets(f, psi, a, j) == (not exact.is_empty())
