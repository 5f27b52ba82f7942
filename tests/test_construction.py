import hashlib
import random
from fractions import Fraction as F

import pytest

from framesmith.construction import (ClosureDidNotStabilize, JOURNE_WAVELET_SET,
                                     SpectralSpec,
                                     admissibility_check, build_family,
                                     build_scaling, build_wavelets,
                                     classify_waveletset_seed, example_by_name,
                                     example_journe, example_pwl,
                                     example_shannon, random_admissible_spec,
                                     waveletset_closure, waveletset_sigma)
from framesmith.folding import per_multiplicity, window
from framesmith.intervals import IntervalSet, union_all
from framesmith.piecewise import PiecewiseLinear

from oracles import classify_oracle


class TestAdmissibility:
    def test_worked_tent_passes_for_various_widths(self):
        for A, B in ((F(1, 2), F(1, 2)), (1, 1), (2, 2), (F(1, 3), F(5, 2))):
            assert admissibility_check(example_pwl(A, B)).status == "pass"

    def test_shannon_passes(self):
        assert admissibility_check(example_shannon()).status == "pass"

    def test_shifted_indicator_fails_limit_condition(self):
        spec = SpectralSpec(PiecewiseLinear.indicator(IntervalSet.of((1, 2))), 2)
        report = admissibility_check(spec)
        assert report.status == "fail"
        limit_row = next(c for c in report.checks
                         if c.name == "unit_limit_inward")
        assert limit_row.status == "fail"
        assert limit_row.witness == {"xi": 0}
        # the right limit at 0 is 0, not 1
        assert "0" in limit_row.detail

    @pytest.mark.parametrize("spec, message", [
        (example_journe().sigma, "dilation_monotone fails at xi = -5/7 "
         "(sigma(a*xi) <= sigma(xi) everywhere)"),
        (PiecewiseLinear.zero(), "unit_limit_inward "
         "fails at xi = 0 (support does not reach 0; both one-sided limits are 0)"),
        (PiecewiseLinear.of((-1, 0, 0, 1), (0, 1, 0, F(1, 2))), "unit_limit_inward "
         "fails at xi = 0 (right limit at 0 is 1/2)"),
        (PiecewiseLinear.of((-1, 1, 0, -1)), "nonnegative_integrable fails at "
         "xi = 0 (sigma >= 0 and bounded support (piecewise linear is integrable))"),
    ], ids=["journe@3", "zero", "right_limit", "negative"])
    def test_refusal_names_the_first_failing_condition(self, spec, message):
        with pytest.raises(ValueError) as err:
            build_family(SpectralSpec(spec, 3))
        assert str(err.value) == "spectral profile not admissible: " + message

    def test_derived_bound_sigma_at_most_one(self):
        rng = random.Random(4)
        for _ in range(25):
            spec = random_admissible_spec(rng)
            assert admissibility_check(spec).status == "pass"
            assert spec.sigma.max_value() <= 1


class TestScaling:
    def test_wide_tent_single_window(self):
        # support (-1, 1) fits inside the fundamental window
        spec = example_pwl(1, 1)
        fam = build_scaling(spec)
        assert fam.layers == (window(0),)
        assert fam.profiles[0].square == spec.sigma

    def test_tent_spanning_three_windows(self):
        # sigma = 1 - |xi|/2 on (-2, 2)
        fam = build_scaling(example_pwl(2, 2))
        assert fam.layers == tuple(window(k) for k in (-1, 0, 1))
        fam.validate()

    def test_shannon_scaling(self):
        fam = build_scaling(example_shannon())
        assert fam.layers == (window(0),)
        assert fam.profiles[0].is_indicator()


class TestWavelets:
    def test_shannon_single_annulus_wavelet(self):
        fam = build_wavelets(example_shannon())
        assert len(fam.profiles) == 1
        assert fam.profiles[0].support() == IntervalSet.of((-2, -1), (1, 2))
        assert fam.profiles[0].is_indicator()

    def test_worked_half_width_yields_single_eta(self):
        fam = build_wavelets(example_pwl(F(1, 2), F(1, 2)))
        assert len(fam.profiles) == 1
        eta = fam.profiles[0]
        assert eta.support() == IntervalSet.of((-1, 1))
        assert eta.value_sq(F(-1, 2)) == F(1, 2)
        assert eta.value_sq(F(-1, 4)) == F(1, 4)

    def test_wide_tent_window_partition(self):
        # half-widths 2pi: the window rule cuts the two-scale gain at the
        # translated fundamental windows
        greedy = build_wavelets(example_pwl(2, 2), "greedy")
        windows = build_wavelets(example_pwl(2, 2), "windows")
        assert len(greedy.profiles) == 4      # the folding multiplicity of (-4, 4)
        assert len(windows.profiles) == 5     # windows [2l-1, 2l+1) for l=-2..2
        gain = greedy.gain()
        for fam in (greedy, windows):
            total = PiecewiseLinear.zero()
            for psi in fam.profiles:
                total = total + psi.square
            assert total == gain

    def test_telescoping_identity_random_points(self):
        rng = random.Random(9)
        for spec in (example_pwl(F(1, 2), F(1, 2)), example_pwl(1, 3),
                     example_shannon()):
            fam = build_wavelets(spec)
            a = spec.dilation
            for _ in range(200):
                xi = F(rng.randint(-400, 400), rng.randint(1, 64))
                total = sum((p.value_sq(xi) for p in fam.profiles), F(0))
                assert total + spec.sigma.eval(xi) == spec.sigma.eval(xi / a)

    def test_monotone_contraction_orbit(self):
        spec = example_pwl(F(1, 2), F(1, 2))
        rng = random.Random(31)
        for _ in range(50):
            xi = F(rng.randint(-100, 100), rng.randint(1, 32))
            orbit = [spec.sigma.eval(xi / F(2) ** j) for j in range(12)]
            assert all(x <= y for x, y in zip(orbit, orbit[1:]))

    def test_build_rejects_inadmissible(self):
        bad = SpectralSpec(PiecewiseLinear.indicator(IntervalSet.of((1, 2))), 2)
        with pytest.raises(ValueError, match="not admissible"):
            build_family(bad)


class TestWaveletSetPipeline:
    def test_shannon_set_closure(self):
        E = IntervalSet.of((-2, -1), (1, 2))
        assert waveletset_closure(E, 2) == IntervalSet.of((-1, 1))

    def test_fundamental_domain_closure(self):
        assert waveletset_closure(IntervalSet.of((-1, 1)), 2) \
            == IntervalSet.of((F(-1, 2), F(1, 2)))

    def test_journe_closure_exact(self):
        U = waveletset_closure(JOURNE_WAVELET_SET, 2)
        assert U == IntervalSet.of(
            (F(-16, 7), -2), (F(-8, 7), -1), (F(-4, 7), F(4, 7)),
            (1, F(8, 7)), (2, F(16, 7)))

    def test_closure_membership_oracle(self):
        # xi in U iff a^j xi in E for some j >= 1 (checked to depth 40)
        rng = random.Random(13)
        for E in (IntervalSet.of((-2, -1), (1, 2)), JOURNE_WAVELET_SET):
            U = waveletset_closure(E, 2)
            for _ in range(300):
                xi = F(rng.randint(-5000, 5000), rng.randint(1, 1000))
                if xi == 0:
                    continue
                member = any(E.contains(xi * F(2) ** j) for j in range(1, 41))
                assert U.contains(xi) == member, (E, xi)

    def test_non_stabilizing_seed_raises(self):
        # contracted copies of [1, 3/2) never merge: gaps persist near 0
        with pytest.raises(ClosureDidNotStabilize, match="near 0"):
            waveletset_sigma(IntervalSet.of((1, F(3, 2))), 2)

    def test_empty_set(self):
        assert waveletset_closure(IntervalSet(), 2) == IntervalSet()

    def test_round_trip_reproduces_wavelet_set(self):
        for E in (IntervalSet.of((-2, -1), (1, 2)), JOURNE_WAVELET_SET):
            sigma = waveletset_sigma(E, 2)
            fam = build_wavelets(SpectralSpec(sigma, 2))
            assert all(p.is_indicator() for p in fam.profiles)
            assert union_all([p.support() for p in fam.profiles]) == E


class TestSeedClassification:
    def test_fundamental_domain_is_orthonormal(self):
        assert classify_waveletset_seed(IntervalSet.of((-1, 1)), 2).verdict \
            == "orthonormal"

    def test_half_domain_is_ntf(self):
        cls = classify_waveletset_seed(IntervalSet.of((F(-1, 2), F(1, 2))), 2)
        assert cls.verdict == "ntf"

    def test_one_sided_seed_rejected(self):
        cls = classify_waveletset_seed(IntervalSet.of((0, 1)), 2)
        assert cls.verdict == "not_admissible"
        assert cls.reason == ("spectral profile not admissible: unit_limit_inward "
                              "fails at xi = 0 (left limit at 0 is 0)")

    def test_non_expanding_seed_rejected(self):
        cls = classify_waveletset_seed(IntervalSet.of((-1, 0), (F(1, 4), 1)), 2)
        assert cls.verdict == "not_admissible"

    def test_orthonormal_seed_maximal_multiplicity_one(self):
        cls = classify_waveletset_seed(IntervalSet.of((-1, 1)), 2)
        assert cls.fold_max == 1

    @pytest.mark.parametrize("a", [2, 3, -2, -3, 4])
    def test_agrees_with_containment_and_straddle_tests(self, a):
        # 240 seeded unions of up to three pieces per dilation: the verdict
        # from admissibility_check on chi_E is the one of the classifier's
        # own E-inside-aE and straddle tests, and so is an admissible seed's
        # fold of the gain's support
        rng = random.Random(18 + a)
        verdicts = set()
        for _ in range(240):
            ends = [F(rng.randint(-24, 24), 8) for _ in range(2 * rng.randint(1, 3))]
            if rng.random() < 0.5:
                ends[:2] = [F(-rng.randint(1, 24), 8), F(rng.randint(1, 24), 8)]
            E = union_all([IntervalSet.of((min(lo, hi), max(lo, hi)))
                           for lo, hi in zip(ends[::2], ends[1::2]) if lo != hi])
            got, want = classify_waveletset_seed(E, a), classify_oracle(E, a)
            assert got.verdict == want.verdict, (E, a, got, want)
            if got.verdict != "not_admissible":
                assert got == want
            verdicts.add(got.verdict)
        assert {"not_admissible", "ntf"} <= verdicts


class TestExamples:
    def test_example_parser(self):
        spec = example_by_name("pwl:a=1/2,b=3/4")
        assert spec.sigma.eval(0) == 1
        assert spec.sigma.support() == IntervalSet.of((F(-1, 2), F(3, 4)))
        assert example_by_name("shannon").sigma.is_zero() is False
        with pytest.raises(ValueError):
            example_by_name("nope")

    def test_journe_example_family(self):
        scaling, wavelets = build_family(example_journe())
        assert len(wavelets.profiles) == 1
        assert wavelets.profiles[0].support() == JOURNE_WAVELET_SET
        # the scaling space needs several windows (dimension function is 2
        # on part of the fundamental domain for this classic example)
        assert len(scaling.profiles) >= 3

    def test_random_spec_at_negative_dilation_is_even(self):
        # a <= -2 maps each side of 0 onto the other, so the right side is
        # mirrored; |a| < 2 is refused and draws nothing
        for a in (-2, -3):
            for seed in range(6):
                spec = random_admissible_spec(random.Random(seed), a)
                assert spec.dilation == a
                assert spec.sigma == spec.sigma.compose_scale(-1)
        rng = random.Random(7)
        for a in (-1, 0, 1):
            with pytest.raises(ValueError, match=r"\|a\| >= 2"):
                random_admissible_spec(rng, a)
        assert random_admissible_spec(rng, 2) == \
            random_admissible_spec(random.Random(7), 2)

    def test_random_spec_draws_at_positive_dilation_pinned(self):
        # the benchmark's random specs depend on these draws
        specs = []
        for seed in range(8):
            rng = random.Random(seed)
            specs += [random_admissible_spec(rng, a) for a in (2, 3, None, 4)]
        text = repr([(spec.sigma.pieces, spec.dilation) for spec in specs])
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "269f907d88fe20f077d6047814efea7e8d7a424260e9f1c9eed9ddcb9d21e9f6"

    def test_random_specs_build_and_validate(self):
        rng = random.Random(42)
        for _ in range(25):
            spec = random_admissible_spec(rng)
            scaling, wavelets = build_family(spec)
            scaling.validate()
            wavelets.validate()
            assert len(wavelets.layers) == len(wavelets.profiles)
            for layer in wavelets.layers:
                assert per_multiplicity(layer).max_value() <= 1
