import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from framesmith.construction import (JOURNE_WAVELET_SET, LayeredFamily,
                                     SpectralSpec, build_family,
                                     build_wavelets, classify_waveletset_seed,
                                     example_by_name, example_journe, example_pwl,
                                     example_shannon, random_admissible_spec,
                                     waveletset_sigma)
from framesmith.intervals import IntervalSet
from framesmith.piecewise import PiecewiseLinear, SqrtProfile
from framesmith.verification import (check_density, check_ntf_multiwavelet,
                                     check_semiorthogonal, check_split,
                                     check_suites, check_wavelet_set_tiling,
                                     cross_energy)
from oracles import meta_ntf_oracle, riemann_oracle


@pytest.fixture(scope="module")
def shannon():
    return build_family(example_shannon())


@pytest.fixture(scope="module")
def worked_half():
    return build_family(example_pwl(F(1, 2), F(1, 2)))


def corrupt(family: LayeredFamily, factor=F(10201, 10000)) -> LayeredFamily:
    psis = (SqrtProfile(family.profiles[0].square.scale_value(factor)),) \
        + family.profiles[1:]
    return replace(family, profiles=psis)


class TestNtfCheck:
    def test_shannon_exact_zero_tail(self, shannon):
        report = check_ntf_multiwavelet(shannon[1])
        assert report.status == "pass"
        norm_row = next(c for c in report.checks if c.name == "norm_sum")
        assert norm_row.tail_bound == 0

    def test_worked_family_tail_is_the_target(self, worked_half):
        report = check_ntf_multiwavelet(worked_half[1])
        assert report.status == "pass"
        norm_row = next(c for c in report.checks if c.name == "norm_sum")
        assert norm_row.tail_bound == F(1, 10 ** 9)
        assert "at every xi != 0" in norm_row.detail

    def test_corrupted_family_fails_with_witness(self, worked_half):
        report = check_ntf_multiwavelet(corrupt(worked_half[1]))
        assert report.status == "fail"
        fails = [c for c in report.checks if c.status == "fail"]
        assert any(c.witness for c in fails)

    def test_sampled_scale_window_does_not_pass(self, shannon):
        # psi's square halved on [1, 3/2): the Calderon sum is 1/2 on every
        # orbit through that piece, though the orbit of 7/4 misses it
        psi = shannon[1]
        cut = IntervalSet.of((1, F(3, 2)))
        bad = replace(psi, profiles=tuple(
            SqrtProfile(p.square - p.square.restrict(cut).scale_value(F(1, 2)))
            for p in psi.profiles))
        report = check_ntf_multiwavelet(bad)
        assert not any(c.name == "norm_sum" for c in report.checks)
        row = next(c for c in report.checks if c.name == "scale_sum_telescopes")
        assert row.status == "fail"
        assert row.witness == {"xi": F(5, 4), "difference": F(-1, 2)}


class TestSplitChecks:
    def test_constructed_pairs_pass(self, shannon, worked_half):
        for scaling, wavelets in (shannon, worked_half):
            assert check_split(scaling, wavelets).status == "pass"

    def test_mismatched_pair_fails_at_zero_shift(self, shannon, worked_half):
        report = check_split(shannon[0], worked_half[1])
        assert report.status == "fail"
        first = next(c for c in report.checks if c.status == "fail")
        assert first.name == "two_scale_split[s=0]"
        assert first.witness is not None

    def test_decay_reports_exit_indices(self, worked_half):
        report = check_suites(*worked_half, ["decay"])["decay"]
        assert report.status == "pass"
        assert any(c.name == "outward_decay" for c in report.checks)

    def test_sufficiency_passes_and_implies_ntf(self, shannon, worked_half):
        for scaling, wavelets in (shannon, worked_half):
            report = check_suites(scaling, wavelets, ["sufficiency"])["sufficiency"]
            assert report.status == "pass"
            assert any(c.name == "meta_ntf_follows" for c in report.checks)

    def test_halved_sigma_fails_inward_limit(self, worked_half):
        scaling, wavelets = worked_half
        halved = replace(scaling, profiles=tuple(
            SqrtProfile(p.square.scale_value(F(1, 2))) for p in scaling.profiles))
        reports = check_suites(halved, wavelets, ["sufficiency", "density"])
        assert reports["sufficiency"].status == "fail"
        limit = next(c for c in reports["sufficiency"].checks
                     if c.name == "unit_limit_inward")
        assert limit.status == "fail" and limit.detail == "left limit at 0 is 1/2"
        # one row, decided once: sufficiency reads it off density's report
        assert limit is next(c for c in reports["density"].checks
                             if c.name == "unit_limit_inward")

    def test_repeated_residue_raises_naming_the_wavelet(self, shannon):
        layer = IntervalSet.of((1, 4))
        bogus = LayeredFamily((SqrtProfile.indicator(layer),), (layer,),
                              shannon[1].sigma, 2)
        with pytest.raises(ValueError, match=r"profile 0 meets the residue cell "
                                             r"\[-1, 0\) 2 times mod 2; the diagonal "
                                             r"fiber Gramian needs supports injective"):
            check_split(shannon[0], bogus)

    def test_empty_wavelets_fail_zero_shift(self, shannon):
        empty = LayeredFamily((), (), shannon[1].sigma, 2)
        report = check_split(shannon[0], empty)
        first = next(c for c in report.checks if c.status == "fail")
        assert first.name == "two_scale_split[s=0]"


class TestDensity:
    def test_worked_family_strictly_increases(self, worked_half):
        report = check_density(worked_half[0])
        assert report.status == "pass"

    def test_shannon_reaches_one_exactly(self, shannon):
        assert check_density(shannon[0]).status == "pass"

    def test_narrow_indicator_seed(self):
        # chi on [-1/4, 1/4) is admissible and dense; cross-checked reports
        from framesmith.construction import admissibility_check, build_scaling
        from framesmith.piecewise import PiecewiseLinear
        spec = SpectralSpec(
            PiecewiseLinear.indicator(IntervalSet.of((F(-1, 4), F(1, 4)))), 2)
        assert admissibility_check(spec).status == "pass"
        fam = build_scaling(spec)
        assert check_density(fam).status == "pass"

    @pytest.mark.parametrize("a", [2, 3, -2, -3, 4])
    def test_is_admissibility_of_the_square_sum(self, a):
        # built-ins (journe included where it is refused) and random specs:
        # the same rows as admissibility_check on sigma, witnesses too
        from framesmith.construction import (admissibility_check, build_scaling,
                                             example_by_name)
        specs = [SpectralSpec(example_by_name(name).sigma, a) for name in
                 ("shannon", "journe", "pwl:a=1/2,b=1/2", "pwl:a=3/4,b=5/4")]
        rng = random.Random(1800 + a)
        specs += [random_admissible_spec(rng, a) for _ in range(5)]
        for spec in specs:
            report = check_density(build_scaling(spec))
            assert [c.name for c in report.checks] == [
                "nonnegative_integrable", "dilation_monotone", "unit_limit_inward"]
            assert report.checks == admissibility_check(spec).checks


class TestWaveletSetTiling:
    def test_shannon_set(self):
        report = check_wavelet_set_tiling([IntervalSet.of((-2, -1), (1, 2))], 2)
        assert report.status == "pass"

    def test_journe_set(self):
        report = check_wavelet_set_tiling([JOURNE_WAVELET_SET], 2)
        assert report.status == "pass"

    def test_perturbed_shannon_fails_exactly(self):
        report = check_wavelet_set_tiling(
            [IntervalSet.of((-2, -1), (1, F(21, 10)))], 2)
        assert report.status == "fail"
        fails = [c for c in report.checks if c.status == "fail"]
        assert fails and all(c.witness for c in fails)

    def test_mutual_overlap_detected(self):
        report = check_wavelet_set_tiling(
            [IntervalSet.of((1, 2)), IntervalSet.of((F(3, 2), 3))], 2)
        assert any(c.name == "mutual_disjoint" and c.status == "fail"
                   for c in report.checks)

    def test_multi_piece_orthonormal_split(self):
        # splitting the Shannon wavelet set into its two pieces still tiles
        report = check_wavelet_set_tiling(
            [IntervalSet.of((-2, -1)), IntervalSet.of((1, 2))], 2)
        assert report.status == "pass"


class TestSemiOrthogonality:
    def test_wavelet_sets_always_certified(self, shannon):
        assert check_semiorthogonal(shannon[1]).status == "pass"
        journe = build_wavelets(example_journe())
        assert check_semiorthogonal(journe).status == "pass"

    def test_overlapping_tent_profile_fails_with_nonzero_witness(self, worked_half):
        report = check_semiorthogonal(worked_half[1])
        assert report.status == "fail"
        row = next(c for c in report.checks if c.status == "fail")
        assert row.witness["cross_energy"] == F(1, 16)

    def test_cross_energy_zero_for_shannon(self, shannon):
        psi = shannon[1].profiles[0]
        assert cross_energy(psi, psi, 2, 1) == 0

    def test_cross_energy_bounds_truncated_coefficient_sum(self):
        # Bessel: the |k| <= 16 part of sum_k |<psi, D^gap T_k psi'>|^2, each
        # coefficient a midpoint Riemann sum, lies just below the exact value
        for spec in (example_pwl(F(1, 2), F(1, 2)), example_pwl(F(3, 4), F(5, 4))):
            family = build_family(spec)[1]
            row = next(c for c in check_semiorthogonal(family).checks
                       if c.status == "fail")
            psi = family.profiles[row.witness["psi"]]
            other = family.profiles[row.witness["psi_other"]]
            t = F(family.dilation) ** -row.witness["scale_gap"]
            factors = [(psi.square, True), (other.square.compose_scale(t), True)]
            amplitude = 0.5 * math.sqrt(abs(t))
            partial = sum(abs(amplitude * riemann_oracle(
                factors, math.pi * float(t) * k, n=20000)) ** 2
                for k in range(-16, 17))
            exact = row.witness["cross_energy"]
            assert exact - 5e-4 <= partial <= exact, (spec, exact - partial)

    def test_empty_family_trivially_passes(self, shannon):
        empty = LayeredFamily((), (), shannon[1].sigma, 2)
        assert check_semiorthogonal(empty).status == "pass"


def _sufficiency_cases():
    for name in ("shannon", "journe", "pwl:a=1/2,b=1/2", "pwl:a=3/4,b=5/4"):
        for a in (2, 3, -2, -3, 4):
            if name == "journe" and abs(a) == 3:
                continue  # not admissible at |a| = 3
            yield f"{name}@{a}", build_family(SpectralSpec(example_by_name(name).sigma, a))
    for seed in range(10):
        a = (2, 3, -2, -3, 4)[seed % 5]
        yield f"random{seed}@{a}", build_family(random_admissible_spec(random.Random(seed), a))
    yield "shannon-altered-sigma", _altered_sigma()


def _altered_sigma():
    """shannon with sigma altered away from 0: sum|phi|^2 != sigma, while
    the split still holds."""
    scaling, wavelets = build_family(example_shannon())
    altered = PiecewiseLinear.of((-2, -1, 0, F(1, 3)), (-1, 1, 0, 1), (1, 2, 0, F(1, 3)))
    return scaling, replace(wavelets, sigma=altered)


class TestMetaNtf:
    """The sufficiency meta row against the second NTF run that `check_suites`
    once made, on sigma replaced by the scaling square sum."""

    @pytest.mark.parametrize("scaling,wavelets", [
        pytest.param(*fams, id=key) for key, fams in _sufficiency_cases()])
    def test_meta_row_agrees_with_the_second_ntf_run(self, scaling, wavelets):
        report = check_suites(scaling, wavelets, ["sufficiency"])["sufficiency"]
        assert report.status == "pass"
        assert report.checks[-1].name == "meta_ntf_follows"
        assert meta_ntf_oracle(scaling, wavelets).status == "pass"

    def test_altered_sigma_fails_ntf_but_not_the_meta_check(self):
        scaling, wavelets = _altered_sigma()
        reports = check_suites(scaling, wavelets, ["ntf", "sufficiency"])
        assert reports["ntf"].status == "fail"
        assert reports["sufficiency"].status == "pass"

    def test_failed_hypothesis_adds_no_meta_row(self, worked_half):
        scaling, wavelets = worked_half
        halved = replace(scaling, profiles=tuple(
            SqrtProfile(p.square.scale_value(F(1, 2))) for p in scaling.profiles))
        report = check_suites(halved, wavelets, ["sufficiency"])["sufficiency"]
        assert not any(c.name.startswith("meta") for c in report.checks)


class TestSoundnessChain:
    def test_random_admissible_pipeline(self):
        rng = random.Random(2024)
        for _ in range(12):
            spec = random_admissible_spec(rng)
            scaling, wavelets = build_family(spec)
            rng.randint(0, 10 ** 6)  # once a grid seed; drawn so the specs stay the same
            reports = check_suites(scaling, wavelets, ["sufficiency"])
            assert reports["sufficiency"].status == "pass"
            assert check_ntf_multiwavelet(wavelets).status == "pass"

    @pytest.mark.parametrize("a", [-2, -3])
    def test_random_admissible_negative_dilation(self, a):
        for seed in range(8):
            scaling, wavelets = build_family(random_admissible_spec(random.Random(seed), a))
            scaling.validate()
            wavelets.validate()
            reports = check_suites(scaling, wavelets,
                                   ["ntf", "split", "decay", "sufficiency", "density"])
            assert {name: r.status for name, r in reports.items()} == dict.fromkeys(
                reports, "pass"), (a, seed)

    def test_orthonormal_seed_round_trip(self):
        seed = IntervalSet.of((-1, 1))
        assert classify_waveletset_seed(seed, 2).verdict == "orthonormal"
        fam = build_wavelets(SpectralSpec(waveletset_sigma(seed, 2), 2))
        sets = [p.support() for p in fam.profiles]
        assert check_wavelet_set_tiling(sets, 2).status == "pass"
