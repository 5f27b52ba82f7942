import math
import random
from fractions import Fraction as F

import pytest

from framesmith.construction import (JOURNE_WAVELET_SET, ScalingFamily,
                                     SpectralSpec, WaveletFamily, build_family,
                                     build_wavelets, classify_waveletset_seed,
                                     example_journe, example_pwl,
                                     example_shannon, random_admissible_spec,
                                     waveletset_sigma)
from framesmith.intervals import IntervalSet
from framesmith.piecewise import SqrtProfile
from framesmith.quadrature import Factor, riemann_oracle
from framesmith.trace import grid_of_size
from framesmith.verification import (check_density, check_ntf_multiwavelet,
                                     check_semiorthogonal, check_split,
                                     check_suites, check_wavelet_set_tiling,
                                     cross_energy, family_grid)


@pytest.fixture(scope="module")
def shannon():
    return build_family(example_shannon())


@pytest.fixture(scope="module")
def worked_half():
    return build_family(example_pwl(F(1, 2), F(1, 2)))


def corrupt(family: WaveletFamily, factor=F(10201, 10000)) -> WaveletFamily:
    psis = (family.psis[0].scale_amplitude_sq(factor),) + family.psis[1:]
    return WaveletFamily(psis, family.partition, family.sigma, family.dilation)


class TestNtfCheck:
    def test_shannon_exact_zero_tail(self, shannon):
        report = check_ntf_multiwavelet(shannon[1])
        assert report.status == "pass"
        norm_row = next(c for c in report.checks if c.name == "norm_sum")
        assert norm_row.tail_bound == 0

    def test_worked_family_tail_below_target(self, worked_half):
        report = check_ntf_multiwavelet(worked_half[1])
        assert report.status == "pass"
        norm_row = next(c for c in report.checks if c.name == "norm_sum")
        assert norm_row.tail_bound < F(1, 10 ** 9)

    def test_corrupted_family_fails_with_witness(self, worked_half):
        report = check_ntf_multiwavelet(corrupt(worked_half[1]))
        assert report.status == "fail"
        fails = [c for c in report.checks if c.status == "fail"]
        assert any(c.witness for c in fails)

    def test_numeric_mode_certifies_geometric_tail(self, worked_half):
        report = check_ntf_multiwavelet(worked_half[1], mode="numeric")
        assert report.status == "pass"

    def test_grid_without_nonzero_point_is_uncertain(self, shannon):
        for grid in ([], [F(0)]):
            report = check_ntf_multiwavelet(shannon[1], grid=grid)
            norm_row = next(c for c in report.checks if c.name == "norm_sum")
            assert norm_row.status == "uncertain"
            assert norm_row.tail_bound is None
            assert "no point other than 0" in norm_row.detail

    def test_numeric_mode_divergence_detected(self, shannon):
        # squares not vanishing at 0 make the scale series diverge
        fat = WaveletFamily(
            (shannon[1].psis[0],
             __import__("framesmith.piecewise", fromlist=["SqrtProfile"])
             .SqrtProfile.indicator(IntervalSet.of((F(-1, 4), F(1, 4)))),),
            shannon[1].partition + (IntervalSet.of((F(-1, 4), F(1, 4))),),
            shannon[1].sigma, 2)
        report = check_ntf_multiwavelet(fat, mode="numeric")
        assert report.status == "fail"


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

    def test_one_shot_iterator_grid_reads_every_point(self, worked_half):
        scaling, wavelets = worked_half
        grid = family_grid(scaling.generator_set(), wavelets.generator_set())
        names = ["decay", "sufficiency"]
        once = check_suites(scaling, wavelets, names, iter(grid))
        listed = check_suites(scaling, wavelets, names, grid)
        for n in names:
            assert once[n].to_jsonable() == listed[n].to_jsonable()
        decay = next(c for c in once["decay"].checks if c.name == "outward_decay")
        assert "exit index <= 7" in decay.detail
        assert any(c.name == "meta_ntf_follows"
                   for c in once["sufficiency"].checks)

    def test_halved_sigma_fails_inward_limit(self, worked_half):
        scaling, wavelets = worked_half
        halved = ScalingFamily(
            {k: p.scale_amplitude_sq(F(1, 2)) for k, p in scaling.phis.items()},
            scaling.sigma.scale_value(F(1, 2)), scaling.dilation)
        report = check_suites(halved, wavelets, ["sufficiency"])["sufficiency"]
        assert report.status == "fail"
        assert any(c.name == "inward_limit_one" and c.status == "fail"
                   for c in report.checks)

    def test_shift_failures_suppress_shifted_splits_pass(self, shannon):
        layer = IntervalSet.of((1, 4))
        bogus = WaveletFamily((SqrtProfile.indicator(layer),), (layer,),
                              shannon[1].sigma, 2)
        report = check_split(shannon[0], bogus, grid=[F(5, 4), F(3, 2)])
        names = [c.name for c in report.checks if c.status == "fail"]
        assert names.count("off_lattice_split[s=1]") == 2
        assert not any(c.name == "shifted_splits" for c in report.checks)

    def test_grid_without_nonzero_point_is_uncertain(self, worked_half):
        for grid in ([], [F(0)]):
            report = check_split(*worked_half, grid=grid)
            row = next(c for c in report.checks if c.name == "shifted_splits")
            assert row.status == "uncertain"
            assert "no point other than 0" in row.detail
            assert report.status == "uncertain"

    def test_empty_wavelets_fail_zero_shift(self, shannon):
        empty = WaveletFamily((), (), shannon[1].sigma, 2)
        report = check_split(shannon[0], empty)
        first = next(c for c in report.checks if c.status == "fail")
        assert first.name == "two_scale_split[s=0]"


class TestDensity:
    def test_worked_family_strictly_increases(self, worked_half):
        report = check_density(worked_half[0])
        assert report.status == "pass"

    def test_shannon_reaches_one_exactly(self, shannon):
        assert check_density(shannon[0]).status == "pass"

    def test_grid_without_nonzero_point_is_uncertain(self, worked_half):
        for grid in ([], [F(0)]):
            report = check_density(worked_half[0], grid=grid)
            row = next(c for c in report.checks if c.name == "orbit_monotone")
            assert row.status == "uncertain"
            assert "no point other than 0" in row.detail
            assert report.status == "uncertain"

    def test_narrow_indicator_seed(self):
        # chi on [-1/4, 1/4) is admissible and dense; cross-checked reports
        from framesmith.construction import admissibility_check, build_scaling
        from framesmith.piecewise import PiecewiseLinear
        spec = SpectralSpec(
            PiecewiseLinear.indicator(IntervalSet.of((F(-1, 4), F(1, 4)))), 2)
        assert admissibility_check(spec).passed
        fam = build_scaling(spec)
        assert check_density(fam).status == "pass"


class TestWaveletSetTiling:
    def test_shannon_set(self):
        report = check_wavelet_set_tiling(
            [IntervalSet.of((-2, -1), (1, 2))], 2, F(64), 24)
        assert report.status == "pass"

    def test_journe_set(self):
        report = check_wavelet_set_tiling([JOURNE_WAVELET_SET], 2, F(64), 24)
        assert report.status == "pass"

    def test_perturbed_shannon_fails_exactly(self):
        report = check_wavelet_set_tiling(
            [IntervalSet.of((-2, -1), (1, F(21, 10)))], 2, F(64), 24)
        assert report.status == "fail"
        fails = [c for c in report.checks if c.status == "fail"]
        assert fails and all(c.witness for c in fails)

    def test_mutual_overlap_detected(self):
        report = check_wavelet_set_tiling(
            [IntervalSet.of((1, 2)), IntervalSet.of((F(3, 2), 3))], 2, F(8), 8)
        assert any(c.name == "mutual_disjoint" and c.status == "fail"
                   for c in report.checks)

    def test_multi_piece_orthonormal_split(self):
        # splitting the Shannon wavelet set into its two pieces still tiles
        report = check_wavelet_set_tiling(
            [IntervalSet.of((-2, -1)), IntervalSet.of((1, 2))], 2, F(32), 20)
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
        psi = shannon[1].psis[0]
        assert cross_energy(psi, psi, 2, 1) == 0

    def test_cross_energy_bounds_truncated_coefficient_sum(self):
        # Bessel: the |k| <= 16 part of sum_k |<psi, D^gap T_k psi'>|^2, each
        # coefficient a midpoint Riemann sum, lies just below the exact value
        for spec in (example_pwl(F(1, 2), F(1, 2)), example_pwl(F(3, 4), F(5, 4))):
            family = build_family(spec)[1]
            row = next(c for c in check_semiorthogonal(family).checks
                       if c.status == "fail")
            psi = family.psis[row.witness["psi"]]
            other = family.psis[row.witness["psi_other"]]
            t = F(family.dilation) ** -row.witness["scale_gap"]
            factors = [Factor(psi.square, is_sqrt=True),
                       Factor(other.square.compose_scale(t), is_sqrt=True)]
            amplitude = 0.5 * math.sqrt(abs(t))
            partial = sum(abs(amplitude * riemann_oracle(
                factors, math.pi * float(t) * k, n=20000)) ** 2
                for k in range(-16, 17))
            exact = row.witness["cross_energy"]
            assert exact - 5e-4 <= partial <= exact, (spec, exact - partial)

    def test_empty_family_trivially_passes(self, shannon):
        empty = WaveletFamily((), (), shannon[1].sigma, 2)
        assert check_semiorthogonal(empty).status == "pass"


class TestSoundnessChain:
    def test_random_admissible_pipeline(self):
        rng = random.Random(2024)
        for _ in range(12):
            spec = random_admissible_spec(rng)
            scaling, wavelets = build_family(spec)
            grid = grid_of_size(scaling.generator_set().support_hull(), 25,
                                seed=rng.randint(0, 10 ** 6))
            reports = check_suites(scaling, wavelets, ["sufficiency"], grid)
            assert reports["sufficiency"].status == "pass"
            assert check_ntf_multiwavelet(wavelets, grid=grid).status == "pass"

    def test_orthonormal_seed_round_trip(self):
        seed = IntervalSet.of((-1, 1))
        assert classify_waveletset_seed(seed, 2).verdict == "orthonormal"
        fam = build_wavelets(SpectralSpec(waveletset_sigma(seed, 2), 2))
        sets = [p.support() for p in fam.psis]
        assert check_wavelet_set_tiling(sets, 2, F(32), 20).status == "pass"
