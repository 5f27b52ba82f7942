import random
from fractions import Fraction as F

import pytest

from framesmith import trace
from framesmith.construction import (LayeredFamily, SpectralSpec,
                                    build_family, build_wavelets,
                                    example_by_name, example_pwl,
                                    example_shannon)
from framesmith.folding import window
from framesmith.frametest import TestSignal, out_of_range_energy
from framesmith.intervals import IntervalSet
from framesmith.numeric import FInterval
from framesmith.piecewise import SqrtProfile
from framesmith.sequences import CRat, Sequence, coset_op, coset_op_adj
from framesmith.trace import (GeneratorSet, WindowOperator, default_grid,
                              dilated_trace, dilation_coset_sum,
                              dilation_trace_check, grid_of_size,
                              ntf_generator_test, operator_trace,
                              restricted_trace, series_identity_check,
                              trace_split_check)
from framesmith.verification import check_ntf_multiwavelet, check_split

from oracles import (dilated_trace_direct, dilation_coset_sum_direct,
                     dimension_function, fiber, ntf_generator_test_direct,
                     operator_trace_direct, restricted_trace_direct,
                     series_identity_direct, spectral_function,
                     trace_split_direct)

TWO_POW_40 = F(1, 2 ** 40)
DILATIONS = (2, -2, 3, -3, 4)
BUILTINS = ("shannon", "journe", "pwl:a=1/2,b=1/2", "pwl:a=3/4,b=5/4")
# journe is not admissible at |a| = 3
ADMISSIBLE = [(n, a) for n in BUILTINS for a in DILATIONS
              if not (n == "journe" and abs(a) == 3)]
# the sequences of the trace-identity benchmark, and one whose weights have
# coprime denominators (the dilated trace sums over their lcm)
SEQUENCES = ("1@0,i@1,-1/2@-1", "1@0", "1@0,1@1", "1/2@-1,-i@2",
             "1/3@0,2/7i@1,-5/11@-1")
# window operators: identity-padded, zero-padded, a PSD tridiagonal block,
# and an identity-padded diagonal whose entries have coprime denominators
OPERATORS = (WindowOperator.identity(-1, 3), WindowOperator.of(0, [[1]]),
             WindowOperator.of(-2, [[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1],
                                    [0, 0, 1, 2]]),
             WindowOperator.of(-1, [[1, 1, 0], [1, 3, 1], [0, 1, 1]], "identity"),
             WindowOperator.of(0, [[F(1, 3), 0], [0, F(2, 7)]], "identity"))


def _rank_one(f: Sequence) -> WindowOperator:
    """The window f f^T for a real sequence f, over its hull."""
    lo, hi = min(f.entries), max(f.entries)
    vals = [f.entries[k].re if k in f.entries else F(0) for k in range(lo, hi + 1)]
    return WindowOperator.of(lo, [[u * v for v in vals] for u in vals])


def _family(name, a, partition="greedy"):
    return build_family(SpectralSpec(example_by_name(name).sigma, a), partition=partition)


# profiles whose support meets a residue class mod 2 twice: a wide indicator,
# and sqrt of the gain of pwl:a=3/4,b=5/4, which overlaps its own translates
NON_INJECTIVE = {
    "indicator_-1_3": lambda: SqrtProfile.indicator(IntervalSet.of((-1, 3))),
    "sqrt_gain": lambda: SqrtProfile(_family("pwl:a=3/4,b=5/4", 2)[1].gain()),
}
_CHI = SqrtProfile.indicator(IntervalSet.of((-1, 1)))
_F = Sequence.parse("1@0,i@1")
_XI = F(1, 3)


def _wavelets(gen: GeneratorSet) -> LayeredFamily:
    """A wavelet family holding the profiles of gen, unvalidated."""
    return LayeredFamily(gen.profiles, tuple(p.support() for p in gen.profiles),
                         _CHI.square, gen.dilation)


# the entry points of trace.py, verification and frametest on a good set g and
# a set b that breaks the premise (diagonal_traces: tests/test_trace_rows.py)
ENTRY_POINTS = {
    "restricted_trace": lambda g, b: restricted_trace(b, _F, _XI),
    "operator_trace": lambda g, b: operator_trace(b, WindowOperator.identity(-1, 3), _XI),
    "dilation_coset_sum": lambda g, b: dilation_coset_sum(b, _F, _XI),
    "dilation_trace_check": lambda g, b: dilation_trace_check(b, _F, [_XI]),
    "trace_split_check": lambda g, b: trace_split_check(g, b, _F, [_XI]),
    "ntf_generator_test": lambda g, b: ntf_generator_test(g, b, [_XI]),
    "series_identity_check": lambda g, b: series_identity_check(g, b, 0, [_XI]),
    "check_split": lambda g, b: check_split(
        LayeredFamily((_CHI,), (window(0),), _CHI.square, 2), _wavelets(b)),
    "check_ntf_multiwavelet": lambda g, b: check_ntf_multiwavelet(_wavelets(b)),
    "out_of_range_energy": lambda g, b: out_of_range_energy(
        TestSignal.tent(-1, 1), _wavelets(b), -2, 2),
}
PREMISE = (r"profile 1 meets the residue cell \[.*\) \d+ times mod 2; the diagonal "
           r"fiber Gramian needs supports injective mod 2")


@pytest.mark.parametrize("profile", NON_INJECTIVE)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_injective_support_raises(entry, profile):
    good = GeneratorSet((_CHI,), 2)
    bad = GeneratorSet((_CHI, NON_INJECTIVE[profile]()), 2)
    with pytest.raises(ValueError, match=PREMISE):
        ENTRY_POINTS[entry](good, bad)


@pytest.fixture(scope="module")
def shannon():
    return build_family(example_shannon())


@pytest.fixture(scope="module")
def worked():
    # half-widths pi (1 in pi units): sigma(1/2) = 1/2
    return build_family(example_pwl(1, 1))


class TestFiber:
    def test_indicator_window_hits(self):
        chi = SqrtProfile.indicator(IntervalSet.of((-1, 1)))
        assert fiber(chi, F(1, 2)) == {0: F(1)}
        assert fiber(chi, F(3, 2)) == {-1: F(1)}

    def test_sqrt_entry(self, worked):
        scaling, _ = worked
        fib = fiber(scaling.profiles[0], F(1, 2))
        assert fib == {0: F(1, 2)}  # value is sqrt(1/2), stored as radicand

    def test_wide_indicator_two_entries(self):
        wide = SqrtProfile.indicator(IntervalSet.of((-1, 3)))
        assert fiber(wide, F(1, 2)) == {0: F(1), 1: F(1)}


class TestRestrictedTrace:
    def test_shannon_values(self, shannon):
        gen = shannon[0].generator_set()
        xi = F(1, 2)
        assert restricted_trace(gen, Sequence.delta(0), xi) == 1
        assert restricted_trace(gen, Sequence.delta(1), xi) == 0
        both = Sequence.delta(0) + Sequence.delta(1)
        assert restricted_trace(gen, both, xi) == 1

    def test_spectral_specialization(self, worked):
        gen = worked[0].generator_set()
        rng = random.Random(8)
        for _ in range(100):
            xi = F(rng.randint(-64, 64), 32)
            assert restricted_trace(gen, Sequence.delta(0), xi) == \
                spectral_function(gen, xi)

    def test_dim_equals_sum_over_deltas(self, worked):
        gen = worked[0].generator_set()
        for xi in (F(1, 3), F(-2, 5), F(7, 9)):
            total = F(0)
            for k in range(-4, 5):
                total += restricted_trace(gen, Sequence.delta(k), xi)
            assert total == dimension_function(gen, xi)


class TestOperatorTrace:
    def test_identity_gives_dimension(self, shannon):
        gen = shannon[0].generator_set()
        T = WindowOperator.identity(-3, 7)
        assert operator_trace(gen, T, F(1, 2)) == 1

    def test_zero_operator(self, shannon):
        gen = shannon[0].generator_set()
        T = WindowOperator.of(0, [[0]])
        assert operator_trace(gen, T, F(1, 2)) == 0

    def test_psd_rejection_carries_quadratic_witness(self, shannon):
        gen = shannon[0].generator_set()
        T = WindowOperator.of(0, [[1, 2], [2, 1]])  # eigenvalues 3, -1
        witness = T.psd_witness()
        assert witness is not None
        # x^T T x < 0 for the returned vector
        n = len(witness)
        val = sum(witness[i] * T.rows[i][j] * witness[j]
                  for i in range(n) for j in range(n))
        assert val < 0
        with pytest.raises(ValueError, match="positive semidefinite"):
            operator_trace(gen, T, F(1, 2))

    def test_psd_accepts_gram_matrix(self):
        T = WindowOperator.of(0, [[2, 1], [1, 1]])
        assert T.psd_witness() is None


    @pytest.mark.parametrize("a", DILATIONS)
    @pytest.mark.parametrize("text", ("1@0,1@1", "1/2@-1,-3@2", "1@0,-2/3@1,1@2"))
    def test_rank_one_window_is_restricted_trace(self, a, text):
        # for real f, <f f^T w, w> = <f, w>^2, so the two traces agree
        _, wavelets = _family("pwl:a=3/4,b=5/4", a)
        gen = wavelets.generator_set()
        grid = grid_of_size(gen.support_hull(), 12, exclude=gen.breakpoints())
        f = Sequence.parse(text)
        op = _rank_one(f)
        assert op.psd_witness() is None
        for xi in grid:
            assert operator_trace(gen, op, xi) == restricted_trace(gen, f, xi)


class TestCosetOperators:
    def test_definition_examples(self):
        d0 = Sequence.delta(0)
        assert coset_op(2, 0, d0) == Sequence.delta(0)
        assert coset_op(2, 1, d0) == Sequence.delta(1)
        assert coset_op_adj(2, 0, d0) == Sequence.delta(0)
        assert coset_op_adj(2, 1, d0).is_zero()
        assert coset_op(3, 2, Sequence.delta(1)) == Sequence.delta(5)

    def test_adjoint_pairing(self):
        rng = random.Random(12)
        for _ in range(200):
            a = rng.choice((2, 3, 5))
            d = rng.randrange(a)
            alpha = Sequence({rng.randint(-6, 6): CRat.of(rng.randint(-3, 3),
                                                          rng.randint(-3, 3))
                              for _ in range(rng.randint(1, 4))})
            beta = Sequence({rng.randint(-12, 12): CRat.of(rng.randint(-3, 3),
                                                           rng.randint(-3, 3))
                             for _ in range(rng.randint(1, 4))})
            lhs = coset_op(a, d, alpha).inner(beta)
            rhs = alpha.inner(coset_op_adj(a, d, beta))
            assert lhs == rhs

    def test_coset_resolution_of_identity(self):
        rng = random.Random(77)
        for _ in range(1000):
            a = rng.choice((2, 3))
            f = Sequence({rng.randint(-8, 8): CRat.of(rng.randint(-4, 4),
                                                      rng.randint(-4, 4))
                          for _ in range(rng.randint(1, 5))})
            total = Sequence({})
            for d in range(a):
                total = total + coset_op(a, d, coset_op_adj(a, d, f))
            assert total == f


class TestDilationFormula:
    def test_shannon_delta0_reduces_to_half_scale(self, shannon):
        gen = shannon[0].generator_set()
        for xi in (F(1, 2), F(3, 2), F(-5, 4)):
            lhs = dilated_trace(gen, Sequence.delta(0), xi)
            # chi_[-2,2): sigma(xi/2)
            expected = shannon[1].sigma.eval(xi / 2)
            assert lhs.lo <= expected <= lhs.hi
            rhs = dilation_coset_sum(gen, Sequence.delta(0), xi)
            assert rhs == expected

    def test_zero_sequence(self, shannon):
        gen = shannon[0].generator_set()
        zero = Sequence({})
        assert dilated_trace(gen, zero, F(1, 3)).hi == 0
        assert dilation_coset_sum(gen, zero, F(1, 3)) == 0

    @pytest.mark.parametrize("bits", (64, 128))
    def test_no_term_is_exactly_zero(self, shannon, bits):
        # the zero sequence, and a sequence whose indices meet no profile
        # at xi, leave no term: the interval [0, 0] of Fractions
        gen = shannon[0].generator_set()
        for f in (Sequence({}), Sequence.parse("1@40,-i@-40")):
            got = dilated_trace(gen, f, F(1, 3), bits)
            assert got == FInterval.ZERO
            assert type(got.lo) is F and type(got.hi) is F

    @pytest.mark.parametrize("a", (3, -3, 4))
    def test_parts_straddling_zero_match_direct(self, a):
        # three equal weights at the translate d = 1 carry the phases
        # 1, w, w^2 (w^3 = 1) times a common one, whose true sum is 0: the
        # enclosures of the real and imaginary parts straddle 0 unevenly
        gen = build_family(SpectralSpec(example_shannon().sigma, a))[0].generator_set()
        f = Sequence.parse("1@0,1@1,1@2")
        for xi in (F(-7, 3), F(-5, 3), F(-13, 7)):
            assert dilated_trace(gen, f, xi) == dilated_trace_direct(gen, f, xi)

    def test_phases_go_through_cos_pi_and_sin_pi(self, monkeypatch):
        # the benchmark's tracer counts the phase enclosures at the names
        # trace.cos_pi and trace.sin_pi
        calls = {"cos_pi": 0, "sin_pi": 0}
        for name in calls:
            inner = getattr(trace, name)

            def spy(*args, _name=name, _inner=inner):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(trace, name, spy)
        gen = _family("journe", -2)[0].generator_set()
        f = Sequence.parse("1@0,i@1,-1/2@-1")
        assert dilated_trace(gen, f, F(1, 3)) == dilated_trace_direct(gen, f, F(1, 3))
        assert calls["cos_pi"] > 0 and calls["sin_pi"] > 0

    @pytest.mark.parametrize("a", DILATIONS)
    def test_discrepancy_below_2_pow_40(self, a):
        f = Sequence.delta(0) + Sequence.delta(1, CRat.of(0, 1))
        for fam in (build_family(SpectralSpec(example_shannon().sigma, a)),
                    build_family(example_pwl(1, 1, a))):
            gen = fam[0].generator_set()
            grid = grid_of_size(gen.support_hull(), 25)
            rows = dilation_trace_check(gen, f, grid)
            assert max(r.discrepancy for r in rows) < TWO_POW_40


class TestGeneratorConsistency:
    def test_same_generator_trivially_passes(self, shannon):
        gen = shannon[0].generator_set()
        grid = grid_of_size((F(-1), F(1)), 10)
        rows = ntf_generator_test(gen, gen, grid)
        assert all(r.verdict == "pass" for r in rows)

    def test_split_generator_same_space_passes(self):
        whole = GeneratorSet((SqrtProfile.indicator(IntervalSet.of((-1, 1))),), 2)
        halves = GeneratorSet((SqrtProfile.indicator(IntervalSet.of((-1, 0))),
                               SqrtProfile.indicator(IntervalSet.of((0, 1)))), 2)
        grid = grid_of_size((F(-1), F(1)), 15)
        rows = ntf_generator_test(whole, halves, grid)
        assert all(r.verdict == "pass" for r in rows)

    def test_different_space_fails(self):
        whole = GeneratorSet((SqrtProfile.indicator(IntervalSet.of((-1, 1))),), 2)
        smaller = GeneratorSet((SqrtProfile.indicator(IntervalSet.of((-1, F(1, 2)))),), 2)
        grid = grid_of_size((F(-1), F(1)), 15)
        rows = ntf_generator_test(whole, smaller, grid)
        assert any(r.verdict == "fail" for r in rows)


class TestGeneratorIndependence:
    """The greedy and windows partitions of one sigma generate the same
    wavelet space, so the trace must not depend on which is used."""

    @pytest.mark.parametrize("a", DILATIONS)
    def test_greedy_and_windows_partitions_agree(self, a):
        spec = SpectralSpec(example_by_name("pwl:a=3/4,b=5/4").sigma, a)
        greedy = build_wavelets(spec, "greedy").generator_set()
        windows = build_wavelets(spec, "windows")
        grid = grid_of_size(greedy.support_hull(), 8,
                            exclude=greedy.breakpoints())
        rows = ntf_generator_test(greedy, windows.generator_set(), grid)
        assert rows and all(r.verdict == "pass" for r in rows)
        # halving one profile's square leaves the space of the other set
        halved = GeneratorSet(
            (SqrtProfile(windows.profiles[0].square.scale_value(F(1, 2))),)
            + windows.profiles[1:], a)
        rows = ntf_generator_test(greedy, halved, grid)
        assert any(r.verdict == "fail" for r in rows)
        assert all(r.residual > 0 for r in rows if r.verdict == "fail")


PARTITIONS = ("greedy", "windows")
ADMISSIBLE_IDS = [f"{n}@{a}" for n, a in ADMISSIBLE]


def _hull(*gens):
    ends = [x for g in gens for x in g.support_hull()]
    return min(ends), max(ends)


def _far_points(hull):
    """Two points of the hull with denominators near 10^6 and 10^7 times the
    hull's."""
    lo, hi = hull
    return [lo + (hi - lo) * F(123457, 1000003), lo + (hi - lo) * F(7777777, 9999991)]


def _halved(gen: GeneratorSet) -> GeneratorSet:
    """gen with the square of every profile halved."""
    return GeneratorSet(tuple(SqrtProfile(p.square.scale_value(F(1, 2)))
                              for p in gen.profiles), gen.dilation)


class TestOracleEquality:
    """The diagonal forms are equal to the direct forms in oracles.py, which
    build each fiber and its inner products: the restricted and operator
    traces as Fractions, the generator-test rows down to each float
    residual, and the dilated traces, which enclose each magnitude once,
    down to each Fraction endpoint."""

    @pytest.mark.parametrize("partition", PARTITIONS)
    @pytest.mark.parametrize("name, a", ADMISSIBLE, ids=ADMISSIBLE_IDS)
    def test_equal_to_direct_forms(self, name, a, partition):
        scaling, wavelets = _family(name, a, partition)
        phi, psi = scaling.generator_set(), wavelets.generator_set()
        other = _family(name, a, PARTITIONS[partition == "greedy"])[1].generator_set()
        grid = grid_of_size(_hull(phi, psi), 3,
                            exclude=phi.breakpoints() + psi.breakpoints())
        for gen in (phi, psi):
            for xi in grid:
                for text in SEQUENCES:
                    f = Sequence.parse(text)
                    assert restricted_trace(gen, f, xi) == \
                        restricted_trace_direct(gen, f, xi).rational_value()
                for op in OPERATORS:
                    assert operator_trace(gen, op, xi) == \
                        operator_trace_direct(gen, op, xi).rational_value()
        for bits in (64, 128, 256):
            for text in SEQUENCES:
                f = Sequence.parse(text)
                for gen in (phi, psi):
                    for xi in grid:
                        assert dilated_trace(gen, f, xi, bits) == \
                            dilated_trace_direct(gen, f, xi, bits)
            for gen, ref in ((phi, phi), (psi, other), (psi, phi)):
                rows = ntf_generator_test(gen, ref, grid, bits)
                assert rows == ntf_generator_test_direct(gen, ref, grid, bits)
            # psi and phi span different spaces: failing rows are compared too
            assert any(r.verdict == "fail" and r.residual > 0 for r in rows)


class TestIntegerReads:
    """The exact checks read S on integers, one denominator per point; their
    values are equal to the direct forms in oracles.py, down to each
    Fraction, failing rows included."""

    @pytest.mark.parametrize("partition", PARTITIONS)
    @pytest.mark.parametrize("name, a", ADMISSIBLE, ids=ADMISSIBLE_IDS)
    def test_coset_sums_and_split_rows_equal_direct(self, name, a, partition):
        scaling, wavelets = _family(name, a, partition)
        phi, psi = scaling.generator_set(), wavelets.generator_set()
        grid = grid_of_size(_hull(phi, psi), 2,
                            exclude=phi.breakpoints() + psi.breakpoints())
        grid += _far_points(_hull(phi, psi))
        for text in SEQUENCES:
            f = Sequence.parse(text)
            for xi in grid:
                assert dilation_coset_sum(phi, f, xi) == \
                    dilation_coset_sum_direct(phi, f, xi).rational_value()
            # the halved wavelet set opens the additivity gap
            for gen in (psi, _halved(psi)):
                assert trace_split_check(phi, gen, f, grid) == \
                    trace_split_direct(phi, gen, f, grid)
        rows = trace_split_check(phi, _halved(psi), Sequence.parse(SEQUENCES[0]), grid)
        assert any(r.additivity_gap > 0 for r in rows)

    @pytest.mark.parametrize("a", DILATIONS)
    def test_each_support_scaled_once_per_set(self, a, monkeypatch):
        # a fresh set: the family's own may have scaled its supports already
        gen = GeneratorSet(_family("pwl:a=3/4,b=5/4", a)[1].generator_set().profiles, a)
        grid = grid_of_size(gen.support_hull(), 6, exclude=gen.breakpoints())
        calls = []
        inner = IntervalSet.scale

        def spy(self, c):
            calls.append((self, c))
            return inner(self, c)
        monkeypatch.setattr(IntervalSet, "scale", spy)
        f = Sequence.parse(SEQUENCES[0])
        for _ in range(2):
            rows = dilation_trace_check(gen, f, grid)
            assert len(rows) == len(grid)
        dilated_trace(gen, f, grid[0])
        assert calls == [(p.support(), a) for p in gen.profiles]


class TestZeroDifference:
    """Two generator sets with one spectral function pass every row of the
    generator test with residual 0.0."""

    @pytest.mark.parametrize("name, a", ADMISSIBLE, ids=ADMISSIBLE_IDS)
    def test_same_set(self, name, a):
        psi = _family(name, a)[1].generator_set()
        grid = grid_of_size(psi.support_hull(), 3, exclude=psi.breakpoints())
        want = ntf_generator_test_direct(psi, psi, grid)
        rows = ntf_generator_test(psi, psi, grid)
        assert rows == want
        assert len(rows) == len(want) > 0
        assert all(r.verdict == "pass" and r.residual == 0.0 for r in rows)

    def test_equal_spectral_other_profiles(self):
        # chi[-1, 1) against its two halves: one S, different profiles
        whole = GeneratorSet((SqrtProfile.indicator(IntervalSet.of((-1, 1))),), 2)
        halves = GeneratorSet((SqrtProfile.indicator(IntervalSet.of((-1, 0))),
                               SqrtProfile.indicator(IntervalSet.of((0, 1)))), 2)
        assert whole.profiles != halves.profiles
        assert whole.spectral == halves.spectral
        grid = grid_of_size((F(-1), F(1)), 7)
        want = ntf_generator_test_direct(whole, halves, grid)
        rows = ntf_generator_test(whole, halves, grid)
        assert rows == want
        assert all(r.verdict == "pass" and r.residual == 0.0 for r in rows)


class TestSeriesIdentity:
    @pytest.mark.parametrize("partition", PARTITIONS)
    @pytest.mark.parametrize("name, a", ADMISSIBLE, ids=ADMISSIBLE_IDS)
    def test_equal_to_pair_sums(self, name, a, partition):
        # the residual read off the diagonal Gramians on integers is the
        # pairing sum of each scale; at s != 0 every pair is 0.  Halving
        # the wavelet squares gives failing rows, which are compared too.
        scaling, wavelets = _family(name, a, partition)
        phi, psi = scaling.generator_set(), wavelets.generator_set()
        grid = grid_of_size(psi.support_hull(), 4,
                            exclude=phi.breakpoints() + psi.breakpoints())
        # a point near 0, where S_phi is 1, and points of large denominators
        grid += [F(123457, 10000019)] + _far_points(psi.support_hull())
        for gen in (psi, _halved(psi)):
            for s in (0, 1, -2):
                rows = series_identity_check(phi, gen, s, grid)
                assert rows == series_identity_direct(phi, gen, s, grid)
        assert any(r.verdict() == "fail" for r in
                   series_identity_check(phi, _halved(psi), 0, grid))

    @pytest.mark.parametrize("name, a", ADMISSIBLE, ids=ADMISSIBLE_IDS)
    def test_wavelet_scale_sum_is_scaling_square_sum(self, name, a):
        # sum_{j>=1} S_psi(a^j xi) = S_phi(xi): the multiscaling square sum
        # from the multiwavelets alone, off the breakpoints and their images
        # under a^-j (at a < 0 a jump of sigma flips which end is open)
        scaling, wavelets = _family(name, a)
        phi, psi = scaling.generator_set(), wavelets.generator_set()
        breaks = phi.breakpoints() + psi.breakpoints()
        exclude = [b / F(a) ** j for b in breaks for j in range(40)]
        # points xi with a xi inside the support of psi_0, and seeded points
        hits = [xi for lo, hi in wavelets.profiles[0].support().pieces
                for xi in grid_of_size(tuple(sorted((lo / a, hi / a))), 2,
                                       exclude=exclude)]
        grid = hits + grid_of_size(_hull(phi, psi), 24, exclude=exclude)
        rows = series_identity_check(phi, psi, 0, grid)
        assert [r.residual for r in rows] == [0] * len(grid)
        assert {r.verdict() for r in rows} == {"pass"}
        # halving psi_0's square breaks the identity wherever psi_0 enters
        halved = GeneratorSet(
            (SqrtProfile(wavelets.profiles[0].square.scale_value(F(1, 2))),)
            + wavelets.profiles[1:], a)
        rows = series_identity_check(phi, halved, 0, hits)
        assert all(isinstance(r.residual, F) and r.residual != 0
                   and r.verdict() == "fail" for r in rows)

    def test_shannon_point(self, shannon):
        phi, psi = shannon[0].generator_set(), shannon[1].generator_set()
        rows = series_identity_check(phi, psi, 0, [F(1, 2)])
        assert rows[0].residual == 0

    def test_disjoint_shift(self, shannon):
        phi, psi = shannon[0].generator_set(), shannon[1].generator_set()
        grid = grid_of_size((F(-2), F(2)), 20)
        for s in (1, -1, 2):
            rows = series_identity_check(phi, psi, s, grid)
            assert all(r.residual == 0 for r in rows)

    def test_worked_family_exact(self, worked):
        phi, psi = worked[0].generator_set(), worked[1].generator_set()
        grid = grid_of_size((F(-1), F(1)), 30)
        for s in range(-2, 3):
            rows = series_identity_check(phi, psi, s, grid)
            assert all(r.residual == 0 for r in rows)


class TestTraceSplit:
    @pytest.mark.parametrize("a", DILATIONS)
    def test_additivity_and_monotonicity(self, a):
        scaling, wavelets = build_family(example_pwl(1, 1, a))
        phi, psi = scaling.generator_set(), wavelets.generator_set()
        grid = grid_of_size(phi.support_hull(), 15)
        for f in (Sequence.delta(0), Sequence.delta(0) + Sequence.delta(1),
                  Sequence.delta(0) + Sequence.delta(2, CRat.of(0, 1))):
            rows = trace_split_check(phi, psi, f, grid)
            assert max(r.additivity_gap for r in rows) < TWO_POW_40
            assert min(r.monotone_margin for r in rows) > -TWO_POW_40

    @pytest.mark.parametrize("name, a", ADMISSIBLE, ids=ADMISSIBLE_IDS)
    def test_filter_free_gap_is_exactly_zero(self, name, a):
        # the coset sum and both restricted traces are exact SqrtSums whose
        # roots cancel term by term
        scaling, wavelets = build_family(SpectralSpec(example_by_name(name).sigma, a))
        phi, psi = scaling.generator_set(), wavelets.generator_set()
        grid = grid_of_size(phi.support_hull(), 9, exclude=phi.breakpoints())
        for text in SEQUENCES:
            rows = trace_split_check(phi, psi, Sequence.parse(text), grid)
            assert [r.additivity_gap for r in rows] == [0] * len(grid)
            assert min(r.monotone_margin for r in rows) >= 0

    @pytest.mark.parametrize("a", DILATIONS)
    def test_scaled_wavelet_opens_the_gap(self, a):
        scaling, wavelets = build_family(example_pwl(F(1, 2), F(1, 2), a))
        phi = scaling.generator_set()
        psis = (SqrtProfile(wavelets.profiles[0].square.scale_value(F(10201, 10000))),) \
            + wavelets.profiles[1:]
        grid = grid_of_size(psis[0].support().hull(), 9, exclude=phi.breakpoints())
        rows = trace_split_check(phi, GeneratorSet(psis, a), Sequence.delta(0), grid)
        assert max(r.additivity_gap for r in rows) > 0


def test_default_grid_excludes_breakpoints_and_zero():
    grid = default_grid([F(-1), F(0), F(1)], (F(-1), F(1)), n_random=20)
    assert F(0) not in grid
    assert F(1) not in grid
    assert all(F(-1) < x < F(1) for x in grid)
    again = default_grid([F(-1), F(0), F(1)], (F(-1), F(1)), n_random=20)
    assert grid == again  # seeded determinism


def _grid_loop(hull, n, seed=trace.GRID_SEED, exclude=()):
    """The draw loop of `grid_of_size` without its up-front count."""
    lo, hi = trace._nonempty_hull(hull)
    banned = {F(0)} | {F(e) for e in exclude}
    rng = random.Random(seed)
    m = trace._GRID_DEN * 64
    out = []
    while len(out) < n:
        q = lo + (hi - lo) * F(rng.randrange(1, m), m)
        if q not in banned and q not in out:
            out.append(q)
    return sorted(out)


class TestGridOfSize:
    @pytest.mark.parametrize("hull, n, exclude", [
        ((F(-1), F(1)), 10, ()),
        ((F(-7, 3), F(5, 2)), 40, (F(1, 2), F(-1))),
        ((F(1), F(1)), 5, ()),
        ((F(0), F(3)), 1, (F(3, 2),))])
    def test_same_points_as_the_draw_loop(self, hull, n, exclude):
        assert grid_of_size(hull, n, exclude=exclude) == _grid_loop(hull, n, exclude=exclude)

    def test_too_many_points_raise(self, monkeypatch):
        # 63 candidates lo + 2 r / 64 at _GRID_DEN = 1; 0 is one of them
        monkeypatch.setattr(trace, "_GRID_DEN", 1)
        hull = (F(-1), F(1))
        assert grid_of_size(hull, 62) == _grid_loop(hull, 62)
        assert len(set(grid_of_size(hull, 62))) == 62
        with pytest.raises(ValueError, match="63 grid points asked for; the hull holds 62"):
            grid_of_size(hull, 63)
        # an excluded candidate takes one away; a point off the lattice or
        # an end of the hull none
        assert len(grid_of_size(hull, 62, exclude=[F(-1), F(1), F(1, 3)])) == 62
        assert len(grid_of_size(hull, 61, exclude=[F(1, 2), F(1, 3)])) == 61
        with pytest.raises(ValueError, match="the hull holds 61 candidates"):
            grid_of_size(hull, 62, exclude=[F(1, 2), F(1, 3)])
        assert grid_of_size((F(1), F(2)), 63) == _grid_loop((F(1), F(2)), 63)
        with pytest.raises(ValueError, match="the hull holds 63 candidates"):
            grid_of_size((F(1), F(2)), 64)
        assert grid_of_size(hull, 0) == []
