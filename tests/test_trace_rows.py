"""The exact-integer paths of certify against their per-point oracles: the
trace CSV read off the diagonal Gramian and the integer grid; and the norm
sum's all-xi tail bound against the per-point depth rule it replaces."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from framesmith.cli import main
from framesmith.construction import (SpectralSpec, build_family, example_by_name,
                                     random_admissible_spec)
from framesmith.intervals import IntervalSet
from framesmith.piecewise import GeneratorSet, PiecewiseLinear, SqrtProfile
from framesmith.sequences import Sequence
from framesmith.serialize import (digest_of, dumps_canonical, family_from_jsonable,
                                  family_to_jsonable, loads_json)
from framesmith.trace import default_grid, diagonal_traces
from framesmith.verification import TAIL_TARGET, check_ntf_multiwavelet, family_grid

from oracles import (default_grid_fractions, dimension_function, norm_sum_oracle,
                     partial_at, restricted_trace_direct, spectral_function, tail_at,
                     zero_line)

DILATIONS = (2, 3, -2, -3, 4)
BUILTINS = ("shannon", "journe", "pwl:a=1/2,b=1/2", "pwl:a=3/4,b=5/4")
# journe is not admissible at |a| = 3
ADMISSIBLE = [(n, a) for n in BUILTINS for a in DILATIONS
              if not (n == "journe" and abs(a) == 3)]
# complex, repeated and far indices
SEQUENCES = ("1@0", "1@0,i@1,-1/2@-1", "3@5,-2@-7", "1/2@-1,-i@2,1@2,1/2-i@-1")
RANDOM = [(seed, (2, 3, -2, -3, 4)[seed % 5]) for seed in range(10)]


def _random_spec(seed, a):
    return random_admissible_spec(random.Random(seed), a)


def _family_file(tmp_path, spec, partition):
    scaling, wavelets = build_family(spec, partition=partition)
    path = tmp_path / f"fam-{partition}.json"
    path.write_text(dumps_canonical(family_to_jsonable(scaling, wavelets,
                                                       digest_of("test"))))
    return path


def _fraction_family_grid(*gens, seed=0x5EED):
    """`family_grid` from the Fraction loop."""
    breaks = sorted({x for g in gens for x in g.breakpoints()})
    ends = [x for g in gens for x in g.support_hull()]
    return default_grid_fractions(breaks, (min(ends), max(ends)), seed=seed)


def _oracle_lines(path, f_text, grid_arg):
    """The CSV rows from the per-point oracles, on the grid built with
    Fraction arithmetic."""
    scaling, wavelets = family_from_jsonable(loads_json(path.read_text()))
    gen = scaling.generator_set()
    if grid_arg == "auto":
        grid = _fraction_family_grid(gen, wavelets.generator_set())
    else:
        n = int(grid_arg)
        lo, hi = gen.support_hull()
        grid = [lo + (hi - lo) * F(i, n) for i in range(n)]
    f = Sequence.parse(f_text)
    lines = ["xi,spectral,dim,tau_f"]
    for xi in grid:
        tau = restricted_trace_direct(gen, f, xi).enclosure().mid()
        lines.append(",".join(repr(float(v)) for v in (
            xi, spectral_function(gen, xi), dimension_function(gen, xi), tau)))
    return lines


def _columns(gen, f, grid):
    """The three `diagonal_traces` functions read at every grid point."""
    return [[g.eval(xi) for xi in grid] for g in diagonal_traces(gen, f, grid)]


def _assert_csv_matches(tmp_path, spec, partition, cases):
    path = _family_file(tmp_path, spec, partition)
    csv = tmp_path / "trace.csv"
    for f_text, grid_arg in cases:
        assert main(["trace", "--family", str(path), "--f", f_text,
                     "--grid", grid_arg, "--out", str(csv)]) == 0
        assert csv.read_text().splitlines() == _oracle_lines(path, f_text, grid_arg)


class TestTraceCsv:
    @pytest.mark.parametrize("partition", ("greedy", "windows"))
    @pytest.mark.parametrize("name,a", ADMISSIBLE)
    def test_builtins_match_the_oracles(self, tmp_path, name, a, partition):
        spec = SpectralSpec(example_by_name(name).sigma, a)
        # 16 points hit 0 and the breakpoints at multiples of 1/8 of the hull
        grids = ("auto", "16") if partition == "greedy" else ("37", "16")
        cases = [(SEQUENCES[(i + len(name) + a) % len(SEQUENCES)], g)
                 for i, g in enumerate(grids)]
        _assert_csv_matches(tmp_path, spec, partition, cases)

    @pytest.mark.parametrize("seed,a", RANDOM)
    def test_random_specs_match_the_oracles(self, tmp_path, seed, a):
        partition = ("greedy", "windows")[seed % 2]
        cases = [(SEQUENCES[seed % len(SEQUENCES)], "auto"),
                 (SEQUENCES[(seed + 1) % len(SEQUENCES)], "29")]
        _assert_csv_matches(tmp_path, _random_spec(seed, a), partition, cases)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_columns_are_exact(self, name):
        # the grid ends at 3, an even distance from shannon's support end -1
        scaling, _ = build_family(example_by_name(name))
        gen = scaling.generator_set()
        grid = [F(i, 8) for i in range(-24, 25)]
        f = Sequence.parse("1@0,i@1,-1/2@-1,3@5,1@-2")
        spectral, dim, tau = _columns(gen, f, grid)
        assert spectral == [spectral_function(gen, xi) for xi in grid]
        assert dim == [dimension_function(gen, xi) for xi in grid]
        assert tau == [restricted_trace_direct(gen, f, xi).rational_value() for xi in grid]

    @pytest.mark.parametrize("profile", [
        SqrtProfile.indicator(IntervalSet.of((-1, 3))),
        SqrtProfile(build_family(example_by_name("pwl:a=3/4,b=5/4"))[1].gain()),
    ], ids=["indicator_-1_3", "sqrt_gain"])
    def test_non_injective_profile_raises(self, profile):
        gen = GeneratorSet((SqrtProfile.indicator(IntervalSet.of((-1, 1))), profile))
        with pytest.raises(ValueError, match=r"profile 1 meets the residue cell .*; the "
                                             r"diagonal fiber Gramian needs supports"):
            diagonal_traces(gen, Sequence.parse("1@0"), [F(1, 2)])

    @pytest.mark.parametrize("name,a", [("shannon", -2), ("journe", 2),
                                        ("pwl:a=3/4,b=5/4", 3)])
    def test_shuffled_grid_reads_the_same_columns(self, name, a):
        # the k range of the periodization spans min(grid) to max(grid),
        # wherever in the grid they sit
        scaling, _ = build_family(SpectralSpec(example_by_name(name).sigma, a))
        gen = scaling.generator_set()
        f = Sequence.parse("1@0,i@1,-1/2@-1,3@5")
        grid = [F(i, 8) for i in range(-40, 41)]
        inner = grid[1:-1]
        random.Random(len(name) + a).shuffle(inner)
        shuffled = [grid[-1]] + inner + [grid[0]]
        at = dict(zip(grid, zip(*_columns(gen, f, grid))))
        got = _columns(gen, f, shuffled)
        assert list(zip(*got)) == [at[xi] for xi in shuffled]
        assert got[1] == [dimension_function(gen, xi) for xi in shuffled]


# the built-ins, two seeded random specs, and a tent whose ends have
# denominators 3^40 + 1 and 2^60 + 1: its grid points and values pass 2^53 in
# numerator and denominator, where a float of N / (scale q) that was not
# correctly rounded would show
_FAR = f"pwl:a={3 ** 40}/{3 ** 40 + 1},b={2 ** 60 + 3}/{2 ** 60 + 1}"
CELL_CASES = ADMISSIBLE + [(7, 2), (12, -3), (_FAR, 2), (_FAR, -3)]


class TestCsvCells:
    """Each CSV cell is one int / int division on the integer form; it must
    be repr(float(v)) of the exact Fraction v of the oracle columns."""

    @staticmethod
    def _fraction_lines(path, f_text, grid_arg):
        scaling, wavelets = family_from_jsonable(loads_json(path.read_text()))
        gen = scaling.generator_set()
        if grid_arg == "auto":
            grid = _fraction_family_grid(gen, wavelets.generator_set())
        else:
            lo, hi = gen.support_hull()
            grid = [lo + (hi - lo) * F(i, int(grid_arg)) for i in range(int(grid_arg))]
        f = Sequence.parse(f_text)
        return [(xi, spectral_function(gen, xi), dimension_function(gen, xi),
                 restricted_trace_direct(gen, f, xi).rational_value()) for xi in grid]

    @pytest.mark.parametrize("name,a", CELL_CASES)
    def test_cells_are_the_floats_of_the_exact_columns(self, tmp_path, name, a):
        spec = (_random_spec(name, a) if isinstance(name, int)
                else SpectralSpec(example_by_name(name).sigma, a))
        path = _family_file(tmp_path, spec, "greedy")
        f_text = SEQUENCES[(len(str(name)) + a) % len(SEQUENCES)]
        csv = tmp_path / "trace.csv"
        for grid_arg in ("auto", "37"):
            assert main(["trace", "--family", str(path), "--f", f_text,
                         "--grid", grid_arg, "--out", str(csv)]) == 0
            rows = self._fraction_lines(path, f_text, grid_arg)
            assert csv.read_text().splitlines() == ["xi,spectral,dim,tau_f"] + [
                ",".join(repr(float(v)) for v in row) for row in rows], grid_arg
            if name == _FAR:
                wide = [v for row in rows for v in row
                        if abs(v.numerator) > 2 ** 53 and v.denominator > 2 ** 53]
                assert len(wide) > len(rows), grid_arg


class TestDefaultGrid:
    @pytest.mark.parametrize("seed", (0x5EED, 1, 2, 3, 77))
    def test_matches_the_fraction_loop(self, seed):
        rng = random.Random(seed)
        for _ in range(12):
            breaks = [F(rng.randint(-300, 300), rng.choice((1, 2, 3, 7, 9, 16, 27)))
                      for _ in range(rng.randint(0, 30))]
            lo = F(rng.randint(-40, 0), rng.choice((1, 3, 4, 5)))
            hull = (lo, lo + F(rng.randint(0, 40), rng.choice((1, 2, 7))))
            # breakpoints, gap midpoints and the first draws of the seed
            pts = sorted(set(breaks))
            first = random.Random(seed)
            exclude = rng.sample(breaks, min(3, len(breaks))) + \
                [(p + q) / 2 for p, q in zip(pts[:3], pts[1:4])] + \
                [hull[0] + (hull[1] - hull[0]) * F(first.randrange(1, 5040), 5040)
                 for _ in range(3)] + [F(rng.randint(-50, 50), 11)]
            n = rng.choice((0, 5, 97, 400))
            got = default_grid(breaks, hull, n_random=n, seed=seed, exclude=exclude)
            assert got == default_grid_fractions(breaks, hull, n_random=n, seed=seed,
                                                 exclude=exclude)

    def test_family_grids_match(self):
        for name, a in ADMISSIBLE:
            scaling, wavelets = build_family(SpectralSpec(example_by_name(name).sigma, a))
            gens = (scaling.generator_set(), wavelets.generator_set())
            assert family_grid(*gens) == _fraction_family_grid(*gens)


def _scaled_psis(wavelets, c):
    return replace(wavelets, profiles=tuple(SqrtProfile(p.square.scale_value(c))
                                            for p in wavelets.profiles))


class TestNormSum:
    def _assert_same(self, wavelets):
        report = check_ntf_multiwavelet(wavelets)
        rows = {c.name: c for c in report.checks}
        telescopes = rows["scale_sum_telescopes"].status == "pass"
        got = [c for c in report.checks if c.name == "norm_sum"]
        assert got == norm_sum_oracle(wavelets, telescopes)
        return got

    @pytest.mark.parametrize("name,a", ADMISSIBLE)
    def test_builtins_match_the_oracle(self, name, a):
        _, wavelets = build_family(SpectralSpec(example_by_name(name).sigma, a))
        assert [c.status for c in self._assert_same(wavelets)] == ["pass"]

    @pytest.mark.parametrize("seed,a", RANDOM)
    def test_random_specs_match_the_oracle(self, seed, a):
        _, wavelets = build_family(_random_spec(seed, a))
        self._assert_same(wavelets)

    @pytest.mark.parametrize("c", (F(1, 2), 10), ids=["halved", "x10"])
    @pytest.mark.parametrize("name,a", [("shannon", -2), ("pwl:a=3/4,b=5/4", 3),
                                        ("journe", 2)])
    def test_non_telescoping_has_no_norm_sum_row(self, name, a, c):
        _, wavelets = build_family(SpectralSpec(example_by_name(name).sigma, a))
        assert self._assert_same(_scaled_psis(wavelets, c)) == []

    def _judged_by_shannon(self, pieces):
        """The wavelets of the sigma `pieces` at a = 2 judged against
        shannon's sigma, whose gain their squares do not telescope to."""
        _, wavelets = build_family(SpectralSpec(PiecewiseLinear.of(*pieces), 2))
        return self._assert_same(replace(wavelets, sigma=example_by_name("shannon").sigma))

    def test_non_telescoping_sum_of_one_has_no_row(self):
        # 1 on shannon's support and 1/2 beyond it: the scale sum is still 1,
        # but no exact identity proves it, so no norm_sum row is reported
        assert self._judged_by_shannon([(-2, -1, 0, "1/2"), (-1, 1, 0, 1),
                                        (1, 2, 0, "1/2")]) == []

    def test_halved_sigma_fails_match(self):
        # halved on shannon's support away from 0: the squares do not
        # telescope to shannon's gain, so there is no norm_sum row
        assert self._judged_by_shannon([(-1, "-1/2", 0, "1/2"), ("-1/2", "1/2", 0, 1),
                                        ("1/2", 1, 0, "1/2")]) == []
        # halved at 0 it fails at 0 whether or not the squares telescope
        _, wavelets = build_family(example_by_name("shannon"))
        half = replace(wavelets, sigma=wavelets.sigma.scale_value(F(1, 2)))
        got = self._assert_same(half)
        assert got[0].witness == {"xi": F(0)}


def _seeded_rationals(key, n=2000):
    """n seeded nonzero rationals of both signs, denominators up to 10^7
    and |xi| from 10^-7 up to 10^6, spread evenly in log |xi|."""
    rng = random.Random(key)
    out = []
    for _ in range(n):
        den = rng.randint(1, 10 ** 7)
        size = max(1, int(den * 10 ** rng.uniform(-7, 6)))
        out.append(F(rng.choice((1, -1)) * size, den))
    return out


def _turning_points(wavelets):
    """Points where the depth rule turns: |xi| / clearance, slope |xi| /
    TAIL_TARGET or radius / |xi| on, just under or just over a power of |a|;
    and the dilation orbits of sigma's breakpoints, of the psi hull ends and
    of the clearance, xi = b a^k; both signs."""
    a = wavelets.dilation
    clearance, slope = zero_line(wavelets.sigma)
    lo, hi = wavelets.generator_set().support_hull()
    radius = max(abs(lo), abs(hi), F(1))
    points = set()
    for n in range(40):
        for q in (abs(a) ** n - F(1, 3), F(abs(a) ** n), abs(a) ** n + F(1, 3)):
            near = [q * clearance, radius / q] + ([q * TAIL_TARGET / slope] if slope else [])
            points.update(x for x in near if x <= 2 * radius)
    ends = wavelets.sigma.breakpoints() + [clearance, lo, hi]
    points.update(abs(b) * F(a) ** k for b in ends if b for k in range(-8, 9))
    return [s * x for x in sorted(points) for s in (1, -1)]


SLOPED = [(n, a) for n, a in ADMISSIBLE if n.startswith("pwl")]
TAIL_CASES = ADMISSIBLE + RANDOM


def _tail_family(name, a):
    scaling, wavelets = build_family(_random_spec(name, a) if isinstance(name, int)
                                     else SpectralSpec(example_by_name(name).sigma, a))
    bound = next(c for c in check_ntf_multiwavelet(wavelets).checks
                 if c.name == "norm_sum").tail_bound
    return scaling, wavelets, bound


class TestAllXiTail:
    """The norm sum's `tail_bound` against `tail_at`, the per-point depth rule
    that it replaces: an upper bound at every point, attained on the sloped
    sigma, and 0 everywhere on the flat ones (shannon, journe)."""

    @pytest.mark.parametrize("name,a", TAIL_CASES)
    def test_tail_at_is_within_the_bound(self, name, a):
        scaling, wavelets, bound = _tail_family(name, a)
        if isinstance(name, str):
            assert bound == (TAIL_TARGET if (name, a) in SLOPED else 0)
        grid = family_grid(scaling.generator_set(), wavelets.generator_set())
        for xi in _seeded_rationals(f"{name}@{a}") + grid + _turning_points(wavelets):
            if xi:
                tail = tail_at(wavelets, xi)
                assert tail <= bound, xi
                # the telescoped partial sum at that depth is within the tail
                assert abs(1 - partial_at(wavelets, xi)) <= tail, xi

    @pytest.mark.parametrize("name,a", SLOPED + RANDOM)
    def test_bound_is_attained(self, name, a):
        _, wavelets, bound = _tail_family(name, a)
        clearance, slope = zero_line(wavelets.sigma)
        if not slope:
            assert bound == 0
            return
        assert slope * clearance > TAIL_TARGET
        for n in range(1, 21):
            for s in (1, -1):
                assert tail_at(wavelets, s * TAIL_TARGET * abs(a) ** n / slope) == \
                    bound == TAIL_TARGET, (n, s)
