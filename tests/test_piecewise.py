import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from framesmith.construction import example_by_name, random_admissible_spec
from framesmith.intervals import IntervalSet, union_all
from framesmith.piecewise import GeneratorSet, PiecewiseLinear, SqrtProfile, integrate_product
from framesmith.rationals import format_ratio
from framesmith.serialize import pwl_from_jsonable, pwl_to_jsonable
from oracles import _canonical_pieces, eval_left_oracle, eval_oracle, zero_line
from oracles import radicand_zeros  # the Gauss-Legendre oracle's zero scan


def tent(A, B):
    """The worked spectral profile: 1 at 0, down to 0 at -A and B (pi units)."""
    A, B = F(A), F(B)
    return PiecewiseLinear.of((-A, 0, 1 / A, 1), (0, B, -1 / B, 1))


def test_eval_worked_example():
    # half-widths pi, i.e. 1 in pi units
    sigma = tent(1, 1)
    assert sigma.eval(F(1, 2)) == F(1, 2)
    assert sigma.eval(0) == 1
    assert sigma.eval(5) == 0


def test_one_sided_limits():
    f = PiecewiseLinear.of((0, 1, 0, 2), (1, 2, 0, 3))
    assert f.eval(1) == 3  # the limit from above, by half-openness
    assert f.eval_left(1) == 2
    assert f.eval_left(0) == 0


def _random_pwl(rng):
    """Up to 8 pieces with gaps, touching ends and mixed denominators."""
    x = F(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 12)))
    pieces = []
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.3:
            x += F(rng.randint(1, 9), rng.choice((1, 4, 5)))
        hi = x + F(rng.randint(1, 30), rng.choice((1, 2, 3, 8, 9)))
        pieces.append((x, hi, F(rng.randint(-9, 9), rng.choice((1, 2, 5))),
                       F(rng.randint(-9, 9), rng.choice((1, 3, 7)))))
        x = hi
    return PiecewiseLinear.of(*pieces)


class TestEval:
    """`eval`, `eval_left` and the integer lookup `_numerator` on the
    integer form, against the Fraction lookups of the oracles."""

    @staticmethod
    def _assert_reads(f, extra=()):
        scale = f.scale
        xs = [F(0), *extra]
        for b in f.breakpoints():
            step = F(1, 7 * b.denominator)
            xs += [b - step, b, b + step]
        xs += [(lo + hi) / 2 for lo, hi, _, _ in f.pieces]
        for x in xs:
            value = eval_oracle(f, x)
            assert f.eval(x) == value, (f, x)
            assert f.eval_left(x) == eval_left_oracle(f, x), (f, x)
            assert f.eval(format_ratio(x)) == value, (f, x)
            # p / q unreduced: each end belongs to the piece on its right
            for k in (1, 6):
                p, q = x.numerator * k, x.denominator * k
                assert F(f._numerator(p, q), scale * q) == value, (f, x, k)

    def test_random_functions(self):
        rng = random.Random(26)
        for _ in range(60):
            f = _random_pwl(rng)
            self._assert_reads(f, [F(rng.randint(-900, 900), rng.randint(1, 40))
                                   for _ in range(20)])

    @pytest.mark.parametrize("a", (2, -2, 3, -3, 4))
    def test_sigmas_and_their_dilates(self, a):
        sigmas = [example_by_name(n).sigma for n in
                  ("shannon", "journe", "pwl:a=1/2,b=1/2", "pwl:a=3/4,b=5/4")]
        sigmas += [random_admissible_spec(random.Random(seed), a).sigma
                   for seed in range(4)]
        for sigma in sigmas:
            self._assert_reads(sigma)
            for n in (40, -40):
                self._assert_reads(sigma.compose_scale(F(a) ** n))

    def test_zero_function(self):
        zero = PiecewiseLinear.zero()
        self._assert_reads(zero, [F(-3), F(5, 7)])
        assert zero.eval("7/3") == zero.eval_left(0) == 0

    def test_int_and_ratio_inputs(self):
        f = PiecewiseLinear.of((-1, 0, 1, 1), (0, 2, -1, 1), (3, 4, "1/2", 0))
        for x in range(-3, 6):
            assert f.eval(x) == f.eval(str(x)) == eval_oracle(f, x), x
            assert f.eval_left(x) == f.eval_left(str(x)) == eval_left_oracle(f, x), x
        assert f.eval("-1/2") == f.eval(" -2 / 4 ") == F(1, 2)
        assert f.eval_left("3/1") == 0 and f.eval("7/2") == F(7, 4)
        assert f.eval_left("4") == 2 and f.eval(4) == 0


def test_nonneg_examples():
    sigma = tent(1, 1)
    diff = sigma - sigma.compose_scale(2)
    assert diff.first_negative_witness() is None
    ramp = PiecewiseLinear.of((-1, 1, 1, 0))
    assert ramp.first_negative_witness() is not None
    assert PiecewiseLinear.zero().first_negative_witness() is None


def test_nonneg_matches_breakpoint_scan_oracle():
    rng = random.Random(11)
    for _ in range(60):
        pieces = []
        cur = F(rng.randint(-8, 0))
        for _ in range(rng.randint(1, 4)):
            width = F(rng.randint(1, 6), 2)
            a = F(rng.randint(-4, 4), 2)
            b = F(rng.randint(-4, 4), 2)
            pieces.append((cur, cur + width, a, b))
            cur += width + F(rng.randint(0, 2))
        f = PiecewiseLinear.of(*pieces)
        # oracle: sample endpoints and many interior points exactly
        bad = False
        for lo, hi, a, b in f.pieces:
            for t in range(17):
                x = lo + (hi - lo) * F(t, 17)
                if f.eval(x) < 0:
                    bad = True
            if a * hi + b < 0:
                bad = True
        witness = f.first_negative_witness()
        assert (witness is None) == (not bad)
        if witness is not None:
            assert f.eval(witness) < 0 and witness not in f.breakpoints()


def test_dilation_rise_witness_is_a_true_rise():
    # f(-2x) > f(x) exactly on (-1/2, -1/4].  compose_scale(-2) reflects
    # [1/2, 1) to [-1/2, -1/4), so the difference is negative from its
    # breakpoint -1/2 on, where f(-2x) = f(1) = 0 is no rise.
    f = PiecewiseLinear.of((F(-1, 2), F(1, 2), 0, 1), (F(1, 2), 1, 0, 2))
    x = f.dilation_rise(-2)
    assert F(-1, 2) < x <= F(-1, 4) and f.eval(-2 * x) > f.eval(x)
    assert tent(1, 1).dilation_rise(2) is None
    assert tent(1, 1).dilation_rise(-3) is None


def test_addition_exact_at_random_rationals():
    rng = random.Random(5)
    f = tent(1, 2)
    g = tent(F(1, 2), 3).compose_shift(F(1, 3))
    h = f + g
    for _ in range(1000):
        x = F(rng.randint(-500, 500), rng.randint(1, 120))
        assert h.eval(x) == f.eval(x) + g.eval(x)


def test_compose_scale_and_shift_laws():
    f = tent(1, 1)
    g = f.compose_scale(F(1, 2))   # g(x) = f(x/2)
    assert g.eval(1) == f.eval(F(1, 2))
    assert g.support() == IntervalSet.of((-2, 2))
    s = f.compose_shift(F(3, 4))   # s(x) = f(x + 3/4)
    assert s.eval(F(-3, 4)) == f.eval(0)
    neg = f.compose_scale(-2)      # neg(x) = f(-2x)
    assert neg.eval(F(1, 4)) == f.eval(F(-1, 2))


def test_support_and_max_zero():
    f = PiecewiseLinear.of((-1, 1, 1, 0))  # x on [-1, 1)
    assert f.support() == IntervalSet.of((-1, 1))


def test_canonical_equality_merges_split_lines():
    a = PiecewiseLinear.of((0, 1, 2, 0), (1, 2, 2, 0))
    b = PiecewiseLinear.of((0, 2, 2, 0))
    assert a == b
    assert a.pieces == b.pieces


def test_overlapping_pieces_rejected():
    with pytest.raises(ValueError):
        PiecewiseLinear.of((0, 2, 1, 0), (1, 3, 1, 0))


def test_integral_and_products():
    sigma = tent(1, 1)
    assert integrate_product([sigma]) == 1
    assert integrate_product([sigma, sigma]) == F(2, 3)
    # cubic: int_0^1 x^3 = 1/4 via three linear factors
    x_on = PiecewiseLinear.of((0, 1, 1, 0))
    assert integrate_product([x_on, x_on, x_on]) == F(1, 4)


def test_zero_neighborhood():
    sigma = tent(F(1, 2), 2)
    assert sigma.zero_neighborhood() == (1, 1, 2)
    assert zero_line(sigma) == (F(1, 2), 2)   # the clearance lives in the oracle
    away = PiecewiseLinear.of((1, 2, 0, 1))
    assert away.zero_neighborhood() is None
    # one-sided slopes: the larger |alpha| of the two pieces at 0
    sides = PiecewiseLinear.of((-1, 0, F(1, 3), 1), (0, F(1, 4), -5, 1))
    assert sides.zero_neighborhood() == (1, 1, 5) and zero_line(sides) == (F(1, 4), 5)
    for sigma in [example_by_name(n).sigma for n in ("shannon", "journe",
                                                      "pwl:a=3/4,b=5/4")] + \
            [random_admissible_spec(random.Random(seed)).sigma for seed in range(8)]:
        assert sigma.zero_neighborhood() == (eval_left_oracle(sigma, 0),
                                             eval_oracle(sigma, 0), zero_line(sigma)[1])


class TestSqrtProfile:
    def test_rejects_negative_square(self):
        bad = PiecewiseLinear.of((0, 1, 0, -1))
        with pytest.raises(ValueError, match="negative"):
            SqrtProfile(bad)

    def test_square_times_indicator_is_exact(self):
        sigma = tent(1, 1)
        dom = IntervalSet.of((F(-1, 2), F(1, 4)))
        p = SqrtProfile(sigma.restrict(dom))
        rng = random.Random(2)
        for _ in range(200):
            x = F(rng.randint(-40, 40), 16)
            expected = sigma.eval(x) if dom.contains(x) else F(0)
            assert p.value_sq(x) == expected

    def test_sqrt_singularities(self):
        p = SqrtProfile(tent(1, 1))
        assert set(radicand_zeros(p.square)) == {F(-1), F(1)}

    def test_indicator_profile(self):
        p = SqrtProfile.indicator(IntervalSet.of((-1, 1)))
        assert p.is_indicator()
        assert p.value_sq(0) == 1


# -- the integer parse against the Fraction canonicalization --------------------

_ENDS = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6)))
_COEFFS = st.one_of(st.just(F(0)), st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2, 5))))


@st.composite
def _disjoint_pieces(draw):
    """Pieces between sorted distinct ends, every other gap skipped at
    random; a piece keeps the line before it with probability 1/2, so
    touching pieces often share one line."""
    ends = sorted(set(draw(st.lists(_ENDS, min_size=2, max_size=9))))
    pieces, line = [], (F(1), F(0))
    for lo, hi in zip(ends, ends[1:]):
        if draw(st.booleans()):
            line = (draw(_COEFFS), draw(_COEFFS))
        if draw(st.integers(0, 3)):
            pieces.append((lo, hi) + line)
    return pieces


@st.composite
def _piece_lists(draw):
    """Unsorted piece lists: disjoint pieces with touching runs of one line,
    or free pieces that may overlap; plus zero lines, empty and reversed
    pieces, and some piece split in two touching halves with one line."""
    pieces = draw(st.one_of(_disjoint_pieces(),
                            st.lists(st.tuples(_ENDS, _ENDS, _COEFFS, _COEFFS), max_size=6)))
    if pieces and draw(st.booleans()):
        i = draw(st.integers(0, len(pieces) - 1))
        lo, hi, a, b = pieces[i]
        mid = (lo + hi) / 2
        pieces[i:i + 1] = [(lo, mid, a, b), (mid, hi, a, b)]
    pieces += draw(st.lists(st.tuples(_ENDS, _ENDS, st.just(F(0)), st.just(F(0))), max_size=2))
    x = draw(_ENDS)
    pieces += draw(st.lists(st.tuples(st.just(x), st.just(x), _COEFFS, _COEFFS), max_size=1))
    return draw(st.permutations(pieces))


class TestParse:
    @given(_piece_lists(), st.sampled_from((1, 1, 3, 10)))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_fraction_canonicalization(self, pieces, k):
        """The integer parse of the pieces, given as unreduced pairs
        (numerator k, denominator k), has the oracle's canonical pieces or
        raises its error; the family file codec gives back an equal
        function with an equal hash."""
        pairs = [[(x.numerator * k, x.denominator * k) for x in p] for p in pieces]
        try:
            expected = _canonical_pieces(pieces)
        except ValueError as e:
            with pytest.raises(ValueError) as got:
                PiecewiseLinear.parse(pairs)
            assert str(got.value) == str(e) and str(e).startswith("overlapping pieces at ")
            return
        f = PiecewiseLinear.parse(pairs)
        assert f.pieces == expected
        assert all(type(x) is F for p in f.pieces for x in p)
        assert f == PiecewiseLinear.of(*expected) and hash(f) == hash(PiecewiseLinear.of(*expected))
        again = pwl_from_jsonable(pwl_to_jsonable(f))
        assert again == f and hash(again) == hash(f)

    def test_each_kind_of_input_occurs(self):
        """The strategy draws overlaps, merges and dropped pieces."""
        seen = set()

        @given(_piece_lists())
        @settings(max_examples=300, deadline=None)
        def draw(pieces):
            try:
                kept = _canonical_pieces(pieces)
            except ValueError:
                seen.add("overlap")
                return
            live = [p for p in pieces if p[0] < p[1] and (p[2] or p[3])]
            if len(live) < len(pieces):
                seen.add("dropped")
            if len(kept) < len(live):
                seen.add("merged")

        draw()
        assert seen == {"overlap", "dropped", "merged"}


def test_support_hull_is_the_hull_of_the_union():
    """The least first start and greatest last end of the supports is the
    hull of their union: (0, 0) for no profiles or only zero squares."""
    rng = random.Random(31)
    for _ in range(300):
        profiles = tuple(SqrtProfile(PiecewiseLinear.indicator(_random_pwl(rng).support()))
                         if rng.random() < 0.8 else SqrtProfile(PiecewiseLinear.zero())
                         for _ in range(rng.randint(0, 4)))
        hull = GeneratorSet(profiles).support_hull()
        assert hull == union_all([p.support() for p in profiles]).hull()
        assert all(type(x) is F for x in hull)
    zero = SqrtProfile(PiecewiseLinear.zero())
    assert GeneratorSet(()).support_hull() == GeneratorSet((zero,)).support_hull() == (0, 0)
