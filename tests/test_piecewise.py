import random
from fractions import Fraction as F

import pytest

from framesmith.intervals import IntervalSet
from framesmith.piecewise import PiecewiseLinear, SqrtProfile, integrate_product
from framesmith.quadrature import Factor
from test_quadrature import radicand_zeros  # the Gauss-Legendre oracle's zero scan


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
    assert f.eval(1) == 3
    assert f.eval_left(1) == 2
    assert f.eval_right(1) == 3
    assert f.eval_left(0) == 0


def test_nonneg_examples():
    sigma = tent(1, 1)
    diff = sigma - sigma.compose_scale(2)
    assert diff.nonneg()
    ramp = PiecewiseLinear.of((-1, 1, 1, 0))
    assert not ramp.nonneg()
    assert PiecewiseLinear.zero().nonneg()


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
        f = PiecewiseLinear(tuple(pieces))
        # oracle: sample endpoints and many interior points exactly
        bad = False
        for lo, hi, a, b in f.pieces:
            for t in range(17):
                x = lo + (hi - lo) * F(t, 17)
                if f.eval(x) < 0:
                    bad = True
            if a * hi + b < 0:
                bad = True
        assert f.nonneg() == (not bad)


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
    assert sigma.integral() == 1
    assert integrate_product([sigma, sigma]) == F(2, 3)
    # cubic: int_0^1 x^3 = 1/4 via three linear factors
    x_on = PiecewiseLinear.of((0, 1, 1, 0))
    assert integrate_product([x_on, x_on, x_on]) == F(1, 4)


def test_zero_neighborhood():
    sigma = tent(F(1, 2), 2)
    left, right, clearance, slope = sigma.zero_neighborhood()
    assert (left, right) == (1, 1)
    assert clearance == F(1, 2)
    assert slope == 2
    away = PiecewiseLinear.of((1, 2, 0, 1))
    assert away.zero_neighborhood() is None


class TestSqrtProfile:
    def test_rejects_negative_square(self):
        bad = PiecewiseLinear.of((0, 1, 0, -1))
        with pytest.raises(ValueError, match="negative"):
            SqrtProfile.from_square(bad)

    def test_square_times_indicator_is_exact(self):
        sigma = tent(1, 1)
        dom = IntervalSet.of((F(-1, 2), F(1, 4)))
        p = SqrtProfile(sigma, dom)
        rng = random.Random(2)
        for _ in range(200):
            x = F(rng.randint(-40, 40), 16)
            expected = sigma.eval(x) if dom.contains(x) else F(0)
            assert p.value_sq(x) == expected

    def test_dilation_image(self):
        p = SqrtProfile.from_square(tent(1, 1))
        d = p.dilate_fourier(2)
        # |D_2 p|^2 (x) = |p|^2(x/2) / 2
        for x in (F(1, 2), F(-3, 4), F(3, 2), F(5)):
            assert d.value_sq(x) == p.value_sq(x / 2) / 2
        assert d.support() == IntervalSet.of((-2, 2))

    def test_sqrt_singularities(self):
        p = SqrtProfile.from_square(tent(1, 1))
        assert set(radicand_zeros(Factor(p.square, is_sqrt=True))) == {F(-1), F(1)}

    def test_indicator_profile(self):
        p = SqrtProfile.indicator(IntervalSet.of((-1, 1)))
        assert p.is_indicator()
        assert p.value_sq(0) == 1
