import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from framesmith.numeric import (DEFAULT_BITS, FInterval, _cos_pi_bounds, cos_pi,
                                pi_enclosure, sin_pi, sqrt_enclosure)
from framesmith.roots import MAX_BITS, SqrtSum, _split_square

from oracles import CInterval, interval_mul, interval_square


def test_pi_enclosure_tight_and_correct():
    pi = pi_enclosure(64)
    assert pi is pi_enclosure(64)  # cached per precision
    assert float(pi.hi - pi.lo) < 2 ** -64
    # the enclosure is far tighter than the double of math.pi
    assert abs(float(pi.mid()) - math.pi) < 1e-15
    # classic rational bounds
    assert F(223, 71) < pi.lo and pi.hi < F(22, 7)
    # Archimedes-grade digits: the enclosure pins 50 decimals
    fifty = F(31415926535897932384626433832795028841971693993751, 10 ** 49)
    assert pi.lo < fifty < pi.hi


def test_sqrt_enclosure_contains_truth():
    rng = random.Random(1)
    for _ in range(300):
        q = F(rng.randint(0, 10 ** 6), rng.randint(1, 10 ** 4))
        enc = sqrt_enclosure(q)
        assert enc.hi - enc.lo <= F(1, 2 ** 64)
        assert enc.lo * enc.lo <= q <= enc.hi * enc.hi
    with pytest.raises(ValueError):
        sqrt_enclosure(-1)


def test_cos_sin_against_float_libm():
    rng = random.Random(7)
    for _ in range(300):
        q = F(rng.randint(-4000, 4000), rng.randint(1, 97))
        c, s = cos_pi(q), sin_pi(q)
        assert float(c.hi - c.lo) < 1e-18 and float(s.hi - s.lo) < 1e-18
        # containment up to libm's own rounding
        assert abs(float(c.mid()) - math.cos(math.pi * float(q))) < 1e-12
        assert abs(float(s.mid()) - math.sin(math.pi * float(q))) < 1e-12
    assert cos_pi(F(1, 2)) == FInterval.ZERO
    assert cos_pi(0).lo == 1
    assert cos_pi(1).hi == -1
    assert sin_pi(F(1, 2)).lo == 1


def _cos_pi_oracle(q, bits):
    """Reference cos(q*pi): interval Taylor over Fraction endpoints of
    q * [pi], with the Lagrange remainder sup|x|^{2K+2}/(2K+2)!, clipped to
    [-1, 1]."""
    q = F(q)
    q -= 2 * ((q + 1) // 2)
    x = pi_enclosure(bits).scale(q)
    xx = interval_square(x)
    m = xx.hi
    total = term = FInterval.point(1)
    mag = F(1)  # m^k/(2k)! alongside term index k
    eps = F(1, 1 << (bits + 8))
    k = 0
    while True:
        k += 1
        term = interval_mul(term, xx).scale(F(-1, (2 * k - 1) * (2 * k)))
        total = total + term
        mag = mag * m / ((2 * k - 1) * (2 * k))
        rem = mag * m / ((2 * k + 1) * (2 * k + 2))
        if rem < eps:
            return FInterval(max(total.lo - rem, F(-1)), min(total.hi + rem, F(1)))


_HARD_ARGS = (
    [F(k, 4) + s * F(1, 2 ** 40) for k in range(-8, 9) for s in (-1, 1)]
    + [F(1, 10 ** 30), F(-1, 10 ** 30), 1 - F(1, 2 ** 50), F(-1) + F(1, 10 ** 30),
       F(123456789012345678901234567891, 7),
       F(-314159265358979323846264338327, 100000000000000000000000000001)])


@pytest.mark.parametrize("q", _HARD_ARGS, ids=str)
def test_cos_pi_encloses_reference_at_reduction_edges(q):
    bits = 64
    ref = _cos_pi_oracle(q, bits + 40)
    got = cos_pi(q, bits)
    assert got.lo <= ref.lo and ref.hi <= got.hi
    assert got.hi - got.lo <= F(1, 2 ** (bits + 16))
    assert got.lo.denominator & (got.lo.denominator - 1) == 0  # dyadic
    assert got.hi.denominator & (got.hi.denominator - 1) == 0


# (n, d, the reduced argument in [-1, 1)): unreduced fractions and
# far-out arguments
_UNREDUCED = [(3, 6, F(1, 2)), (-4, 4, F(-1)), (6, 4, F(-1, 2)),
              (2 * 10 ** 6 + 1, 2, F(1, 2)), (-7, 14, F(-1, 2)),
              (4 * 10 ** 6 + 1, 3, F(-1, 3)), (25, 15, F(-1, 3)), (-22, 12, F(1, 6)),
              (10 ** 40 + 3, 4, F(3, 4)), (-9, 12, F(-3, 4))]


@pytest.mark.parametrize("n, d, reduced", _UNREDUCED, ids=lambda v: str(v))
@pytest.mark.parametrize("bits", (64, 128))
def test_cos_pi_reduces_on_integers(n, d, reduced, bits):
    # the kernel reads n/d as it is given: any numerator over any positive
    # denominator gives the bounds of the reduced argument
    bounds = _cos_pi_bounds(n, d, bits)
    assert bounds == _cos_pi_bounds(reduced.numerator, reduced.denominator, bits)
    assert _cos_pi_bounds(n * 7, d * 7, bits) == bounds
    one = 1 << (bits + 32)
    got = cos_pi(F(n, d), bits)
    assert got == cos_pi(reduced, bits) == FInterval(F(bounds[0], one), F(bounds[1], one))
    assert type(got.lo) is F and type(got.hi) is F
    ref = _cos_pi_oracle(reduced, bits + 40)
    if 2 * reduced == int(2 * reduced):   # 0, +-1/2, +-1: exact
        assert got.lo == got.hi and ref.lo <= got.lo <= ref.hi
    else:
        assert got.lo <= ref.lo and ref.hi <= got.hi


def test_exact_points_are_exact_intervals():
    for bits in (64, 128, 256):
        for q, value in ((0, 1), (F(1, 2), 0), (F(-1, 2), 0), (1, -1), (-1, -1),
                         (4, 1), (F(-7, 2), 0), (-3, -1)):
            assert cos_pi(q, bits) == FInterval.point(value)
            assert sin_pi(F(1, 2) - F(q), bits) == FInterval.point(value)
        one = 1 << (bits + 32)
        for n, d, value in ((0, 5, 1), (2, 4, 0), (-3, 6, 0), (7, 7, -1), (-5, 5, -1),
                            (12, 6, 1)):
            assert _cos_pi_bounds(n, d, bits) == (value * one, value * one)


@given(st.fractions(min_value=-10 ** 4, max_value=10 ** 4, max_denominator=10 ** 6),
       st.sampled_from((64, 128, 256)))
@settings(max_examples=150, deadline=None)
def test_trig_identities_hold_on_enclosures(q, bits):
    c, s = cos_pi(q, bits), sin_pi(q, bits)
    one = interval_square(c) + interval_square(s)
    assert one.lo <= 1 <= one.hi
    double = interval_square(c).scale(2) - FInterval.point(1)
    direct = cos_pi(2 * q, bits)
    assert double.lo <= direct.hi and direct.lo <= double.hi


def test_interval_arithmetic_basics():
    a = FInterval(F(1), F(2))
    b = FInterval(F(-1), F(3))
    assert (a + b).lo == 0 and (a + b).hi == 5
    assert (a - b).lo == -2 and (a - b).hi == 3
    assert b.scale(-2).lo == -6 and b.scale(-2).hi == 2
    assert a.definitely_positive() and not b.definitely_positive()
    assert FInterval(F(-2), F(-1)).definitely_negative()


def test_interval_operators_give_checked_intervals():
    """The operators skip the order check of the constructor: their results
    equal the checked intervals of the endpoint formulas, in every sign
    case, and the constructor still refuses lo > hi."""
    rng = random.Random(5)
    ends = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(60)]
    for x, y in zip(ends[0::2], ends[1::2]):
        a = FInterval(min(x, y), max(x, y))
        b = FInterval(min(-y, x / 3), max(-y, x / 3))
        cases = [(a + b, (a.lo + b.lo, a.hi + b.hi)), (a - b, (a.lo - b.hi, a.hi - b.lo)),
                 (a.scale(x), tuple(sorted((a.lo * x, a.hi * x))))]
        for got, (lo, hi) in cases:
            assert got == FInterval(lo, hi)
            assert type(got.lo) is F and type(got.hi) is F
    with pytest.raises(ValueError, match="empty interval"):
        FInterval(F(2), F(1))


def test_unit_phase_modulus_one():
    z = CInterval.unit_phase(F(2, 3))
    m = z.abs2()
    assert m.lo <= 1 <= m.hi
    assert float(m.hi - m.lo) < 1e-17


class TestSqrtSum:
    def test_structural_cancellation(self):
        assert (SqrtSum.sqrt_of(8) - SqrtSum.sqrt_of(2).scale(2)).is_zero()
        assert (SqrtSum.sqrt_of(F(1, 2)) - SqrtSum.sqrt_of(2).scale(F(1, 2))).is_zero()

    def test_products(self):
        half = SqrtSum.sqrt_of(F(1, 2))
        assert (half * half).rational_value() == F(1, 2)
        x = SqrtSum.sqrt_of(2) + SqrtSum.sqrt_of(3)
        sq = x * x
        assert sq.terms == {1: F(5), 6: F(2)}

    def test_enclosure_matches_float(self):
        rng = random.Random(3)
        for _ in range(200):
            q = F(rng.randint(0, 400), rng.randint(1, 40))
            c = F(rng.randint(-9, 9), rng.randint(1, 7))
            v = SqrtSum.sqrt_of(q).scale(c) + SqrtSum.rational(F(1, 3))
            got = float(v)
            want = float(c) * math.sqrt(float(q)) + 1 / 3
            assert abs(got - want) < 1e-9

    def test_sign_verdicts(self):
        assert SqrtSum.zero().sign_verdict() == "zero"
        assert SqrtSum.sqrt_of(2).sign_verdict() == "positive"
        assert (-SqrtSum.sqrt_of(2)).sign_verdict() == "negative"
        tiny = SqrtSum.sqrt_of(2) - SqrtSum.rational(F(665857, 470832))
        # sqrt(2) vs a continued-fraction convergent: tiny but nonzero
        assert tiny.sign_verdict() in ("positive", "negative")

    def test_uncertain_when_radicand_canonicalization_saturates(self):
        # (p*q)^2 * r with primes beyond the trial-division bound hides a
        # square factor; equality then falls to intervals and stays open
        p = 4099  # prime > 4096
        hidden = SqrtSum.sqrt_of(p * p * 4219)
        plain = SqrtSum.sqrt_of(4219).scale(p)
        assert (hidden - plain).sign_verdict() == "uncertain"

    def test_verdict_refines_past_the_starting_precision(self):
        # sqrt(2^140 + 1) - 2^70 is about 2^-71, inside a 64-bit enclosure
        gap = SqrtSum.sqrt_of(2 ** 140 + 1) - SqrtSum.rational(2 ** 70)
        enc = gap.enclosure(DEFAULT_BITS)
        assert enc.lo <= 0 <= enc.hi
        assert gap.sign_verdict() == "positive"
        assert (-gap).sign_verdict() == "negative"

    def test_precision_doubles_up_to_the_cap(self, monkeypatch):
        asked = []
        enclosure = SqrtSum.enclosure

        def spy(self, bits=DEFAULT_BITS):
            asked.append(bits)
            return enclosure(self, bits)

        monkeypatch.setattr(SqrtSum, "enclosure", spy)
        p = 4099
        hidden = SqrtSum.sqrt_of(p * p * 4219) - SqrtSum.sqrt_of(4219).scale(p)
        assert hidden.sign_verdict(48) == "uncertain"
        assert asked == [48, 96, 192, 384, 768, 1536, 3072, MAX_BITS]
        asked.clear()
        assert SqrtSum.sqrt_of(2).sign_verdict() == "positive"
        assert asked == [DEFAULT_BITS]

    def test_split_square(self):
        assert _split_square(8) == (2, 2)
        assert _split_square(36) == (6, 1)
        assert _split_square(1) == (1, 1)
        assert _split_square(2 * 3 * 5 * 7) == (1, 210)

