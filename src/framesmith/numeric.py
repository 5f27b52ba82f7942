"""Outward-rounded interval arithmetic on exact rational endpoints.

Endpoints are Fractions, so sums, differences and rational scalings are
rounding-free; widening happens only where irrationals enter, and there the
endpoints are dyadic:

- square roots: integer isqrt at 2^-bits;
- cos/sin of rational multiples of pi: a fixed-point kernel on Python
  integers at 2^-(bits+32).  The argument q = n/d is reduced on integers:
  mod 2 and by symmetry into [0, 1/4] as a numerator over d or 2d, with the
  exact points 0, +-1/2 and +-1 returned as exact bounds; it is then
  enclosed with pi bounds from Machin's formula, and the alternating Taylor
  series runs with floored lower and ceiled upper terms plus the Lagrange
  remainder, at both ends of the argument interval (cos and sin are
  monotone there).  `cos_pi` and `sin_pi` turn the kernel's two integers
  into dyadic Fractions; `trace.dilated_trace` reads those back as
  integers.  This is the fixed-point ball technique of Arb (F. Johansson,
  IEEE Trans. Computers 2017).

The working precision is an argument of every enclosure, 64 fractional bits
by default; sign decisions refine it themselves (see `roots`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

DEFAULT_BITS = 64


@dataclass(frozen=True)
class FInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def _ordered(cls, lo: Fraction, hi: Fraction) -> "FInterval":
        """[lo, hi] for lo <= hi known to the caller: the arithmetic and
        the enclosures build their results here and skip the comparison."""
        iv = object.__new__(cls)
        object.__setattr__(iv, "lo", lo)
        object.__setattr__(iv, "hi", hi)
        return iv

    @staticmethod
    def point(x) -> "FInterval":
        x = Fraction(x)
        return FInterval(x, x)

    def __add__(self, other: "FInterval") -> "FInterval":
        return FInterval._ordered(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "FInterval") -> "FInterval":
        return FInterval._ordered(self.lo - other.hi, self.hi - other.lo)

    def scale(self, q) -> "FInterval":
        q = Fraction(q)
        if q >= 0:
            return FInterval._ordered(self.lo * q, self.hi * q)
        return FInterval._ordered(self.hi * q, self.lo * q)

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def sup_abs(self) -> Fraction:
        return max(abs(self.lo), abs(self.hi))

    def definitely_positive(self) -> bool:
        return self.lo > 0

    def definitely_negative(self) -> bool:
        return self.hi < 0

    def __repr__(self) -> str:
        return f"FInterval({float(self.lo):.17g}, {float(self.hi):.17g})"


FInterval.ZERO = FInterval(Fraction(0), Fraction(0))


def sqrt_enclosure(q, bits: int = DEFAULT_BITS) -> FInterval:
    """Rigorous enclosure of sqrt(q) for rational q >= 0, width <= 2^-bits."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    if q == 0:
        return FInterval.ZERO
    p, d = q.numerator, q.denominator
    # sqrt(p/d) = sqrt(p*d)/d; floor integer sqrt at scale 2^bits
    n = p * d
    s = math.isqrt(n << (2 * bits))
    scale = d << bits
    lo = Fraction(s, scale)
    hi = Fraction(s + 1, scale)
    return FInterval(lo, hi)


@lru_cache(maxsize=8)
def pi_enclosure(bits: int = DEFAULT_BITS) -> FInterval:
    """Machin: pi = 16*atan(1/5) - 4*atan(1/239), alternating-series bounds."""
    def atan_inv_bounds(n: int, terms: int) -> tuple[Fraction, Fraction]:
        total = Fraction(0)
        sign = 1
        k = 0
        while k < terms:
            total += Fraction(sign, (2 * k + 1) * n ** (2 * k + 1))
            sign = -sign
            k += 1
        tail = Fraction(1, (2 * terms + 1) * n ** (2 * terms + 1))
        if sign > 0:  # truncated before a positive term: value in [total, total+tail]
            return total, total + tail
        return total - tail, total

    need = bits + 16
    t5 = need // 4 + 4      # 5^(2k+1) ~ 2^(4.6k)
    t239 = need // 15 + 3
    lo5, hi5 = atan_inv_bounds(5, t5)
    lo239, hi239 = atan_inv_bounds(239, t239)
    return FInterval(16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239)


def _series(x: int, odd: bool, prec: int) -> tuple[int, int]:
    """Integer bounds [lo, hi] on 2^prec * cos(t) (odd=False) or sin(t)
    (odd=True) at t = x / 2^prec, 0 <= t <= 1.

    The alternating Taylor terms t^n/n! are carried as integer pairs, floored
    for the lower bound and ceiled for the upper.  The loop stops at the first
    term of at most one unit, which bounds the Lagrange remainder (every
    derivative of cos and sin is bounded by 1), and adds it on both sides."""
    xx = x * x
    shift = 2 * prec
    t_lo = t_hi = lo = hi = x if odd else 1 << prec
    n = 1 if odd else 0
    negative = False
    while True:
        den = (n + 1) * (n + 2)
        n += 2
        t_lo = (t_lo * xx >> shift) // den
        t_hi = -((-t_hi * xx >> shift) // den)
        if t_hi <= 1:
            return lo - t_hi, hi + t_hi
        negative = not negative
        if negative:
            lo, hi = lo - t_hi, hi - t_lo
        else:
            lo, hi = lo + t_lo, hi + t_hi


@lru_cache(maxsize=8)
def _pi_bounds(prec: int) -> tuple[int, int]:
    """Integer bounds [lo, hi] on 2^prec * pi: the Machin enclosure at prec
    bits, floored and ceiled."""
    pi = pi_enclosure(prec)
    return ((pi.lo.numerator << prec) // pi.lo.denominator,
            -((-pi.hi.numerator << prec) // pi.hi.denominator))


def _cos_pi_bounds(n: int, d: int, bits: int) -> tuple[int, int]:
    """Integer bounds [lo, hi] on 2^(bits+32) * cos(pi n/d), d > 0.

    The argument stays a numerator over d: it is reduced mod 2 into [-1, 1),
    the exact points 0, +-1/2 and -1 give exact bounds, and the folds
    cos(-x) = cos x, cos(pi - x) = -cos x and, above 1/4,
    cos(q pi) = sin((1/2 - q) pi) bring it into [0, 1/4]."""
    prec = bits + 32
    one = 1 << prec
    n -= 2 * d * ((n + d) // (2 * d))
    n = abs(n)
    if not n:
        return one, one
    if 2 * n == d:
        return 0, 0
    if n == d:
        return -one, -one
    negate = 2 * n > d
    if negate:
        n = d - n
    odd = 4 * n > d
    if odd:
        n, d = d - 2 * n, 2 * d
    pi_lo, pi_hi = _pi_bounds(prec)
    x_lo = n * pi_lo // d
    x_hi = -(-n * pi_hi // d)
    # on [0, pi/2] cos decreases and sin increases, both within [0, 1]
    if odd:
        lo, hi = _series(x_lo, True, prec)[0], _series(x_hi, True, prec)[1]
    else:
        lo, hi = _series(x_hi, False, prec)[0], _series(x_lo, False, prec)[1]
    lo, hi = max(lo, 0), min(hi, one)
    return (-hi, -lo) if negate else (lo, hi)


def _dyadic(bounds: tuple[int, int], bits: int) -> FInterval:
    """The interval of integer bounds at 2^-(bits+32)."""
    one = 1 << (bits + 32)
    return FInterval._ordered(Fraction(bounds[0], one), Fraction(bounds[1], one))


def cos_pi(q, bits: int = DEFAULT_BITS) -> FInterval:
    """Enclosure of cos(q*pi) for rational q, with dyadic endpoints at
    2^-(bits+32)."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    return _dyadic(_cos_pi_bounds(q.numerator, q.denominator, bits), bits)


def sin_pi(q, bits: int = DEFAULT_BITS) -> FInterval:
    """Enclosure of sin(q*pi) = cos((q - 1/2)*pi)."""
    if not isinstance(q, (int, Fraction)):
        q = Fraction(q)
    n, d = q.numerator, q.denominator
    return _dyadic(_cos_pi_bounds(2 * n - d, 2 * d, bits), bits)
