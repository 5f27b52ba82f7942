"""Exact finite sums of rational multiples of square roots.

Fiber values of square-root profiles are +sqrt(rational); inner products and
traces are therefore sums sum_i c_i * sqrt(r_i).  Radicands are canonicalized
to positive integers with square factors (small primes, plus a perfect-square
check) pulled into the coefficient, so structurally equal values cancel
exactly.  Anything left ambiguous is decided by outward-rounded intervals
whose precision doubles until the sign separates; a value still straddling
zero at MAX_BITS survives as an explicit "uncertain" verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict

from .numeric import DEFAULT_BITS, FInterval, sqrt_enclosure

MAX_BITS = 4096


@lru_cache(maxsize=1)
def _small_primes(limit: int = 4096) -> tuple[int, ...]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytearray(len(sieve[p * p:: p]))
    return tuple(i for i, v in enumerate(sieve) if v)


def _split_square(n: int) -> tuple[int, int]:
    """n = s^2 * r with r square-poor: square factors with prime <= 4096
    removed, plus a final perfect-square check on the cofactor."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, r = 1, 1
    m = n
    for p in _small_primes():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                r *= p
    if m > 1:
        root = math.isqrt(m)
        if root * root == m:
            s *= root
        else:
            r *= m
    return s, r


@dataclass(frozen=True)
class SqrtSum:
    """sum of coeff * sqrt(radicand) with integer radicands; key 1 is the
    rational part."""

    terms: Dict[int, Fraction] = field(default_factory=dict)

    @staticmethod
    def zero() -> "SqrtSum":
        return SqrtSum({})

    @staticmethod
    def rational(q) -> "SqrtSum":
        q = Fraction(q)
        return SqrtSum({1: q} if q else {})

    @staticmethod
    def sqrt_of(q) -> "SqrtSum":
        """sqrt(q) for rational q >= 0."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("sqrt of negative rational")
        if q == 0:
            return SqrtSum.zero()
        s, r = _split_square(q.numerator * q.denominator)
        return SqrtSum({r: Fraction(s, q.denominator)})

    def __add__(self, other: "SqrtSum") -> "SqrtSum":
        out = dict(self.terms)
        for r, c in other.terms.items():
            c2 = out.get(r, Fraction(0)) + c
            if c2:
                out[r] = c2
            else:
                out.pop(r, None)
        return SqrtSum(out)

    def __sub__(self, other: "SqrtSum") -> "SqrtSum":
        return self + (-other)

    def __neg__(self) -> "SqrtSum":
        return SqrtSum({r: -c for r, c in self.terms.items()})

    def scale(self, q) -> "SqrtSum":
        q = Fraction(q)
        if not q:
            return SqrtSum.zero()
        return SqrtSum({r: c * q for r, c in self.terms.items()})

    def __mul__(self, other: "SqrtSum") -> "SqrtSum":
        out = SqrtSum.zero()
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                if r1 == r2:
                    out = out + SqrtSum.rational(c1 * c2 * r1)
                    continue
                g = math.gcd(r1, r2)
                s, r = _split_square((r1 // g) * (r2 // g))
                coeff = c1 * c2 * g * s
                if coeff:
                    out = out + SqrtSum({r: coeff})
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return set(self.terms) <= {1}

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value carries irrational square roots")
        return self.terms.get(1, Fraction(0))

    def enclosure(self, bits: int = DEFAULT_BITS) -> FInterval:
        total = FInterval.ZERO
        for r in sorted(self.terms):
            c = self.terms[r]
            if r == 1:
                total = total + FInterval.point(c)
            else:
                total = total + sqrt_enclosure(Fraction(r), bits).scale(c)
        return total

    def __float__(self) -> float:
        return float(self.enclosure().mid())

    def sign_verdict(self, bits: int = DEFAULT_BITS) -> str:
        """'zero' (exact), 'positive'/'negative' (certified), or 'uncertain'.
        The enclosure starts at `bits` and doubles its precision until the
        sign separates; 'uncertain' means it still straddles 0 at MAX_BITS."""
        if not self.terms:
            return "zero"
        enc = self.enclosure(bits)
        while enc.lo <= 0 <= enc.hi and bits < MAX_BITS:
            bits = min(2 * bits, MAX_BITS)
            enc = self.enclosure(bits)
        if enc.definitely_positive():
            return "positive"
        return "negative" if enc.definitely_negative() else "uncertain"

    def __repr__(self) -> str:
        if not self.terms:
            return "SqrtSum(0)"
        body = " + ".join(
            (f"{c}" if r == 1 else f"{c}*sqrt({r})")
            for r, c in sorted(self.terms.items()))
        return f"SqrtSum({body})"

