"""Finitely supported sequences over the Gaussian rationals, and the coset
operators used by the dilation formula: (D_d alpha)(k) = alpha(l) when
k = d + a*l, together with the adjoint (D_d* beta)(l) = beta(d + a*l)."""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict

from .rationals import as_fraction, format_ratio, parse_int

_IMAG_RE = re.compile(r"^\s*([+-]?)\s*((?:\d+(?:/\d+)?)?)\s*[ij]\s*$", re.ASCII)
_REAL_RE = re.compile(r"^\s*([+-]?\d+(?:/\d+)?)\s*([+-].*)?$", re.ASCII)
_INDEX_RE = re.compile(r"\s*([+-]?[0-9]+)\s*", re.ASCII)


@dataclass(frozen=True)
class CRat:
    """Gaussian rational re + i*im."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "CRat":
        return CRat(Fraction(re), Fraction(im))

    @staticmethod
    def parse(text: str) -> "CRat":
        """Accepts "1", "-3/4", "i", "-i", "2i", "1+i", "1/2-3/4i"."""
        t = text.strip()
        m = _IMAG_RE.match(t)
        if m:
            mag = as_fraction(m.group(2)) if m.group(2) else Fraction(1)
            return CRat(Fraction(0), -mag if m.group(1) == "-" else mag)
        # split a trailing imaginary part off a leading real part
        body = _REAL_RE.match(t)
        if body:
            real = as_fraction(body.group(1))
            if body.group(2) is None:
                return CRat(real, Fraction(0))
            tail = _IMAG_RE.match(body.group(2))
            if tail:
                mag = as_fraction(tail.group(2)) if tail.group(2) else Fraction(1)
                return CRat(real, -mag if tail.group(1) == "-" else mag)
        raise ValueError(f"not a Gaussian rational: {text!r}")

    def format(self) -> str:
        if not self.im:
            return format_ratio(self.re)
        imag = f"{format_ratio(abs(self.im))}i" if abs(self.im) != 1 else "i"
        sign = "-" if self.im < 0 else "+"
        if not self.re:
            return f"-{imag}" if self.im < 0 else imag
        return f"{format_ratio(self.re)}{sign}{imag}"

    def __add__(self, other: "CRat") -> "CRat":
        return CRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CRat") -> "CRat":
        return CRat(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "CRat") -> "CRat":
        return CRat(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    def __neg__(self) -> "CRat":
        return CRat(-self.re, -self.im)

    def conj(self) -> "CRat":
        return CRat(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return not self.re and not self.im


CRAT_ZERO = CRat()
CRAT_ONE = CRat(Fraction(1))


class Sequence:
    """Finitely supported map Z -> Gaussian rationals; zero entries dropped."""

    __slots__ = ("entries",)

    def __init__(self, entries: Dict[int, CRat] | None = None):
        self.entries: Dict[int, CRat] = {
            k: v for k, v in sorted((entries or {}).items()) if not v.is_zero()}

    @staticmethod
    def delta(k: int, coeff: CRat = CRAT_ONE) -> "Sequence":
        return Sequence({k: coeff})

    @staticmethod
    def parse(text: str) -> "Sequence":
        """Grammar: "coeff@k,coeff@k,..." with Gaussian-rational coeffs."""
        entries: Dict[int, CRat] = {}
        for part in text.split(","):
            if not part.strip():
                continue
            coeff_text, _, k_text = part.rpartition("@")
            if not coeff_text:
                raise ValueError(f"expected coeff@index, got {part!r}")
            index = _INDEX_RE.fullmatch(k_text)
            if not index:
                raise ValueError(f"index must be an integer in ASCII digits, "
                                 f"got {part!r}")
            k = parse_int(index.group(1))
            c = CRat.parse(coeff_text)
            entries[k] = entries.get(k, CRAT_ZERO) + c
        return Sequence(entries)

    def __add__(self, other: "Sequence") -> "Sequence":
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, CRAT_ZERO) + v
        return Sequence(out)

    def scale(self, c: CRat) -> "Sequence":
        return Sequence({k: v * c for k, v in self.entries.items()})

    def inner(self, other: "Sequence") -> CRat:
        """<self | other> = sum f(k) * conj(g(k))."""
        total = CRAT_ZERO
        for k, v in self.entries.items():
            w = other.entries.get(k)
            if w is not None:
                total = total + v * w.conj()
        return total

    def norm2(self) -> Fraction:
        return sum((v.abs2() for v in self.entries.values()), Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and self.entries == other.entries

    def __repr__(self) -> str:
        body = ",".join(f"{v.format()}@{k}" for k, v in self.entries.items())
        return f"Sequence({body or '0'})"


def coset_op(a: int, d: int, alpha: Sequence) -> Sequence:
    """(D_d alpha)(k) = alpha(l) if k = d + a*l else 0."""
    if not 0 <= d < abs(a):
        raise ValueError(f"coset index {d} outside 0..{abs(a) - 1}")
    return Sequence({d + a * l: v for l, v in alpha.entries.items()})


def coset_op_adj(a: int, d: int, beta: Sequence) -> Sequence:
    """(D_d* beta)(l) = beta(d + a*l)."""
    if not 0 <= d < abs(a):
        raise ValueError(f"coset index {d} outside 0..{abs(a) - 1}")
    out: Dict[int, CRat] = {}
    for k, v in beta.entries.items():
        q, r = divmod(k - d, a)
        if r == 0:
            out[q] = v
    return Sequence(out)
