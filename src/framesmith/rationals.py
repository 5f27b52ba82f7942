"""Rational frequency scalars in units of pi.

Every frequency in this package is a rational q denoting the real number
q*pi.  In these units the 2*pi translation lattice is the even integers and
dilation by an integer a is plain multiplication, so all breakpoints,
translates and dilates of the objects built here stay rational.  The exact
objects store them on an integer grid: a piecewise-linear function or an
interval set holds integer ends X of x = X / den over its one denominator,
and whatever takes several at once (`intervals._overlay`, `piecewise.refine`,
the folds) re-grids them onto the lcm of their denominators and compares and
adds integers there.  A `fractions.Fraction` is the form at the edges: what a
caller passes in or reads out, the points of the sample grids, and the
"p/q" strings of the file format, which `ratio_parts` reads as integer pairs.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Tuple

_RATIO_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+))?\s*$", re.ASCII)


class TooManyDigits(ValueError):
    """An integer string past the interpreter's limit on integer string
    conversion; the message gives the digit count, not the digits."""


_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit


def parse_int(text: str) -> int:
    """int(text) for an optional sign and ASCII digits, the grammar the
    callers have matched.  Past the limit of `sys.get_int_max_str_digits`
    (where the interpreter has one), read on every call so that a later
    `sys.set_int_max_str_digits` holds, it raises TooManyDigits."""
    limit = _digit_limit()
    digits = len(text) - (text[:1] in ("+", "-"))
    if limit and digits > limit:
        raise TooManyDigits(f"an integer of {digits} digits is past the limit "
                            f"of {limit} digits for integer string conversion")
    return int(text)


def ratio_parts(text: str) -> Tuple[int, int]:
    """(p, q) of "p/q" or "p" as written, q > 0 (q = 1 for "p")."""
    m = _RATIO_RE.match(text)
    if not m:
        raise ValueError(f"not a rational: {text!r}")
    num = parse_int(m.group(1))
    den = parse_int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return num, den


def format_ratio(q: Fraction | int) -> str:
    """q as p/q in lowest terms, or as p when its denominator is 1.  An int
    has a numerator and the denominator 1 too, so neither kind is converted."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def as_fraction(x) -> Fraction:
    """Coerce int/Fraction/ratio-string to Fraction (floats are rejected)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(*ratio_parts(x))
    raise TypeError(f"expected exact rational, got {type(x).__name__}")
