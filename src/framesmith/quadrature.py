"""Oscillatory quadrature for products of piecewise-linear and square-root
factors against e^{i c u}, vectorized over many frequencies at once.

Panels split at every factor breakpoint.  Where all square-root factors are
locally constant the integral is evaluated in closed form (stable moment
series for small phase), which is what makes indicator-type profiles cheap
for very large frequency sweeps.  Genuine sqrt(linear) pieces get
geometrically graded panels toward the vanishing endpoint (the O(h^{3/2})
convergence of Gauss panels at a sqrt singularity is rescued by grading) and
panel lengths are capped against the largest frequency requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .intervals import IntervalSet
from .piecewise import PiecewiseLinear, _linear_product

_GL_ORDER = 24
_PHASE_PER_PANEL = 16.0     # |c|*length per panel; GL-24 resolves this to ~1e-13
_GRADE_DEPTH = 30           # sqrt-endpoint geometric grading levels
_SMALL_PHASE = 0.5          # switch to moment series below this |c|*length


@dataclass(frozen=True)
class Factor:
    """One factor of the integrand: pwl(u) itself, or sqrt(max(pwl(u), 0))."""

    pwl: PiecewiseLinear
    is_sqrt: bool = False

    def support(self) -> IntervalSet:
        return self.pwl.support()

    def sqrt_zeros(self) -> List[Fraction]:
        if not self.is_sqrt:
            return []
        out = []
        for lo, hi, a, b in self.pwl.pieces:
            if a == 0:
                continue
            if a * lo + b == 0:
                out.append(lo)
            if a * hi + b == 0:
                out.append(hi)
        return out


@lru_cache(maxsize=4)
def _gl_nodes(order: int) -> Tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _cells(factors: Sequence[Factor]) -> List[Tuple[Fraction, Fraction]]:
    """Common refinement cells of the joint support."""
    support = factors[0].support()
    for f in factors[1:]:
        support = support.intersect(f.support())
    if support.is_empty():
        return []
    cuts: set[Fraction] = set()
    for f in factors:
        cuts.update(f.pwl.breakpoints())
    cells = []
    for lo, hi in support.pieces:
        inner = sorted({lo, hi} | {c for c in cuts if lo < c < hi})
        cells.extend(zip(inner, inner[1:]))
    return cells


def _cell_closed_form(factors: Sequence[Factor], lo: Fraction, hi: Fraction
                      ) -> List[float] | None:
    """Monomial coefficients (floats) of the integrand on the cell when every
    sqrt factor is constant there; None when a genuine sqrt(linear) remains."""
    lines = []
    root_sq = Fraction(1)
    for f in factors:
        piece = f.pwl._piece_at(lo)
        if piece is None:
            return [0.0]
        a, b = piece[2], piece[3]
        if f.is_sqrt:
            if a != 0:
                return None
            root_sq *= b
        else:
            lines.append((a, b))
    if root_sq < 0:
        return [0.0]
    scale = math.sqrt(float(root_sq))
    return [float(c) * scale for c in _linear_product(lines)]


def _moment_integrals(lo: float, hi: float, degree: int, cs: np.ndarray
                      ) -> np.ndarray:
    """int_lo^hi u^m e^{i c u} du for m=0..degree, each c; moment series
    (|c|*(hi-lo) assumed small).  Returns array (degree+1, len(cs))."""
    out = np.zeros((degree + 1, len(cs)), dtype=complex)
    # expand around the midpoint for conditioning
    mid = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    # int_{-h}^{h} (mid+t)^m e^{ic(mid+t)} dt
    phase = np.exp(1j * cs * mid)
    for m in range(degree + 1):
        # binomial expansion of (mid+t)^m, moments of t^n e^{ict}
        acc = np.zeros(len(cs), dtype=complex)
        for n in range(m + 1):
            binom = math.comb(m, n) * mid ** (m - n)
            acc += binom * _t_moment(n, h, cs)
        out[m] = phase * acc
    return out


def _t_moment(n: int, h: float, cs: np.ndarray) -> np.ndarray:
    """int_{-h}^{h} t^n e^{i c t} dt via series sum_j (ic)^j/j! * M_{n+j},
    M_m = int t^m = 2h^{m+1}/(m+1) for even m else 0."""
    out = np.zeros(len(cs), dtype=complex)
    term = np.ones(len(cs), dtype=complex)
    for j in range(0, 40):
        m = n + j
        if m % 2 == 0:
            out += term * (2.0 * h ** (m + 1) / (m + 1))
        term = term * (1j * cs) / (j + 1)
        if np.all(np.abs(term) * (2.0 * h ** (n + j + 2)) < 1e-19):
            break
    return out


def _closed_form_poly(coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction,
                      cs: np.ndarray) -> np.ndarray:
    """int poly(u) e^{i c u} du on [lo, hi] per frequency; the antiderivative
    formula for |c|L >= _SMALL_PHASE, the moment series otherwise."""
    flo, fhi = float(lo), float(hi)
    length = fhi - flo
    out = np.zeros(len(cs), dtype=complex)
    small = np.abs(cs) * length < _SMALL_PHASE
    if small.any():
        mom = _moment_integrals(flo, fhi, len(coeffs) - 1, cs[small])
        acc = np.zeros(small.sum(), dtype=complex)
        for m, c in enumerate(coeffs):
            acc += float(c) * mom[m]
        out[small] = acc
    big = ~small
    if big.any():
        c_big = cs[big]
        ic = 1j * c_big
        # antiderivative of u^m e^{icu}: e^{icu} sum_t (-1)^t m!/(m-t)! u^{m-t}/(ic)^{t+1}
        def anti(u: float) -> np.ndarray:
            total = np.zeros(len(c_big), dtype=complex)
            for m, coeff in enumerate(coeffs):
                if coeff == 0:
                    continue
                inner = np.zeros(len(c_big), dtype=complex)
                fact = 1.0
                for t in range(m + 1):
                    if t:
                        fact *= (m - t + 1)
                    inner += ((-1.0) ** t) * fact * (u ** (m - t)) / ic ** (t + 1)
                total += float(coeff) * inner
            return total
        out[big] = np.exp(1j * c_big * fhi) * anti(fhi) - np.exp(1j * c_big * flo) * anti(flo)
    return out


def _graded_panels(lo: float, hi: float, sing_lo: bool, sing_hi: bool,
                   max_len: float) -> List[Tuple[float, float]]:
    """Split [lo, hi] with geometric grading toward singular endpoints and a
    hard cap on panel length for oscillation resolution."""
    points = [lo, hi]
    length = hi - lo
    if sing_lo:
        points.extend(lo + length * 0.5 ** d for d in range(1, _GRADE_DEPTH))
    if sing_hi:
        points.extend(hi - length * 0.5 ** d for d in range(1, _GRADE_DEPTH))
    points = sorted(set(points))
    panels = []
    for a, b in zip(points, points[1:]):
        n = max(1, int(math.ceil((b - a) / max_len)))
        step = (b - a) / n
        panels.extend((a + i * step, a + (i + 1) * step) for i in range(n))
    return panels


class QuadPlan:
    """Reusable integration plan for one integrand, valid for |c| <= c_max.

    Building the plan does the exact support/breakpoint splitting once:
    closed-form cells keep their monomial coefficients; sqrt cells get graded
    Gauss-Legendre nodes with panel lengths capped against c_max.  integrate()
    then only evaluates phases, so sweeping thousands of frequencies is cheap.
    """

    def __init__(self, factors: Sequence[Factor], c_max: float):
        self.c_max = max(c_max, 1.0)
        self.closed: List[Tuple[List[float], Fraction, Fraction]] = []
        nodes_parts: List[np.ndarray] = []
        wb_parts: List[np.ndarray] = []
        if factors:
            sqrt_zero_pts = {float(z) for f in factors for z in f.sqrt_zeros()}
            xs, ws = _gl_nodes(_GL_ORDER)
            for lo, hi in _cells(factors):
                poly = _cell_closed_form(factors, lo, hi)
                if poly is not None:
                    if any(poly):
                        self.closed.append((poly, lo, hi))
                    continue
                flo, fhi = float(lo), float(hi)
                max_len = max((fhi - flo) * 2 ** (1 - _GRADE_DEPTH),
                              _PHASE_PER_PANEL / self.c_max)
                panels = _graded_panels(flo, fhi, flo in sqrt_zero_pts,
                                        fhi in sqrt_zero_pts, max_len)
                nodes = np.concatenate(
                    [(0.5 * (b - a)) * xs + 0.5 * (a + b) for a, b in panels])
                weights = np.concatenate([(0.5 * (b - a)) * ws for a, b in panels])
                base = np.ones_like(nodes)
                for f in factors:
                    vals = f.pwl.eval_float(nodes)
                    base *= np.sqrt(np.maximum(vals, 0.0)) if f.is_sqrt else vals
                nodes_parts.append(nodes)
                wb_parts.append(weights * base)
        self.nodes = np.concatenate(nodes_parts) if nodes_parts else np.empty(0)
        self.wb = np.concatenate(wb_parts) if wb_parts else np.empty(0)

    def integrate(self, freqs: np.ndarray) -> np.ndarray:
        freqs = np.asarray(freqs, dtype=float)
        out = np.zeros(len(freqs), dtype=complex)
        for poly, lo, hi in self.closed:
            out += _closed_form_poly(poly, lo, hi, freqs)
        if len(self.nodes):
            chunk = max(1, int(8_000_000 / max(1, len(self.nodes))))
            for start in range(0, len(freqs), chunk):
                cs = freqs[start:start + chunk]
                out[start:start + chunk] += \
                    np.exp(1j * np.outer(cs, self.nodes)) @ self.wb
        return out


def oscillatory_integrals(factors: Sequence[Factor], freqs: np.ndarray
                          ) -> np.ndarray:
    """integral prod_f factor(u) * e^{i c u} du for each frequency c in freqs."""
    freqs = np.asarray(freqs, dtype=float)
    if not len(freqs) or not factors:
        return np.zeros(len(freqs), dtype=complex)
    plan = QuadPlan(factors, float(np.max(np.abs(freqs))))
    return plan.integrate(freqs)


def riemann_oracle(factors: Sequence[Factor], c: float, n: int = 100_000
                   ) -> complex:
    """Brute-force midpoint Riemann sum over the joint support (test oracle)."""
    support = factors[0].support()
    for f in factors[1:]:
        support = support.intersect(f.support())
    total = 0.0 + 0.0j
    for lo, hi in support.pieces:
        flo, fhi = float(lo), float(hi)
        xs = np.linspace(flo, fhi, n, endpoint=False) + (fhi - flo) / (2 * n)
        base = np.ones_like(xs)
        for f in factors:
            vals = f.pwl.eval_float(xs)
            base *= np.sqrt(np.maximum(vals, 0.0)) if f.is_sqrt else vals
        total += np.sum(base * np.exp(1j * c * xs)) * (fhi - flo) / n
    return total
