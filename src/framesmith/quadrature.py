"""Oscillatory quadrature of products of piecewise-linear and square-root
factors against e^{i c u}, vectorized over many frequencies at once.

The joint support is cut at every factor breakpoint.  On each cell the plain
factors multiply to an exact polynomial P(u), and each root factor
sqrt(alpha*u + beta) is either constant there or varies.

* No varying root.  With s = u - lo the cell integral is
  e^{i c lo} * sum_m q_m J_m(c) over [0, hi - lo], where q_m are the exact
  coefficients of P(lo + s).
* One varying root.  u0 = -beta/alpha is the exact zero of the radicand and
  s = |u - u0|, so the root is sqrt(|alpha| s) and the cell integral is
  sqrt|alpha| e^{i c u0} * sum_m q_m J_{m+1/2}(+-c), where q_m are the exact
  coefficients of P(u0 +- s) and the sign is that of alpha.  Every frame-test
  integrand (a linear signal times one root profile) is of this kind.

Both are closed forms in the moments J_p(w) = int_{s0}^{s1} s^p e^{i w s} ds,
p = m + nu with nu in {0, 1/2}, which one routine computes: the power series
in i*w*s for |w|*s1 <= _SERIES_PHASE, and otherwise the upward recurrence
J_p = ([s^p e^{i w s}] - p J_{p-1}) / (i w) from a base integral that is
elementary for nu = 0 and a Fresnel integral for nu = 1/2 (Abramowitz &
Stegun 7.3), evaluated on numpy by its power series and the continued
fraction of Numerical Recipes 6.8.  This is the moment (Filon-type) approach
of Iserles & Norsett (Proc. R. Soc. A 2005): the work per cell does not grow
with the frequency, so a sweep over K frequencies costs O(cells * K), and a
plan serves every frequency.

The moments need the end phases e^{i c x} at each cell end x.  Cells that
share an end share its phases.  Scattered frequencies (an array) take one
exponential per frequency and end.  A k-sweep block is passed as a FreqRun,
the frequencies (k0 + m) * unit for m < n; with m = 64 q + r its phase is
e^{i k0 unit x} * e^{i 64 q unit x} * e^{i r unit x} (angle addition), so a
block costs about n / 64 + 64 exponentials per end instead of n.  Both forms
round the argument k * unit * x, so they agree to a few ulps of it.

Only a cell with two varying roots -- reached by the single-frequency
semi-orthogonality witness -- falls back to Gauss-Legendre panels, graded
geometrically toward a vanishing radicand (the O(h^{3/2}) convergence of
Gauss panels at a square-root singularity is rescued by grading) and capped
in length against the largest frequency the plan was built for.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .intervals import IntervalSet
from .piecewise import PiecewiseLinear, _linear_product

_GL_ORDER = 24
_PHASE_PER_PANEL = 16.0     # |c|*length per panel; GL-24 resolves this to ~1e-13
_GRADE_DEPTH = 30           # sqrt-endpoint geometric grading levels
_SERIES_PHASE = 2.0         # moment power series at or below this |w|*s1
_FRESNEL_SERIES = 3.5       # Fresnel power series below this phase t = pi x^2 / 2
_FRESNEL_INF = math.sqrt(math.pi / 2) * (1 + 1j)   # int_0^inf t^{-1/2} e^{it} dt
_RUN_STRIDE = 64            # fine-table length of the angle-addition phases


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


# -- moments int_{s0}^{s1} s^{m+nu} e^{iws} ds ---------------------------------


def _fresnel_tail(t: np.ndarray) -> np.ndarray:
    """e^{-it} (G(t) - G(inf)) for t >= 0, where G(t) = int_0^t tau^{-1/2}
    e^{i tau} dtau = sqrt(2 pi) (C(x) + i S(x)) at t = pi x^2 / 2."""
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape, dtype=complex)
    small = t < _FRESNEL_SERIES
    if small.any():
        # G(t) = sqrt(t) sum_n (it)^n / (n! (n + 1/2)); 3.5^40/40! < 1e-26
        ts = t[small]
        term = np.ones(ts.shape, dtype=complex)
        acc = np.zeros(ts.shape, dtype=complex)
        for n in range(40):
            acc += term / (n + 0.5)
            term = term * (1j * ts) / (n + 1)
        out[small] = (np.sqrt(ts) * acc - _FRESNEL_INF) * np.exp(-1j * ts)
    big = ~small
    if big.any():
        # continued fraction in modified Lentz form (Numerical Recipes 6.8):
        # e^{-it} (G(t) - G(inf)) = -2 sqrt(t) h with
        # h = 1/(1 - 2it -) 1*2/(5 - 2it -) 3*4/(9 - 2it -) ...
        tb = t[big]
        b = 1 - 2j * tb
        d = 1 / b
        h = d.copy()
        c = np.full(b.shape, 1e300, dtype=complex)
        live = np.arange(len(tb))
        for n in range(1, 400, 2):
            a = -n * (n + 1.0)
            b = b + 4
            d = 1 / (a * d + b)
            c = b + a / c
            delta = c * d
            h[live] *= delta
            going = np.abs(delta - 1) > 3e-16
            if not going.any():
                break
            live, b, d, c = live[going], b[going], d[going], c[going]
        else:
            raise ArithmeticError("Fresnel continued fraction did not converge")
        out[big] = -2 * np.sqrt(tb) * h
    return out


def _pow_diff(s0: float, s1: float, length: float, q: float) -> float:
    """s1^q - s0^q for 0 <= s0 < s1 = s0 + length, q > 0, without the
    cancellation of the plain difference when s0 is close to s1."""
    if s0 == 0:
        return s1 ** q
    return s0 ** q * math.expm1(q * math.log1p(length / s0))


def _moments(nu: float, degree: int, s0: float, s1: float, length: float,
             w: np.ndarray, e0: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """e^{i theta} J_{m+nu}(w), J_p(w) = int_{s0}^{s1} s^p e^{iws} ds, for
    m = 0..degree and each w, 0 <= s0 < s1 = s0 + length, given the end
    phases e_k = e^{i (theta + w s_k)}; array (degree + 1, len(w))."""
    out = np.empty((degree + 1, len(w)), dtype=complex)
    small = np.abs(w) * s1 <= _SERIES_PHASE
    n_small = np.count_nonzero(small)
    if n_small:
        # sum_n (iw)^n / n! * (s1^{p+n+1} - s0^{p+n+1}) / (p+n+1)
        ws = w[small]
        acc = np.zeros((degree + 1, n_small), dtype=complex)
        term = e0[small] * np.exp(-1j * ws * s0) if s0 else e0[small]
        bound = s1 / length          # term bound relative to the moment
        x = float(np.abs(ws).max()) * s1
        n = 0
        while True:
            for m in range(degree + 1):
                q = m + nu + n + 1
                acc[m] += term * (_pow_diff(s0, s1, length, q) / q)
            n += 1
            bound *= x / n
            if bound < 1e-17:
                break
            term = term * (1j * ws) / n
        if n_small == len(w):
            return acc
        out[:, small] = acc
    big = ~small if n_small else slice(None)
    wb, e0, e1 = w[big], e0[big], e1[big]
    iw = 1j * wb
    if nu:
        # J_{-1/2}(w) = |w|^{-1/2} (G(|w| s1) - G(|w| s0)), conjugated for w < 0
        aw = np.abs(wb)
        t0 = _fresnel_tail(aw * s0) if s0 else -_FRESNEL_INF
        t1 = _fresnel_tail(aw * s1)
        neg = wb < 0
        moment = (e1 * np.where(neg, t1.conj(), t1)
                  - e0 * np.where(neg, np.conj(t0), t0)) / np.sqrt(aw)
        p = nu - 1
    else:
        moment = (e1 - e0) / iw
        out[0, big] = moment
        p = 0
    for m in range(0 if nu else 1, degree + 1):
        p += 1
        moment = (s1 ** p * e1 - s0 ** p * e0 - p * moment) / iw
        out[m, big] = moment
    return out


@dataclass(frozen=True)
class FreqRun:
    """The frequencies (k0 + m) * unit, m = 0..n-1: one block of a k sweep."""

    k0: int
    n: int
    unit: float

    def __len__(self) -> int:
        return self.n

    def freqs(self) -> np.ndarray:
        return np.arange(self.k0, self.k0 + self.n) * self.unit

    def phases(self, x: float) -> np.ndarray:
        """e^{i f x} for every frequency f of the run, by angle addition:
        with m = _RUN_STRIDE * q + r the phase is e^{i k0 unit x} times
        e^{i _RUN_STRIDE q unit x} times e^{i r unit x}, so one run costs
        n / _RUN_STRIDE + _RUN_STRIDE + 1 exponentials instead of n."""
        coarse = np.exp(1j * (np.arange(-(-self.n // _RUN_STRIDE))
                              * (_RUN_STRIDE * self.unit)) * x)
        fine = np.exp(1j * (np.arange(_RUN_STRIDE) * self.unit) * x)
        coarse *= cmath.exp(1j * (self.k0 * self.unit) * x)
        return np.outer(coarse, fine).ravel()[:self.n]


class _Cell(NamedTuple):
    """A closed-form cell: scale * sum_m coeffs[m] * e^{i c u0} *
    J_{m+nu}(sign * c) over [s0, s1], where u0 = ends[k] - sign * s_k is the
    zero of the radicand (nu = 1/2) or the cell's left end (nu = 0)."""

    sign: int
    s0: float
    s1: float
    length: float
    ends: Tuple[float, float]
    nu: float
    scale: float
    coeffs: np.ndarray

    def integrate(self, freqs: np.ndarray, e0: np.ndarray, e1: np.ndarray
                  ) -> np.ndarray:
        """The cell integral at each frequency, given the end phases
        e_k = e^{i freqs ends[k]}."""
        mom = _moments(self.nu, len(self.coeffs) - 1, self.s0, self.s1,
                       self.length, self.sign * freqs, e0, e1)
        return self.scale * (self.coeffs @ mom)


_GRADED = object()


def _closed_cell(factors: Sequence[Factor], lo: Fraction, hi: Fraction):
    """The integrand on [lo, hi] as a _Cell; None where it vanishes, _GRADED
    where two or more root factors vary."""
    lines = []
    roots = []
    scale_sq = Fraction(1)
    for f in factors:
        piece = f.pwl._piece_at(lo)
        if piece is None:
            return None
        a, b = piece[2], piece[3]
        if not f.is_sqrt:
            lines.append((a, b))
        elif a != 0:
            roots.append((a, b))
        elif b <= 0:
            return None
        else:
            scale_sq *= b
    if len(roots) > 1:
        return _GRADED
    if roots:
        alpha, beta = roots[0]
        origin = -beta / alpha
        sign = 1 if alpha > 0 else -1
        # the radicand alpha * (u - origin) is >= 0 where sign*(u - origin) >= 0
        if sign > 0:
            lo = max(lo, origin)
        else:
            hi = min(hi, origin)
        if lo >= hi:
            return None
        scale_sq *= abs(alpha)
        nu = 0.5
    else:
        origin, sign, nu = lo, 1, 0.0
    # P(origin + sign*s), exact
    coeffs = _linear_product((sign * a, a * origin + b) for a, b in lines)
    if not any(coeffs):
        return None
    ends = (lo, hi) if sign > 0 else (hi, lo)
    s0, s1 = (sign * (u - origin) for u in ends)
    return _Cell(sign, float(s0), float(s1), float(s1 - s0),
                 (float(ends[0]), float(ends[1])), nu,
                 math.sqrt(float(scale_sq)), np.array([float(c) for c in coeffs]))


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
    """Reusable integration plan for one integrand.

    Building the plan does the exact support/breakpoint splitting once and
    keeps each closed-form cell; integrate() then evaluates the moments for
    every requested frequency.  Cells with two varying roots get graded
    Gauss-Legendre nodes whose panel lengths are capped against c_max; a plan
    holding such nodes refuses frequencies above c_max.
    """

    def __init__(self, factors: Sequence[Factor], c_max: float = 1.0):
        self.c_max = max(c_max, 1.0)
        self.closed: List[_Cell] = []
        nodes_parts: List[np.ndarray] = []
        wb_parts: List[np.ndarray] = []
        if factors:
            sqrt_zero_pts = {float(z) for f in factors for z in f.sqrt_zeros()}
            xs, ws = _gl_nodes(_GL_ORDER)
            for lo, hi in _cells(factors):
                cell = _closed_cell(factors, lo, hi)
                if cell is not _GRADED:
                    if cell is not None:
                        self.closed.append(cell)
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

    def integrate(self, freqs) -> np.ndarray:
        """The integral at each frequency of freqs, an array or a FreqRun.
        Cells that share an end share its phases."""
        if isinstance(freqs, FreqRun):
            phases, freqs = freqs.phases, freqs.freqs()
        else:
            freqs = np.asarray(freqs, dtype=float)

            def phases(x):
                return np.exp(1j * freqs * x)
        out = np.zeros(len(freqs), dtype=complex)
        known: dict = {}
        for cell in self.closed:
            e0, e1 = (known[x] if x in known else phases(x) for x in cell.ends)
            known = dict(zip(cell.ends, (e0, e1)))
            out += cell.integrate(freqs, e0, e1)
        if len(self.nodes) and len(freqs):
            if np.max(np.abs(freqs)) > self.c_max:
                raise ValueError(f"frequency beyond the plan's c_max {self.c_max}")
            out += np.exp(1j * np.outer(freqs, self.nodes)) @ self.wb
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
