"""Closed-form quadrature of the frame-test integrand
line(u) * sqrt(max(square(u), 0)) * e^{i c u} over a run of frequencies c.

A plan walks the common refinement of the line and the square once
(`piecewise.refine`) and keeps the cells where both have a piece.  On each
cell the line is a polynomial P(u) of degree 1, and the root
sqrt(alpha*u + beta) of the square is either constant there or varies.
The walk runs on the integer grid u = X / D of `piecewise._on_grid`, D the
common denominator of the breakpoints: ends, lines and radicands are
integers there, with one denominator for the line and one for the square,
so a cell's exact data (the radicand at its ends, the zero of the radicand,
the coefficients below) are integer sums and products, and each float the
cell keeps is one correctly rounded int / int division, the float of the
same rational.

* Constant root.  With s = u - lo the cell integral is
  e^{i c lo} * sum_m q_m J_m(c) over [0, hi - lo], where q_m are the exact
  coefficients of P(lo + s).
* Varying root.  u0 = -beta/alpha is the exact zero of the radicand and
  s = |u - u0|, so the root is sqrt(|alpha| s) and the cell integral is
  sqrt|alpha| e^{i c u0} * sum_m q_m J_{m+1/2}(+-c), where q_m are the exact
  coefficients of P(u0 +- s) and the sign is that of alpha.

Cells of the first kind lie where the profile square is flat, which is
every cell of the indicator families, and of the second kind where it slopes.

Both are closed forms in the moments J_p(w) = int_{s0}^{s1} s^p e^{i w s} ds,
p = m + nu with nu in {0, 1/2}: the power series in i*w*s for
|w|*s1 <= _SERIES_PHASE, and otherwise the upward recurrence
J_p = ([s^p e^{i w s}] - p J_{p-1}) / (i w) from a base integral that is
elementary for nu = 0 (J_{-1} enters with the weight p = 0) and a Fresnel
integral for nu = 1/2 (Abramowitz & Stegun 7.3), evaluated on numpy by its
power series and the continued fraction of Numerical Recipes 6.8.  This is
the moment (Filon-type) approach of Iserles & Norsett (Proc. R. Soc. A
2005): the work per cell does not grow with the frequency, so a sweep over K
frequencies costs O(cells * K), and a plan serves every frequency.

Batched passes.  The cells of one kind are integrated together, on arrays of
shape cells x frequencies.  The series is one matrix product H @ P in the
dimensionless w * s: with s = sigma t, sigma = 2^e (e even) near the least
s1 of the batch, the plan fixes H[cell, n] = sign^n scale sum_m q_m
sigma^(p+1) (t1^r - t0^r) / r, p = m + nu, r = p + n + 1, and
P[n, c] = (i c sigma)^n / n! is one cumulative product, with the term count
that bounds every cell's series at |w| * s1 = _SERIES_PHASE.  Both factors
stay near 1 however small the cells are (deep scales, where |c| reaches
1e14, would overflow (i c)^n / n! and underflow s1^(n+1)), and each scaling
by a power of 2 is exact.  The recurrence
takes one pass per degree over the whole array, and every Fresnel tail of
every cell end is one _fresnel_tail call.  No array has a cell, a term and a
frequency axis at once, so a block costs O((cells + terms) * frequencies).

Break form.  For the polynomial cells (nu = 0) the recurrence unrolls to
int_l^h P e^{icu} du = sum_n (-1)^n [P^(n) e^{icu}]_l^h / (ic)^{n+1}, and
summed over the cells the ends they share merge:

    sum_x e^{icx} sum_n B_n(x) / (ic)^{n+1},
    B_n(x) = (-1)^n (P^(n)(x-) - P^(n)(x+)),

the jumps of the integrand (root included) and its derivatives at the
breakpoints.  The plan sums each B_n exactly, per value of the constant
root, as an integer over the line's denominator on the integer grid, and
rounds it once by int / int division.  Where |c| * ell_min > _SERIES_PHASE,
ell_min the shortest polynomial cell, every polynomial cell would take the
recurrence, so there the break form is an exact rearrangement of the cell
sum and replaces it; 1/(ic) = -i/c keeps the powers real.  Below that line
(the head, a few frequencies next to 0) the polynomial cells take the
batched moments, and so do the rooted cells at every frequency: a rooted
cell's end terms carry a Fresnel tail per end and frequency, so they have no
such form.

The frequencies are a FreqRun, (k0 + m) * unit for m < n with k0 >= 0: one
block of a k sweep.  |c| grows along the run, so its head is the prefix
FreqRun(k0, n_head, unit).  The moments need the end phases e^{i c x} at each
cell end x, and cells that share an end share its phases.  With
m = 64 q + r the phase is e^{i k0 unit x} * e^{i 64 q unit x} *
e^{i r unit x} (angle addition): a lead, a coarse row and a fine column.
Only the lead depends on k0, so a plan keeps the fine table and the coarse
rows for the last unit it was integrated at, adding rows when a longer run
comes in, and a run there computes only its lead: a sweep costs about
K / 64 + 64 exponentials per end instead of K.  The break form is
(coarse * diag(B_n e^{i k0 unit x})) @ fine, one small matmul per B_n with
no phase array of length n per end; Horner's rule in 1/c runs in place on it.
The tables round the argument k * unit * x, so they agree with e^{i c x} to
a few ulps of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .piecewise import PiecewiseLinear, _on_grid, refine

_SERIES_PHASE = 2.0         # moment power series at or below this |w|*s1
_FRESNEL_SERIES = 3.5       # Fresnel power series below this phase t = pi x^2 / 2
_FRESNEL_INF = math.sqrt(math.pi / 2) * (1 + 1j)   # int_0^inf t^{-1/2} e^{it} dt
_RUN_STRIDE = 64            # fine-table length of the angle-addition phases


# -- moments int_{s0}^{s1} s^{m+nu} e^{iws} ds ---------------------------------


def _fresnel_tail(t: np.ndarray) -> np.ndarray:
    """e^{-it} (G(t) - G(inf)) for t >= 0 (any shape), where
    G(t) = int_0^t tau^{-1/2} e^{i tau} dtau = sqrt(2 pi) (C(x) + i S(x)) at
    t = pi x^2 / 2."""
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
        # on every entry until the slowest has converged; an entry's h stays
        # as it was at its first factor within 3e-16 of 1
        tb = t[big]
        b = 1 - 2j * tb
        d = 1 / b
        h = d.copy()
        c = np.full(b.shape, 1e300, dtype=complex)
        delta = np.empty_like(b)
        done = np.zeros(b.shape, dtype=bool)
        for n in range(1, 400, 2):
            a = -n * (n + 1.0)
            b += 4
            d *= a
            d += b
            np.reciprocal(d, out=d)
            np.divide(a, c, out=c)
            c += b
            np.multiply(c, d, out=delta)
            delta[done] = 1
            h *= delta
            done |= np.abs(delta - 1) <= 3e-16
            if done.all():
                break
        else:
            raise ArithmeticError("Fresnel continued fraction did not converge")
        out[big] = -2 * np.sqrt(tb) * h
    return out


def _pow_diff(s0, s1, length, q):
    """s1^q - s0^q for 0 <= s0 < s1 = s0 + length, q > 0, without the
    cancellation of the plain difference when s0 is close to s1; numpy
    arrays broadcast."""
    base = np.where(s0 > 0, s0, 1.0)
    return np.where(s0 > 0, base ** q * np.expm1(q * np.log1p(length / base)),
                    s1 ** q)


def _series_terms(s1: float, length: float) -> int:
    """Terms of the moment series at |w| * s1 = _SERIES_PHASE: the first n
    with (s1 / length) * _SERIES_PHASE^n / n! < 1e-17, a bound on the next
    term relative to the moment."""
    bound, n = s1 / length, 0
    while bound >= 1e-17:
        n += 1
        bound *= _SERIES_PHASE / n
    return n


def _series_prefix(freqs: np.ndarray, length: float) -> int:
    """How many frequencies c of a run have |c| * length <= _SERIES_PHASE:
    a prefix, as |c| grows along the run."""
    if abs(freqs[0]) * length > _SERIES_PHASE:
        return 0
    return int(np.count_nonzero(np.abs(freqs) * length <= _SERIES_PHASE))


@dataclass(frozen=True)
class FreqRun:
    """The frequencies (k0 + m) * unit, m = 0..n-1: one block of a k sweep.
    k0 >= 0, so |frequency| grows along the run; the unit is finite, not 0."""

    k0: int
    n: int
    unit: float

    def __post_init__(self):
        if self.k0 < 0 or self.n < 1:
            raise ValueError(f"a frequency run needs k0 >= 0 and n >= 1, "
                             f"got k0 = {self.k0}, n = {self.n}")
        if not (math.isfinite(self.unit) and self.unit):
            raise ValueError(f"a frequency run needs a finite nonzero unit, "
                             f"got unit = {self.unit}")

    def __len__(self) -> int:
        return self.n

    def freqs(self) -> np.ndarray:
        return np.arange(self.k0, self.k0 + self.n) * self.unit

    def tables(self, xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lead, coarse, fine) with e^{i f x_j} = lead[j] * coarse[q, j] *
        fine[j, r] for the frequency f of m = _RUN_STRIDE * q + r (angle
        addition): lead = e^{i k0 unit x}, coarse = e^{i _RUN_STRIDE q unit x}
        and fine = e^{i r unit x}, so n / _RUN_STRIDE + _RUN_STRIDE + 1
        exponentials per x instead of n."""
        return self.lead(xs), self.coarse(xs), self.fine(xs)

    def lead(self, xs: np.ndarray) -> np.ndarray:
        """e^{i k0 unit x}, the one table that depends on k0."""
        return np.exp(1j * (self.k0 * self.unit) * xs)

    def coarse(self, xs: np.ndarray, start: int = 0) -> np.ndarray:
        """The coarse table from row start on (see tables)."""
        return np.exp(1j * np.multiply.outer(
            np.arange(start, -(-self.n // _RUN_STRIDE)) * (_RUN_STRIDE * self.unit), xs))

    def fine(self, xs: np.ndarray) -> np.ndarray:
        return np.exp(1j * np.multiply.outer(xs, np.arange(_RUN_STRIDE) * self.unit))


class _Phases:
    """FreqRun's tables at fixed points xs for the last unit, with coarse
    rows added when a longer run comes in: a run computes only its lead."""

    def __init__(self, xs: np.ndarray):
        self.xs, self.unit = xs, None

    def tables(self, run: FreqRun) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = -(-run.n // _RUN_STRIDE)
        if run.unit != self.unit:
            self.unit, (lead, self.coarse, self.fine) = run.unit, run.tables(self.xs)
            return lead, self.coarse, self.fine
        if rows > len(self.coarse):
            self.coarse = np.concatenate([self.coarse, run.coarse(self.xs, len(self.coarse))])
        return run.lead(self.xs), self.coarse[:rows], self.fine


class _Cell(NamedTuple):
    """A closed-form cell: scale * sum_m coeffs[m] * e^{i c u0} *
    J_{m+nu}(sign * c) over [s0, s1], where u0 = ends[k] - sign * s_k is the
    zero of the radicand (nu = 1/2) or the cell's left end (nu = 0).  A
    polynomial cell (nu = 0) also keeps, for the break terms, its exact
    poly = (lo, hi, root, (a, b)) on the plan's integer grid: the ends
    lo, hi, the numerator root of scale^2 and the line (a X + b)
    (see _closed_cell); a rooted one has poly None."""

    sign: int
    s0: float
    s1: float
    length: float
    ends: Tuple[float, float]
    nu: float
    scale: float
    coeffs: np.ndarray
    poly: Tuple[int, int, int, Tuple[int, int]] | None


class _Batch:
    """The cells of one kind (one nu), integrated together over a run: the
    sum over the cells of their integrals (see _Cell) at each frequency."""

    def __init__(self, cells: Sequence[_Cell]):
        self.nu = cells[0].nu
        ends = np.array([cell.ends for cell in cells])
        self.points, index = np.unique(ends, return_inverse=True)
        self._phases = _Phases(self.points)
        self.first, self.second = index.reshape(ends.shape).T
        self.sign = np.array([float(cell.sign) for cell in cells])
        self.s0 = np.array([cell.s0 for cell in cells])
        self.s1 = np.array([cell.s1 for cell in cells])
        self.shifted = np.flatnonzero(self.s0)       # the cells with s0 > 0
        # weights[m, cell] = scale * coeffs[m]; the end powers s_k^{m+nu}
        self.weights = np.array([cell.scale * cell.coeffs for cell in cells]).T
        p = np.arange(len(self.weights))[:, None] + self.nu
        self.lower, self.upper = self.s0 ** p, self.s1 ** p
        # The series runs in the dimensionless w * s, on s = sigma t with
        # sigma = 2^e near the least s1 and e even: (i c)^n / n! overflows
        # and s1^(n+1) underflows at deep scales, while (i c sigma)^n / n!
        # and t1^(n+1) stay near 1.  Then
        # series[cell, n] = sign^n sum_m weights[m] sigma^(p+1) (t1^r - t0^r) / r,
        # r = p + n + 1, p = m + nu, and e (p + 1) is an integer, so every
        # scaling by sigma is exact.
        e = 2 * round(math.log2(self.s1.min()) / 2)
        self.sigma = math.ldexp(1.0, e)
        terms = max(_series_terms(cell.s1, cell.length) for cell in cells)
        n = np.arange(terms)
        r = p[:, :, None] + 1 + n
        length = np.array([cell.length for cell in cells])[:, None]
        diffs = _pow_diff(self.s0[:, None] / self.sigma, self.s1[:, None] / self.sigma,
                          length / self.sigma, r) / r
        lift = np.ldexp(1.0, (e * (p + 1)).astype(int))
        self.series = (np.einsum("mi,min->in", self.weights * lift, diffs)
                       * self.sign[:, None] ** n).astype(complex)

    def integrate(self, run: FreqRun, freqs: np.ndarray, inv: np.ndarray
                  ) -> np.ndarray:
        """The cells' integral at each frequency c of the run, given
        freqs = run.freqs() and inv = 1/c (0 at c = 0)."""
        lead, coarse, fine = self._phases.tables(run)
        phases = ((lead[:, None] * coarse.T)[:, :, None] * fine[:, None, :]
                  ).reshape(len(self.points), -1)[:, :run.n]
        e0, e1 = phases[self.first], phases[self.second]
        # the upward recurrence from J_{nu-1} (J_{-1} has the weight p = 0),
        # with 1/(iw) = -i sign / c
        step = np.multiply.outer(-1j * self.sign, inv)
        moment = self._base(run, freqs, inv, e0, e1) if self.nu else 0
        total = np.zeros(e0.shape, dtype=complex)
        for m, weight in enumerate(self.weights):
            p = m + self.nu
            moment = (self.upper[m, :, None] * e1 - self.lower[m, :, None] * e0
                      - p * moment) * step
            total += weight[:, None] * moment
        # the series where |w| * s1 <= _SERIES_PHASE, a prefix of the run
        n_series = _series_prefix(freqs, self.s1.min())
        if n_series:
            near = freqs[:n_series]
            powers = np.empty((self.series.shape[1], n_series), dtype=complex)
            powers[0] = 1
            powers[1:] = 1j * (near * self.sigma) / np.arange(1, len(powers))[:, None]
            np.cumprod(powers, axis=0, out=powers)
            # e^{i c u0} = e0 e^{-i w s0}
            origin = e0[:, :n_series].copy()
            shifted = self.shifted
            origin[shifted] *= np.exp(np.multiply.outer(
                -1j * self.sign[shifted] * self.s0[shifted], near))
            small = np.multiply.outer(self.s1, np.abs(near)) <= _SERIES_PHASE
            total[:, :n_series] = np.where(small, (self.series @ powers) * origin,
                                           total[:, :n_series])
        return total.sum(axis=0)

    def _base(self, run: FreqRun, freqs: np.ndarray, inv: np.ndarray,
              e0: np.ndarray, e1: np.ndarray) -> np.ndarray:
        """e^{i c u0} J_{-1/2}(w) = |w|^{-1/2} (e1 tail(|w| s1) - e0 tail(|w| s0)),
        conjugated where w = sign * c < 0, with one _fresnel_tail call for
        every end; tail(0) = -G(inf)."""
        absf = np.abs(freqs)
        shifted = self.shifted
        tails = _fresnel_tail(np.concatenate([
            np.multiply.outer(self.s1, absf), np.multiply.outer(self.s0[shifted], absf)]))
        flip = self.sign * run.unit < 0
        rows = np.concatenate([flip, flip[shifted]])
        tails[rows] = tails[rows].conj()
        upper, lower = tails[:len(flip)], np.empty_like(e0)
        lower[:] = np.where(flip, -_FRESNEL_INF.conjugate(), -_FRESNEL_INF)[:, None]
        lower[shifted] = tails[len(flip):]
        return (e1 * upper - e0 * lower) * np.sqrt(np.abs(inv))


def _closed_cell(piece, root, lo: int, hi: int, den: int, line_scale: int,
                 root_scale: int):
    """The integrand on [lo, hi] / den from the line's piece and the square's
    piece root there, both on the integer grid x = X / den (see
    `piecewise._on_grid`), as a _Cell; None where it vanishes.  Every float
    is one int / int true division, correctly rounded."""
    a, b = piece[2], piece[3]          # line(X / den) = (a X + b) / line_scale
    alpha, beta = root[2], root[3]     # square(X / den) = (alpha X + beta) / root_scale
    if alpha:
        # the radicand alpha X + beta at the ends, clipped at its zero
        # X0 = -beta / alpha; s = |X - X0| / den = radicand / (|alpha| den)
        at_lo, at_hi = max(alpha * lo + beta, 0), max(alpha * hi + beta, 0)
        if not (at_lo or at_hi):
            return None
        sign, nu, s_den = (1 if alpha > 0 else -1), 0.5, abs(alpha) * den
        scale_sq = (s_den, root_scale)
        # P(X0 + sign s) = (a X0 + b + sign a den s) / line_scale; every
        # denominator is kept positive, so a zero is 0.0 as from a Fraction
        coeffs = ((sign * (b * alpha - a * beta), abs(alpha) * line_scale),
                  (sign * a * den, line_scale))
        origin = (-sign * beta, s_den)
        ends = ((lo, den) if at_lo else origin, (hi, den) if at_hi else origin)
        s_ends = (at_lo, at_hi)
        if sign < 0:
            ends, s_ends = ends[::-1], s_ends[::-1]
    elif beta <= 0:
        return None
    else:
        sign, nu, s_den, scale_sq = 1, 0.0, den, (beta, root_scale)
        coeffs = ((a * lo + b, line_scale), (a * den, line_scale))
        ends, s_ends = ((lo, den), (hi, den)), (0, hi - lo)
    if not (coeffs[0][0] or coeffs[1][0]):
        return None
    s0, s1 = s_ends
    return _Cell(sign, s0 / s_den, s1 / s_den, (s1 - s0) / s_den,
                 tuple(n / d for n, d in ends), nu,
                 math.sqrt(scale_sq[0] / scale_sq[1]),
                 np.array([n / d for n, d in coeffs]),
                 None if alpha else (lo, hi, beta, (a, b)))


def _break_terms(cells: Sequence[_Cell], den: int, line_scale: int, root_scale: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """(xs, jumps) of the polynomial cells: their distinct ends x_j and
    jumps[n, j] = B_n(x_j) = (-1)^n (P^(n)(x_j-) - P^(n)(x_j+)), where P is
    the integrand (root included) and 0 outside the cells.  On the plan's
    integer grid the line is (a X + b) / line_scale, so each B_n is an
    integer over line_scale, summed exactly per value of the root and
    rounded once; ends where every B_n vanishes, and rows above the last
    nonzero one, are dropped."""
    exact: Dict[int, Dict[Tuple[int, int], int]] = {}
    for cell in cells:
        lo, hi, root, (a, b) = cell.poly
        # B_0: P(hi) at hi and -P(lo) at lo; B_1: -P' at hi and P' at lo
        for n, at_lo, at_hi in ((0, a * lo + b, a * hi + b), (1, -a * den, -a * den)):
            for x, value in ((hi, at_hi), (lo, -at_lo)):
                terms = exact.setdefault(x, {})
                terms[n, root] = terms.get((n, root), 0) + value
    xs = sorted(x for x, terms in exact.items() if any(terms.values()))
    degree = max((n for x in xs for (n, _), v in exact[x].items() if v), default=0)
    jumps = np.zeros((degree + 1, len(xs)))
    for j, x in enumerate(xs):
        for (n, root), value in exact[x].items():
            if value:
                jumps[n, j] += value / line_scale * math.sqrt(root / root_scale)
    return np.array([x / den for x in xs]), jumps


class QuadPlan:
    """Reusable closed-form plan for line(u) * sqrt(max(square(u), 0)) *
    e^{i c u}, integrated over a FreqRun of frequencies c.

    Building the plan does the exact support/breakpoint splitting once and
    keeps each closed-form cell, one _Batch per kind of cell, and the break
    terms of the polynomial (nu = 0) cells.  integrate() computes the run's
    frequencies and their reciprocals once and takes a fixed number of
    whole-array passes: the rooted (nu = 1/2) batch at every frequency, the
    polynomial cells through the break form at every frequency c with
    |c| * ell_min > _SERIES_PHASE (ell_min the length of the shortest
    polynomial cell: there each of them would take the upward recurrence,
    and the break sum is an exact rearrangement of those cell sums), and the
    polynomial batch at the head frequencies below that line, a prefix of
    the run (k0 >= 0); a path that covers the whole run is the result.  The
    plan keeps its phase tables per unit (_Phases), so a run computes only
    its lead; each result is a new array.  A plan is not thread-safe.
    """

    # always empty: bench/tracer.py reads it until the benchmark refresh of
    # ROADMAP item 1
    nodes = np.empty(0)

    def __init__(self, line: PiecewiseLinear, square: PiecewiseLinear):
        den, grids = _on_grid([line, square])
        scales = (den, grids[0].scale, grids[1].scale)
        self.closed: List[_Cell] = [
            cell for lo, hi, (piece, root) in refine(grids)
            if piece and root and (cell := _closed_cell(piece, root, lo, hi, *scales))]
        rooted = [cell for cell in self.closed if cell.poly is None]
        polys = [cell for cell in self.closed if cell.poly is not None]
        self._rooted = _Batch(rooted) if rooted else None
        self._polys = _Batch(polys) if polys else None
        if polys:
            self._ell_min = min(cell.length for cell in polys)
            self._xs, self._jumps = _break_terms(polys, *scales)
            self._phases = _Phases(self._xs)
            self._weights = self._jumps * (-1j) ** np.arange(1, len(self._jumps) + 1)[:, None]

    def integrate(self, run: FreqRun) -> np.ndarray:
        """The integral at each frequency of the run, a new array."""
        freqs = run.freqs()
        # past k = 0 no c is 0: FreqRun refuses a zero unit
        inv = (np.reciprocal(freqs) if run.k0
               else np.divide(1.0, freqs, out=np.zeros(run.n), where=freqs != 0))
        out = self._rooted.integrate(run, freqs, inv) if self._rooted else None
        if self._polys:
            n_head = _series_prefix(freqs, self._ell_min)
            parts = [self._break_sum(run, inv[n_head:])] if n_head < run.n else []
            if n_head:
                parts.insert(0, self._polys.integrate(
                    FreqRun(run.k0, n_head, run.unit), freqs[:n_head], inv[:n_head]))
            polys = parts[0] if len(parts) == 1 else np.concatenate(parts)
            out = polys if out is None else np.add(out, polys, out=out)
        return np.zeros(run.n, dtype=complex) if out is None else out

    def _break_sum(self, run: FreqRun, inv: np.ndarray) -> np.ndarray:
        """sum_x e^{icx} sum_n B_n(x) (-i/c)^{n+1}, the polynomial cells'
        integral, at each frequency c of the run past its head, given inv,
        the 1/c there.  The factors (-i)^{n+1} sit in self._weights, so the
        powers of 1/c are real, and the sums over x are one matmul of the
        angle-addition tables per B_n."""
        lead, coarse, fine = self._phases.tables(run)
        weighted = (self._weights * lead)[:, None, :] * coarse
        sums = (weighted @ fine).reshape(len(self._weights), -1)[:, run.n - len(inv):run.n]
        acc = sums[-1]
        for row in sums[-2::-1]:
            acc *= inv
            acc += row
        acc *= inv
        return acc
