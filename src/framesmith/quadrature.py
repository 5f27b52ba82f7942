"""Closed-form quadrature of the frame-test integrand
line(u) * sqrt(max(square(u), 0)) * e^{i c u} over a run of frequencies c.

A plan walks the common refinement of the line and the square once
(`piecewise.refine`) and keeps the cells where both have a piece.  On each
cell the line is a polynomial P(u) of degree 1, and the root
sqrt(alpha*u + beta) of the square is either constant there or varies.

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
p = m + nu with nu in {0, 1/2}, which one routine computes: the power series
in i*w*s for |w|*s1 <= _SERIES_PHASE, and otherwise the upward recurrence
J_p = ([s^p e^{i w s}] - p J_{p-1}) / (i w) from a base integral that is
elementary for nu = 0 and a Fresnel integral for nu = 1/2 (Abramowitz &
Stegun 7.3), evaluated on numpy by its power series and the continued
fraction of Numerical Recipes 6.8.  This is the moment (Filon-type) approach
of Iserles & Norsett (Proc. R. Soc. A 2005): the work per cell does not grow
with the frequency, so a sweep over K frequencies costs O(cells * K), and a
plan serves every frequency.

Break form.  For the polynomial cells (nu = 0) the recurrence unrolls to
int_l^h P e^{icu} du = sum_n (-1)^n [P^(n) e^{icu}]_l^h / (ic)^{n+1}, and
summed over the cells the ends they share merge:

    sum_x e^{icx} sum_n B_n(x) / (ic)^{n+1},
    B_n(x) = (-1)^n (P^(n)(x-) - P^(n)(x+)),

the jumps of the integrand (root included) and its derivatives at the
breakpoints.  The plan computes each B_n exactly, as a rational per value of
the constant root, and rounds it once.  Where |c| * ell_min > _SERIES_PHASE,
ell_min the shortest polynomial cell, every polynomial cell would take the
recurrence, so there the break form is an exact rearrangement of the cell
sum and replaces it; 1/(ic) = -i/c keeps the powers real.  Below that line
(the head, a few frequencies next to 0) and on the rooted cells the moments
are summed cell by cell: a rooted cell's end terms carry a Fresnel tail per
end and frequency, so they have no such form.

The frequencies are a FreqRun, (k0 + m) * unit for m < n with k0 >= 0: one
block of a k sweep.  |c| grows along the run, so its head is the prefix
FreqRun(k0, n_head, unit).  The moments need the end phases e^{i c x} at each
cell end x, and cells that share an end share its phases.  With
m = 64 q + r the phase is e^{i k0 unit x} * e^{i 64 q unit x} *
e^{i r unit x} (angle addition), so a run costs about n / 64 + 64
exponentials per end instead of n, and its break form is
(coarse * diag(B_n e^{i k0 unit x})) @ fine, one small matmul per B_n with
no phase array of length n per end.  The tables round the argument
k * unit * x, so they agree with e^{i c x} to a few ulps of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .piecewise import Piece, PiecewiseLinear, refine

_SERIES_PHASE = 2.0         # moment power series at or below this |w|*s1
_FRESNEL_SERIES = 3.5       # Fresnel power series below this phase t = pi x^2 / 2
_FRESNEL_INF = math.sqrt(math.pi / 2) * (1 + 1j)   # int_0^inf t^{-1/2} e^{it} dt
_RUN_STRIDE = 64            # fine-table length of the angle-addition phases


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
    """The frequencies (k0 + m) * unit, m = 0..n-1: one block of a k sweep.
    k0 >= 0, so |frequency| grows along the run."""

    k0: int
    n: int
    unit: float

    def __post_init__(self):
        if self.k0 < 0 or self.n < 1:
            raise ValueError(f"a frequency run needs k0 >= 0 and n >= 1, "
                             f"got k0 = {self.k0}, n = {self.n}")

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
        coarse = np.exp(1j * np.multiply.outer(
            np.arange(-(-self.n // _RUN_STRIDE)) * (_RUN_STRIDE * self.unit), xs))
        fine = np.exp(1j * np.multiply.outer(xs, np.arange(_RUN_STRIDE) * self.unit))
        lead = np.exp(1j * (self.k0 * self.unit) * xs)
        return lead, coarse, fine

    def phases(self, x: float) -> np.ndarray:
        """e^{i f x} for every frequency f of the run, from tables()."""
        lead, coarse, fine = self.tables(np.array([x]))
        return np.outer(coarse[:, 0] * lead[0], fine[0]).ravel()[:self.n]


class _Cell(NamedTuple):
    """A closed-form cell: scale * sum_m coeffs[m] * e^{i c u0} *
    J_{m+nu}(sign * c) over [s0, s1], where u0 = ends[k] - sign * s_k is the
    zero of the radicand (nu = 1/2) or the cell's left end (nu = 0).  A
    polynomial cell (nu = 0) also keeps poly = (lo, hi, scale^2, exact
    coeffs) for the break terms; a rooted one has poly None."""

    sign: int
    s0: float
    s1: float
    length: float
    ends: Tuple[float, float]
    nu: float
    scale: float
    coeffs: np.ndarray
    poly: Tuple[Fraction, Fraction, Fraction, List[Fraction]] | None

    def integrate(self, freqs: np.ndarray, e0: np.ndarray, e1: np.ndarray
                  ) -> np.ndarray:
        """The cell integral at each frequency, given the end phases
        e_k = e^{i freqs ends[k]}."""
        mom = _moments(self.nu, len(self.coeffs) - 1, self.s0, self.s1,
                       self.length, self.sign * freqs, e0, e1)
        return self.scale * (self.coeffs @ mom)


def _closed_cell(piece: Piece, root: Piece, lo: Fraction, hi: Fraction):
    """The integrand on [lo, hi] from the line's piece and the square's piece
    root there, as a _Cell; None where it vanishes."""
    a, b = piece[2], piece[3]
    alpha, beta = root[2], root[3]
    if alpha:
        origin = -beta / alpha
        sign = 1 if alpha > 0 else -1
        # the radicand alpha * (u - origin) is >= 0 where sign*(u - origin) >= 0
        if sign > 0:
            lo = max(lo, origin)
        else:
            hi = min(hi, origin)
        if lo >= hi:
            return None
        scale_sq, nu = abs(alpha), 0.5
    elif beta <= 0:
        return None
    else:
        origin, sign, nu, scale_sq = lo, 1, 0.0, beta
    # P(origin + sign*s), exact
    coeffs = [a * origin + b, sign * a]
    if not any(coeffs):
        return None
    ends = (lo, hi) if sign > 0 else (hi, lo)
    s0, s1 = (sign * (u - origin) for u in ends)
    return _Cell(sign, float(s0), float(s1), float(s1 - s0),
                 (float(ends[0]), float(ends[1])), nu,
                 math.sqrt(float(scale_sq)), np.array([float(c) for c in coeffs]),
                 None if alpha else (lo, hi, scale_sq, coeffs))


def _break_terms(cells: Sequence[_Cell]) -> Tuple[np.ndarray, np.ndarray]:
    """(xs, jumps) of the polynomial cells: their distinct ends x_j and
    jumps[n, j] = B_n(x_j) = (-1)^n (P^(n)(x_j-) - P^(n)(x_j+)), where P is
    the integrand (root included) and 0 outside the cells.  Each B_n is
    summed exactly per value of the root, then rounded; ends where every B_n
    vanishes, and rows above the last nonzero one, are dropped."""
    exact: Dict[Fraction, Dict[Tuple[int, Fraction], Fraction]] = {}
    for cell in cells:
        lo, hi, scale_sq, coeffs = cell.poly
        length = hi - lo
        for n in range(len(coeffs)):
            # P^(n) at both ends from the coefficients of P(lo + s)
            at_lo = math.factorial(n) * coeffs[n]
            at_hi = sum(coeffs[m] * math.perm(m, n) * length ** (m - n)
                        for m in range(n, len(coeffs)))
            sign = -1 if n % 2 else 1
            for x, value in ((hi, sign * at_hi), (lo, -sign * at_lo)):
                terms = exact.setdefault(x, {})
                terms[n, scale_sq] = terms.get((n, scale_sq), 0) + value
    xs = sorted(x for x, terms in exact.items() if any(terms.values()))
    degree = max((n for x in xs for (n, _), v in exact[x].items() if v), default=0)
    jumps = np.zeros((degree + 1, len(xs)))
    for j, x in enumerate(xs):
        for (n, scale_sq), value in exact[x].items():
            if value:
                jumps[n, j] += float(value) * math.sqrt(float(scale_sq))
    return np.array([float(x) for x in xs]), jumps


def _cell_sum(cells: Sequence[_Cell], run: FreqRun) -> np.ndarray:
    """The sum of the cells' integrals at each frequency of the run; cells
    that share an end share its phases."""
    freqs = run.freqs()
    out = np.zeros(len(freqs), dtype=complex)
    known: dict = {}
    for cell in cells:
        e0, e1 = (known[x] if x in known else run.phases(x) for x in cell.ends)
        known = dict(zip(cell.ends, (e0, e1)))
        out += cell.integrate(freqs, e0, e1)
    return out


class QuadPlan:
    """Reusable closed-form plan for line(u) * sqrt(max(square(u), 0)) *
    e^{i c u}, integrated over a FreqRun of frequencies c.

    Building the plan does the exact support/breakpoint splitting once and
    keeps each closed-form cell, plus the break terms of the polynomial
    (nu = 0) cells.  integrate() sums the rooted (nu = 1/2) cells one by one
    from their moments.  The polynomial cells enter through the break form
    at every frequency c with |c| * ell_min > _SERIES_PHASE, ell_min the
    length of the shortest polynomial cell: there each of them would take
    the upward recurrence, and the break sum is an exact rearrangement of
    those cell sums.  The head frequencies below that line form a prefix of
    the run (k0 >= 0), where they are summed cell by cell too.
    """

    # always empty: bench/tracer.py reads it until the benchmark refresh of
    # ROADMAP item 1
    nodes = np.empty(0)

    def __init__(self, line: PiecewiseLinear, square: PiecewiseLinear):
        self.closed: List[_Cell] = [
            cell for lo, hi, (piece, root) in refine([line, square])
            if piece and root and (cell := _closed_cell(piece, root, lo, hi))]
        self._rooted = [cell for cell in self.closed if cell.poly is None]
        self._polys = [cell for cell in self.closed if cell.poly is not None]
        self._ell_min = min((cell.length for cell in self._polys), default=math.inf)
        self._xs, jumps = _break_terms(self._polys)
        self._weights = jumps * (-1j) ** np.arange(1, len(jumps) + 1)[:, None]

    def integrate(self, run: FreqRun) -> np.ndarray:
        """The integral at each frequency of the run."""
        out = _cell_sum(self._rooted, run)
        if not self._polys:
            return out
        freqs = run.freqs()
        n_head = int(np.count_nonzero(np.abs(freqs) * self._ell_min <= _SERIES_PHASE))
        if n_head < run.n:
            out += self._break_sum(run, freqs, n_head)
        if n_head:
            out[:n_head] += _cell_sum(self._polys, FreqRun(run.k0, n_head, run.unit))
        return out

    def _break_sum(self, run: FreqRun, freqs: np.ndarray, n_head: int
                   ) -> np.ndarray:
        """sum_x e^{icx} sum_n B_n(x) (-i/c)^{n+1}, the polynomial cells'
        integral, at each frequency c of the run; 0 at the head, its first
        n_head frequencies.  The factors (-i)^{n+1} sit in self._weights, so
        the powers of 1/c are real, and the sums over x are one matmul of
        the angle-addition tables per B_n."""
        lead, coarse, fine = run.tables(self._xs)
        weighted = (self._weights * lead)[:, None, :] * coarse
        sums = (weighted @ fine).reshape(len(self._weights), -1)[:, :run.n]
        inv = np.zeros(run.n)
        inv[n_head:] = 1.0 / freqs[n_head:]
        acc = sums[-1]
        for row in sums[-2::-1]:
            acc = row + inv * acc
        return inv * acc
