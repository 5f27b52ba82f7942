"""Local trace calculus for shift-invariant spaces with bounded Fourier support.

Each local trace is a quadratic form of the fiber Gramian
G(xi)[k, l] = sum_phi phi_hat(xi + 2k) phi_hat(xi + 2l) (Bownik, J. Funct.
Anal. 177, 2000): tau_{V,f} = <G f, f> and tau_{V,T} = trace(T G).  Every
entry point reads G as diagonal, G[k, k] = S(xi + 2k) with
S = `GeneratorSet.spectral`, piecewise linear; that property decides the
premise (see `GeneratorSet`) and raises ValueError naming the first profile
that breaks it.  Every trace is an exact Fraction read off S:
- tau_{V,f} = sum_k |f(k)|^2 S(xi + 2k) and tau_{V,T} = sum_k T_kk S(xi + 2k);
- the `trace` CSV: S, the periodization sum_k S(. + 2k) (the dimension
  function) and tau_{V,f}, the three piecewise-linear functions of
  `diagonal_traces`, each read at every grid point p/q on integers as
  `_numerator(p, q)` / (`scale` q), one int / int division per cell;
- two generator sets give equal traces exactly when their S agree (the NTF
  generator test);
- the series identity is sum_{j>=1} S_psi(a^j xi) = S_phi(xi) at shift
  s = 0; at s != 0 both sides are off-diagonal entries, so 0.

The restricted traces, the coset sum and the generator test read S on
integers.  At xi = p/q, S(xi + 2k) is the integer
`PiecewiseLinear._numerator(p + 2kq, q)` over `scale` q, and every coset
point (xi + 2d)/a of the dilation formula is +-(p + 2dq) over the one
denominator |a| q.  A check takes the weights |f(k)|^2 of f -- and with
them those of each coset sequence D_d* f, the same values -- as integers
over one denominator W once, not once per grid point; each result is then
one integer sum and one Fraction (the generator test's float residual is
one int / int division).

The one interval path is `dilated_trace`, the left side of the dilation
formula.  It encloses tau_{D_a V, f} from the genuine generator set of the
dilated space -- the |a| fractionally-translated dilates of each generator,
whose Fourier transforms carry unit phases e^{-i d xi / a} -- with
rational-argument cos/sin intervals, so the check against the exact coset
sum stays independent of the identity itself.  Each term is taken once per
profile as integers: its profile value read as above, its weights c f(k)
over one denominator L per call and the bounds of its magnitude at 2^-bits;
per translate d >= 1 only its phase is enclosed (the phase at d = 0 is 1),
and the outward products, sums and squares run on integers over
2^(bits+32) 2^bits L, with one Fraction per endpoint at the end.  The
supports a supp(phi) the terms are drawn from are taken once per set
(`GeneratorSet.dilated_supports`).  The additivity check reads tau_{V_1}
off the exact coset sum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence as Seq, Tuple

from .folding import _shifts
from .numeric import DEFAULT_BITS, FInterval, cos_pi, sin_pi
from .piecewise import GeneratorSet, PiecewiseLinear, _sum
from .rationals import as_fraction
from .roots import SqrtSum
from .sequences import CRat, Sequence


def _weights(f: Sequence) -> Tuple[int, List[Tuple[int, int]]]:
    """(W, pairs): |f(k)|^2 = n / W for each pair (k, n) over the support of
    f, W the common denominator of the weights.  A check takes them once and
    reads S at each of its grid points."""
    squares = [(k, v.abs2()) for k, v in f.entries.items()]
    den = math.lcm(*(w.denominator for _, w in squares))
    return den, [(k, w.numerator * (den // w.denominator)) for k, w in squares]


def _cosets(a: int, weights: List[Tuple[int, int]]) -> List[List[Tuple[int, int]]]:
    """The weights of D_d* f for the cosets d = 0..|a|-1, from those of f
    and over the same W: (D_d* f)(l) = f(d + a l), so each k of f lands in
    the coset d = k mod |a| at l = (k - d) / a."""
    m = abs(a)
    out: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
    for k, n in weights:
        d = k % m
        out[d].append(((k - d) // a, n))
    return out


def _tau(square: PiecewiseLinear, weights: List[Tuple[int, int]], p: int, q: int) -> int:
    """N with sum_k |f(k)|^2 S(p/q + 2k) = N / (W `scale` q), S = square,
    from `_weights(f)`: each point read is the integer
    `_numerator(p + 2kq, q)` over `scale` q, for any p and q > 0."""
    num, step = square._numerator, 2 * q
    return sum(n * num(p + k * step, q) for k, n in weights)


def _coset_sum(square: PiecewiseLinear, a: int, cosets, p: int, q: int) -> int:
    """N with sum_d tau_{V, D_d* f}((xi + 2d)/a) = N / (W `scale` |a| q) at
    xi = p/q, with S = square, from `_cosets(a, weights)`.  Every coset
    point (xi + 2d)/a is the integer +-(p + 2dq) over the one denominator
    |a| q, the sign that of a."""
    m = abs(a)
    sign = 1 if a > 0 else -1
    return sum(_tau(square, weights, sign * (p + 2 * d * q), m * q)
               for d, weights in enumerate(cosets))


def restricted_trace(gen: GeneratorSet, f: Sequence, xi) -> Fraction:
    """tau_{V,f}(xi) = sum_phi |<f | T_per phi(xi)>|^2 = <G f, f>
    = sum_k |f(k)|^2 S(xi + 2k), exact."""
    square, xi = gen.spectral, as_fraction(xi)
    den, weights = _weights(f)
    q = xi.denominator
    return Fraction(_tau(square, weights, xi.numerator, q), den * square.scale * q)


def diagonal_traces(gen: GeneratorSet, f: Sequence, grid: Seq[Fraction]
                    ) -> Tuple[PiecewiseLinear, PiecewiseLinear, PiecewiseLinear]:
    """The functions of the columns of the trace CSV, exact: the spectral
    function S = sum_phi |phi_hat|^2, the dimension function (the trace of
    G) and tau_{V,f}, that is S, the periodization sum_k S(. + 2k) and
    sum_{k in supp f} |f(k)|^2 S(. + 2k).  The periodization holds the
    terms that reach the grid, so it is the dimension function there."""
    square = gen.spectral
    ks = range(0)
    if grid and square.cells:
        # every k with S(xi + 2k) != 0 for some xi in [lo, hi] around the grid
        # (more add 0 there): ceil((LO / den - hi) / 2) to ceil((HI / den - lo) / 2)
        lo, hi = min(map(math.floor, grid)), max(map(math.ceil, grid))
        den = square.den
        ks = range(-((hi * den - square.cells[0][0]) // (2 * den)),
                   -((lo * den - square.cells[-1][1]) // (2 * den)))
    periodized = _sum([square.compose_shift(2 * k) for k in ks])
    weighted = _sum([square.compose_shift(2 * k).scale_value(v.abs2())
                     for k, v in f.entries.items()])
    return square, periodized, weighted


# -- finite positive operators ---------------------------------------------


@dataclass(frozen=True)
class WindowOperator:
    """Real rational matrix acting on coordinates offset..offset+n-1,
    zero- or identity-padded outside the window."""

    offset: int
    rows: Tuple[Tuple[Fraction, ...], ...]
    pad: str = "zero"  # or "identity"

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("operator window must be square")
        if self.pad not in ("zero", "identity"):
            raise ValueError(f"unknown padding {self.pad!r}")

    @staticmethod
    def identity(offset: int, size: int) -> "WindowOperator":
        rows = tuple(tuple(Fraction(1 if i == j else 0) for j in range(size))
                     for i in range(size))
        return WindowOperator(offset, rows, pad="identity")

    @staticmethod
    def of(offset: int, rows, pad: str = "zero") -> "WindowOperator":
        return WindowOperator(offset, tuple(
            tuple(Fraction(x) for x in row) for row in rows), pad)

    def psd_witness(self) -> Tuple[Fraction, ...] | None:
        """None when the window block is symmetric PSD.  Otherwise a rational
        vector x with x^T T x < 0 (for a non-symmetric block, the offending
        e_i + e_j pair is returned as the rejection marker)."""
        n = len(self.rows)
        for i in range(n):
            for j in range(i + 1, n):
                if self.rows[i][j] != self.rows[j][i]:
                    x = [Fraction(0)] * n
                    x[i] = Fraction(1)
                    x[j] = Fraction(1)
                    return tuple(x)
        # symmetric congruence elimination; each step keeps the Schur
        # complement symmetric, and the current row of `trans` maps a failing
        # diagonal back to an original-coordinates witness
        m = [list(r) for r in self.rows]
        trans = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for i in range(n):
            d = m[i][i]
            if d < 0:
                return tuple(trans[i])
            if d == 0:
                for j in range(i + 1, n):
                    if m[i][j] != 0:
                        # 2x2 block [[0, b], [b, c]] is indefinite
                        b, c = m[i][j], m[j][j]
                        t = -(c + 1) / (2 * b)
                        return tuple(t * a + bb for a, bb in zip(trans[i], trans[j]))
                continue
            for j in range(i + 1, n):
                factor = m[j][i] / d
                if factor == 0:
                    continue
                for k in range(i + 1, n):
                    m[j][k] -= factor * m[i][k]
                m[j][i] = Fraction(0)
                trans[j] = [a - factor * b for a, b in zip(trans[j], trans[i])]
            for j in range(i + 1, n):
                m[i][j] = Fraction(0)
        return None


def operator_trace(gen: GeneratorSet, op: WindowOperator, xi) -> Fraction:
    """tau_{V,T}(xi) = sum_phi <T w | w> with w = T_per phi(xi), that is
    trace(T G) = sum_k T_kk S(xi + 2k) over the window, plus S(xi + 2k) for
    every k outside the window under identity padding.  Exact."""
    witness = op.psd_witness()
    if witness is not None:
        raise ValueError(f"operator not positive semidefinite; witness {witness}")
    square = gen.spectral
    xi = as_fraction(xi)
    n = len(op.rows)
    total = sum((op.rows[i][i] * square.eval(xi + 2 * (op.offset + i))
                 for i in range(n)), Fraction(0))
    if op.pad == "identity":
        total += sum((square.eval(xi + 2 * k) for lo, hi, _, _ in square.cells
                      for k in _shifts(xi.numerator, xi.denominator, lo, hi, square.den)
                      if not op.offset <= k < op.offset + n), Fraction(0))
    return total


# -- dilated space ----------------------------------------------------------


def dilated_trace(gen: GeneratorSet, f: Sequence, xi,
                  bits: int = DEFAULT_BITS) -> FInterval:
    """tau_{D_a V, f}(xi) from the genuine NTF generator of the dilated
    space: the |a| fractional translates of each dilated generator, with
    Fourier phases e^{-i d (.)/a}.  Certified enclosure.

    Per profile, each term is taken once: its argument
    (xi + 2k)/a = +-(p + 2kq) / (|a| q) at xi = p/q, its value
    r = |profile|^2 there read as an integer over one denominator by the
    square's `_numerator`, its weights c f(k).re and c f(k).im, c the
    coefficient of sqrt(r/|a|) = c sqrt(rad), and the integer bounds of
    sqrt(rad) at 2^-bits.  The weights of the call share one denominator L,
    so each translate d sums its products with the phase enclosures
    `cos_pi`/`sin_pi` (read back as integers at 2^-(bits+32); the phase of
    d = 0 is exactly 1) on integers over 2^(bits+32) 2^bits L, outward, and
    the result is built from two integers at the end: endpoint for endpoint
    the interval arithmetic of `dilated_trace_direct` in the tests'
    oracles.  xi + 2k must land in a supp(phi), which the set keeps
    (`GeneratorSet.dilated_supports`)."""
    xi = as_fraction(xi)
    a = gen.dilation
    m, sign = abs(a), (1 if a > 0 else -1)
    p, q = xi.numerator, xi.denominator
    per_profile = []
    for prof, reach in zip(gen.profiles, gen.dilated_supports):
        num = prof.square._numerator
        # r / |a| = N / (scale |a|^2 q) for r = N / (scale |a| q)
        top = prof.square.scale * m * m * q
        terms = []
        for lo, hi in reach.cells:
            for k in _shifts(p, q, lo, hi, reach.den):
                v = f.entries.get(k)
                if v is None:
                    continue
                arg = sign * (p + 2 * k * q)
                n = num(arg, m * q)
                if n:
                    (rad, c), = SqrtSum.sqrt_of(Fraction(n, top)).terms.items()
                    m_lo = m_hi = 1 << bits
                    if rad != 1:
                        m_lo = math.isqrt(rad << 2 * bits)
                        m_hi = m_lo + 1
                    terms.append((Fraction(arg, m * q), c * v.re, c * v.im, m_lo, m_hi))
        if terms:
            per_profile.append(terms)
    den = math.lcm(*(w.denominator for terms in per_profile for t in terms for w in t[1:3]))
    one = 1 << (bits + 32)
    lo = hi = 0
    for terms in per_profile:
        terms = [(arg, w_re.numerator * (den // w_re.denominator),
                  w_im.numerator * (den // w_im.denominator), m_lo, m_hi)
                 for arg, w_re, w_im, m_lo, m_hi in terms]
        for d in range(abs(a)):
            re_lo = re_hi = im_lo = im_hi = 0
            for arg, w_re, w_im, m_lo, m_hi in terms:
                if d:
                    c, s = cos_pi(d * arg, bits), sin_pi(d * arg, bits)
                    c_lo = c.lo.numerator * (one // c.lo.denominator)
                    c_hi = c.hi.numerator * (one // c.hi.denominator)
                    s_lo = s.lo.numerator * (one // s.lo.denominator)
                    s_hi = s.hi.numerator * (one // s.hi.denominator)
                else:
                    c_lo = c_hi = one   # the phase of d = 0 is 1, exactly
                    s_lo = s_hi = 0
                # the phase times the magnitude [m_lo, m_hi], m_lo >= 0
                x_lo = c_lo * (m_lo if c_lo >= 0 else m_hi)
                x_hi = c_hi * (m_hi if c_hi >= 0 else m_lo)
                y_lo = s_lo * (m_lo if s_lo >= 0 else m_hi)
                y_hi = s_hi * (m_hi if s_hi >= 0 else m_lo)
                # (x + iy) w: each part scaled by a weight, ends swapped
                # where the weight is negative
                if w_re >= 0:
                    re_lo += x_lo * w_re
                    re_hi += x_hi * w_re
                    im_lo += y_lo * w_re
                    im_hi += y_hi * w_re
                else:
                    re_lo += x_hi * w_re
                    re_hi += x_lo * w_re
                    im_lo += y_hi * w_re
                    im_hi += y_lo * w_re
                if w_im > 0:
                    re_lo -= y_hi * w_im
                    re_hi -= y_lo * w_im
                    im_lo += x_lo * w_im
                    im_hi += x_hi * w_im
                elif w_im:
                    re_lo -= y_lo * w_im
                    re_hi -= y_hi * w_im
                    im_lo += x_hi * w_im
                    im_hi += x_lo * w_im
            for part_lo, part_hi in ((re_lo, re_hi), (im_lo, im_hi)):
                if part_lo >= 0:
                    lo, hi = lo + part_lo * part_lo, hi + part_hi * part_hi
                elif part_hi <= 0:
                    lo, hi = lo + part_hi * part_hi, hi + part_lo * part_lo
                else:
                    hi += max(part_lo * part_lo, part_hi * part_hi)
    scale = (den << (2 * bits + 32)) ** 2
    return FInterval._ordered(Fraction(lo, scale), Fraction(hi, scale))


def dilation_coset_sum(gen: GeneratorSet, f: Sequence, xi) -> Fraction:
    """Right side of the dilation formula:
    sum_d tau_{V, D_d* f}((xi + 2d)/a), exact."""
    square, a, xi = gen.spectral, gen.dilation, as_fraction(xi)
    den, weights = _weights(f)
    q = xi.denominator
    return Fraction(_coset_sum(square, a, _cosets(a, weights), xi.numerator, q),
                    den * square.scale * abs(a) * q)


@dataclass(frozen=True)
class GridRow:
    xi: Fraction
    discrepancy: Fraction  # certified upper bound on |lhs - rhs|


def dilation_trace_check(gen: GeneratorSet, f: Sequence, grid: Iterable,
                         bits: int = DEFAULT_BITS) -> List[GridRow]:
    """Certified |tau_{D_aV,f}(xi) - sum_d tau_{V,D_d*f}((xi+2d)/a)| per point:
    the enclosure of `dilated_trace` at `bits` against the exact coset sum."""
    square, a = gen.spectral, gen.dilation
    den, weights = _weights(f)
    cosets, top = _cosets(a, weights), den * square.scale * abs(a)
    rows = []
    for xi in grid:
        xi = as_fraction(xi)
        q = xi.denominator
        lhs = dilated_trace(gen, f, xi, bits)
        rhs = Fraction(_coset_sum(square, a, cosets, xi.numerator, q), top * q)
        rows.append(GridRow(xi, (lhs - FInterval.point(rhs)).sup_abs()))
    return rows


# -- cross-generator consistency (NTF generator test) -----------------------


ALPHAS: Tuple[CRat, ...] = (CRat.of(0), CRat.of(1), CRat.of(0, 1))


@dataclass(frozen=True)
class GeneratorTestRow:
    xi: Fraction
    l: int
    alpha: CRat
    verdict: str           # pass | fail
    residual: float


def ntf_generator_test(gen: GeneratorSet, reference: GeneratorSet,
                       grid: Iterable, bits: int = DEFAULT_BITS
                       ) -> List[GeneratorTestRow]:
    """Check sum_phi |phi_hat(xi) + conj(alpha) phi_hat(xi+2l)|^2 against the
    restricted trace at delta_0 + alpha*delta_l computed from the reference
    generator set of the same space, for alpha in {0, 1, i} and 0 < |l| <= L.
    The profiles are real, so the left side is that trace for `gen`.

    On diagonal Gramians that trace is S(xi) + |alpha|^2 S(xi + 2l), so a
    row passes exactly when the difference D = S_gen - S_ref gives
    D(xi) + |alpha|^2 D(xi + 2l) = 0; its residual is the absolute value of
    that rational.  At xi = p/q each row reads the integers
    D(xi) = `_numerator(p, q)` / (scale q) and D(xi + 2l), scale the
    `scale` of D, so it is decided on the integer
    n = v D(xi) scale q + u D(xi + 2l) scale q, |alpha|^2 = u / v, and its
    residual is abs(n / (v scale q)), the float of that Fraction.  Two sets
    with one S give D = 0, and every row passes with residual 0.0.  The
    rows are exact: `bits` is kept for callers and not used."""
    lo1, hi1 = gen.support_hull()
    lo2, hi2 = reference.support_hull()
    radius = max(abs(x) for x in (lo1, hi1, lo2, hi2)) or Fraction(1)
    l_window = int(radius) + 1
    ls = [l for l in range(-l_window, l_window + 1) if l]
    difference = gen.spectral - reference.spectral
    num, scale = difference._numerator, difference.scale
    alphas = [(alpha, w.numerator, w.denominator)
              for alpha, w in zip(ALPHAS, (alpha.abs2() for alpha in ALPHAS))]
    rows: List[GeneratorTestRow] = []
    for xi in grid:
        xi = as_fraction(xi)
        p, q = xi.numerator, xi.denominator
        d0 = num(p, q)
        for l in ls:
            dl = num(p + 2 * l * q, q)
            for alpha, u, v in alphas:
                n = v * d0 + u * dl
                rows.append(GeneratorTestRow(xi, l, alpha, "fail" if n else "pass",
                                             abs(n / (v * scale * q))))
    return rows


# -- scaling/wavelet series identity ----------------------------------------


@dataclass(frozen=True)
class SeriesRow:
    xi: Fraction
    s: int
    residual: Fraction

    def verdict(self, bits: int = DEFAULT_BITS) -> str:
        """'pass' when the exact residual is 0, else 'fail' (`bits` is kept
        for callers and not used)."""
        return "fail" if self.residual else "pass"


def series_identity_check(phi_gen: GeneratorSet, psi_gen: GeneratorSet,
                          s: int, grid: Iterable) -> List[SeriesRow]:
    """Residual of
    sum_{j>=1} sum_psi psi_hat(a^j xi) conj(psi_hat(a^j (xi+2s)))
      = sum_phi phi_hat(xi) conj(phi_hat(xi+2s)),
    exact.  Each term is an entry of row 0 of a diagonal fiber Gramian:
    S_psi(a^j xi) and S_phi(xi) at s = 0, and 0 at s != 0.  Bounded
    supports make the j-sum finite."""
    a = psi_gen.dilation
    lo, hi = psi_gen.support_hull()
    radius = max(abs(lo), abs(hi))
    psi_square, phi_square = psi_gen.spectral, phi_gen.spectral
    rows: List[SeriesRow] = []
    for xi in grid:
        xi = as_fraction(xi)
        residual = Fraction(0)
        if s == 0:
            x = a * xi
            while xi and abs(x) <= radius:
                residual += psi_square.eval(x)
                x *= a
            residual -= phi_square.eval(xi)
        rows.append(SeriesRow(xi, s, residual))
    return rows


# -- additivity / monotonicity ----------------------------------------------


@dataclass(frozen=True)
class SplitRow:
    xi: Fraction
    additivity_gap: Fraction   # |tau_{V1} - tau_{V0} - tau_{W0}|, exact
    monotone_margin: Fraction  # tau_{V1} - tau_{V0}, exact


def trace_split_check(phi_gen: GeneratorSet, psi_gen: GeneratorSet,
                      f: Sequence, grid: Iterable,
                      bits: int = DEFAULT_BITS) -> List[SplitRow]:
    """tau_{V_1,f} = tau_{V_0,f} + tau_{W_0,f} and tau_{V_0,f} <= tau_{V_1,f},
    with tau_{V_1,f} the exact coset sum of the dilation formula: the
    filter-free sum_d tau_{V_0,D_d* f}((xi + 2d)/a) = tau_{V_0,f} + tau_{W_0,f},
    exact on both sides (`dilation_trace_check` ties the coset sum to the
    genuine dilated generator set).  `bits` is kept for callers and not
    used."""
    phi_square, psi_square = phi_gen.spectral, psi_gen.spectral
    a = phi_gen.dilation
    m = abs(a)
    den, weights = _weights(f)
    cosets = _cosets(a, weights)
    # the rise over W scale_phi |a| q; the gap over W scale |a| q, scale the
    # lcm of the two squares' scales
    scale = math.lcm(phi_square.scale, psi_square.scale)
    phi_lift, psi_lift = scale // phi_square.scale, scale // psi_square.scale
    rows = []
    for xi in grid:
        xi = as_fraction(xi)
        p, q = xi.numerator, xi.denominator
        rise = _coset_sum(phi_square, a, cosets, p, q) - m * _tau(phi_square, weights, p, q)
        gap = rise * phi_lift - m * psi_lift * _tau(psi_square, weights, p, q)
        rows.append(SplitRow(xi, Fraction(abs(gap), den * scale * m * q),
                             Fraction(rise, den * phi_square.scale * m * q)))
    return rows


# -- sample grids -------------------------------------------------------------
# The points of `trace --grid auto` (`default_grid`, through
# `verification.family_grid`) and the benchmark's grids; no verdict of
# `check` reads a grid.


GRID_SEED = 0x5EED
_GRID_DEN = 5040


def _nonempty_hull(hull: Tuple[Fraction, Fraction]) -> Tuple[Fraction, Fraction]:
    """The hull itself, or [-1, 1) when it is empty."""
    lo, hi = hull
    return (lo, hi) if lo < hi else (Fraction(-1), Fraction(1))


def default_grid(breakpoints: Seq[Fraction], hull: Tuple[Fraction, Fraction],
                 n_random: int = 97, seed: int = GRID_SEED,
                 exclude: Iterable[Fraction] = ()) -> List[Fraction]:
    """Midpoints of every breakpoint gap plus seeded pseudo-random rationals
    in the hull; 0 and all breakpoints are excluded (measure-zero points).

    Every value is an integer over one denominator: D, the lcm of the
    breakpoint, hull and excluded denominators times 2 * _GRID_DEN, makes
    each midpoint and each draw lo + span * r / _GRID_DEN one as well."""
    lo, hi = (as_fraction(x) for x in _nonempty_hull(hull))
    breaks = [as_fraction(x) for x in breakpoints]
    excluded = [as_fraction(x) for x in exclude]
    den = math.lcm(lo.denominator, hi.denominator,
                   *(x.denominator for x in breaks + excluded)) * 2 * _GRID_DEN

    def scaled(x: Fraction) -> int:
        return x.numerator * (den // x.denominator)

    pts = sorted({scaled(x) for x in breaks})
    banned = set(pts) | {0} | {scaled(x) for x in excluded}
    grid = [mid for mid in ((p + q) // 2 for p, q in zip(pts, pts[1:]))
            if mid not in banned]
    lo_n = scaled(lo)
    step = (scaled(hi) - lo_n) // _GRID_DEN
    rng = random.Random(seed)
    taken = banned | set(grid)
    tries = 0
    added = 0
    while added < n_random and tries < 50 * n_random:
        tries += 1
        q = lo_n + step * rng.randrange(1, _GRID_DEN)
        if q in taken:
            continue
        taken.add(q)
        grid.append(q)
        added += 1
    return [Fraction(q, den) for q in sorted(grid)]


def grid_of_size(hull: Tuple[Fraction, Fraction], n: int,
                 seed: int = GRID_SEED,
                 exclude: Iterable[Fraction] = ()) -> List[Fraction]:
    """Exactly n distinct seeded rationals in the hull, excluding 0 and the
    given measure-zero points.  The candidates are lo + span r / M for
    r = 1..M-1, M = 64 _GRID_DEN; ValueError when fewer than n of them are
    left after the exclusions."""
    lo, hi = _nonempty_hull(hull)
    banned = {Fraction(0)} | {as_fraction(e) for e in exclude}
    span = hi - lo
    m = _GRID_DEN * 64
    # only a banned point on the candidate lattice takes a candidate away
    taken = sum(1 for b in banned if lo < b < hi and ((b - lo) * m / span).denominator == 1)
    if n > m - 1 - taken:
        raise ValueError(f"{n} grid points asked for; the hull holds "
                         f"{m - 1 - taken} candidates")
    rng = random.Random(seed)
    out: list[Fraction] = []
    seen = set()
    while len(out) < n:
        q = lo + span * Fraction(rng.randrange(1, m), m)
        if q in banned or q in seen:
            continue
        seen.add(q)
        out.append(q)
    return sorted(out)
