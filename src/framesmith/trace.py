"""Local trace calculus for shift-invariant spaces with bounded Fourier support.

Fibers T_per(phi)(xi) = (phi_hat(xi + 2k))_k are finitely supported because
profiles have bounded support; their entries are exact square roots
(k -> radicand).  Each local trace is a quadratic form of the fiber Gramian
G(xi)[k, l] = sum_phi phi_hat(xi + 2k) phi_hat(xi + 2l) (Bownik, J. Funct.
Anal. 177, 2000): tau_{V,f} = sum_phi |<f, T_per phi>|^2 = <G f, f> and
tau_{V,T} = trace(T G).  The traces, the NTF generator test and the series
identity all read G from `gram_row`, as exact SqrtSums compared through
outward-rounded intervals.

The `trace` CSV needs no fiber: its premise is that every profile's support
meets each residue class mod 2 at most once (as in every family the loader
accepts), so each fiber holds one entry and G(xi) is diagonal,
G[k, k] = S(xi + 2k) with S = sum_phi |phi_hat|^2.  Its columns are then the
piecewise-linear S, the periodization sum_k S(. + 2k) (the dimension
function) and tau_{V,f} = sum_{k in supp f} |f(k)|^2 S(. + 2k), built once
and read on one forward walk over the sorted grid (`diagonal_traces`, which
raises ValueError when the premise fails).

The dilated space D_a V is handled through its genuine generator set: the
|a| fractionally-translated dilates of each generator, whose Fourier
transforms carry unit phases e^{-i d xi / a}.  Those traces are enclosed with
rational-argument cos/sin intervals, keeping the coset-sum identity check
independent of the identity itself.  Each term's magnitude enclosure is
taken once per profile; only its phase is evaluated per translate.  The
additivity check reads tau_{V_1} off the exact coset sum instead, so each
point's dilated trace is enclosed once, by the coset-sum check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence as Seq, Tuple

from .folding import _repeated_residue, _shifts
from .numeric import DEFAULT_BITS, CInterval, FInterval
from .piecewise import GeneratorSet, SqrtProfile, _square_sum, _sum
from .rationals import as_fraction
from .roots import SqrtSum, _zero_status
from .sequences import CRat, Sequence, coset_op_adj

Fiber = Dict[int, Fraction]  # k -> radicand of the (nonnegative) entry


def fiber(profile: SqrtProfile, xi) -> Fiber:
    """Exact fiber of one profile: entry k has value sqrt(radicand)."""
    xi = as_fraction(xi)
    out: Fiber = {}
    for lo, hi, alpha, beta in profile.square.pieces:
        for k in _shifts(xi, lo, hi):
            r = alpha * (xi + 2 * k) + beta
            if r:
                out[k] = r
    return out


def gram_row(fibers: Iterable[Fiber], k: int) -> Dict[int, SqrtSum]:
    """Row k of the fiber Gramian: l -> G[k, l] = sum over the fibers of
    sqrt(r_k) sqrt(r_l), for the l that the fibers holding k hold (every
    other entry is 0).  Each product is one exact root sqrt(r_k r_l), the
    diagonal entry the rational sum of the r_k."""
    row: Dict[int, SqrtSum] = {}
    for fib in fibers:
        rk = fib.get(k)
        if rk is None:
            continue
        for l, rl in fib.items():
            g = SqrtSum.rational(rk) if l == k else SqrtSum.sqrt_of(rk * rl)
            row[l] = row[l] + g if l in row else g
    return row


def gram_diagonal(fibers: Iterable[Fiber]) -> Dict[int, Fraction]:
    """k -> G[k, k], the sum of the radicands r_k over the fibers."""
    diag: Dict[int, Fraction] = {}
    for fib in fibers:
        for k, r in fib.items():
            diag[k] = diag.get(k, 0) + r
    return diag


def _fibers(gen: GeneratorSet, xi) -> List[Fiber]:
    return [fiber(p, xi) for p in gen.profiles]


def restricted_trace(gen: GeneratorSet, f: Sequence, xi) -> SqrtSum:
    """tau_{V,f}(xi) = sum_phi |<f | T_per phi(xi)>|^2
    = sum_{k,l in supp f} Re(f(k) conj f(l)) G[k, l], exact."""
    fibers = _fibers(gen, xi)
    total = SqrtSum.zero()
    for k, fk in f.entries.items():
        for l, g in gram_row(fibers, k).items():
            fl = f.entries.get(l)
            if fl is not None:
                total = total + g.scale(fk.re * fl.re + fk.im * fl.im)
    return total


def diagonal_traces(gen: GeneratorSet, f: Sequence, grid: Seq[Fraction]
                    ) -> Tuple[List[Fraction], List[Fraction], List[Fraction]]:
    """The columns of the trace CSV at the ascending grid points, exact: the
    spectral function sum_phi |phi_hat|^2, the dimension function (the trace
    of G) and tau_{V,f}.

    Premise: every profile's support meets each residue class mod 2 at most
    once, so each fiber holds a single entry and G(xi) is diagonal with
    G[k, k] = S(xi + 2k), S = sum_phi |phi_hat|^2.  The three columns are then
    S, the periodization sum_k S(. + 2k) and sum_{k in supp f} |f(k)|^2
    S(. + 2k), piecewise linear, each read on one forward walk over the grid.
    A profile that repeats a residue raises ValueError naming it."""
    for i, p in enumerate(gen.profiles):
        cell = _repeated_residue(p.support())
        if cell is not None:
            raise ValueError(f"profile {i} meets the residue cell [{cell[0]}, "
                             f"{cell[1]}) {cell[2]} times mod 2; the trace CSV "
                             f"needs supports injective mod 2")
    square = _square_sum(gen.profiles)
    ks = range(0)
    if grid and square.pieces:
        # the k with S(xi + 2k) != 0 for some xi in [grid[0], grid[-1]]
        ks = range(math.ceil((square.pieces[0][0] - grid[-1]) / 2),
                   math.ceil((square.pieces[-1][1] - grid[0]) / 2))
    periodized = _sum([square.compose_shift(2 * k) for k in ks])
    weighted = _sum([square.compose_shift(2 * k).scale_value(v.abs2())
                     for k, v in f.entries.items()])
    return (square.eval_sorted(grid), periodized.eval_sorted(grid),
            weighted.eval_sorted(grid))


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


def operator_trace(gen: GeneratorSet, op: WindowOperator, xi) -> SqrtSum:
    """tau_{V,T}(xi) = sum_phi <T w | w> with w = T_per phi(xi): the window
    block sum_{i,j} T_ij G[k_i, k_j], plus G[k, k] outside the window under
    identity padding."""
    witness = op.psd_witness()
    if witness is not None:
        raise ValueError(f"operator not positive semidefinite; witness {witness}")
    fibers = _fibers(gen, xi)
    n = len(op.rows)
    total = SqrtSum.zero()
    for i, row in enumerate(op.rows):
        for k, g in gram_row(fibers, op.offset + i).items():
            j = k - op.offset
            if 0 <= j < n and row[j]:
                total = total + g.scale(row[j])
    if op.pad == "identity":
        for k, r in gram_diagonal(fibers).items():
            if not op.offset <= k < op.offset + n:
                total = total + SqrtSum.rational(r)
    return total


# -- dilated space ----------------------------------------------------------


def dilated_trace(gen: GeneratorSet, f: Sequence, xi,
                  bits: int = DEFAULT_BITS) -> FInterval:
    """tau_{D_a V, f}(xi) from the genuine NTF generator of the dilated
    space: the |a| fractional translates of each dilated generator, with
    Fourier phases e^{-i d (.)/a}.  Certified enclosure.

    Per profile, each term (argument, f(k), magnitude enclosure) is taken
    once; only the phase depends on the translate d."""
    xi = as_fraction(xi)
    a = gen.dilation
    inv_a = Fraction(1, abs(a))
    total = FInterval.ZERO
    for p in gen.profiles:
        # xi + 2k must land in a*domain
        terms = []
        for lo, hi in p.support().scale(a).pieces:
            for k in _shifts(xi, lo, hi):
                v = f.entries.get(k)
                if v is None:
                    continue
                arg = (xi + 2 * k) / a
                r = p.value_sq(arg)
                if r:
                    terms.append((arg, v, SqrtSum.sqrt_of(r * inv_a).enclosure(bits)))
        if not terms:
            continue
        for d in range(abs(a)):
            acc = CInterval.point(0)
            for arg, v, mag in terms:
                term = CInterval.unit_phase(d * arg, bits).scale_interval(mag)
                acc = acc + _times(term, v)
            total = total + acc.abs2()
    return total


def _times(z: CInterval, v: CRat) -> CInterval:
    """z * v for a Gaussian rational v.  A zero part of v contributes the
    exact interval [0, 0], which leaves every endpoint of the sum unchanged,
    so its products are skipped."""
    if not v.im:
        return CInterval(z.re.scale(v.re), z.im.scale(v.re))
    if not v.re:
        return CInterval(-z.im.scale(v.im), z.re.scale(v.im))
    return CInterval(z.re.scale(v.re) - z.im.scale(v.im),
                     z.re.scale(v.im) + z.im.scale(v.re))


def dilation_coset_sum(gen: GeneratorSet, f: Sequence, xi) -> SqrtSum:
    """Right side of the dilation formula:
    sum_d tau_{V, D_d* f}((xi + 2d)/a), exact."""
    xi = as_fraction(xi)
    a = gen.dilation
    total = SqrtSum.zero()
    for d in range(abs(a)):
        fd = coset_op_adj(a, d, f)
        if fd.is_zero():
            continue
        total = total + restricted_trace(gen, fd, (xi + 2 * d) / Fraction(a))
    return total


@dataclass(frozen=True)
class GridRow:
    xi: Fraction
    discrepancy: Fraction  # certified upper bound on |lhs - rhs|


def dilation_trace_check(gen: GeneratorSet, f: Sequence, grid: Iterable,
                         bits: int = DEFAULT_BITS) -> List[GridRow]:
    """Certified |tau_{D_aV,f}(xi) - sum_d tau_{V,D_d*f}((xi+2d)/a)| per point."""
    rows = []
    for xi in grid:
        xi = as_fraction(xi)
        lhs = dilated_trace(gen, f, xi, bits)
        rhs = dilation_coset_sum(gen, f, xi).enclosure(bits)
        rows.append(GridRow(xi, (lhs - rhs).sup_abs()))
    return rows


# -- cross-generator consistency (NTF generator test) -----------------------


ALPHAS: Tuple[CRat, ...] = (CRat.of(0), CRat.of(1), CRat.of(0, 1))


@dataclass(frozen=True)
class GeneratorTestRow:
    xi: Fraction
    l: int
    alpha: CRat
    verdict: str           # pass | fail | uncertain
    residual: float


def ntf_generator_test(gen: GeneratorSet, reference: GeneratorSet,
                       grid: Iterable, bits: int = DEFAULT_BITS
                       ) -> List[GeneratorTestRow]:
    """Check sum_phi |phi_hat(xi) + conj(alpha) phi_hat(xi+2l)|^2 against the
    restricted trace at delta_0 + alpha*delta_l computed from the reference
    generator set of the same space, for alpha in {0, 1, i} and 0 < |l| <= L.
    The profiles are real, so the left side is that trace for `gen`.

    Both sides come from the expansion
    sum_phi |sqrt(r_0) + alpha sqrt(r_l)|^2 = G[0, 0] + |alpha|^2 G[l, l]
      + 2 Re(alpha) G[0, l],
    G the fiber Gramian at xi: per xi its row 0 and its diagonal are taken
    once.  The rows are equal to those of the direct form, which builds the
    sequence and its fiber inner products for every (xi, l, alpha)."""
    lo1, hi1 = gen.support_hull()
    lo2, hi2 = reference.support_hull()
    radius = max(abs(x) for x in (lo1, hi1, lo2, hi2)) or Fraction(1)
    l_window = int(radius) + 1
    alphas = [(alpha, alpha.abs2(), 2 * alpha.re) for alpha in ALPHAS]
    zero = SqrtSum.zero()
    rows: List[GeneratorTestRow] = []
    for xi in grid:
        xi = as_fraction(xi)
        fibers, ref_fibers = _fibers(gen, xi), _fibers(reference, xi)
        diag, ref_diag = gram_diagonal(fibers), gram_diagonal(ref_fibers)
        row, ref_row = gram_row(fibers, 0), gram_row(ref_fibers, 0)
        r0 = diag.get(0, 0) - ref_diag.get(0, 0)
        for l in range(-l_window, l_window + 1):
            if l == 0:
                continue
            rl = diag.get(l, 0) - ref_diag.get(l, 0)
            root_l = row.get(l, zero) - ref_row.get(l, zero)
            for alpha, norm2, twice_re in alphas:
                diff = SqrtSum.rational(r0 + norm2 * rl) + root_l.scale(twice_re)
                rows.append(GeneratorTestRow(
                    xi, l, alpha, _zero_status(diff, bits),
                    abs(float(diff.enclosure(bits).mid()))))
    return rows


# -- scaling/wavelet series identity ----------------------------------------


@dataclass(frozen=True)
class SeriesRow:
    xi: Fraction
    s: int
    residual: SqrtSum

    def verdict(self, bits: int = DEFAULT_BITS) -> str:
        return _zero_status(self.residual, bits)


def series_identity_check(phi_gen: GeneratorSet, psi_gen: GeneratorSet,
                          s: int, grid: Iterable) -> List[SeriesRow]:
    """Residual of
    sum_{j>=1} sum_psi psi_hat(a^j xi) conj(psi_hat(a^j (xi+2s)))
      = sum_phi phi_hat(xi) conj(phi_hat(xi+2s)),
    exact: bounded supports make the j-sum finite.  Each term is an entry of
    row 0 of a fiber Gramian: sum_psi psi_hat(x) psi_hat(x + 2m) = G(x)[0, m]
    with x = a^j xi and m = a^j s."""
    a = psi_gen.dilation
    lo, hi = psi_gen.support_hull()
    radius = max(abs(lo), abs(hi))
    zero = SqrtSum.zero()
    rows: List[SeriesRow] = []
    for xi in grid:
        xi = as_fraction(xi)
        left = SqrtSum.zero()
        j = 1
        while True:
            scale = Fraction(a) ** j
            x, y = scale * xi, scale * (xi + 2 * s)
            inside = (xi != 0 and abs(x) <= radius) or \
                     (xi + 2 * s != 0 and abs(y) <= radius)
            if not inside:
                break
            left = left + gram_row(_fibers(psi_gen, x), 0).get(a ** j * s, zero)
            j += 1
        right = gram_row(_fibers(phi_gen, xi), 0).get(s, zero)
        rows.append(SeriesRow(xi, s, left - right))
    return rows


# -- additivity / monotonicity ----------------------------------------------


@dataclass(frozen=True)
class SplitRow:
    xi: Fraction
    additivity_gap: Fraction   # certified bound on |tau_{V1} - tau_{V0} - tau_{W0}|
    monotone_margin: Fraction  # certified lower bound on tau_{V1} - tau_{V0}


def trace_split_check(phi_gen: GeneratorSet, psi_gen: GeneratorSet,
                      f: Sequence, grid: Iterable,
                      bits: int = DEFAULT_BITS) -> List[SplitRow]:
    """tau_{V_1,f} = tau_{V_0,f} + tau_{W_0,f} and tau_{V_0,f} <= tau_{V_1,f},
    with tau_{V_1,f} the exact coset sum of the dilation formula: the
    filter-free sum_d tau_{V_0,D_d* f}((xi + 2d)/a) = tau_{V_0,f} + tau_{W_0,f},
    exact on both sides (`dilation_trace_check` ties the coset sum to the
    genuine dilated generator set)."""
    rows = []
    for xi in grid:
        xi = as_fraction(xi)
        rise = dilation_coset_sum(phi_gen, f, xi) - restricted_trace(phi_gen, f, xi)
        gap = (rise - restricted_trace(psi_gen, f, xi)).enclosure(bits).sup_abs()
        rows.append(SplitRow(xi, gap, rise.enclosure(bits).lo))
    return rows


# -- verification grid policy ------------------------------------------------


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
    given measure-zero points."""
    lo, hi = _nonempty_hull(hull)
    banned = {Fraction(0)} | {as_fraction(e) for e in exclude}
    rng = random.Random(seed)
    span = hi - lo
    out: list[Fraction] = []
    seen = set()
    while len(out) < n:
        q = lo + span * Fraction(rng.randrange(1, _GRID_DEN * 64), _GRID_DEN * 64)
        if q in banned or q in seen:
            continue
        seen.add(q)
        out.append(q)
    return sorted(out)
