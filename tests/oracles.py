"""Independent oracles for the quadrature, trace and wavelet-set checks.

Quadrature: a factor is a pair (pwl, is_sqrt): pwl(u) itself, or
sqrt(max(pwl(u), 0)).  Both quadrature oracles integrate
prod factor(u) * e^{i c u} du by sampling, with no closed form, so they check
the quadrature module from outside.  The cell oracles integrate a plan's
closed-form cells one by one from their moments, term by term, where the
plan takes whole-array passes over all its cells of a kind.
`integrate_per_call` is `QuadPlan.integrate` with nothing kept between
calls, which the plan's kept phase tables and in-place passes must equal
exactly.

Trace: the fibers of a profile, and the direct forms of the restricted,
operator and dilated traces, of the coset sum of the dilation formula (one
direct restricted trace per coset sequence), of the trace split, of the
pairing sum_p p_hat(x) p_hat(y) with the series rows built from it, and of
the NTF generator test, which recompute every magnitude, root and fiber
inner product where it is used, for any generator set.  The library reads
the traces, the generator test and the series identity off the diagonal
Gramian S(xi + 2k) of supports injective mod 2, as integer numerators over
one denominator per point, and sums the dilated trace on integers over one
denominator from terms taken once; its results must be equal to these, down
to each Fraction, float residual and Fraction endpoint.  The direct dilated
trace runs on `CInterval`, rectangular complex intervals over `FInterval`,
with the interval product and square kept here.

Trace CSV: the spectral and dimension functions point by point, from the
profile values and the fibers, which the CSV reads off the diagonal Gramian.

Grid and norm sum: the verification grid on Fractions; the norm sum's
per-point depth rule (`tail_at`, with the telescoped partial sum it bounds
in `partial_at`), of which the library reports the supremum over all
xi != 0; and the sufficiency meta check as a second NTF run on the scaling
square sum, which the library now adds from the rows that prove it.

Translation fold: the Fraction chunks of a set in the windows it meets,
which `fold_chunks` takes on the set's integer grid; the chunk-by-chunk
overlay, one cell per window a piece meets, that `per_multiplicity`
replaces by one weighted pair for the full windows inside each piece; and
the boundary-by-chunk loop that `layered_partition` replaces by a bitmask
overlay.  Each sweeps Fractions, with `overlay_oracle`.

Point reads: the Fraction lookups by bisection on the piece starts, for the
value and the limit from below, that `eval` and `eval_left` run on the
integer form of a function.  Canonical pieces: the Fraction sort, overlap
check and merge that `PiecewiseLinear.parse` runs on integers, and the
Fraction sort and merge of interval pieces (`_canonicalize`, with
`set_oracle`) that `IntervalSet.parse` runs on integers.

Refinement: the loops that `piecewise.refine` and `intervals._overlay`
replace -- the cut-and-look-up sum, the Fraction sum on the sweep that the
integer `_sum` replaces, the piece-by-piece restriction and
intersection, the merge difference, the cut loop of product integrals and
of the quadrature cells.  Each rebuilds the breakpoint set and finds the
pieces of a cell by bisection.  The library runs the sweeps on integers over
common denominators; the Fraction forms of the endpoint sweep, the
quadrature cell and the break terms are kept here.

Wavelet sets: the windowed dilation overlay, the scale-gap loop and the
membership test that the dilation fold replaces, and the seed classifier
with its own containment and straddle tests in place of the admissibility
check on chi_E.  Each looks at finitely
many scales only: the overlay at |j| <= j_range inside [-W, W] minus a
central hole, the loop at gaps up to a bound read off the hulls, and the
membership test at j <= 40, so they agree with the fold on sets whose
scales sit well inside those ranges.
"""

import bisect
import copy
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from operator import itemgetter

import numpy as np

from framesmith.construction import Check, SeedClassification, require_dilation
from framesmith.folding import FoldedMultiplicity, per_multiplicity
from framesmith.intervals import IntervalSet
from framesmith.numeric import DEFAULT_BITS, FInterval, cos_pi, sin_pi
from framesmith.piecewise import PiecewiseLinear, _linear_product, refine
from framesmith.quadrature import (_FRESNEL_INF, _SERIES_PHASE, FreqRun, _Cell, _fresnel_tail,
                                   _pow_diff, _series_prefix)
from framesmith.rationals import as_fraction
from framesmith.roots import SqrtSum
from framesmith.sequences import Sequence, coset_op_adj
from framesmith.trace import (ALPHAS, GRID_SEED, _GRID_DEN, GeneratorTestRow,
                              SeriesRow, SplitRow, _nonempty_hull)
from framesmith.verification import TAIL_TARGET, check_ntf_multiwavelet

# Graded Gauss-Legendre panels.  Gauss panels converge only as O(h^{3/2}) at
# a square-root singularity; geometric grading toward a vanishing radicand
# rescues that, and capping the panel length against |c| resolves the
# oscillation.
_GL_ORDER = 24
_PHASE_PER_PANEL = 16.0     # |c| * length per panel; GL-24 resolves this to ~1e-13
_GRADE_DEPTH = 30           # geometric grading levels toward a singular end


def _values(factors, xs):
    """prod factor(xs), each factor a (pwl, is_sqrt) pair."""
    base = np.ones_like(xs)
    for pwl, is_sqrt in factors:
        vals = np.zeros_like(xs)
        for lo, hi, a, b in pwl.pieces:
            m = (xs >= float(lo)) & (xs < float(hi))
            vals[m] = float(a) * xs[m] + float(b)
        base *= np.sqrt(np.maximum(vals, 0.0)) if is_sqrt else vals
    return base


def riemann_oracle(factors, c: float, n: int = 100_000) -> complex:
    """Brute-force midpoint Riemann sum over the joint support."""
    support = factors[0][0].support()
    for pwl, _ in factors[1:]:
        support = support.intersect(pwl.support())
    total = 0.0 + 0.0j
    for lo, hi in support.pieces:
        flo, fhi = float(lo), float(hi)
        xs = np.linspace(flo, fhi, n, endpoint=False) + (fhi - flo) / (2 * n)
        total += np.sum(_values(factors, xs) * np.exp(1j * c * xs)) * (fhi - flo) / n
    return total


def radicand_zeros(square):
    """The piece ends where the varying pieces of a radicand vanish."""
    return [x for lo, hi, a, b in square.pieces if a
            for x in (lo, hi) if a * x + b == 0]


def _graded_panels(lo, hi, sing_lo, sing_hi, max_len):
    """Split [lo, hi] with geometric grading toward singular ends and a cap
    on panel length."""
    length = hi - lo
    points = {lo, hi}
    if sing_lo:
        points.update(lo + length * 0.5 ** d for d in range(1, _GRADE_DEPTH))
    if sing_hi:
        points.update(hi - length * 0.5 ** d for d in range(1, _GRADE_DEPTH))
    points = sorted(points)
    panels = []
    for a, b in zip(points, points[1:]):
        n = max(1, math.ceil((b - a) / max_len))
        step = (b - a) / n
        panels.extend((a + i * step, a + (i + 1) * step) for i in range(n))
    return panels


def gl_reference(factors, c: float) -> complex:
    """Graded Gauss-Legendre panels between consecutive breakpoints of the
    factors, refined for |c|."""
    zeros = {float(z) for pwl, is_sqrt in factors if is_sqrt
             for z in radicand_zeros(pwl)}
    cuts = sorted({float(x) for pwl, _ in factors for x in pwl.breakpoints()})
    xs, ws = np.polynomial.legendre.leggauss(_GL_ORDER)
    total = 0j
    for lo, hi in zip(cuts, cuts[1:]):
        max_len = max((hi - lo) * 2.0 ** (1 - _GRADE_DEPTH),
                      _PHASE_PER_PANEL / max(abs(c), 1.0))
        for a, b in _graded_panels(lo, hi, lo in zeros, hi in zeros, max_len):
            nodes = 0.5 * (b - a) * xs + 0.5 * (a + b)
            total += np.sum(0.5 * (b - a) * ws * _values(factors, nodes)
                            * np.exp(1j * c * nodes))
    return total


# -- quadrature cells one at a time ---------------------------------------------


def moments_oracle(nu, degree, s0, s1, length, w, e0, e1):
    """e^{i theta} J_{m+nu}(w), J_p(w) = int_{s0}^{s1} s^p e^{iws} ds, for
    m = 0..degree and each w, 0 <= s0 < s1 = s0 + length, given the end
    phases e_k = e^{i (theta + w s_k)}; array (degree + 1, len(w)).  One
    cell: the power series term by term for |w| s1 <= _SERIES_PHASE, each
    term bounded relative to the moment, else the upward recurrence from the
    elementary (nu = 0) or Fresnel (nu = 1/2) base integral."""
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
        out[:, small] = acc
    big = ~small
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


def cell_sum_oracle(cells, freqs):
    """The integrals of QuadPlan cells summed at each frequency, each cell
    from its own moments, with its end phases e^{i c x} taken directly."""
    out = np.zeros(len(freqs), dtype=complex)
    for cell in cells:
        e0, e1 = (np.exp(1j * freqs * x) for x in cell.ends)
        mom = moments_oracle(cell.nu, len(cell.coeffs) - 1, cell.s0, cell.s1,
                             cell.length, cell.sign * freqs, e0, e1)
        out += cell.scale * (cell.coeffs @ mom)
    return out


def head_cells_oracle(plan, run):
    """A QuadPlan's polynomial cells summed one by one at the head of a
    FreqRun: its prefix of frequencies c with |c| * ell_min <= _SERIES_PHASE,
    ell_min the length of the shortest polynomial cell."""
    polys = [cell for cell in plan.closed if not cell.nu]
    freqs = run.freqs()
    ell_min = min((cell.length for cell in polys), default=math.inf)
    return cell_sum_oracle(polys, freqs[np.abs(freqs) * ell_min <= _SERIES_PHASE])


def rooted_cells_oracle(plan, run):
    """A QuadPlan's rooted (nu = 1/2) cells summed one by one at each
    frequency of a FreqRun."""
    return cell_sum_oracle([cell for cell in plan.closed if cell.nu], run.freqs())


class _TablesPerCall:
    """FreqRun.tables at fixed points, taken on every call: a plan's
    _Phases with nothing kept."""

    def __init__(self, xs):
        self.xs = xs

    def tables(self, run):
        return run.tables(self.xs)


def _batch_per_call(batch, run, freqs, inv):
    """A plan's _Batch over the run, its tables taken on the call."""
    fresh = copy.copy(batch)
    fresh._phases = _TablesPerCall(batch.points)
    return fresh.integrate(run, freqs, inv)


def _break_sum_per_call(plan, run, inv):
    """A plan's break sum past the head, its tables taken on the call and
    Horner's rule on new arrays."""
    lead, coarse, fine = run.tables(plan._xs)
    weighted = (plan._weights * lead)[:, None, :] * coarse
    sums = (weighted @ fine).reshape(len(plan._weights), -1)[:, run.n - len(inv):run.n]
    acc = sums[-1]
    for row in sums[-2::-1]:
        acc = row + inv * acc
    return inv * acc


def integrate_per_call(plan, run):
    """QuadPlan.integrate with nothing kept between calls: the tables of
    FreqRun.tables on every call, a zero-filled output that each path adds
    into, 1/c by a masked divide at every k0, and Horner's rule on new
    arrays.  The plan keeps its tables per unit and runs in place; its
    values must equal these exactly."""
    freqs = run.freqs()
    inv = np.divide(1.0, freqs, out=np.zeros(run.n), where=freqs != 0)
    out = (_batch_per_call(plan._rooted, run, freqs, inv) if plan._rooted
           else np.zeros(run.n, dtype=complex))
    if plan._polys:
        n_head = _series_prefix(freqs, plan._ell_min)
        if n_head < run.n:
            out[n_head:] += _break_sum_per_call(plan, run, inv[n_head:])
        if n_head:
            out[:n_head] += _batch_per_call(plan._polys, FreqRun(run.k0, n_head, run.unit),
                                            freqs[:n_head], inv[:n_head])
    return out


def _shifts(xi, lo, hi) -> range:
    """The k with lo <= xi + 2k < hi, on Fractions."""
    return range(math.ceil((lo - xi) / 2), math.ceil((hi - xi) / 2))


def fiber(profile, xi) -> dict:
    """Exact fiber of one profile at xi: k -> the radicand r of its nonzero
    entry sqrt(r) = profile_hat(xi + 2k)."""
    xi = as_fraction(xi)
    out = {}
    for lo, hi, alpha, beta in profile.square.pieces:
        for k in _shifts(xi, lo, hi):
            r = alpha * (xi + 2 * k) + beta
            if r:
                out[k] = r
    return out


def gram_diagonal(fibers) -> dict:
    """k -> G[k, k], the sum of the radicands r_k over the fibers."""
    diag = {}
    for fib in fibers:
        for k, r in fib.items():
            diag[k] = diag.get(k, 0) + r
    return diag


def _zero_status(value: SqrtSum, bits: int = DEFAULT_BITS) -> str:
    """Check status of a value that should vanish: 'pass' when it is exactly
    zero, 'fail' when its sign is certified, 'uncertain' otherwise."""
    return {"zero": "pass", "uncertain": "uncertain"}.get(
        value.sign_verdict(bits), "fail")


def spectral_function(gen, xi) -> Fraction:
    """tau at delta_0: sum_phi |phi_hat(xi)|^2, one profile value at a time."""
    return sum((p.value_sq(xi) for p in gen.profiles), Fraction(0))


def dimension_function(gen, xi) -> Fraction:
    """Trace of the fiber Gramian: sum_phi ||T_per phi(xi)||^2, from the
    fibers, for any generator set."""
    return sum(gram_diagonal([fiber(p, xi) for p in gen.profiles]).values(),
               Fraction(0))


def fiber_inner_abs2(f, fib) -> SqrtSum:
    """|<f | fiber>|^2 from the exact real and imaginary parts of
    <f | fiber> = sum_k f(k) sqrt(r_k)."""
    re = im = SqrtSum.zero()
    for k, v in f.entries.items():
        r = fib.get(k)
        if r is None:
            continue
        root = SqrtSum.sqrt_of(r)
        re = re + root.scale(v.re)
        im = im + root.scale(v.im)
    return re * re + im * im


def restricted_trace_direct(gen, f, xi) -> SqrtSum:
    """tau_{V,f}(xi) = sum_phi |<f | T_per phi(xi)>|^2, one inner product
    per fiber."""
    return sum((fiber_inner_abs2(f, fiber(p, xi)) for p in gen.profiles),
               SqrtSum.zero())


def dilation_coset_sum_direct(gen, f, xi) -> SqrtSum:
    """The right side of the dilation formula, sum_d tau_{V, D_d* f}((xi + 2d)/a),
    one direct restricted trace of each coset sequence D_d* f at its point."""
    a, xi = gen.dilation, as_fraction(xi)
    return sum((restricted_trace_direct(gen, coset_op_adj(a, d, f), (xi + 2 * d) / a)
                for d in range(abs(a))), SqrtSum.zero())


def trace_split_direct(phi_gen, psi_gen, f, grid) -> list:
    """The rows of the trace split from the direct forms: tau_{V_1} the
    direct coset sum, tau_{V_0} and tau_{W_0} direct restricted traces."""
    rows = []
    for xi in map(as_fraction, grid):
        rise = (dilation_coset_sum_direct(phi_gen, f, xi)
                - restricted_trace_direct(phi_gen, f, xi)).rational_value()
        gap = rise - restricted_trace_direct(psi_gen, f, xi).rational_value()
        rows.append(SplitRow(xi, abs(gap), rise))
    return rows


def series_identity_direct(phi_gen, psi_gen, s, grid, scales=80) -> list:
    """The series rows from the pairing sums sum_p p_hat(x) p_hat(y) of the
    scales j = 1..scales-1 against that of the scaling set; at points in
    the psi hull, a^j xi has left it long before j = scales."""
    a = psi_gen.dilation
    rows = []
    for xi in map(as_fraction, grid):
        left = sum((pair_sum(psi_gen.profiles, a ** j * xi, a ** j * (xi + 2 * s))
                    for j in range(1, scales)), SqrtSum.zero())
        right = pair_sum(phi_gen.profiles, xi, xi + 2 * s)
        rows.append(SeriesRow(xi, s, (left - right).rational_value()))
    return rows


def operator_trace_direct(gen, op, xi) -> SqrtSum:
    """sum_phi <T w | w> with w = T_per phi(xi), one product of roots per
    window entry, plus the fiber entries outside the window under identity
    padding."""
    n = len(op.rows)
    total = SqrtSum.zero()
    for p in gen.profiles:
        fib = fiber(p, xi)
        roots = {k: SqrtSum.sqrt_of(r) for k, r in fib.items()}
        for i in range(n):
            for j in range(n):
                ki, kj = op.offset + i, op.offset + j
                if ki in roots and kj in roots and op.rows[i][j]:
                    total = total + (roots[ki] * roots[kj]).scale(op.rows[i][j])
        if op.pad == "identity":
            for k, r in fib.items():
                if not op.offset <= k < op.offset + n:
                    total = total + SqrtSum.rational(r)
    return total


def pair_sum(profiles, x, y) -> SqrtSum:
    """sum_p p_hat(x) * p_hat(y), exact, from the profile values."""
    total = SqrtSum.zero()
    for p in profiles:
        rx, ry = p.value_sq(x), p.value_sq(y)
        if rx and ry:
            total = total + SqrtSum.sqrt_of(rx) * SqrtSum.sqrt_of(ry)
    return total


def interval_mul(x: FInterval, y: FInterval) -> FInterval:
    """The product interval: the least and largest of the four endpoint
    products."""
    cands = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    return FInterval(min(cands), max(cands))


def interval_square(x: FInterval) -> FInterval:
    """{t^2 : t in x}, which starts at 0 when x straddles 0."""
    if x.lo >= 0:
        return FInterval(x.lo * x.lo, x.hi * x.hi)
    if x.hi <= 0:
        return FInterval(x.hi * x.hi, x.lo * x.lo)
    return FInterval(Fraction(0), max(x.lo * x.lo, x.hi * x.hi))


@dataclass(frozen=True)
class CInterval:
    """Rectangular complex interval."""

    re: FInterval
    im: FInterval

    @staticmethod
    def point(re, im=0) -> "CInterval":
        return CInterval(FInterval.point(re), FInterval.point(im))

    @staticmethod
    def unit_phase(q, bits: int = DEFAULT_BITS) -> "CInterval":
        """Enclosure of e^{i*pi*q} for rational q."""
        return CInterval(cos_pi(q, bits), sin_pi(q, bits))

    def __add__(self, other: "CInterval") -> "CInterval":
        return CInterval(self.re + other.re, self.im + other.im)

    def scale_interval(self, f: FInterval) -> "CInterval":
        return CInterval(interval_mul(self.re, f), interval_mul(self.im, f))

    def abs2(self) -> FInterval:
        return interval_square(self.re) + interval_square(self.im)


def dilated_trace_direct(gen, f, xi, bits=DEFAULT_BITS) -> FInterval:
    """tau_{D_a V, f}(xi) with every term recomputed for each of the |a|
    fractional translates d."""
    xi = as_fraction(xi)
    a = gen.dilation
    inv_a = Fraction(1, abs(a))
    total = FInterval.ZERO
    for p in gen.profiles:
        ks = [k for lo, hi in p.support().scale(a).pieces
              for k in _shifts(xi, lo, hi)]
        for d in range(abs(a)):
            acc = CInterval.point(0)
            for k in ks:
                arg = (xi + 2 * k) / a
                r = p.value_sq(arg)
                if not r:
                    continue
                v = f.entries.get(k)
                if v is None:
                    continue
                mag = SqrtSum.sqrt_of(r * inv_a).enclosure(bits)
                phase = CInterval.unit_phase(Fraction(d) * arg, bits)
                term = phase.scale_interval(mag)
                acc = acc + CInterval(
                    term.re.scale(v.re) - term.im.scale(v.im),
                    term.re.scale(v.im) + term.im.scale(v.re))
            total = total + acc.abs2()
    return total


def ntf_generator_test_direct(gen, reference, grid, bits=DEFAULT_BITS):
    """The NTF generator test from the restricted trace at
    delta_0 + alpha*delta_l, one fiber inner product per fiber and row."""
    lo1, hi1 = gen.support_hull()
    lo2, hi2 = reference.support_hull()
    radius = max(abs(x) for x in (lo1, hi1, lo2, hi2)) or Fraction(1)
    l_window = int(radius) + 1
    rows = []
    for xi in grid:
        xi = as_fraction(xi)
        fibers = [fiber(p, xi) for p in gen.profiles]
        ref_fibers = [fiber(p, xi) for p in reference.profiles]
        for l in range(-l_window, l_window + 1):
            if l == 0:
                continue
            for alpha in ALPHAS:
                f = Sequence.delta(0) + Sequence.delta(l, alpha)
                lhs, rhs = (sum((fiber_inner_abs2(f, fib) for fib in fibs),
                                SqrtSum.zero()) for fibs in (fibers, ref_fibers))
                diff = lhs - rhs
                rows.append(GeneratorTestRow(
                    xi, l, alpha, _zero_status(diff, bits),
                    abs(float(diff.enclosure(bits).mid()))))
    return rows


# -- grid and norm sum over Fractions --------------------------------------------


def default_grid_fractions(breakpoints, hull, n_random=97, seed=GRID_SEED,
                           exclude=()):
    """The verification grid with every midpoint, draw and set test on
    Fractions."""
    pts = sorted(set(breakpoints))
    banned = set(pts) | {Fraction(0)} | {as_fraction(e) for e in exclude}
    grid = []
    for lo, hi in zip(pts, pts[1:]):
        mid = (lo + hi) / 2
        if mid not in banned:
            grid.append(mid)
    lo, hi = _nonempty_hull(hull)
    rng = random.Random(seed)
    span = hi - lo
    taken = banned | set(grid)
    tries = added = 0
    while added < n_random and tries < 50 * n_random:
        tries += 1
        q = lo + span * Fraction(rng.randrange(1, _GRID_DEN), _GRID_DEN)
        if q in taken:
            continue
        taken.add(q)
        grid.append(q)
        added += 1
    return sorted(set(grid))


def _first_power(base, bound) -> int:
    """The least n >= 0 with base**n >= bound, by repeated multiplication."""
    target = -(-bound.numerator // bound.denominator)
    n, power = 0, 1
    while power < target:
        n, power = n + 1, power * base
    return n


def zero_line(sigma):
    """(clearance, slope) of sigma at 0 on its Fraction pieces: the distance
    from 0 to the nearest nonzero end of the pieces touching 0, inside which
    sigma is one line on each side, and the largest |alpha| of those pieces."""
    touching = [piece for piece in sigma.pieces if piece[0] <= 0 <= piece[1]]
    return (min(abs(x) for lo, hi, _, _ in touching for x in (lo, hi) if x),
            max(abs(alpha) for _, _, alpha, _ in touching))


def inward_depth(family, xi) -> int:
    """J(xi): the least J >= 0 with a^{-J-1} xi strictly inside sigma's
    0-clearance and slope |xi| / |a|^(J+1) at most TAIL_TARGET."""
    clearance, slope = zero_line(family.sigma)
    xi = abs(as_fraction(xi))
    return max(_first_power(abs(family.dilation),
                            max(xi // clearance + 1, slope * xi / TAIL_TARGET)) - 1, 0)


def tail_at(family, xi) -> Fraction:
    """The norm sum's truncation tail slope |xi| / |a|^(J+1) at xi != 0 and
    its inward depth J = `inward_depth`: the per-point rule of which
    `check_ntf_multiwavelet` reports the supremum over all xi != 0."""
    _, slope = zero_line(family.sigma)
    return slope * abs(as_fraction(xi)) / abs(family.dilation) ** (inward_depth(family, xi) + 1)


def partial_at(family, xi) -> Fraction:
    """The telescoped partial sum sigma(a^{-J-1} xi) - sigma(a^Jout xi) of the
    scale sum at xi != 0, J = `inward_depth` and Jout the least with a^Jout xi
    beyond the psi hull, on Fractions: within `tail_at` of 1."""
    xi = as_fraction(xi)
    a, sigma = Fraction(family.dilation), family.sigma
    lo, hi = family.generator_set().support_hull()
    radius = max(abs(lo), abs(hi), Fraction(1))
    Jout = _first_power(abs(a), Fraction(radius // abs(xi) + 1))
    return (eval_oracle(sigma, xi / a ** (inward_depth(family, xi) + 1))
            - eval_oracle(sigma, xi * a ** Jout))


def norm_sum_oracle(family, telescopes) -> list:
    """The norm_sum rows of `check_ntf_multiwavelet`: a fail at 0 unless both
    one-sided limits of sigma at 0 are 1, no row when the squares do not
    telescope, and otherwise a pass whose tail bound is the supremum of
    `tail_at` over all xi != 0: TAIL_TARGET when sigma slopes at 0, 0 when
    it is flat there."""
    sigma = family.sigma
    touches = any(lo <= 0 <= hi for lo, hi, _, _ in sigma.pieces)
    if not touches or eval_left_oracle(sigma, 0) != 1 or eval_oracle(sigma, 0) != 1:
        return [Check("norm_sum", "fail", {"xi": Fraction(0)},
                      detail="sigma does not tend to 1 at 0")]
    if not telescopes:
        return []
    return [Check("norm_sum", "pass",
                  tail_bound=TAIL_TARGET if zero_line(sigma)[1] else Fraction(0),
                  detail=("the scale sum is 1 for all xi != 0; truncated at the "
                          "inward depth J(xi), its tail is at most tail_bound "
                          "at every xi != 0"))]


def meta_ntf_oracle(phi_fam, psi_fam):
    """The sufficiency meta check as `check_suites` once ran it: the NTF
    characterization of the wavelets with sigma replaced by the scaling
    square sum."""
    return check_ntf_multiwavelet(
        replace(psi_fam, sigma=phi_fam.generator_set().spectral))


def fold_chunks_oracle(K):
    """(lo, hi, k), sorted: the part of each piece of K in each window
    [2k - 1, 2k + 1) it meets, moved by -2k, on Fractions."""
    return sorted((max(lo, 2 * k - 1) - 2 * k, min(hi, 2 * k + 1) - 2 * k, k)
                  for lo, hi in K.pieces
                  for k in range(math.floor((lo + 1) / 2), math.ceil((hi + 1) / 2)))


def per_multiplicity_chunks(K) -> FoldedMultiplicity:
    """The multiplicity of chi_K on [-1, 1) from one overlay pair per chunk
    of K in a window [2k - 1, 2k + 1), on the Fraction sweep, in the
    integer form over the least denominator of its cells."""
    cells = overlay_oracle([(lo, hi) for lo, hi, _ in fold_chunks_oracle(K)])
    den = math.lcm(*(x.denominator for cell in cells for x in cell[:2]))
    return FoldedMultiplicity(den, tuple((int(lo * den), int(hi * den), c)
                                         for lo, hi, c in cells))


def layered_partition_oracle(K):
    """The layers of K from every boundary cell of its chunks: the i-th
    smallest window k whose chunk covers a cell goes to layer i."""
    chunks = fold_chunks_oracle(K)
    boundaries = sorted({x for lo, hi, _ in chunks for x in (lo, hi)})
    layers = []
    for clo, chi in zip(boundaries, boundaries[1:]):
        ks = sorted(k for lo, hi, k in chunks if lo <= clo and chi <= hi)
        for i, k in enumerate(ks):
            while len(layers) <= i:
                layers.append([])
            layers[i].append((clo + 2 * k, chi + 2 * k))
    return [set_oracle(pieces) for pieces in layers]


# -- refinement ----------------------------------------------------------------


def _canonicalize(pairs):
    """The canonical Fraction pieces of (lo, hi) pairs: sorted, empty pairs
    dropped, overlapping and touching ones merged.  `IntervalSet.parse` does
    this on integers."""
    pieces = sorted((lo, hi) for lo, hi in pairs if lo < hi)
    merged = []
    for lo, hi in pieces:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def set_oracle(pairs) -> IntervalSet:
    """The set of (lo, hi) Fraction pairs, put in canonical form on
    Fractions."""
    return IntervalSet.of(*_canonicalize(pairs))


def _canonical_pieces(pieces):
    """The canonical Fraction pieces of (lo, hi, alpha, beta) pieces: sorted,
    empty and zero pieces dropped, touching pieces with one line merged;
    ValueError at the first overlap.  `PiecewiseLinear.parse` does this on
    integers."""
    kept = [(lo, hi, a, b) for lo, hi, a, b in pieces
            if lo < hi and not (a == 0 and b == 0)]
    kept.sort()
    for i in range(1, len(kept)):
        if kept[i][0] < kept[i - 1][1]:
            raise ValueError(f"overlapping pieces at {kept[i][0]}")
    merged = []
    for p in kept:
        if merged and merged[-1][1] == p[0] and merged[-1][2:] == p[2:]:
            merged[-1] = (merged[-1][0], p[1], p[2], p[3])
        else:
            merged.append(p)
    return tuple(merged)


def piece_at(f, x):
    """The piece of f holding x, or None, by bisection on the piece starts."""
    i = bisect.bisect_right([p[0] for p in f.pieces], x) - 1
    if i >= 0 and f.pieces[i][0] <= x < f.pieces[i][1]:
        return f.pieces[i]
    return None


def eval_oracle(f, x) -> Fraction:
    """f(x) from the Fraction line of the piece holding x: the lookup that
    `eval` runs on the integer form."""
    x = as_fraction(x)
    p = piece_at(f, x)
    return p[2] * x + p[3] if p else Fraction(0)


def eval_left_oracle(f, x) -> Fraction:
    """The limit of f from below at x, from the Fraction line of the piece
    with lo < x <= hi, found by bisection and a step back."""
    x = as_fraction(x)
    i = bisect.bisect_right([p[0] for p in f.pieces], x) - 1
    while i >= 0:
        lo, hi, a, b = f.pieces[i]
        if lo < x <= hi:
            return a * x + b
        if hi < x:
            return Fraction(0)
        i -= 1
    return Fraction(0)


def _cuts(*fns):
    return sorted(set().union(*(f.breakpoints() for f in fns)))


def combine_oracle(f, g, op):
    """f op g (op on the coefficients, e.g. operator.add) on every cell
    between consecutive breakpoints of the two."""
    cuts = _cuts(f, g)
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        p, q = piece_at(f, lo), piece_at(g, lo)
        a1, b1 = (p[2], p[3]) if p else (Fraction(0), Fraction(0))
        a2, b2 = (q[2], q[3]) if q else (Fraction(0), Fraction(0))
        out.append((lo, hi, op(a1, a2), op(b1, b2)))
    return PiecewiseLinear.of(*out)


def sum_oracle(fns):
    """The pointwise sum on the Fraction sweep: each cell's coefficients
    added as Fractions, and the cells put in canonical form by the checking
    parse."""
    return PiecewiseLinear.of(*(
        (lo, hi, sum(p[2] for p in pieces if p), sum(p[3] for p in pieces if p))
        for lo, hi, pieces in refine(fns)))


def restrict_oracle(f, where):
    """f on each overlap of one of its pieces with one piece of where."""
    out = []
    for lo, hi, a, b in f.pieces:
        for wlo, whi in where.pieces:
            l, h = max(lo, wlo), min(hi, whi)
            if l < h:
                out.append((l, h, a, b))
    return PiecewiseLinear.of(*out)


def intersect_oracle(A, B):
    """Each overlap of a piece of A with a piece of B."""
    out = []
    for alo, ahi in A.pieces:
        for blo, bhi in B.pieces:
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo < hi:
                out.append((lo, hi))
    return set_oracle(out)


def difference_oracle(A, B):
    """A minus B by one cursor per piece of A, merged against B."""
    out = []
    for lo, hi in A.pieces:
        cur = lo
        for blo, bhi in B.pieces:
            if bhi <= cur:
                continue
            if blo >= hi:
                break
            if blo > cur:
                out.append((cur, min(blo, hi)))
            cur = max(cur, bhi)
            if cur >= hi:
                break
        if cur < hi:
            out.append((cur, hi))
    return set_oracle(out)


def integrate_product_oracle(factors):
    """The exact integral of the product, cell by cell between consecutive
    breakpoints of all factors."""
    if not factors:
        return Fraction(0)
    cuts = _cuts(*factors)
    total = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        pieces = [piece_at(f, lo) for f in factors]
        if None in pieces:
            continue
        poly = _linear_product((p[2], p[3]) for p in pieces)
        for i, c in enumerate(poly):
            total += c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
    return total


def quad_cells_oracle(line, square):
    """The cells of the joint support of line and square, cut at the
    breakpoints of both."""
    support = line.support().intersect(square.support())
    cuts = set(line.breakpoints()) | set(square.breakpoints())
    cells = []
    for lo, hi in support.pieces:
        inner = sorted({lo, hi} | {c for c in cuts if lo < c < hi})
        cells.extend(zip(inner, inner[1:]))
    return cells


def closed_cell_oracle(piece, root, lo, hi):
    """The integrand on [lo, hi] from the line's piece and the square's piece
    root there, as a _Cell, on Fractions; None where it vanishes.  A
    polynomial cell keeps poly = (lo, hi, scale^2, exact coeffs) for
    `break_terms_oracle`."""
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


def closed_cells_oracle(line, square):
    """A QuadPlan's closed-form cells from `quad_cells_oracle`, the pieces of
    each cell looked up at its left end."""
    cells = (closed_cell_oracle(piece_at(line, lo), piece_at(square, lo), lo, hi)
             for lo, hi in quad_cells_oracle(line, square))
    return [cell for cell in cells if cell is not None]


def break_terms_oracle(cells):
    """(xs, jumps) of the polynomial cells: their distinct ends x_j and
    jumps[n, j] = B_n(x_j) = (-1)^n (P^(n)(x_j-) - P^(n)(x_j+)), where P is
    the integrand (root included) and 0 outside the cells.  Each B_n is
    summed as a Fraction per value of the root, then rounded; ends where
    every B_n vanishes, and rows above the last nonzero one, are dropped.
    The cells are those of `closed_cell_oracle`."""
    exact = {}
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


def overlay_oracle(pairs, weights=None):
    """(lo, hi, value) cells, value != 0, of a family of nonempty [lo, hi)
    intervals: exact sweep over their endpoints.  The value of a cell is the
    sum of the weights of the intervals covering it, so with the default
    weight 1 it is the multiplicity, and with distinct powers of 2 on
    intervals that may overlap it is the bitmask of those covering it.
    The sweep sorts and compares the Fraction endpoints themselves."""
    events = []
    for (lo, hi), w in zip(pairs, repeat(1) if weights is None else weights):
        events.append((lo, w))
        events.append((hi, -w))
    events.sort(key=itemgetter(0))
    out = []
    count = 0
    prev = None
    for x, delta in events:
        if count and x > prev:
            if out and out[-1][2] == count and out[-1][1] == prev:
                out[-1] = (out[-1][0], x, count)
            else:
                out.append((prev, x, count))
        count += delta
        prev = x
    return out


def tiling_oracle(E, a, window=Fraction(64), j_range=24) -> bool:
    """Whether the dilates a^j E, |j| <= j_range, cover [-W, W] minus the
    hole (-eps, eps), eps = W |a|^-j_range, exactly once."""
    field_set = IntervalSet.of((-window, window))
    eps = window / Fraction(abs(a)) ** j_range
    target = field_set.difference(IntervalSet.of((-eps, eps)))
    dilates = [img for j in range(-j_range, j_range + 1)
               if (img := E.scale(Fraction(a) ** j).intersect(field_set))]
    cells = overlay_oracle([piece for img in dilates for piece in img.pieces])
    covered = set_oracle((lo, hi) for lo, hi, _ in cells)
    return all(c == 1 for _, _, c in cells) and not target.difference(covered)


def _delta_bound(support, reach, a) -> int:
    """Scale gaps beyond this cannot create a new overlap with a set inside
    [-reach, reach]: each piece's governing extent has swept past the hull
    (the smaller side extent for a 0-adjacent piece), capped at 200."""
    rmin = None
    for lo, hi in support.pieces:
        if lo > 0:
            d = lo
        elif hi <= 0:
            d = -hi
        else:
            d = min(x for x in (hi, -lo) if x > 0)
        rmin = d if rmin is None else min(rmin, d)
    if rmin is None or reach <= 0:
        return 1
    bound = 1
    v = rmin
    while v <= reach and bound < 200:
        v *= abs(a)
        bound += 1
    return bound + 1


def semiorth_oracle(supports, a):
    """(i, i2, delta, overlap) of the first pair of supports, in the order
    (i, i2), with supports[i] and a^delta supports[i2] overlapping on
    positive measure, at its least delta up to `_delta_bound`; or None."""
    for i, p in enumerate(supports):
        lo_p, hi_p = p.hull()
        reach = max(abs(lo_p), abs(hi_p))
        for i2, q in enumerate(supports):
            for delta in range(1, _delta_bound(q, reach, a) + 1):
                ov = p.intersect(q.scale(Fraction(a) ** delta))
                if ov:
                    return i, i2, delta, ov
    return None


def closure_member(E, a, xi, depth=40) -> bool:
    """Whether a^j xi lies in E for some 1 <= j <= depth."""
    return any(E.contains(xi * Fraction(a) ** j) for j in range(1, depth + 1))


def classify_oracle(E, a) -> SeedClassification:
    """The seed classifier that tests E inside aE and a piece of E
    straddling 0 itself, then folds aE minus E."""
    require_dilation(a)
    if not E:
        return SeedClassification("not_admissible", "empty seed")
    stray = E.difference(E.scale(a))
    if stray:
        lo, hi = stray.pieces[0]
        return SeedClassification(
            "not_admissible",
            f"seed not contained in its dilate: [{lo},{hi}) sticks out")
    if not any(lo < 0 < hi for lo, hi in E.pieces):
        return SeedClassification(
            "not_admissible", "no punctured neighborhood of 0 inside the seed")
    mult = per_multiplicity(E.scale(a).difference(E))
    p = mult.max_value()
    covered = sum(((hi - lo) for lo, hi, c in mult.cells if c == 1), Fraction(0))
    if p <= 1 and covered == 2:
        return SeedClassification(
            "orthonormal", "fold of aE minus E covers the fundamental domain "
            "exactly once", p)
    return SeedClassification(
        "ntf", f"fold of aE minus E has multiplicity up to {p} "
        f"and covers measure {covered} of 2", p)
