"""Checkers for the characterization identities of NTF wavelet families.

Every "pass" in exact mode is backed by rational identities or an explicit
tail bound; nothing is accepted silently through floating point.  Fails carry
a witness (grid point, shift, sides); interval-arithmetic indeterminacy
surfaces as "uncertain" instead of being coerced either way.

`check_suites` runs the SUITES on one grid.  decay = the split identities +
outward decay of the scaling square sum; sufficiency = local finiteness +
split + outward decay + inward limit 1 + (when those hold) the NTF
characterization as a meta check.

The grid checks evaluate each value once:
- shifted splits: per grid point, the fibers of the psi and phi profiles at
  xi and of the phi profiles at xi/a, one exact root per entry; the value at
  shift s pairs entry 0 with entry s (entry s/a at xi/a on lattice shifts).
- norm sum: when the wavelet square sum equals the gain sigma(./a) - sigma,
  the partial scale sum telescopes to its two end terms, plus the jumps of
  sigma on the orbit where a < 0 (see `_TelescopedScaleSum`).
- orbit monotonicity: near 0 the scaling square sum is a line through
  (0, 1) on each side, so the walk stops two steps into that region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from typing import Dict, Iterable, List, Optional, Sequence as Seq

from .construction import ScalingFamily, WaveletFamily
from .folding import per_multiplicity
from .intervals import IntervalSet, overlay_counts, union_all
from .piecewise import (GeneratorSet, PiecewiseLinear, SqrtProfile, _square_sum,
                        integrate_product)
from .rationals import as_fraction, format_ratio
from .roots import SqrtSum, _zero_status
from .trace import default_grid, fiber

TAIL_TARGET = Fraction(1, 10 ** 9)
SUITES = ("ntf", "split", "decay", "sufficiency", "density", "semiorth")
_EMPTY_GRID = "the grid holds no point other than 0, so nothing was checked"


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # pass | fail | uncertain
    witness: Optional[dict] = None
    tail_bound: Optional[Fraction] = None
    detail: str = ""

    def to_jsonable(self) -> dict:
        out: dict = {"name": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = {k: str(v) for k, v in self.witness.items()}
        if self.tail_bound is not None:
            out["tail_bound"] = format_ratio(self.tail_bound)
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class VerificationReport:
    checks: List[Check] = field(default_factory=list)

    @property
    def status(self) -> str:
        worst = "pass"
        for c in self.checks:
            if c.status == "fail":
                return "fail"
            if c.status == "uncertain":
                worst = "uncertain"
        return worst

    def add(self, *checks: Check) -> None:
        self.checks.extend(checks)

    def merge(self, other: "VerificationReport", prefix: str = "") -> None:
        self.checks.extend(replace(c, name=prefix + c.name) for c in other.checks)

    def to_jsonable(self) -> dict:
        return {"status": self.status,
                "checks": [c.to_jsonable() for c in self.checks]}


def _verdict_check(name: str, value: SqrtSum, xi, extra: dict | None = None
                   ) -> Check:
    """Turn an exact should-be-zero value into a pass/fail/uncertain check."""
    status = _zero_status(value)
    if status == "pass":
        return Check(name, "pass")
    witness = {"xi": xi, "residual": float(value.enclosure().mid())}
    if extra:
        witness.update(extra)
    detail = "interval arithmetic cannot separate the sides" \
        if status == "uncertain" else ""
    return Check(name, status, witness, detail=detail)


def _first_power(base: int, bound: Fraction) -> int:
    """The least n >= 0 with base**n >= bound, for an integer base >= 2."""
    target = -(-bound.numerator // bound.denominator)
    n, power = 0, 1
    while power < target:
        n, power = n + 1, power * base
    return n


def _exit_index(xi: Fraction, a: int, radius: Fraction) -> int:
    """The least j >= 0 with |a^j xi| > radius, for xi != 0."""
    return _first_power(abs(a), Fraction(radius // abs(xi) + 1))


def family_grid(*gens: GeneratorSet, seed: int = 0x5EED) -> List[Fraction]:
    breaks: set[Fraction] = set()
    hull_pts: List[Fraction] = []
    for g in gens:
        breaks.update(g.breakpoints())
        lo, hi = g.support_hull()
        hull_pts.extend((lo, hi))
    hull = (min(hull_pts, default=Fraction(0)), max(hull_pts, default=Fraction(0)))
    return default_grid(sorted(breaks), hull, seed=seed)


# -- NTF multiwavelet characterization ----------------------------------------


class _TelescopedScaleSum:
    """sum_{j=-J}^{Jout} g(a^j xi) for the gain g = coarse - sigma, where
    coarse = sigma o (1/a) as a PiecewiseLinear, from the two end terms:

        coarse(a^{-J} xi) - sigma(a^{Jout} xi)
            + sum_{-J <= m < Jout} (coarse(a^{m+1} xi) - sigma(a^m xi)).

    The bracket is coarse(a b) - sigma(b) at b = a^m xi.  For a > 0 it is
    identically 0.  For a < 0, compose_scale keeps pieces [l, r), so coarse
    takes the left limit of sigma and the bracket is the jump of sigma at b;
    only the breakpoints of sigma with a jump can contribute."""

    def __init__(self, sigma: PiecewiseLinear, a: int):
        self.sigma, self.a = sigma, Fraction(a)
        self.coarse = sigma.compose_scale(1 / self.a)
        self.jumps = {}
        for b in sigma.breakpoints():
            delta = self.coarse.eval(self.a * b) - sigma.eval(b)
            if delta:
                self.jumps[b] = delta

    def partial(self, xi: Fraction, J: int, Jout: int) -> Fraction:
        a = self.a
        total = self.coarse.eval(xi * a ** -J) - self.sigma.eval(xi * a ** Jout)
        for b, delta in self.jumps.items():
            q = b / xi
            if q:
                m = round((math.log(abs(q.numerator)) - math.log(q.denominator))
                          / math.log(abs(a)))
                if -J <= m < Jout and a ** m == q:
                    total += delta
        return total


def check_ntf_multiwavelet(family: WaveletFamily, mode: str = "exact",
                           grid: Iterable | None = None) -> VerificationReport:
    """Norm-sum (sum over all scales of |psi_hat|^2 equals 1) and shifted
    orthogonality (vanishing cross terms for shifts outside the dilation
    lattice), certified per grid point.

    Exact mode uses the family's spectral profile: the scale sum telescopes,
    the outward tail is identically 0 (bounded support) and the inward tail
    is bounded by slope * |a^{-J-1} xi| inside the support piece at 0.
    Numeric mode sums the squares directly and certifies the inward tail
    geometrically from the slope of the square sum at 0.
    """
    report = VerificationReport()
    a = family.dilation
    psi_gen = family.generator_set()

    # shifted orthogonality: supports injective mod 2pi kill every term
    for i, psi in enumerate(family.psis):
        mult = per_multiplicity(psi.support()).max_value()
        if mult <= 1:
            report.add(Check(f"shift_orthogonality[{i}]", "pass", detail=(
                "support meets each residue class at most once, so every "
                "cross term vanishes identically")))
        else:
            cell = next(c for c in per_multiplicity(psi.support()).cells if c[2] >= 2)
            report.add(Check(f"shift_orthogonality[{i}]", "fail",
                             {"residue": cell[0], "multiplicity": cell[2]}))

    square_sum = _square_sum(family.psis)
    telescopes = False

    if mode == "exact":
        gain = family.gain()
        telescopes = square_sum == gain
        if telescopes:
            report.add(Check("scale_sum_telescopes", "pass", detail=(
                "sum of |psi_hat|^2 equals sigma(xi/a) - sigma(xi) as exact "
                "piecewise-linear identity")))
        else:
            diff = square_sum - gain
            wit = diff.support().hull()[0]
            report.add(Check("scale_sum_telescopes", "fail",
                             {"xi": wit, "difference": diff.eval(wit)}))
        nbhd = family.sigma.zero_neighborhood()
        if nbhd is None or nbhd[0] != 1 or nbhd[1] != 1:
            report.add(Check("norm_sum", "fail", {"xi": Fraction(0)},
                             detail="sigma does not tend to 1 at 0"))
            return report
        _, _, clearance, slope = nbhd
    else:
        nbhd = square_sum.zero_neighborhood()
        if nbhd is not None and (nbhd[0] != 0 or nbhd[1] != 0):
            report.add(Check("norm_sum", "fail", {"xi": Fraction(0)}, detail=(
                "square sum does not vanish at 0; the scale series diverges")))
            return report
        clearance = nbhd[2] if nbhd is not None else Fraction(1)
        slope = nbhd[3] if nbhd is not None else Fraction(0)

    if grid is None:
        grid = family_grid(psi_gen)
    lo, hi = psi_gen.support_hull()
    radius = max(abs(lo), abs(hi), Fraction(1))

    if telescopes:
        scale_sum = _TelescopedScaleSum(family.sigma, a)
    worst_tail = Fraction(0)
    failures = checked = 0
    for xi in grid:
        xi = as_fraction(xi)
        if xi == 0:
            continue
        checked += 1
        # inward depth J: a^{-J-1}|xi| inside the 0-clearance and tail small
        depth = abs(xi) / clearance
        if slope:
            depth = max(depth, slope * abs(xi) / TAIL_TARGET)
        J = max(_first_power(abs(a), depth) - 1, 0)
        Jout = _exit_index(xi, a, radius)
        if telescopes:
            partial = scale_sum.partial(xi, J, Jout)
        else:
            partial = Fraction(0)
            for j in range(-J, Jout + 1):
                partial += square_sum.eval(xi * Fraction(a) ** j)
        if mode == "exact":
            tail = slope * abs(xi) / abs(a) ** (J + 1)
        else:
            # geometric series of the linear bound under repeated division
            tail = slope * abs(xi) / abs(a) ** (J + 1) * \
                Fraction(abs(a), abs(a) - 1)
        worst_tail = max(worst_tail, tail)
        if abs(1 - partial) > tail:
            failures += 1
            if failures <= 3:
                report.add(Check("norm_sum", "fail",
                                 {"xi": xi, "partial_sum": partial,
                                  "allowed_tail": tail}))
    if checked == 0:
        report.add(Check("norm_sum", "uncertain", detail=_EMPTY_GRID))
    elif failures == 0:
        report.add(Check("norm_sum", "pass", tail_bound=worst_tail,
                         detail=f"all grid points within the certified tail"))
    elif failures > 3:
        report.add(Check("norm_sum", "fail",
                         detail=f"{failures} grid points outside the tail bound"))
    return report


# -- wavelet-from-scaling equations -------------------------------------------


def _split_residuals(phis: Seq[SqrtProfile], psis: Seq[SqrtProfile], a: int,
                     xi: Fraction) -> Dict[int, SqrtSum]:
    """s -> [a | s] sum_phi phi_hat(xi/a) phi_hat((xi+2s)/a)
             - sum_phi phi_hat(xi) phi_hat(xi+2s) - sum_psi psi_hat(xi) psi_hat(xi+2s)
    for the shifts s != 0 that carry a nonzero product; every other shift
    has residual 0.  Built from the fibers at xi and xi/a: the product for
    shift k pairs entry 0 with entry k, and each entry's root is taken once."""
    out: Dict[int, SqrtSum] = {}
    for profiles, x, sign, step in ((phis, xi / a, 1, a), (phis, xi, -1, 1),
                                    (psis, xi, -1, 1)):
        for p in profiles:
            fib = fiber(p, x)
            if 0 not in fib or len(fib) == 1:
                continue
            root0 = SqrtSum.sqrt_of(fib[0]).scale(sign)
            for k, r in fib.items():
                if k:
                    s = k * step
                    out[s] = out.get(s, SqrtSum.zero()) + root0 * SqrtSum.sqrt_of(r)
    return out


def check_split(phi_fam: ScalingFamily, psi_fam: WaveletFamily,
                grid: Iterable | None = None) -> VerificationReport:
    """The two bilinear identities tying a scaling family to the wavelets of
    the complement space between consecutive dilates, per shift class."""
    report = VerificationReport()
    a = psi_fam.dilation
    phis = phi_fam.generator_set().profiles
    psis = psi_fam.generator_set().profiles

    phi_sq = _square_sum(phis)
    psi_sq = _square_sum(psis)
    lhs = phi_sq.compose_scale(Fraction(1, a)) - phi_sq
    if lhs == psi_sq:
        report.add(Check("two_scale_split[s=0]", "pass", detail=(
            "sum|phi|^2(xi/a) - sum|phi|^2 equals sum|psi|^2 as an exact "
            "piecewise-linear identity")))
    else:
        diff = lhs - psi_sq
        wit = diff.support().hull()[0]
        report.add(Check("two_scale_split[s=0]", "fail",
                         {"xi": wit, "difference": diff.eval(wit)}))

    lo1, hi1 = phi_fam.generator_set().support_hull()
    lo2, hi2 = psi_fam.generator_set().support_hull()
    radius = max(abs(x) for x in (lo1, hi1, lo2, hi2)) or Fraction(1)
    s_window = int(radius) * abs(a) + 1
    report.add(Check("s_window_complete", "pass", detail=(
        f"all bilinear terms vanish identically for |s| > {s_window}: the "
        f"supports have radius {radius} so shifts beyond that cannot overlap")))

    if grid is None:
        grid = family_grid(phi_fam.generator_set(), psi_fam.generator_set())
    grid = [as_fraction(x) for x in grid]

    residuals = [_split_residuals(phis, psis, a, xi) for xi in grid]
    recorded = len(report.checks)
    bad = 0
    for s in range(-s_window, s_window + 1):
        if s == 0:
            continue
        name = (f"lattice_shift_split[s={s}]" if s % a == 0
                else f"off_lattice_split[s={s}]")
        for xi, by_shift in zip(grid, residuals):
            val = by_shift.get(s)
            if val is not None and not val.is_zero():
                check = _verdict_check(name, val, xi, {"s": s})
                report.add(check)
                if check.status == "fail":
                    bad += 1
                if bad >= 5:
                    return report
    if len(report.checks) > recorded:
        return report
    if any(grid):
        report.add(Check("shifted_splits", "pass", detail=(
            f"all shifts 0 < |s| <= {s_window} verified over {len(grid)} grid points")))
    else:
        report.add(Check("shifted_splits", "uncertain", detail=_EMPTY_GRID))
    return report


def check_suites(phi_fam: ScalingFamily, psi_fam: WaveletFamily,
                 names: Iterable[str], grid: Iterable | None = None
                 ) -> Dict[str, VerificationReport]:
    """Run the named suites (from SUITES) on one grid; {name: report}.

    The split identities run at most once per call, and the NTF
    characterization once per sigma: the sufficiency meta check takes sigma
    from the scaling squares, not from the family, and reuses the ntf
    suite's report when the two agree."""
    if grid is None:
        grid = family_grid(phi_fam.generator_set(), psi_fam.generator_set())
    grid = [as_fraction(x) for x in grid]

    @cache
    def ntf(sigma: PiecewiseLinear) -> VerificationReport:
        return check_ntf_multiwavelet(replace(psi_fam, sigma=sigma), grid=grid)

    @cache
    def split() -> VerificationReport:
        return check_split(phi_fam, psi_fam, grid)

    @cache
    def decay() -> VerificationReport:
        # the scaling square sum is identically 0 once a^j xi leaves the hull
        a = abs(phi_fam.dilation)
        lo, hi = phi_fam.generator_set().support_hull()
        radius = max(abs(lo), abs(hi), Fraction(1))
        exits = [_exit_index(xi, a, radius) for xi in grid if xi != 0]
        outward = Check("outward_decay", "pass", detail=(
            f"scaling square sum is identically 0 beyond the support hull; exit "
            f"index <= {max(exits, default=0)} on the grid (0 itself is the "
            f"measure-zero dilation fixed point, excluded)"))
        return VerificationReport(split().checks + [outward])

    def sufficiency() -> VerificationReport:
        phi_sq = _square_sum(phi_fam.phis.values())
        report = VerificationReport([Check("local_finiteness", "pass", detail=(
            f"finitely many scaling profiles; square sum bounded by "
            f"{phi_sq.max_value()}"))] + decay().checks)
        nbhd = phi_sq.zero_neighborhood()
        if nbhd is None:
            report.add(Check("inward_limit_one", "fail", {"xi": Fraction(0)},
                             detail="scaling square sum vanishes near 0"))
        elif nbhd[:2] == (1, 1):
            report.add(Check("inward_limit_one", "pass", detail=(
                "both one-sided limits of the scaling square sum at 0 are 1")))
        else:
            report.add(Check("inward_limit_one", "fail",
                             {"xi": Fraction(0), "left": nbhd[0], "right": nbhd[1]}))
        if report.status == "pass":
            sub = ntf(phi_sq)
            if sub.status == "pass":
                report.add(Check("meta_ntf_follows", "pass", detail=(
                    "hypotheses hold and the NTF characterization passes too")))
            else:
                report.merge(sub, prefix="meta:")
        return report

    suites = {"ntf": lambda: ntf(psi_fam.sigma), "split": split,
              "decay": decay, "sufficiency": sufficiency,
              "density": lambda: check_density(phi_fam, grid),
              "semiorth": lambda: check_semiorthogonal(psi_fam)}
    return {n: suites[n]() for n in dict.fromkeys(names)}


def check_density(phi_fam: ScalingFamily, grid: Iterable | None = None
                  ) -> VerificationReport:
    """Union density of the dilates: inward limit of the scaling square sum
    is 1, plus exact monotonicity of the sum along contraction orbits."""
    report = VerificationReport()
    phi_sq = _square_sum(phi_fam.phis.values())
    a = phi_fam.dilation
    nbhd = phi_sq.zero_neighborhood()
    if nbhd is None or nbhd[0] != 1 or nbhd[1] != 1:
        wit = {"xi": Fraction(0)}
        if nbhd is not None:
            wit.update({"left": nbhd[0], "right": nbhd[1]})
        report.add(Check("inward_limit_one", "fail", wit))
        return report
    report.add(Check("inward_limit_one", "pass", detail=(
        "one-sided limits at 0 both equal 1 (exact)")))
    if grid is None:
        grid = family_grid(phi_fam.generator_set())
    # inside (-clearance, clearance) phi_sq is 1 + alpha x on each side, so
    # the differences along an orbit there shrink by 1/a per step at a > 0
    # and by 1/a^2 per two steps at a < 0: their signs repeat with period 2.
    # Two steps past the entry into that region show every sign to come.
    clearance = nbhd[2]
    violations = walked = 0
    for xi in grid:
        xi = as_fraction(xi)
        if xi == 0:
            continue
        walked += 1
        prev = None
        stop = 64
        for j in range(64):
            x = xi / Fraction(a) ** j
            if stop == 64 and abs(x) < clearance:
                stop = j + 2
            if j > stop:
                break
            val = phi_sq.eval(x)
            if prev is not None and val < prev:
                report.add(Check("orbit_monotone", "fail",
                                 {"xi": xi, "j": j, "value": val,
                                  "previous": prev}))
                violations += 1
                break
            if val == 1 and prev == 1:
                break
            prev = val
        if violations >= 3:
            break
    if walked == 0:
        report.add(Check("orbit_monotone", "uncertain", detail=_EMPTY_GRID))
    elif violations == 0:
        report.add(Check("orbit_monotone", "pass", detail=(
            "square sum nondecreasing along every sampled contraction orbit")))
    return report


# -- wavelet-set tiling --------------------------------------------------------


def check_wavelet_set_tiling(E_list: Seq[IntervalSet], a: int,
                             window: Fraction = Fraction(64),
                             j_range: int = 24) -> VerificationReport:
    """Mutual disjointness, translation injectivity, and exact dilation
    tiling of the line on [-W, W] minus the (-eps, eps) hole,
    eps = W |a|^{-j_range}."""
    report = VerificationReport()
    window = as_fraction(window)
    for i, Ei in enumerate(E_list):
        for i2 in range(i + 1, len(E_list)):
            overlap = Ei.intersect(E_list[i2])
            if overlap:
                report.add(Check("mutual_disjoint", "fail",
                                 {"i": i, "j": i2,
                                  "overlap": f"[{overlap.pieces[0][0]},{overlap.pieces[0][1]})"}))
    if not any(c.name == "mutual_disjoint" for c in report.checks):
        report.add(Check("mutual_disjoint", "pass"))

    for i, Ei in enumerate(E_list):
        mult = per_multiplicity(Ei)
        if mult.max_value() > 1:
            cell = next(c for c in mult.cells if c[2] >= 2)
            report.add(Check(f"translation_injective[{i}]", "fail",
                             {"residue_lo": cell[0], "residue_hi": cell[1],
                              "multiplicity": cell[2]}))
        else:
            report.add(Check(f"translation_injective[{i}]", "pass"))

    union = union_all(list(E_list))
    field_set = IntervalSet.of((-window, window))
    eps = window / Fraction(abs(a)) ** j_range
    hole = IntervalSet.of((-eps, eps))
    target = field_set.difference(hole)
    dilates = []
    for j in range(-j_range, j_range + 1):
        img = union.scale(Fraction(a) ** j).intersect(field_set)
        if img:
            dilates.append(img)
    cells = overlay_counts(dilates)
    over = [(lo, hi, c) for lo, hi, c in cells if c >= 2]
    covered = IntervalSet(tuple((lo, hi) for lo, hi, c in cells if c >= 1))
    gaps = target.difference(covered)
    if over:
        lo, hi, c = over[0]
        report.add(Check("dilation_tiling", "fail",
                         {"overlap_lo": lo, "overlap_hi": hi, "count": c},
                         detail="doubly covered interval"))
    elif gaps:
        lo, hi = gaps.pieces[0]
        report.add(Check("dilation_tiling", "fail",
                         {"gap_lo": lo, "gap_hi": hi},
                         detail="uncovered interval inside the test window"))
    else:
        report.add(Check("dilation_tiling", "pass", detail=(
            f"multiplicity exactly 1 on [-{window}, {window}] minus the "
            f"central hole of measure {float(2 * eps):.3g} (reported, by "
            f"construction of the finite dilation range)")))
    return report


# -- semi-orthogonality ---------------------------------------------------------


def _delta_bound(support: IntervalSet, reach: Fraction, a: int) -> int:
    """Scale gaps beyond this cannot create a new overlap with a set inside
    [-reach, reach]: each piece's governing extent has swept past the hull.
    For a piece clear of 0 that is its inner edge; for a 0-adjacent piece the
    smaller side extent governs (its dilates nest outward, so once it has
    swept the hull any overlap would already have been seen)."""
    rmin = None
    for lo, hi in support.pieces:
        if lo > 0:
            d = lo
        elif hi <= 0:
            d = -hi
        else:
            sides = [x for x in (hi, -lo) if x > 0]
            d = min(sides)
        rmin = d if rmin is None else min(rmin, d)
    if rmin is None or reach <= 0:
        return 1
    bound = 1
    v = rmin
    while v <= reach and bound < 200:
        v *= abs(a)
        bound += 1
    return bound + 1


def cross_energy(psi: SqrtProfile, psi_other: SqrtProfile, a: int,
                 scale_gap: int) -> Fraction:
    """sum_k |<psi, D^scale_gap T_k psi_other>|^2
    = (1/2) int |psi_hat|^2(u) |psi_other_hat|^2(a^{-scale_gap} u) du, exact.

    The identity holds because the support of each profile is injective
    mod 2 (pi units; `WaveletFamily.validate` enforces it), so the modulates
    e^{i pi k v} / sqrt(2) restricted to it form a Parseval frame -- the
    premise of `frametest.per_scale_energy_exact`."""
    dilated = psi_other.square.compose_scale(Fraction(a) ** -scale_gap)
    return integrate_product([psi.square, dilated]) / 2


def check_semiorthogonal(family: WaveletFamily) -> VerificationReport:
    """Certify via exact support algebra: scales j < j' are orthogonal iff
    support(psi) and a^{Delta} support(psi') intersect in measure zero for all
    Delta >= 1 (profiles are nonnegative, so a positive-measure overlap is
    conclusive failure).  The fail witness is the exact cross-scale energy
    of the first overlapping pair, a positive rational (`cross_energy`,
    whose premise is that each profile's support is injective mod 2)."""
    report = VerificationReport()
    a = family.dilation
    psis = family.psis
    if not psis:
        report.add(Check("semi_orthogonal", "pass",
                         detail="empty family is trivially semi-orthogonal"))
        return report
    overlap_found = None
    for i, p in enumerate(psis):
        lo_p, hi_p = p.support().hull()
        reach = max(abs(lo_p), abs(hi_p))
        for i2, q in enumerate(psis):
            for delta in range(1, _delta_bound(q.support(), reach, a) + 1):
                scaled = q.support().scale(Fraction(a) ** delta)
                ov = p.support().intersect(scaled)
                if ov and ov.measure() > 0:
                    overlap_found = (i, i2, delta, ov)
                    break
            if overlap_found:
                break
        if overlap_found:
            break
    if overlap_found is None:
        report.add(Check("semi_orthogonal", "pass", detail=(
            "supports of all dilate pairs are disjoint up to measure zero; "
            "for nonnegative profiles this certifies orthogonality between "
            "scales")))
        return report
    i, i2, delta, ov = overlap_found
    report.add(Check("semi_orthogonal", "fail",
                     {"psi": i, "psi_other": i2, "scale_gap": delta,
                      "overlap_lo": ov.pieces[0][0], "overlap_hi": ov.pieces[0][1],
                      "cross_energy": cross_energy(psis[i], psis[i2], a, delta)},
                     detail=(
                         "supports overlap on positive measure; nonnegative "
                         "profiles make scales non-orthogonal, exact "
                         "cross-scale energy shown")))
    return report
