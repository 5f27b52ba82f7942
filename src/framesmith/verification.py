"""Checkers for the characterization identities of NTF wavelet families.

Every "pass" is an exact identity or a consequence of exact identities,
decided for all xi; nothing is accepted through floating point or through
sampling.  Fails carry a witness (point, residue, sides).  "uncertain" is
kept for precision caps (`roots.SqrtSum.sign_verdict`), which no check here
reaches.

The paper's two equations are judged here and nowhere else; the family
loader (`validate`) checks only the structural premises, so a file that
breaks an equation reaches `check` and fails with an exact witness.
`scale_sum_telescopes` decides sum|psi_i|^2 = sigma(./a) - sigma.  Once
that holds, `two_scale_split[s=0]` holds iff sum|phi_k|^2 = sigma almost
everywhere: the difference of the two is then dilation-invariant with
bounded support, so it is 0.  The report types `Check` and
`VerificationReport` live in `construction`, whose `admissibility_check`
returns one too.

`check_suites` runs the SUITES.  decay = the split identities +
outward decay of the scaling square sum; density = the three conditions of
`admissibility_check` on that square sum, the scaling side's spectral
function; sufficiency = local finiteness + split + outward decay +
density's inward limit 1 + (when those hold) the NTF characterization as a
meta check, which those rows already prove.

No check reads a grid.  The norm sum's `tail_bound` is the supremum over
all xi != 0 of the truncation tail slope |xi| / |a|^(J+1) at the inward
depth J(xi): the least J >= 0 with a^{-J-1} xi strictly inside sigma's
0-clearance, where |1 - sigma(x)| <= slope |x|, and that tail at most
TAIL_TARGET.  It is TAIL_TARGET when sigma slopes at 0 -- attained at
xi = TAIL_TARGET |a|^n / slope, n >= 1, whenever slope * clearance >
TAIL_TARGET, and an upper bound in every case -- and 0 when sigma is flat
there.  Every other verdict holds for all xi too: dilation monotonicity is
an exact piecewise-linear inequality, outward decay follows from the
support hull, and the shifted splits and shifted orthogonality from the
premise of `GeneratorSet`: each support meets every residue class mod 2 at
most once, so every cross term vanishes identically.  Every square sum is
the family's `generator_set().spectral`, which decides that premise and
raises ValueError naming the profile that breaks it.

The wavelet-set tiling and the scale gaps of semi-orthogonality are read
off the dilation fold of the sets (`folding.fold_dilation`), for all xi.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from typing import Dict, Iterable, List, Sequence as Seq

from .construction import (Check, LayeredFamily, SpectralSpec, VerificationReport,
                           admissibility_check, require_dilation)
from .folding import _repeated_residue, fold_dilation
from .intervals import IntervalSet, union_all
from .piecewise import GeneratorSet, PiecewiseLinear, SqrtProfile, integrate_product
from .rationals import format_ratio
from .trace import default_grid

TAIL_TARGET = Fraction(1, 10 ** 9)
SUITES = ("ntf", "split", "decay", "sufficiency", "density", "semiorth")


def _identity(name: str, lhs: PiecewiseLinear, rhs: PiecewiseLinear,
              detail: str) -> Check:
    """The row of the exact piecewise-linear identity lhs = rhs.  A fail's
    witness lies inside the first piece where the two differ, off its
    breakpoints and off the zero of its line, with the exact difference."""
    diff = lhs - rhs
    if diff.is_zero():
        return Check(name, "pass", detail=detail)
    lo, hi, _, _ = diff.pieces[0]
    xi = (lo + hi) / 2
    if not diff.eval(xi):
        xi = (lo + xi) / 2
    return Check(name, "fail", {"xi": xi, "difference": diff.eval(xi)})


def family_grid(*gens: GeneratorSet) -> List[Fraction]:
    """The seeded `default_grid` on the generator sets' breakpoints and
    joint support hull: the points of `trace --grid auto`."""
    breaks: set[Fraction] = set()
    hull_pts: List[Fraction] = []
    for g in gens:
        breaks.update(g.breakpoints())
        lo, hi = g.support_hull()
        hull_pts.extend((lo, hi))
    hull = (min(hull_pts, default=Fraction(0)), max(hull_pts, default=Fraction(0)))
    return default_grid(sorted(breaks), hull)


# -- NTF multiwavelet characterization ----------------------------------------


def check_ntf_multiwavelet(family: LayeredFamily) -> VerificationReport:
    """Norm-sum (sum over all scales of |psi_hat|^2 equals 1) and shifted
    orthogonality (vanishing cross terms for shifts outside the dilation
    lattice), both for all xi.

    Shifted orthogonality holds from the supports alone.  The norm sum
    follows from three facts: the exact identity sum|psi_i|^2 =
    sigma(./a) - sigma (`scale_sum_telescopes`), the bounded support of
    sigma, and both one-sided limits of sigma at 0 being 1 (the zero-limit
    row, which fails as `norm_sum` at xi = 0).  Then the partial sum over
    -J <= j <= Jout telescopes to sigma(a^{-J-1} xi) - sigma(a^Jout xi),
    whose second term is 0 for large Jout and whose first tends to 1 as J
    grows, from either side of 0 even at a < 0.  A family whose squares do
    not telescope gets no `norm_sum` row: the first row's exact witness
    already shows the broken equation.

    `tail_bound` is the supremum over all xi != 0 of the tail
    slope |xi| / |a|^(J+1) left at the inward depth J(xi), the least J >= 0
    that puts a^{-J-1} xi strictly inside sigma's 0-clearance and the tail
    at most TAIL_TARGET: TAIL_TARGET when the slope of sigma at 0
    (`zero_neighborhood`) is nonzero, attained at xi = TAIL_TARGET |a|^n /
    slope whenever slope * clearance > TAIL_TARGET, and 0 when it is zero.
    A support that repeats a residue mod 2 raises ValueError (the premise
    of `GeneratorSet`).
    """
    report = VerificationReport()
    psi_gen = family.generator_set()

    # shifted orthogonality: the premise kills every cross term
    for i in range(len(family.profiles)):
        report.add(Check(f"shift_orthogonality[{i}]", "pass", detail=(
            "support meets each residue class at most once, so every "
            "cross term vanishes identically")))

    row = _identity("scale_sum_telescopes", psi_gen.spectral, family.gain(), (
        "sum of |psi_hat|^2 equals sigma(xi/a) - sigma(xi) as exact "
        "piecewise-linear identity"))
    report.add(row)
    nbhd = family.sigma.zero_neighborhood()
    if nbhd is None or nbhd[0] != 1 or nbhd[1] != 1:
        report.add(Check("norm_sum", "fail", {"xi": Fraction(0)},
                         detail="sigma does not tend to 1 at 0"))
    elif row.status == "pass":  # nbhd[2] is the slope of sigma at 0
        report.add(Check("norm_sum", "pass",
                         tail_bound=TAIL_TARGET if nbhd[2] else Fraction(0),
                         detail=("the scale sum is 1 for all xi != 0; truncated "
                                 "at the inward depth J(xi), its tail is at "
                                 "most tail_bound at every xi != 0")))
    return report


# -- wavelet-from-scaling equations -------------------------------------------


def check_split(phi_fam: LayeredFamily, psi_fam: LayeredFamily
                ) -> VerificationReport:
    """The split G_{V_1}(xi) = G_{V_0}(xi) + G_{W_0}(xi) of fiber Gramians,
    for all xi.  Entry [0, 0] is the exact piecewise-linear identity
    sum|phi|^2(xi/a) - sum|phi|^2 = sum|psi|^2.  Each entry [0, s], s != 0,
    sums products of one profile at two congruent points, which vanish when
    every support meets each residue class mod 2 at most once.  That is the
    premise of `GeneratorSet`: a profile repeating a residue raises
    ValueError (`LayeredFamily.validate` rules it out)."""
    phi_sq = phi_fam.generator_set().spectral
    psi_sq = psi_fam.generator_set().spectral
    report = VerificationReport()
    lhs = phi_sq.compose_scale(Fraction(1, psi_fam.dilation)) - phi_sq
    report.add(_identity("two_scale_split[s=0]", lhs, psi_sq, (
        "sum|phi|^2(xi/a) - sum|phi|^2 equals sum|psi|^2 as an exact "
        "piecewise-linear identity")))
    report.add(Check("shifted_splits", "pass", detail=(
        "every phi and psi support meets each residue class mod 2 at most "
        "once, so each fiber has a single entry and every cross term "
        "G[0, s], s != 0, vanishes identically, for all xi")))
    return report


def check_suites(phi_fam: LayeredFamily, psi_fam: LayeredFamily,
                 names: Iterable[str]) -> Dict[str, VerificationReport]:
    """Run the named suites (from SUITES); {name: report}.

    Every verdict holds for all xi, and no suite reads a grid.  The split identities and density run at most once per call
    (sufficiency takes its inward-limit row from density's report).  The
    sufficiency meta check runs no NTF suite of its own: it is reached only
    when `two_scale_split[s=0]` passes, which is the telescoping identity
    sum|psi|^2 = sum|phi|^2(./a) - sum|phi|^2 of the scaling squares, and
    `unit_limit_inward` passes, which gives both one-sided limits 1 of
    sum|phi|^2 at 0; a piecewise-linear square sum has bounded support.
    Those are the three facts from which `check_ntf_multiwavelet` proves the
    norm sum with sum|phi|^2 in place of sigma, so `meta_ntf_follows`
    holds.  Each family's square sum is its generator set's `spectral`,
    built once."""
    phi_gen = phi_fam.generator_set()

    @cache
    def split() -> VerificationReport:
        return check_split(phi_fam, psi_fam)

    @cache
    def density() -> VerificationReport:
        return check_density(phi_fam)

    @cache
    def decay() -> VerificationReport:
        lo, hi = phi_gen.support_hull()
        outward = Check("outward_decay", "pass", detail=(
            f"scaling square sum is identically 0 outside the support hull "
            f"[{lo}, {hi}), so for all xi != 0 it vanishes at a^j xi for all "
            f"large j (0 itself is the measure-zero dilation fixed point, "
            f"excluded)"))
        return VerificationReport(split().checks + [outward])

    def sufficiency() -> VerificationReport:
        report = VerificationReport([Check("local_finiteness", "pass", detail=(
            f"finitely many scaling profiles; square sum bounded by "
            f"{phi_gen.spectral.max_value()}"))] + decay().checks)
        report.add(next(c for c in density().checks if c.name == "unit_limit_inward"))
        if report.status == "pass":
            report.add(Check("meta_ntf_follows", "pass", detail=(
                "hypotheses hold and the NTF characterization passes too")))
        return report

    suites = {"ntf": lambda: check_ntf_multiwavelet(psi_fam), "split": split,
              "decay": decay, "sufficiency": sufficiency,
              "density": density,
              "semiorth": lambda: check_semiorthogonal(psi_fam)}
    return {n: suites[n]() for n in dict.fromkeys(names)}


def check_density(phi_fam: LayeredFamily) -> VerificationReport:
    """Union density of the dilates: `admissibility_check` on the scaling
    square sum, the spectral function of V_0, decides its inward limit 1 and
    sum|phi|^2(a x) <= sum|phi|^2(x), monotonicity along every contraction
    orbit, exactly and with no grid."""
    return admissibility_check(SpectralSpec(phi_fam.generator_set().spectral,
                                            phi_fam.dilation))


# -- wavelet-set tiling --------------------------------------------------------


def check_wavelet_set_tiling(E_list: Seq[IntervalSet], a: int
                             ) -> VerificationReport:
    """Mutual disjointness, translation injectivity, and exact dilation
    tiling of the line, for all xi != 0: the union folded onto the annulus
    {r <= |xi| < |a| r} (`fold_dilation`) must have exactly one scale on
    every cell.  A union meeting every neighbourhood of 0 fails there, where
    infinitely many of its dilates overlap.  Raises ValueError for |a| < 2."""
    require_dilation(a)
    report = VerificationReport()
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
        cell = _repeated_residue(Ei)
        if cell is None:
            report.add(Check(f"translation_injective[{i}]", "pass"))
        else:
            report.add(Check(f"translation_injective[{i}]", "fail",
                             {"residue_lo": cell[0], "residue_hi": cell[1],
                              "multiplicity": cell[2]}))

    union = union_all(list(E_list))
    if any(lo <= 0 <= hi for lo, hi in union.cells):
        report.add(Check("dilation_tiling", "fail", {"xi": Fraction(0)}, detail=(
            "the union meets every neighbourhood of 0, so infinitely many "
            "dilates overlap as xi -> 0")))
        return report
    den, r, cells = fold_dilation([union], a)
    over = next(((lo, hi, len(js)) for lo, hi, (js,) in cells if len(js) >= 2), None)
    gap = next(((lo, hi) for lo, hi, (js,) in cells if not js), None)
    if over:
        lo, hi, c = over
        report.add(Check("dilation_tiling", "fail",
                         {"overlap_lo": Fraction(lo, den), "overlap_hi": Fraction(hi, den),
                          "count": c}, detail="doubly covered interval of the annulus"))
    elif gap:
        lo, hi = gap
        report.add(Check("dilation_tiling", "fail",
                         {"gap_lo": Fraction(lo, den), "gap_hi": Fraction(hi, den)},
                         detail="interval of the annulus that no dilate covers"))
    else:
        r = Fraction(r, den)
        report.add(Check("dilation_tiling", "pass", detail=(
            f"exactly one dilate on every cell of the annulus "
            f"{format_ratio(r)} <= |xi| < {format_ratio(abs(a) * r)}, a fundamental "
            f"domain of xi -> {a} xi, so the dilates tile the line for all "
            f"xi != 0")))
    return report


# -- semi-orthogonality ---------------------------------------------------------


def cross_energy(psi: SqrtProfile, psi_other: SqrtProfile, a: int,
                 scale_gap: int) -> Fraction:
    """sum_k |<psi, D^scale_gap T_k psi_other>|^2
    = (1/2) int |psi_hat|^2(u) |psi_other_hat|^2(a^{-scale_gap} u) du, exact.

    The identity holds under the premise of `GeneratorSet` (each support
    injective mod 2; `LayeredFamily.validate` enforces it), so the modulates
    e^{i pi k v} / sqrt(2) restricted to it form a Parseval frame -- as in
    `frametest.per_scale_energy_exact`."""
    dilated = psi_other.square.compose_scale(Fraction(a) ** -scale_gap)
    return integrate_product([psi.square, dilated]) / 2


def check_semiorthogonal(family: LayeredFamily) -> VerificationReport:
    """Certify via exact support algebra: scales j < j' are orthogonal iff
    support(psi) and a^{Delta} support(psi') intersect in measure zero for all
    Delta >= 1 (profiles are nonnegative, so a positive-measure overlap is
    conclusive failure).  The overlapping Delta are the differences m - m'
    >= 1 of scales of psi and psi' on one cell of the supports' dilation
    fold.  The fail witness is the exact cross-scale energy of the first
    pair at its least Delta, a positive rational (`cross_energy`, whose
    premise is that each profile's support is injective mod 2)."""
    report = VerificationReport()
    a = family.dilation
    psis = family.profiles
    if not psis:
        report.add(Check("semi_orthogonal", "pass",
                         detail="empty family is trivially semi-orthogonal"))
        return report
    supports = [p.support() for p in psis]
    _, _, cells = fold_dilation(supports, a)
    gaps = ((i, i2, min((m - m2 for _, _, js in cells for m in js[i]
                         for m2 in js[i2] if m > m2), default=None))
            for i, i2 in product(range(len(psis)), repeat=2))
    overlap_found = next((g for g in gaps if g[2] is not None), None)
    if overlap_found is None:
        report.add(Check("semi_orthogonal", "pass", detail=(
            "supports of all dilate pairs are disjoint up to measure zero; "
            "for nonnegative profiles this certifies orthogonality between "
            "scales")))
        return report
    i, i2, delta = overlap_found
    ov = supports[i].intersect(supports[i2].scale(a ** delta))
    report.add(Check("semi_orthogonal", "fail",
                     {"psi": i, "psi_other": i2, "scale_gap": delta,
                      "overlap_lo": ov.pieces[0][0], "overlap_hi": ov.pieces[0][1],
                      "cross_energy": cross_energy(psis[i], psis[i2], a, delta)},
                     detail=(
                         "supports overlap on positive measure; nonnegative "
                         "profiles make scales non-orthogonal, exact "
                         "cross-scale energy shown")))
    return report
