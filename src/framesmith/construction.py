"""Construction of NTF wavelet families from admissible spectral profiles.

The pipeline: an admissible sigma (nonnegative, bounded support, decreasing
along dilation orbits, one-sided limits 1 at 0) yields two families of one
shape, `LayeredFamily`: sqrt of a square on layers that are each injective
mod 2pi.  The scaling profiles phi take sigma on the translated fundamental
windows [2k - 1, 2k + 1) it meets; the wavelet profiles psi take the
two-scale gain sigma(./a) - sigma on the layers of a partition of its
support.
The wavelet-set pipeline runs the same construction from sigma = chi_E where
E is the union of the contracted copies of a seed set, read exactly off its
dilation fold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from .folding import (_repeated_residue, _windows, fold_dilation, layered_partition,
                      per_multiplicity, window)
from .intervals import IntervalSet
from .piecewise import GeneratorSet, PiecewiseLinear, SqrtProfile
from .rationals import as_fraction, format_ratio


def require_dilation(a: int) -> None:
    """Raise ValueError unless the integer dilation has |a| >= 2."""
    if abs(a) < 2:
        raise ValueError("dilation must satisfy |a| >= 2")


@dataclass(frozen=True)
class SpectralSpec:
    """A candidate spectral profile with its integer dilation (|a| >= 2)."""

    sigma: PiecewiseLinear
    dilation: int = 2

    def __post_init__(self):
        require_dilation(self.dilation)

    def two_scale_gain(self) -> PiecewiseLinear:
        """sigma(xi/a) - sigma(xi): the mass the next scale adds."""
        return self.sigma.compose_scale(Fraction(1, self.dilation)) - self.sigma


@dataclass(frozen=True)
class Check:
    """One named verdict of a report, with its exact witness when it fails;
    `admissibility_check` and every `verification` suite report in these."""

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


def admissibility_check(spec: SpectralSpec) -> VerificationReport:
    """Exact check of the three spectral-profile conditions that can fail:
    sigma >= 0, sigma(a xi) <= sigma(xi), and one-sided limits 1 at 0.
    Integrability, bounded folding and the outward limit 0 all follow from
    the bounded support of a piecewise-linear sigma."""
    sigma, a = spec.sigma, spec.dilation
    report = VerificationReport()

    def condition(name: str, witness: Optional[Fraction], detail: str) -> None:
        report.add(Check(name, "pass" if witness is None else "fail",
                         None if witness is None else {"xi": witness}, detail=detail))

    condition("nonnegative_integrable", sigma.first_negative_witness(),
              "sigma >= 0 and bounded support (piecewise linear is integrable)")
    condition("dilation_monotone", sigma.dilation_rise(a),
              "sigma(a*xi) <= sigma(xi) everywhere")
    nbhd = sigma.zero_neighborhood()
    if nbhd is None:
        condition("unit_limit_inward", Fraction(0),
                  "support does not reach 0; both one-sided limits are 0")
    else:
        left, right, _ = nbhd
        ok = left == 1 and right == 1
        side, bad = ("left", left) if left != 1 else ("right", right)
        condition("unit_limit_inward", None if ok else Fraction(0),
                  "one-sided limits at 0 are both 1" if ok
                  else f"{side} limit at 0 is {bad}")
    return report


def _refusal(report: VerificationReport) -> Optional[str]:
    """The refusal naming the report's first failing condition, or None."""
    bad = next((c for c in report.checks if c.status != "pass"), None)
    return None if bad is None else (
        f"spectral profile not admissible: {bad.name} fails at xi = "
        f"{bad.witness['xi']} ({bad.detail})")


def require_admissible(spec: SpectralSpec) -> None:
    refusal = _refusal(admissibility_check(spec))
    if refusal is not None:
        raise ValueError(refusal)


@dataclass(frozen=True)
class LayeredFamily:
    """Profiles sqrt(square) on layers that are each injective mod 2, the
    shape of both generator families: the multiscaling functions phi
    (square sigma, one layer per window [2k - 1, 2k + 1) it meets) and the
    multiwavelets psi (square the two-scale gain, layers from a partition
    rule)."""

    profiles: Tuple[SqrtProfile, ...]
    layers: Tuple[IntervalSet, ...]
    sigma: PiecewiseLinear
    dilation: int

    # read-only names of `profiles`: bench/workloads.py reads them until the
    # benchmark refresh of ROADMAP item 1
    phis = psis = property(lambda self: self.profiles)

    def generator_set(self) -> GeneratorSet:
        """The same set on every call, so its `spectral` is built once per
        family."""
        return self._generators

    @cached_property
    def _generators(self) -> GeneratorSet:
        return GeneratorSet(self.profiles, self.dilation)

    def gain(self) -> PiecewiseLinear:
        return SpectralSpec(self.sigma, self.dilation).two_scale_gain()

    def validate(self, names: Optional[Sequence[str]] = None) -> None:
        """The structural premises: one layer per profile, each profile
        inside its layer, and every layer injective mod 2; an error names
        layer i by names[i] ("layer i" by default).  Whether the squares sum
        to sigma or telescope to the gain is the paper's claim, which
        `check` decides."""
        if len(self.profiles) != len(self.layers):
            raise ValueError("profile/layer length mismatch")
        for i, (profile, layer) in enumerate(zip(self.profiles, self.layers)):
            if profile.support().difference(layer):
                broken = "the profile leaks outside the layer {}"
            elif _repeated_residue(layer) is not None:
                broken = "the layer {} is not injective mod 2pi"
            else:
                continue
            shown = " u ".join(f"[{format_ratio(lo)}, {format_ratio(hi)})"
                               for lo, hi in layer.pieces)
            name = f"layer {i}" if names is None else names[i]
            raise ValueError(f"{name}: {broken.format(shown)}")


def _layered(spec: SpectralSpec, square: PiecewiseLinear,
             layers: Sequence[IntervalSet]) -> LayeredFamily:
    """The validated family of sqrt(square) on each layer where it is not
    zero."""
    profiles: List[SqrtProfile] = []
    kept: List[IntervalSet] = []
    for layer in layers:
        profile = SqrtProfile(square.restrict(layer))
        if not profile.square.is_zero():
            profiles.append(profile)
            kept.append(layer)
    fam = LayeredFamily(tuple(profiles), tuple(kept), spec.sigma, spec.dilation)
    fam.validate()
    return fam


def build_scaling(spec: SpectralSpec) -> LayeredFamily:
    """sqrt(sigma) on each window sigma meets, for any sigma: refusing an
    inadmissible one is `build_family`'s."""
    return _layered(spec, spec.sigma,
                    [window(k) for k in _windows(*spec.sigma.support().hull())])


def build_wavelets(spec: SpectralSpec, partition: str = "greedy") -> LayeredFamily:
    """Layer the two-scale gain and take square roots.  partition="greedy"
    peels multiplicity layers; "windows" intersects with the translated
    fundamental windows (may produce more layers than the minimum p).
    Like `build_scaling`, it leaves admissibility to `build_family`."""
    gain = spec.two_scale_gain()
    K = gain.support()
    if partition == "greedy":
        layers = layered_partition(K)
    elif partition == "windows":
        layers = [K.intersect(window(k)) for k in _windows(*K.hull())]
    else:
        raise ValueError(f"unknown partition rule {partition!r}")
    return _layered(spec, gain, layers)


def build_family(spec: SpectralSpec, partition: str = "greedy"
                 ) -> Tuple[LayeredFamily, LayeredFamily]:
    """Both families of an admissible spec, (phi, psi); ValueError naming
    the first failing condition otherwise."""
    require_admissible(spec)
    return build_scaling(spec), build_wavelets(spec, partition)


# -- wavelet-set pipeline ----------------------------------------------------


class ClosureDidNotStabilize(RuntimeError):
    """Raised when the union of contracted copies has infinitely many pieces."""

    def __init__(self, cell: Tuple[Fraction, Fraction]):
        super().__init__(
            f"union of contracted copies has infinitely many pieces near 0: "
            f"no dilate of E reaches the annulus cell [{cell[0]},{cell[1]})")
        self.cell = cell


def waveletset_closure(E: IntervalSet, a: int) -> IntervalSet:
    """Exact union of E/a^j over j >= 1, up to the measure-zero point {0}.

    Read off the dilation fold of E: a cell c of the annulus whose largest
    scale inside E is M contributes a^m c for every m <= M - 1.  The union
    is finite iff on each orbit side (each side of 0 for a > 0, both for
    a < 0) every cell meets E or none does; otherwise ClosureDidNotStabilize
    names a cell that no dilate of E reaches.
    """
    require_dilation(a)
    den, r, cells = fold_dilation([E], a)
    sides = [cells] if a < 0 else \
        [[c for c in cells if c[0] < 0], [c for c in cells if c[0] > 0]]
    pieces = []
    for side in sides:
        if not any(js for _, _, (js,) in side):
            continue
        for lo, hi, (js,) in side:
            if not js:
                raise ClosureDidNotStabilize((Fraction(lo, den), Fraction(hi, den)))
        # every shell a^k A with k <= inner lies in the union
        inner = min(js[-1] for _, _, (js,) in side) - 1
        edge = Fraction(r, den) * Fraction(abs(a)) ** (inner + 1)
        pieces.append((-edge if side[0][0] < 0 else Fraction(0),
                       edge if side[-1][0] > 0 else Fraction(0)))
        for lo, hi, (js,) in side:
            for k in range(inner + 1, js[-1]):
                c = Fraction(a) ** k / den
                pieces.append((lo * c, hi * c) if c > 0 else (hi * c, lo * c))
    return IntervalSet.of(*pieces)


def waveletset_sigma(E: IntervalSet, a: int) -> PiecewiseLinear:
    """Spectral profile chi of the closure of the wavelet set E (Fourier
    supports of the target family) under contraction by a."""
    return PiecewiseLinear.indicator(waveletset_closure(E, a))


@dataclass(frozen=True)
class SeedClassification:
    verdict: str  # not_admissible | ntf | orthonormal
    reason: str
    fold_max: int = 0


def classify_waveletset_seed(E: IntervalSet, a: int) -> SeedClassification:
    """Classify sigma = chi_E as a wavelet-set seed, exactly.

    Not admissible iff `admissibility_check` fails on chi_E (E inside its
    own dilate aE, a punctured neighborhood of 0 inside E), with
    `require_admissible`'s refusal as the reason.  Otherwise the folding
    multiplicity of the two-scale gain's support aE \\ E decides:
    identically 1 gives an orthonormal wavelet set, bounded multiplicity a
    normalized-tight-frame family.
    """
    spec = SpectralSpec(PiecewiseLinear.indicator(E), a)
    refusal = _refusal(admissibility_check(spec))
    if refusal is not None:
        return SeedClassification("not_admissible", refusal)
    mult = per_multiplicity(spec.two_scale_gain().support())
    p = mult.max_value()
    covered = sum(((hi - lo) for lo, hi, c in mult.cells if c == 1), Fraction(0))
    if p <= 1 and covered == 2:
        return SeedClassification(
            "orthonormal", "fold of aE minus E covers the fundamental domain "
            "exactly once", p)
    return SeedClassification(
        "ntf", f"fold of aE minus E has multiplicity up to {p} "
        f"and covers measure {covered} of 2", p)


# -- built-in examples -------------------------------------------------------


def example_pwl(A, B, dilation: int = 2) -> SpectralSpec:
    """Tent spectral profile: 1 at 0, linear down to 0 at -A and +B (pi units)."""
    A, B = as_fraction(A), as_fraction(B)
    if A <= 0 or B <= 0:
        raise ValueError("tent half-widths must be positive")
    sigma = PiecewiseLinear.of(
        (-A, 0, Fraction(1) / A, 1),
        (0, B, -Fraction(1) / B, 1))
    return SpectralSpec(sigma, dilation)


def example_shannon() -> SpectralSpec:
    return SpectralSpec(PiecewiseLinear.indicator(IntervalSet.of((-1, 1))), 2)


JOURNE_WAVELET_SET = IntervalSet.of(
    (Fraction(-32, 7), -4), (-1, Fraction(-4, 7)),
    (Fraction(4, 7), 1), (4, Fraction(32, 7)))


def example_journe() -> SpectralSpec:
    return SpectralSpec(waveletset_sigma(JOURNE_WAVELET_SET, 2), 2)


def example_by_name(name: str) -> SpectralSpec:
    """Parse built-in generator names: shannon | journe | pwl:a=1/2,b=1/2."""
    if name == "shannon":
        return example_shannon()
    if name == "journe":
        return example_journe()
    if name.startswith("pwl:"):
        params = {}
        for item in name[4:].split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in ("a", "b") or key in params:
                raise ValueError(f"{'duplicate' if key in params else 'unknown'} "
                                 f"key {key!r} in {name!r} (the keys are a and b)")
            params[key] = as_fraction(value.strip())
        return example_pwl(params.get("a", Fraction(1, 2)),
                           params.get("b", Fraction(1, 2)))
    raise ValueError(f"unknown example {name!r}")


def random_admissible_spec(rng: random.Random, dilation: int | None = None
                           ) -> SpectralSpec:
    """Random radially nonincreasing tent-like profile for a dilation with
    |a| >= 2 (2 or 3 when not given), admissible by construction.  For
    a >= 2 the two sides are drawn independently: a xi lies on the same side
    of 0 as xi and |a xi| >= |xi|, so sigma(a xi) <= sigma(xi).  For a <= -2
    a xi lands on the other side, so the profile is even (the right side
    mirrored) and sigma(a xi) = sigma(|a| xi) <= sigma(xi).  |a| < 2 raises
    ValueError and draws nothing."""
    if dilation is not None and abs(dilation) < 2:
        raise ValueError("random_admissible_spec draws profiles for |a| >= 2 only")
    a = dilation if dilation is not None else rng.choice((2, 3))

    def one_side() -> List[Tuple[Fraction, Fraction]]:
        n = rng.randint(1, 4)
        xs = sorted(Fraction(rng.randint(1, 64), 16) for _ in range(n))
        xs = sorted(set(xs))
        vals = sorted((Fraction(rng.randint(0, 15), 16) for _ in xs), reverse=True)
        vals[-1] = Fraction(0)
        return list(zip(xs, vals))

    def side_pieces(knots, sign) -> List[Tuple[Fraction, Fraction, Fraction, Fraction]]:
        pieces = []
        prev_x, prev_v = Fraction(0), Fraction(1)
        for x, v in knots:
            alpha = (v - prev_v) / (sign * x - sign * prev_x)
            beta = prev_v - alpha * sign * prev_x
            lo, hi = (sign * prev_x, sign * x) if sign > 0 else (sign * x, sign * prev_x)
            pieces.append((lo, hi, alpha, beta))
            prev_x, prev_v = x, v
        return pieces

    right_knots = one_side()
    right = side_pieces(right_knots, +1)
    left = side_pieces(one_side() if a > 0 else right_knots, -1)
    sigma = PiecewiseLinear.of(*left, *right)
    return SpectralSpec(sigma, a)
