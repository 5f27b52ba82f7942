"""Desk-scale Parseval check: affine-system coefficients by quadrature.

Coefficients <f, D^j T_k psi> are computed in the Fourier domain:
    (1/2) |a|^{-j/2} int f_hat(u) psi_hat(a^{-j} u) e^{i pi k a^{-j} u} du
(pi units: the real frequency is u*pi, which contributes the 1/2 and puts pi
into the phase).  Per scale one QuadPlan holds the integrand
f_hat(u) * sqrt(|psi_hat|^2(a^{-j} u)), with the signal line and the scaled
profile square as its two pieces.  The integrand is real, so
<f, D^j T_(-k) psi> is the conjugate of <f, D^j T_k psi> and only k >= 0 is
integrated.  The k sweep per scale runs in blocks of consecutive k, each
passed to one QuadPlan.integrate call as a FreqRun, whose phases come from
angle addition (see quadrature).  The sweep of a scale stops where the block
energy and its extrapolated remainder fall below the target.

The scales outside the j range enter the verdict through their exact
energies E_j = sum_k |<f, D^j T_k psi>|^2 = (1/2) int f_hat(u)^2 S(u/t) du,
S = |psi_hat|^2, t = a^j (per_scale_energy_exact).  Summed over psi these
telescope: the wavelet squares add up to the gain sigma(./a) - sigma, so the
scales j_min..j_max carry sigma(u/a^(j_max+1)) - sigma(u/a^j_min), and all of
Z carries L(u), the one-sided limit of sigma at 0 on the side of u (sigma has
bounded support, and at a < 0 both limits agree because the gain is >= 0 on
both sides of 0).  Every scale outside the range, however deep, is therefore
one exact integral (out_of_range_energy).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .construction import LayeredFamily
from .intervals import IntervalSet
from .piecewise import PiecewiseLinear, SqrtProfile, integrate_product
from .quadrature import FreqRun, QuadPlan
from .rationals import as_fraction, format_ratio

_SIGNAL_RE = re.compile(r"^(tent|chi):\[\s*([^,\]]+)\s*,\s*([^,\]]+)\s*\)$")


@dataclass(frozen=True)
class TestSignal:
    """A signal given by its compactly supported piecewise-linear transform."""

    __test__ = False  # not a pytest case despite the name

    hat: PiecewiseLinear
    label: str = ""

    def norm2(self) -> Fraction:
        """||f||^2 = (2 pi)^{-1} int |f_hat|^2, exact (pi units give the 1/2)."""
        return integrate_product([self.hat, self.hat]) / 2

    @staticmethod
    def tent(lo, hi, label: str = "") -> "TestSignal":
        """Peak 1 at the midpoint, 0 at both ends."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        mid = (lo + hi) / 2
        rise_a = Fraction(1) / (mid - lo)
        fall_a = Fraction(-1) / (hi - mid)
        pieces = PiecewiseLinear.of((lo, mid, rise_a, -rise_a * lo),
                                    (mid, hi, fall_a, -fall_a * hi))
        return TestSignal(pieces, label or f"tent:[{format_ratio(lo)},{format_ratio(hi)})")

    @staticmethod
    def indicator(lo, hi, label: str = "") -> "TestSignal":
        lo, hi = as_fraction(lo), as_fraction(hi)
        return TestSignal(PiecewiseLinear.indicator(IntervalSet.of((lo, hi))),
                          label or f"chi:[{format_ratio(lo)},{format_ratio(hi)})")

    @staticmethod
    def parse(text: str) -> "TestSignal":
        m = _SIGNAL_RE.match(text.strip())
        if not m:
            raise ValueError(f"signal grammar is tent:[lo,hi) or chi:[lo,hi), got {text!r}")
        kind, lo, hi = m.group(1), as_fraction(m.group(2)), as_fraction(m.group(3))
        if hi <= lo:
            raise ValueError("empty signal support")
        return TestSignal.tent(lo, hi) if kind == "tent" else TestSignal.indicator(lo, hi)


def _scaled_square(psi: SqrtProfile, a: int, j: int) -> PiecewiseLinear:
    """|psi_hat|^2(a^{-j} u) as a function of u, exact."""
    return psi.square.compose_scale(Fraction(a) ** (-j))


def _scale_plan(f: TestSignal, psi: SqrtProfile, a: int, j: int, k_max: int
                ) -> Tuple[QuadPlan, float, float]:
    """Quadrature plan, frequency unit, and amplitude for one scale swept up
    to k_max.  Raises ValueError when a^j, a^-j or the largest phase
    k_max * unit * u over the signal does not fit a float."""
    try:
        freq_unit = math.pi * float(Fraction(a) ** (-j))
        amplitude = 0.5 * abs(float(Fraction(a) ** j)) ** -0.5
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"scale j = {j} is out of float range at a = {a} "
                         f"(|a|^j overflows or underflows a float)") from None
    reach = max((abs(float(u)) for u in f.hat.breakpoints()), default=0.0)
    if not math.isfinite(abs(freq_unit) * k_max * reach):
        raise ValueError(f"scale j = {j} is out of float range at a = {a} "
                         f"(the sweep phase at k = {k_max} overflows a float)")
    return QuadPlan(f.hat, _scaled_square(psi, a, j)), freq_unit, amplitude


def _meets(f: TestSignal, psi: SqrtProfile, t: Fraction) -> bool:
    """Whether the support of psi_hat(./t) meets that of f_hat in positive
    measure (t = a^j): whether a cell [lo, hi) of f_hat and a cell [l, h)
    of t supp(psi) overlap, both ends compared on integers as cross products
    with the other's denominator."""
    s = psi.support().scale(t)
    fd, sd = f.hat.den, s.den
    return any(lo * sd < h * fd and l * fd < hi * sd
               for lo, hi, _, _ in f.hat.cells for l, h in s.cells)


def coefficient(f: TestSignal, psi: SqrtProfile, j: int, k: int, a: int = 2
                ) -> complex:
    """<f, D^j T_k psi>; exact 0 when supports miss."""
    if not _meets(f, psi, Fraction(a) ** j):
        return 0.0 + 0.0j
    plan, freq_unit, amplitude = _scale_plan(f, psi, a, j, abs(k))
    value = complex(amplitude * plan.integrate(FreqRun(abs(k), 1, freq_unit))[0])
    return value.conjugate() if k < 0 else value


def per_scale_energy_exact(f: TestSignal, psi: SqrtProfile, a: int, j: int
                           ) -> Fraction:
    """sum_k |<f, D^j T_k psi>|^2 in closed form:
    (1/2) int |f_hat(u)|^2 |psi_hat|^2(a^{-j} u) du, exact.

    Valid under the premise of `GeneratorSet` (the profile's support is
    injective mod 2), which makes the modulates an orthonormal family on it
    (used as an oracle and as the basis of out_of_range_energy, never as the
    measured energy)."""
    return integrate_product([f.hat, f.hat, _scaled_square(psi, a, j)]) / 2


def out_of_range_energy(f: TestSignal, family: LayeredFamily,
                        j_min: int, j_max: int) -> Fraction:
    """per_scale_energy_exact summed over every psi and every scale j outside
    j_min..j_max, exact: (1/2) int f_hat(u)^2 [sigma(u/a^j_min) + L(u)
    - sigma(u/a^(j_max+1))] du, L(u) the limit of sigma at 0 from the side
    of u (see the module docstring).  Raises ValueError when a support
    breaks the premise of `GeneratorSet` (read through its `spectral`) or
    the wavelet squares do not telescope to the gain."""
    if family.generator_set().spectral != family.gain():
        raise ValueError("wavelet squares do not telescope to the gain "
                         "sigma(./a) - sigma")
    sigma, a = family.sigma, Fraction(family.dilation)
    reach = max((abs(x) for x in f.hat.breakpoints()), default=0)
    limit = PiecewiseLinear.of((-reach, 0, 0, sigma.eval_left(0)),
                               (0, reach, 0, sigma.eval(0)))
    energy = (integrate_product([f.hat, f.hat, sigma.compose_scale(a ** -j_min)])
              + integrate_product([f.hat, f.hat, limit])
              - integrate_product([f.hat, f.hat, sigma.compose_scale(a ** -(j_max + 1))]))
    return energy / 2


@dataclass
class ScaleEnergy:
    j: int
    computed: float = 0.0
    k_used: int = 0
    k_tail: float = 0.0


@dataclass
class EnergyReport:
    ratio: float
    tail_estimate: float
    norm2: Fraction
    scales: List[ScaleEnergy] = field(default_factory=list)
    inconclusive: bool = False
    detail: str = ""

    def to_jsonable(self) -> dict:
        return {
            "ratio": self.ratio,
            "tail_estimate": self.tail_estimate,
            "norm2": format_ratio(self.norm2),
            "inconclusive": self.inconclusive,
            "detail": self.detail,
            "scales": [
                {"j": s.j, "energy": s.computed, "k_used": s.k_used,
                 "k_tail": s.k_tail}
                for s in self.scales],
        }


_K_BLOCK = 64


def frame_energy(f: TestSignal, family: LayeredFamily,
                 j_min: int = -8, j_max: int = 8,
                 k_tail_target: float = 1e-6,
                 k_budget: int = 1 << 21) -> EnergyReport:
    """Accumulate sum |<f, D^j T_k psi>|^2 / ||f||^2 over the scale range.

    Per (psi, j) the k sweep grows in blocks until the block energy and a
    conservative extrapolated remainder drop below the target fraction of
    ||f||^2; the remainders plus the exact energy of every scale outside the
    j range (out_of_range_energy, rounded once) are reported as
    tail_estimate.  Exhausting k_budget first marks the report inconclusive.
    An empty range (j_min > j_max), a k_tail_target that is not finite and
    > 0, a k_budget below 1, a zero signal, or wavelet squares that do not
    telescope to the gain raise ValueError.
    """
    if j_min > j_max:
        raise ValueError(f"empty scale range {j_min}..{j_max} (j_min > j_max)")
    if not (math.isfinite(k_tail_target) and k_tail_target > 0):
        raise ValueError(f"k_tail_target must be finite and > 0, got {k_tail_target}")
    if k_budget < 1:
        raise ValueError(f"k_budget must be >= 1, got {k_budget}")
    norm2 = f.norm2()
    if norm2 == 0:
        raise ValueError("zero test signal")
    outside = out_of_range_energy(f, family, j_min, j_max)
    norm2f = float(norm2)
    a = family.dilation
    report = EnergyReport(0.0, 0.0, norm2)
    total = 0.0
    active = [(j, psi) for j in range(j_min, j_max + 1) for psi in family.profiles
              if _meets(f, psi, Fraction(a) ** j)]
    # per-scale tail contract: each (j, psi) sweep stops below this energy
    per_target = k_tail_target * norm2f
    scales: Dict[int, ScaleEnergy] = {j: ScaleEnergy(j) for j in range(j_min, j_max + 1)}
    for j, psi in active:
        scale = scales[j]
        # the sweep ends at the first block end past k_budget / 2, below this k
        plan, freq_unit, amplitude = _scale_plan(f, psi, a, j, k_budget + _K_BLOCK)
        k_hi = -1
        block = _K_BLOCK
        while True:
            vals = plan.integrate(FreqRun(k_hi + 1, block, freq_unit))
            # real integrand: coeff(-k) = conj(coeff(k)), so fold negative k in
            power = 2 * np.vdot(vals, vals).real
            if k_hi < 0:
                power -= abs(vals[0]) ** 2
            block_energy = float(amplitude ** 2 * power)
            scale.computed += block_energy
            total += block_energy
            k_hi += block
            scale.k_used = max(scale.k_used, k_hi)
            # remainder if |coeff|^2 decays no slower than 1/k^2 from here
            tail_est = block_energy * k_hi / block
            converged = block_energy < per_target and tail_est < per_target
            if converged or 2 * k_hi >= k_budget:
                if not converged:
                    report.inconclusive = True
                    report.detail += (f"k budget exhausted at scale {j} "
                                      f"(tail estimate {tail_est:.3g});")
                scale.k_tail += tail_est
                report.tail_estimate += tail_est
                break
            block = min(block * 2, 16384)
    report.scales.extend(scales[j] for j in range(j_min, j_max + 1))
    report.tail_estimate += float(outside)
    report.ratio = total / norm2f
    return report

