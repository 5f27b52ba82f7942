"""Desk-scale Parseval check: affine-system coefficients by quadrature.

Coefficients <f, D^j T_k psi> are computed in the Fourier domain:
    (1/2) |a|^{-j/2} int f_hat(u) psi_hat(a^{-j} u) e^{i pi k a^{-j} u} du
(pi units: the real frequency is u*pi, which contributes the 1/2 and puts pi
into the phase).  The k sweep per scale runs in blocks of consecutive k, each
passed to one QuadPlan.integrate call as a FreqRun, whose phases come from
angle addition (see quadrature).  The sweep of a scale stops where the block
energy and its extrapolated remainder fall below the target.

The scales outside the j range enter the verdict through their exact
energies E_j = sum_k |<f, D^j T_k psi>|^2 = (1/2) int f_hat(u)^2 S(u/t) du,
S = |psi_hat|^2, t = a^j (per_scale_energy_exact).  Scales whose dilated
support misses f_hat add exactly 0 and are skipped.  Deep scales take a
closed form, with the half-line moments M_m^rho = int_{rho v > 0} v^m S(v) dv
and F_m^rho = int_{rho u > 0} u^m f_hat(u)^2 du computed once per (f, psi):

* inward, once |t| * max|supp S| is at most the distance from 0 to the
  nearest nonzero breakpoint of f_hat, f_hat is a line alpha_s u + beta_s on
  each side s of 0 over the support of S(./t), and
  E_j = (1/2) |t| sum_rho (beta^2 M_0 + 2 alpha beta t M_1 + alpha^2 t^2 M_2)
  with the line of side s = sign(t) * rho and the moments of side rho;
* outward, once max|supp f_hat| / |t| is at most the distance from 0 to the
  nearest nonzero breakpoint of S, S is a line gamma_s v + eta_s there, and
  E_j = (1/2) sum_rho (eta F_0 + (gamma / t) F_1), again with s = sign(t) rho.

Both give the same exact Fraction as the integral; the scales between the
two windows are integrated.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .construction import WaveletFamily
from .intervals import IntervalSet
from .piecewise import (PiecewiseLinear, SqrtProfile, _linear_product,
                        integrate_product)
from .quadrature import Factor, FreqRun, QuadPlan, oscillatory_integrals
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


def _scale_factors(f: TestSignal, psi: SqrtProfile, a: int, j: int
                   ) -> Tuple[List[Factor], float, float]:
    """Integrand factors, frequency unit, and amplitude for one scale."""
    factors = [Factor(f.hat, is_sqrt=False),
               Factor(_scaled_square(psi, a, j), is_sqrt=True)]
    freq_unit = math.pi * float(Fraction(a) ** (-j))
    amplitude = 0.5 * abs(float(Fraction(a) ** j)) ** -0.5
    return factors, freq_unit, amplitude


def coefficients_for_scale(f: TestSignal, psi: SqrtProfile, a: int, j: int,
                           ks: np.ndarray) -> np.ndarray:
    """<f, D^j T_k psi> for every k in ks (complex array)."""
    factors, freq_unit, amplitude = _scale_factors(f, psi, a, j)
    vals = oscillatory_integrals(factors, np.asarray(ks, dtype=float) * freq_unit)
    return amplitude * vals


def _meets(f: TestSignal, psi: SqrtProfile, t: Fraction) -> bool:
    """Whether the support of psi_hat(./t) meets that of f_hat in positive
    measure (t = a^j).  The pieces are compared only when the hulls overlap."""
    pieces = f.hat.pieces
    if not pieces:
        return False
    lo, hi = sorted(x * t for x in psi.domain.hull())
    if max(lo, pieces[0][0]) >= min(hi, pieces[-1][1]):
        return False
    for dlo, dhi in psi.domain.pieces:
        dlo, dhi = sorted((dlo * t, dhi * t))
        if any(max(dlo, plo) < min(dhi, phi) for plo, phi, _, _ in pieces):
            return True
    return False


def coefficient(f: TestSignal, psi: SqrtProfile, j: int, k: int, a: int = 2
                ) -> complex:
    """Single affine-system coefficient; exact 0 when supports miss."""
    if not _meets(f, psi, Fraction(a) ** j):
        return 0.0 + 0.0j
    return complex(coefficients_for_scale(f, psi, a, j, np.array([k]))[0])


def per_scale_energy_exact(f: TestSignal, psi: SqrtProfile, a: int, j: int
                           ) -> Fraction:
    """sum_k |<f, D^j T_k psi>|^2 in closed form:
    (1/2) int |f_hat(u)|^2 |psi_hat|^2(a^{-j} u) du, exact.

    Valid because the profile's support is injective mod 2 pi, making the
    modulates an orthonormal family on it (used as an oracle and for
    out-of-range tail estimates, never as the measured energy)."""
    return integrate_product([f.hat, f.hat, _scaled_square(psi, a, j)]) / 2


def _reach(g: PiecewiseLinear) -> Fraction:
    """max |x| over the support of g."""
    return max(abs(x) for x in g.breakpoints())


def _lines_at_zero(g: PiecewiseLinear
                   ) -> Tuple[Fraction, Dict[int, Tuple[Fraction, Fraction]]]:
    """(clearance, lines): g(x) = alpha x + beta with (alpha, beta) =
    lines[s] for 0 < s x < clearance, the distance from 0 to the nearest
    nonzero breakpoint of g."""
    clear = min(abs(x) for x in g.breakpoints() if x)
    lines = {}
    for side in (1, -1):
        piece = g._piece_at(side * clear / 2)
        lines[side] = (piece[2], piece[3]) if piece else (Fraction(0), Fraction(0))
    return clear, lines


def _half_line_moments(factors: List[PiecewiseLinear], degree: int
                       ) -> Dict[int, List[Fraction]]:
    """{rho: [int_{rho x > 0} x^m prod(factors) dx for m = 0..degree]}, exact."""
    reach = _reach(factors[0])
    out = {}
    for rho in (1, -1):
        lo, hi = sorted((0, rho * reach))
        one, x = PiecewiseLinear.of((lo, hi, 0, 1)), PiecewiseLinear.of((lo, hi, 1, 0))
        out[rho] = [integrate_product(factors + [one] + [x] * m)
                    for m in range(degree + 1)]
    return out


class _DeepScales:
    """per_scale_energy_exact, E_j = (1/2) int f_hat(u)^2 S(u/t) du with
    S = |psi_hat|^2 and t = a^j, in closed form at the scales where one
    factor is a line on each side of 0 over the support of the other; None
    at the scales between (see the module docstring)."""

    def __init__(self, f: TestSignal, psi: SqrtProfile):
        self.f_hat, self.square = f.hat, psi.square
        self.f_clear, self.f_lines = _lines_at_zero(f.hat)
        self.s_clear, self.s_lines = _lines_at_zero(psi.square)
        self.f_reach, self.s_reach = _reach(f.hat), _reach(psi.square)
        self._polys: Dict[bool, Dict[int, List[Fraction]]] = {}

    def energy(self, t: Fraction) -> Fraction | None:
        """E_j at t = a^j; None between the windows."""
        sign = 1 if t > 0 else -1
        if abs(t) * self.s_reach <= self.f_clear:
            c0, c1, c2 = self._poly(True, sign)
            return abs(t) * (c0 + t * (c1 + t * c2)) / 2
        if self.f_reach <= abs(t) * self.s_clear:
            c0, c1 = self._poly(False, sign)
            return (c0 + c1 / t) / 2
        return None

    def _poly(self, inward: bool, sign: int) -> List[Fraction]:
        """Coefficients of 2 E_j / |t| in powers of t (inward: the lines of
        f_hat, squared, against the moments of S) or of 2 E_j in powers of
        1/t (outward: the lines of S against the moments of f_hat^2) for t of
        the given sign; the line on the side sign * rho meets the moments on
        the side rho."""
        if inward not in self._polys:
            if inward:
                degree, lines, factors = 2, self.f_lines, [self.square]
            else:
                degree, lines, factors = 1, self.s_lines, [self.f_hat, self.f_hat]
            moments = _half_line_moments(factors, degree)
            self._polys[inward] = {}
            for side in (1, -1):
                total = [Fraction(0)] * (degree + 1)
                for rho, rho_moments in moments.items():
                    poly = _linear_product([lines[side * rho]] * degree)
                    for m in range(degree + 1):
                        total[m] += poly[m] * rho_moments[m]
                self._polys[inward][side] = total
        return self._polys[inward][sign]


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


def frame_energy(f: TestSignal, family: WaveletFamily,
                 j_min: int = -8, j_max: int = 8,
                 k_tail_target: float = 1e-6,
                 k_budget: int = 1 << 21) -> EnergyReport:
    """Accumulate sum |<f, D^j T_k psi>|^2 / ||f||^2 over the scale range.

    Per (psi, j) the k sweep grows in blocks until the block energy and a
    conservative extrapolated remainder drop below the target fraction of
    ||f||^2; the remainder and the exact per-scale energies outside the j
    range are reported as tail_estimate.  Exhausting k_budget first marks the
    report inconclusive.  An empty range (j_min > j_max) raises ValueError.
    """
    if j_min > j_max:
        raise ValueError(f"empty scale range {j_min}..{j_max} (j_min > j_max)")
    norm2 = f.norm2()
    if norm2 == 0:
        raise ValueError("zero test signal")
    norm2f = float(norm2)
    a = family.dilation
    report = EnergyReport(0.0, 0.0, norm2)
    total = 0.0
    active = [(j, psi) for j in range(j_min, j_max + 1) for psi in family.psis
              if _meets(f, psi, Fraction(a) ** j)]
    # per-scale tail contract: each (j, psi) sweep stops below this energy
    per_target = k_tail_target * norm2f
    scales: Dict[int, ScaleEnergy] = {j: ScaleEnergy(j) for j in range(j_min, j_max + 1)}
    for j, psi in active:
        scale = scales[j]
        factors, freq_unit, amplitude = _scale_factors(f, psi, a, j)
        plan = QuadPlan(factors)
        k_hi = -1
        block = _K_BLOCK
        while True:
            vals = plan.integrate(FreqRun(k_hi + 1, block, freq_unit))
            # real factors: coeff(-k) = conj(coeff(k)), so fold negative k in
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
            if block_energy < per_target and tail_est < per_target:
                scale.k_tail += tail_est
                report.tail_estimate += tail_est
                break
            if 2 * k_hi >= k_budget:
                report.inconclusive = True
                report.detail += (f"k budget exhausted at scale {j} "
                                  f"(tail estimate {tail_est:.3g});")
                scale.k_tail += tail_est
                report.tail_estimate += tail_est
                break
            block = min(block * 2, 16384)
    report.scales.extend(scales[j] for j in range(j_min, j_max + 1))
    # exact per-scale energies outside the computed j range (tail estimate);
    # a scale whose dilated support misses f_hat adds exactly 0
    deep: Dict[int, _DeepScales] = {}   # built for the psi that meet f_hat
    for j in list(range(j_min - 40, j_min)) + list(range(j_max + 1, j_max + 41)):
        t = Fraction(a) ** j
        for i, psi in enumerate(family.psis):
            if _meets(f, psi, t):
                if i not in deep:
                    deep[i] = _DeepScales(f, psi)
                energy = deep[i].energy(t)
                if energy is None:
                    energy = per_scale_energy_exact(f, psi, a, j)
                report.tail_estimate += float(energy)
    report.ratio = total / norm2f
    return report

