"""Independent quadrature oracles for products of piecewise-linear factors.

A factor is a pair (pwl, is_sqrt): pwl(u) itself, or sqrt(max(pwl(u), 0)).
Both oracles integrate prod factor(u) * e^{i c u} du by sampling, with no
closed form, so they check the quadrature module from outside.
"""

import math

import numpy as np

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
        vals = pwl.eval_float(xs)
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
