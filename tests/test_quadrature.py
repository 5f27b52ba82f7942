import math
from fractions import Fraction as F

import numpy as np
import pytest

from framesmith.piecewise import PiecewiseLinear
from framesmith.quadrature import (_FRESNEL_INF, _GL_ORDER, _PHASE_PER_PANEL,
                                   _SERIES_PHASE, Factor, FreqRun, QuadPlan,
                                   _cells, _fresnel_tail, _gl_nodes,
                                   _graded_panels, oscillatory_integrals,
                                   riemann_oracle)


def _gl_reference(factors, c):
    """Graded Gauss-Legendre panels on every cell, refined for |c|."""
    zeros = {float(z) for f in factors for z in f.sqrt_zeros()}
    xs, ws = _gl_nodes(_GL_ORDER)
    total = 0j
    for lo, hi in _cells(factors):
        flo, fhi = float(lo), float(hi)
        max_len = max((fhi - flo) * 2.0 ** -29, _PHASE_PER_PANEL / max(abs(c), 1.0))
        for a, b in _graded_panels(flo, fhi, flo in zeros, fhi in zeros, max_len):
            nodes = 0.5 * (b - a) * xs + 0.5 * (a + b)
            base = np.ones_like(nodes)
            for f in factors:
                vals = f.pwl.eval_float(nodes)
                base *= np.sqrt(np.maximum(vals, 0.0)) if f.is_sqrt else vals
            total += np.sum(0.5 * (b - a) * ws * base * np.exp(1j * c * nodes))
    return total


def _root_cell(lo, hi, alpha, beta):
    """(3/2 - u/3) * sqrt(alpha u + beta) on [lo, hi): one varying root."""
    line = PiecewiseLinear.of((lo, hi, F(-1, 3), F(3, 2)))
    root = PiecewiseLinear.of((lo, hi, alpha, beta))
    return [Factor(line), Factor(root, is_sqrt=True)]


# (lo, hi, alpha, beta): radicand zero at the left end, at the right end
# (alpha < 0), left of the cell, right of the cell (alpha < 0)
ROOT_CELLS = [(0, 2, 1, 0), (0, 2, -3, 6), (F(1, 2), F(5, 2), 2, 5),
              (-1, 1, F(-1, 2), F(7, 3))]


def _frequencies(factors):
    """0, both sides of the series switch |c| s1 = _SERIES_PHASE, larger."""
    cell = QuadPlan(factors).closed[0]
    edge = _SERIES_PHASE / cell.s1
    cs = [0.0, 0.3 * edge, 0.999 * edge, 1.001 * edge, 7.3, 181.0]
    return cs + [-c for c in cs[1:]]


class TestClosedFormCells:
    @pytest.mark.parametrize("cell", ROOT_CELLS)
    def test_root_cell_matches_graded_gauss(self, cell):
        factors = _root_cell(*cell)
        plan = QuadPlan(factors)
        assert len(plan.closed) == 1 and len(plan.nodes) == 0
        cs = _frequencies(factors)
        got = plan.integrate(np.array(cs))
        for c, val in zip(cs, got):
            assert abs(val - _gl_reference(factors, c)) < 1e-13

    @pytest.mark.parametrize("cell", ROOT_CELLS)
    def test_root_cell_matches_riemann(self, cell):
        factors = _root_cell(*cell)
        cs = _frequencies(factors)
        got = QuadPlan(factors).integrate(np.array(cs))
        for c, val in zip(cs, got):
            assert abs(val - riemann_oracle(factors, c)) < 1e-6

    def test_radicand_negative_part_clipped(self):
        # sqrt(max(u - 1, 0)) on [0, 2): only [1, 2) contributes
        factors = _root_cell(0, 2, 1, -1)
        for c in (0.0, 1.5, -40.0):
            val = QuadPlan(factors).integrate(np.array([c]))[0]
            assert abs(val - riemann_oracle(factors, c)) < 1e-6

    def test_polynomial_cell_matches_graded_gauss(self):
        # no varying root: a constant root times a product of two lines
        tent = PiecewiseLinear.of((-1, 0, 1, 1), (0, 1, -1, 1))
        ramp = PiecewiseLinear.of((-1, 1, F(1, 2), 2))
        const = PiecewiseLinear.of((-1, 1, 0, F(9, 4)))
        factors = [Factor(tent), Factor(ramp), Factor(const, is_sqrt=True)]
        cs = [0.0, 0.5, 1.999, 2.001, -3.0, 57.0, -900.0]
        got = QuadPlan(factors).integrate(np.array(cs))
        for c, val in zip(cs, got):
            assert abs(val - _gl_reference(factors, c)) < 1e-13

    @pytest.mark.parametrize("cell", ROOT_CELLS[:2])
    def test_plan_serves_high_frequencies(self, cell):
        # a plan built without a frequency bound stays exact far out
        factors = _root_cell(*cell)
        cs = [1000.0, 10000.5, -30000.25]
        got = QuadPlan(factors).integrate(np.array(cs))
        for c, val in zip(cs, got):
            assert abs(val - _gl_reference(factors, c)) < 1e-13

    def test_two_varying_roots_use_graded_gauss(self):
        up = PiecewiseLinear.of((0, 1, 1, 0))
        down = PiecewiseLinear.of((0, 1, -1, 1))
        factors = [Factor(up, is_sqrt=True), Factor(down, is_sqrt=True)]
        plan = QuadPlan(factors, 30.0)
        assert len(plan.nodes) and not plan.closed
        val = oscillatory_integrals(factors, np.array([30.0]))[0]
        assert abs(val - riemann_oracle(factors, 30.0)) < 1e-6
        with pytest.raises(ValueError, match="c_max"):
            plan.integrate(np.array([31.0]))


def _sweep_integrand():
    """A frame-test integrand: a tent times the root of a profile square
    with four pieces, so that neighbouring cells share their ends."""
    tent = PiecewiseLinear.of((F(-1, 3), F(1, 5), F(15, 8), F(5, 8)),
                              (F(1, 5), F(5, 7), F(-35, 18), F(25, 18)))
    square = PiecewiseLinear.of((-1, F(-1, 2), 2, 2), (F(-1, 2), 0, 0, 1),
                                (0, F(1, 2), 0, 1), (F(1, 2), 1, -2, 2))
    return [Factor(tent), Factor(square, is_sqrt=True)]


def _polynomial_integrand():
    """A tent against an indicator profile: no root varies."""
    tent = PiecewiseLinear.of((-1, 0, 1, 1), (0, 1, -1, 1))
    return [Factor(tent), Factor(PiecewiseLinear.of((F(-1, 2), 2, 0, 1)), is_sqrt=True)]


class TestFreqRun:
    @pytest.mark.parametrize("k0, n, unit", [
        (0, 1, math.pi), (0, 64, math.pi / 3), (5, 333, -math.pi * 4),
        (1 << 20, 1000, math.pi / 2), ((1 << 20) - 7, 16384, -math.pi / 9)])
    def test_phases_by_angle_addition(self, k0, n, unit):
        run = FreqRun(k0, n, unit)
        assert len(run) == n
        freqs = run.freqs()
        assert np.array_equal(freqs, np.arange(k0, k0 + n) * unit)
        for x in (0.0, 0.75, -1.3, 2.0 / 7):
            # both sides round the phase argument k * unit * x
            slack = 16 * 2.0 ** -52 * (abs(k0 + n) * abs(unit * x) + 1)
            assert np.max(np.abs(run.phases(x) - np.exp(1j * freqs * x))) <= slack

    @pytest.mark.parametrize("integrand", [_sweep_integrand, _polynomial_integrand])
    @pytest.mark.parametrize("k0, n, sign", [
        (0, 64, 1), (0, 100, -1), (1000, 333, 1), (1 << 20, 1000, -1),
        ((1 << 20) - 7, 16384, 1)])
    def test_run_agrees_with_array_path(self, integrand, k0, n, sign):
        plan = QuadPlan(integrand())
        # the integrand is >= 0, so its value at frequency 0 bounds all others
        top = abs(plan.integrate(np.array([0.0]))[0])
        run = FreqRun(k0, n, sign * math.pi * F(3, 4))
        got = plan.integrate(run)
        assert len(got) == n
        assert np.max(np.abs(got - plan.integrate(run.freqs()))) <= 1e-13 * top

    @pytest.mark.parametrize("integrand", [_sweep_integrand, _polynomial_integrand])
    def test_run_matches_riemann(self, integrand):
        factors = integrand()
        unit = -math.pi / 2
        got = QuadPlan(factors).integrate(FreqRun(3, 5, unit))
        for m, val in enumerate(got):
            assert abs(val - riemann_oracle(factors, (3 + m) * unit)) < 1e-6


def test_fresnel_against_scipy():
    special = pytest.importorskip("scipy.special")
    x = np.concatenate([np.linspace(0, 100, 20001), np.geomspace(1e-8, 100, 2000)])
    t = math.pi * x ** 2 / 2
    g = (_FRESNEL_INF + np.exp(1j * t) * _fresnel_tail(t)) / math.sqrt(2 * math.pi)
    s, c = special.fresnel(x)
    assert np.max(np.abs(g.real - c)) <= 5e-14
    assert np.max(np.abs(g.imag - s)) <= 5e-14
