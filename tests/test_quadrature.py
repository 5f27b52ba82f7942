import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from framesmith.construction import SpectralSpec, build_family, example_by_name
from framesmith.frametest import TestSignal, _scaled_square
from framesmith.piecewise import PiecewiseLinear
from framesmith.quadrature import (_FRESNEL_INF, _FRESNEL_SERIES, _SERIES_PHASE, FreqRun,
                                   QuadPlan, _fresnel_tail)
from oracles import (cell_sum_oracle, gl_reference, head_cells_oracle, riemann_oracle,
                     rooted_cells_oracle)


def _factors(integrand):
    """The oracle factors of line * sqrt(max(square, 0))."""
    line, square = integrand
    return [(line, False), (square, True)]


def _at(plan, cs):
    """The plan at each single frequency c, as the run FreqRun(1, 1, c)."""
    return np.array([plan.integrate(FreqRun(1, 1, c))[0] for c in cs])


def _root_cell(lo, hi, alpha, beta):
    """(3/2 - u/3) * sqrt(alpha u + beta) on [lo, hi): one varying root."""
    line = PiecewiseLinear.of((lo, hi, F(-1, 3), F(3, 2)))
    square = PiecewiseLinear.of((lo, hi, alpha, beta))
    return line, square


# (lo, hi, alpha, beta): radicand zero at the left end, at the right end
# (alpha < 0), left of the cell, right of the cell (alpha < 0)
ROOT_CELLS = [(0, 2, 1, 0), (0, 2, -3, 6), (F(1, 2), F(5, 2), 2, 5),
              (-1, 1, F(-1, 2), F(7, 3))]


def _frequencies(integrand):
    """0, both sides of the series switch |c| s1 = _SERIES_PHASE, larger."""
    cell = QuadPlan(*integrand).closed[0]
    edge = _SERIES_PHASE / cell.s1
    cs = [0.0, 0.3 * edge, 0.999 * edge, 1.001 * edge, 7.3, 181.0]
    return cs + [-c for c in cs[1:]]


class TestClosedFormCells:
    @pytest.mark.parametrize("cell", ROOT_CELLS)
    def test_root_cell_matches_graded_gauss(self, cell):
        integrand = _root_cell(*cell)
        plan = QuadPlan(*integrand)
        assert len(plan.closed) == 1
        cs = _frequencies(integrand)
        for c, val in zip(cs, _at(plan, cs)):
            assert abs(val - gl_reference(_factors(integrand), c)) < 1e-13

    @pytest.mark.parametrize("cell", ROOT_CELLS)
    def test_root_cell_matches_riemann(self, cell):
        integrand = _root_cell(*cell)
        cs = _frequencies(integrand)
        for c, val in zip(cs, _at(QuadPlan(*integrand), cs)):
            assert abs(val - riemann_oracle(_factors(integrand), c)) < 1e-6

    def test_radicand_negative_part_clipped(self):
        # sqrt(max(u - 1, 0)) on [0, 2): only [1, 2) contributes
        integrand = _root_cell(0, 2, 1, -1)
        cs = (0.0, 1.5, -40.0)
        for c, val in zip(cs, _at(QuadPlan(*integrand), cs)):
            assert abs(val - riemann_oracle(_factors(integrand), c)) < 1e-6

    def test_polynomial_cell_matches_graded_gauss(self):
        # no varying root: a tent times a constant root
        tent = PiecewiseLinear.of((-1, 0, 1, 1), (0, 1, -1, 1))
        const = PiecewiseLinear.of((-1, 1, 0, F(9, 4)))
        cs = [0.0, 0.5, 1.999, 2.001, -3.0, 57.0, -900.0]
        for c, val in zip(cs, _at(QuadPlan(tent, const), cs)):
            assert abs(val - gl_reference(_factors((tent, const)), c)) < 1e-13

    @pytest.mark.parametrize("cell", ROOT_CELLS[:2])
    def test_plan_serves_high_frequencies(self, cell):
        # a plan built without a frequency bound stays exact far out
        integrand = _root_cell(*cell)
        cs = [1000.0, 10000.5, -30000.25]
        for c, val in zip(cs, _at(QuadPlan(*integrand), cs)):
            assert abs(val - gl_reference(_factors(integrand), c)) < 1e-13


def _sweep_integrand():
    """A frame-test integrand: a tent times the root of a profile square
    with four pieces, so that neighbouring cells share their ends."""
    tent = PiecewiseLinear.of((F(-1, 3), F(1, 5), F(15, 8), F(5, 8)),
                              (F(1, 5), F(5, 7), F(-35, 18), F(25, 18)))
    square = PiecewiseLinear.of((-1, F(-1, 2), 2, 2), (F(-1, 2), 0, 0, 1),
                                (0, F(1, 2), 0, 1), (F(1, 2), 1, -2, 2))
    return tent, square


def _polynomial_integrand():
    """A tent against an indicator profile: no root varies."""
    tent = PiecewiseLinear.of((-1, 0, 1, 1), (0, 1, -1, 1))
    return tent, PiecewiseLinear.of((F(-1, 2), 2, 0, 1))


class TestFreqRun:
    @pytest.mark.parametrize("k0, n, unit", [
        (0, 1, math.pi), (0, 64, math.pi / 3), (5, 333, -math.pi * 4),
        (1 << 20, 1000, math.pi / 2), ((1 << 20) - 7, 16384, -math.pi / 9)])
    def test_phases_by_angle_addition(self, k0, n, unit):
        run = FreqRun(k0, n, unit)
        assert len(run) == n
        freqs = run.freqs()
        assert np.array_equal(freqs, np.arange(k0, k0 + n) * unit)
        xs = np.array([0.0, 0.75, -1.3, 2.0 / 7])
        lead, coarse, fine = run.tables(xs)
        for j, x in enumerate(xs):
            phases = np.outer(coarse[:, j] * lead[j], fine[j]).ravel()[:n]
            # both sides round the phase argument k * unit * x
            slack = 16 * 2.0 ** -52 * (abs(k0 + n) * abs(unit * x) + 1)
            assert np.max(np.abs(phases - np.exp(1j * freqs * x))) <= slack

    @pytest.mark.parametrize("k0, n", [(-1, 4), (0, 0), (3, -2)])
    def test_negative_start_or_empty_run_raises(self, k0, n):
        # the head of a run is its prefix only when |frequency| grows along it
        with pytest.raises(ValueError, match="k0 >= 0 and n >= 1"):
            FreqRun(k0, n, math.pi / 2)

    @pytest.mark.parametrize("integrand", [_sweep_integrand, _polynomial_integrand])
    def test_run_matches_riemann(self, integrand):
        unit = -math.pi / 2
        got = QuadPlan(*integrand()).integrate(FreqRun(3, 5, unit))
        assert len(got) == 5
        for m, val in enumerate(got):
            assert abs(val - riemann_oracle(_factors(integrand()), (3 + m) * unit)) < 1e-6


def _gap_integrand():
    """Degree 0: an indicator with a gap against two constant roots, sqrt 2
    and 3/2, so the break terms sum two roots at the shared end 0."""
    steps = PiecewiseLinear.of((-1, F(1, 3), 0, 2), (F(1, 2), 2, 0, F(-1, 2)))
    roots = PiecewiseLinear.of((-2, 0, 0, F(9, 4)), (0, 3, 0, 2))
    return steps, roots


def _uneven_integrand():
    """Degree 1: a tent with a kink at 1/5 against a step profile cut at
    1/9: cells 7/9, 4/45 and 1/10 long."""
    tent = PiecewiseLinear.of((F(-2, 3), F(1, 5), F(15, 13), F(10, 13)),
                              (F(1, 5), 1, F(-5, 4), F(5, 4)))
    roots = PiecewiseLinear.of((-1, F(1, 9), 0, 1), (F(1, 9), F(3, 10), 0, 3))
    return tent, roots


def _ramp_integrand():
    """Degree 1: a ramp with a kink at 0 that is nonzero at both ends,
    against a constant root, so B_0 jumps at both ends and B_1 at all three."""
    ramp = PiecewiseLinear.of((F(-1, 2), 0, 1, 2), (0, 1, F(1, 2), 2))
    return ramp, PiecewiseLinear.of((-1, 1, 0, F(9, 4)))


BREAK_INTEGRANDS = [_gap_integrand, _uneven_integrand, _ramp_integrand,
                    _sweep_integrand]


def _family_squares(name, a, j):
    """The scaled squares |psi_hat|^2(a^-j u) of a built-in family."""
    _, wavelets = build_family(SpectralSpec(example_by_name(name).sigma, a))
    return [_scaled_square(psi, a, j) for psi in wavelets.profiles]


def _shannon_minus_3(signal, j):
    """A signal against the first shannon square at a = -3, scale j."""
    def integrand():
        return TestSignal.parse(signal).hat, _family_squares("shannon", -3, j)[0]
    integrand.__name__ = f"shannon-3:{signal}:{j}"
    return integrand


SHANNON_MINUS_3 = [_shannon_minus_3("tent:[-1,1)", -1), _shannon_minus_3("tent:[-3/7,5/3)", -1),
                   _shannon_minus_3("tent:[-3/7,5/3)", -2)]


def _edge(plan):
    """The break-form threshold |c| = _SERIES_PHASE / (shortest polynomial cell)."""
    return _SERIES_PHASE / min(cell.length for cell in plan.closed if not cell.nu)


class TestBreakForm:
    def test_integrands(self):
        # degrees 0, 1, 1 over polynomial cells only, then a mixed plan
        for integrand, degree in zip(BREAK_INTEGRANDS, (0, 1, 1)):
            plan = QuadPlan(*integrand())
            assert all(cell.nu == 0 for cell in plan.closed)
            assert max(np.flatnonzero(cell.coeffs)[-1] for cell in plan.closed) == degree
        lengths = {cell.length for cell in QuadPlan(*_uneven_integrand()).closed}
        assert len(lengths) == len(QuadPlan(*_uneven_integrand()).closed)
        assert {cell.nu for cell in QuadPlan(*_sweep_integrand()).closed} == {0, 0.5}

    @pytest.mark.parametrize("integrand", BREAK_INTEGRANDS)
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("where", ["below", "at", "above"])
    def test_matches_per_cell_sum(self, integrand, sign, where):
        plan = QuadPlan(*integrand())
        unit = sign * math.pi * F(3, 8)
        edge = int(_edge(plan) / abs(unit))   # the last k of the head
        k0 = {"below": 0, "at": edge, "above": 40 * edge + 1001}[where]
        run = FreqRun(k0, 300, unit)
        freqs = run.freqs()
        want = cell_sum_oracle(plan.closed, freqs)
        # 1e-13 of max |integral|, which the window from k = 0 attains
        bound = 1e-13 * np.max(np.abs(cell_sum_oracle(plan.closed, FreqRun(0, 300, unit).freqs())))
        assert np.max(np.abs(plan.integrate(run) - want)) <= bound

    @pytest.mark.parametrize("integrand", BREAK_INTEGRANDS + SHANNON_MINUS_3)
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("where", ["head", "past"])
    def test_head_matches_cell_oracle(self, integrand, sign, where):
        plan = QuadPlan(*integrand())
        # a seeded unit, so the head ends at no special k
        unit = sign * math.pi * random.Random(f"{integrand.__name__}{sign}").uniform(0.05, 0.2)
        edge = int(_edge(plan) / abs(unit))   # the last k of the head
        run = FreqRun({"head": 0, "past": edge + 1}[where], edge + 40, unit)
        freqs = run.freqs()
        head = head_cells_oracle(plan, run)
        got = plan.integrate(run)
        want = cell_sum_oracle(plan.closed, freqs)
        # 1e-13 of the run's peak |integral|
        bound = 1e-13 * np.max(np.abs(want))
        if where == "head":
            assert len(head) == edge + 1
            # the longest cell takes the recurrence at the end of the head
            lengths = [cell.length for cell in plan.closed if not cell.nu]
            assert max(lengths) * abs(freqs[edge]) > _SERIES_PHASE or len(set(lengths)) == 1
            rooted = cell_sum_oracle([c for c in plan.closed if c.nu], freqs[:edge + 1])
            assert np.max(np.abs(got[:edge + 1] - head - rooted)) <= bound
        else:
            assert len(head) == 0
        assert np.max(np.abs(got - want)) <= bound

    @pytest.mark.parametrize("integrand", BREAK_INTEGRANDS)
    def test_matches_graded_gauss(self, integrand):
        plan = QuadPlan(*integrand())
        edge = _edge(plan)
        cs = [0.0, 0.5 * edge, 0.999 * edge, 1.001 * edge, -1.001 * edge,
              3 * edge, -7.5 * edge, 900.0]
        got = _at(plan, cs)
        want = np.array([gl_reference(_factors(integrand()), c) for c in cs])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("integrand", BREAK_INTEGRANDS)
    def test_run_across_the_edge_matches_riemann(self, integrand):
        plan = QuadPlan(*integrand())
        unit = -math.pi / 2
        k0 = int(_edge(plan) / abs(unit)) - 2
        got = plan.integrate(FreqRun(k0, 5, unit))
        for m, val in enumerate(got):
            # the midpoint rule is O(1/n) across the jumps inside a support piece
            factors = _factors(integrand())
            assert abs(val - riemann_oracle(factors, (k0 + m) * unit, 400_000)) < 1e-6


def _batch_sum(batch, run):
    """A plan's batch of cells at each frequency c of the run, 1/c as 0 at 0."""
    freqs = run.freqs()
    return batch.integrate(run, freqs, np.divide(1.0, freqs, out=np.zeros(run.n),
                                                 where=freqs != 0))


def _pwl_minus_3(j, index):
    """tent:[-1,1) against the index-th square of pwl:a=3/4,b=5/4 at a = -3."""
    def integrand():
        return TestSignal.tent(-1, 1).hat, _family_squares("pwl:a=3/4,b=5/4", -3, j)[index]
    integrand.__name__ = f"pwl-3:{j}:{index}"
    return integrand


ROOTED_INTEGRANDS = ([lambda cell=cell: _root_cell(*cell) for cell in ROOT_CELLS]
                     + [_pwl_minus_3(-2, i) for i in range(3)] + [_pwl_minus_3(2, 1)])


class TestRootedBatch:
    def test_integrands(self):
        # s0 = 0 and s0 > 0 on both signs of alpha; pwl at j = 2 has two cells
        # that meet at the radicand zero
        kinds = {(cell.s0 > 0, cell.sign) for integrand in ROOTED_INTEGRANDS
                 for cell in QuadPlan(*integrand()).closed if cell.nu}
        assert kinds == {(False, 1), (False, -1), (True, 1), (True, -1)}
        assert len(QuadPlan(*_pwl_minus_3(-2, 1)()).closed) == 3

    @pytest.mark.parametrize("integrand", ROOTED_INTEGRANDS)
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k0", [0, 37, 5000])
    def test_matches_cell_oracle(self, integrand, sign, k0):
        plan = QuadPlan(*integrand())
        unit = sign * math.pi * 5 / 64
        run = FreqRun(k0, 700, unit)
        got = _batch_sum(plan._rooted, run)
        # 1e-13 of max |integral|, which the window from k = 0 attains
        bound = 1e-13 * np.max(np.abs(rooted_cells_oracle(plan, FreqRun(0, 700, unit))))
        assert np.max(np.abs(got - rooted_cells_oracle(plan, run))) <= bound
        if k0 == 0:
            # the run crosses every cell's series switch |c| s1 = _SERIES_PHASE
            s1 = [cell.s1 for cell in plan.closed if cell.nu]
            assert abs(unit) * max(s1) <= _SERIES_PHASE < abs(unit) * 699 * min(s1)


def _fresnel_errors(x):
    """Max |error| of the real and imaginary parts of (C + iS)(x) from
    _fresnel_tail at t = pi x^2 / 2, against scipy."""
    special = pytest.importorskip("scipy.special")
    t = math.pi * x ** 2 / 2
    g = (_FRESNEL_INF + np.exp(1j * t) * _fresnel_tail(t)) / math.sqrt(2 * math.pi)
    s, c = special.fresnel(x)
    return np.max(np.abs(g.real - c)), np.max(np.abs(g.imag - s))


def _band(lo, hi, n):
    """x at n log-spaced phases t = pi x^2 / 2 from lo to hi."""
    return np.sqrt(2 * np.geomspace(lo, hi, n) / math.pi)


def test_fresnel_against_scipy():
    x = np.concatenate([np.linspace(0, 100, 20001), np.geomspace(1e-8, 100, 2000)])
    assert max(_fresnel_errors(x)) <= 5e-14
    # 5,001 points on each band of t: the power series, the continued
    # fraction where it converges slowest, and where it converges fast
    for lo, hi, bound in [(1e-8, _FRESNEL_SERIES, 5e-15), (_FRESNEL_SERIES, 60, 5e-15),
                          (60, 1e4, 5e-14)]:
        assert max(_fresnel_errors(_band(lo, hi, 5001))) <= bound
    # one call over both branches, shaped like a batch of cell ends: the
    # continued fraction runs every entry until the slowest has converged
    x = np.random.default_rng(5).permutation(_band(1e-8, 1e4, 3 * 5001))
    assert max(_fresnel_errors(x.reshape(3, -1))) <= 5e-14
