"""Acceptance gate: every shipped guarantee, one verdict line each.

Each test prints

    [criterion NN] PASS|FAIL <name>: <measured numbers>

directly to the terminal (bypassing capture) and then asserts, so a
full run leaves one line per criterion in the log at the stated
tolerance.  Heavy shared work (the 25-instance suite, the degenerate
saddle-recovery family) lives in module fixtures.
"""

import sys
import time

import numpy as np
import pytest

from mflqg.model import ControlLaw, TimeGrid, embed_perturbation
from mflqg.operators import (BlockOperator, build_section, contraction_norm,
                             lemma_psd_gap, solve_section_saddle)
from mflqg.perturbation import EpsSchedule, classify_family, control_distance
from mflqg.riccati import solve_riccati_pair
from mflqg.synthesis import (build_feedback, evaluate_functional,
                             evaluate_functional_mc, verify_saddle)

from conftest import draw_regular, make_example52, make_example61

SPREAD_EPS = (1.0, 0.5, 0.25, 0.1)


def gate(num, name, ok, detail):
    line = (f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} "
            f"{name}: {detail}")
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# ----------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def spread_solutions():
    """Embedded spread game solved at N = 1000 for each ladder eps."""
    out = {}
    for eps in SPREAD_EPS:
        spec = embed_perturbation(make_example61(), eps)
        grid = TimeGrid(1.0, 1000)
        t0 = time.perf_counter()
        P, Pi = solve_riccati_pair(spec, grid)
        out[eps] = (spec, grid, P, Pi, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def ladder61():
    """Full 14-step classification of the spread game, both verdicts."""
    spec = make_example61()
    grid = TimeGrid(1.0, 250)
    sched = EpsSchedule(0.5, 0.5, 14)
    t0 = time.perf_counter()
    blow = classify_family(spec, sched, [1.0], grid, verify=False)
    t_blow = time.perf_counter() - t0
    t0 = time.perf_counter()
    flat = classify_family(spec, sched, [0.0], grid)
    t_flat = time.perf_counter() - t0
    return blow, t_blow, flat, t_flat


@pytest.fixture(scope="module")
def family52():
    """Perturbation family of the degenerate-weight game down to 1e-4."""
    spec = make_example52()
    grid = TimeGrid(1.0, 2000)
    fam = classify_family(spec, EpsSchedule(0.1024, 0.5, 11), [1.0],
                          grid, verify=False)
    return spec, grid, fam


@pytest.fixture(scope="module")
def suite25():
    """25 random embedded instances with both one-player companions."""
    rng = np.random.default_rng(20260817)
    grid = TimeGrid(1.0, 2000)
    draws = [draw_regular(rng, grid, extra=(1, 2)) for _ in range(25)]
    return grid, draws


# ----------------------------------------------------------- criteria

def test_criterion_01_spread_game_riccati_closed_form(spread_solutions):
    worst = 0.0
    slowest = 0.0
    for eps in SPREAD_EPS:
        _, grid, P, Pi, elapsed = spread_solutions[eps]
        exact = -(1.0 + eps) / (grid.nodes + eps)
        worst = max(worst,
                    float(np.max(np.abs(P.values[:, 0, 0] - exact))),
                    float(np.max(np.abs(Pi.values[:, 0, 0] - exact))))
        slowest = max(slowest, elapsed)
    ok = worst <= 1e-6 and slowest < 1.0
    gate(1, "spread-game riccati closed form", ok,
         f"max node error {worst:.3e} (tol 1e-6), "
         f"slowest solve {slowest:.2f}s (< 1s)")


def test_criterion_02_spread_game_feedback_gains(spread_solutions):
    worst = 0.0
    for eps in SPREAD_EPS:
        spec, _, P, Pi, _ = spread_solutions[eps]
        law = build_feedback(spec, P, Pi)
        exact = 1.0 / (law.times + eps)
        for block in (law.gain, law.mean_gain):
            worst = max(worst,
                        float(np.max(np.abs(block[:, 0, 0] - exact))),
                        float(np.max(np.abs(block[:, 1, 0]))))
    ok = worst <= 1e-6
    gate(2, "spread-game feedback gains", ok,
         f"sup-norm error {worst:.3e} (tol 1e-6)")


def test_criterion_03_spread_game_verdicts(ladder61):
    blow, t_blow, flat, t_flat = ladder61
    p_err = abs(blow.exponent - 1.0)
    flat_norm = float(np.max(flat.norms))
    ok = (blow.verdict == "not-solvable" and p_err <= 0.05
          and flat.verdict == "solvable" and flat_norm <= 1e-12
          and max(t_blow, t_flat) < 10.0)
    gate(3, "spread-game solvability verdicts", ok,
         f"x=1 {blow.verdict} |p-1|={p_err:.2e} in {t_blow:.1f}s; "
         f"x=0 {flat.verdict} limit norm {flat_norm:.1e} in {t_flat:.1f}s")


def test_criterion_04_degenerate_saddle_recovery(family52):
    spec, grid, fam = family52
    target = ControlLaw.from_offset(spec, grid, np.array([0.0, -1.0]))
    dist = control_distance(spec, fam.limit, target, [1.0])

    # cross-check on a sectioned basis; 64 windows need 64 | N
    sec = build_section(spec, TimeGrid(1.0, 2048), 64)
    sol = solve_section_saddle(sec, [1.0], eps=1e-4)
    c_star = np.concatenate([np.zeros(64), np.full(64, -0.125)])
    sec_gap = float(np.linalg.norm(sol.coefficients - c_star))

    ok = (fam.verdict == "solvable" and dist <= 1e-2 and sec_gap <= 1e-2)
    gate(4, "degenerate-weight saddle recovery", ok,
         f"{fam.verdict}; limit-control distance {dist:.3e} (tol 1e-2), "
         f"64-block section gap {sec_gap:.3e}")


def test_criterion_05_value_identity(suite25):
    _, draws = suite25
    worst = 0.0
    for spec, x, P, Pi, *_ in draws:
        law = build_feedback(spec, P, Pi)
        value = evaluate_functional(spec, law, x).value
        quad = float(x @ Pi.values[0] @ x)
        bound = 1e-4 * (1.0 + float(x @ x))
        worst = max(worst, abs(value - quad) / bound)
    ok = worst <= 1.0
    gate(5, "saddle value identity on 25 instances", ok,
         f"worst |J - <Pi(0)x,x>| at {worst:.3e} of tolerance "
         "1e-4*(1+|x|^2)")


def test_criterion_06_comparison_brackets(suite25):
    _, draws = suite25
    worst = np.inf
    for _, _, P, _, low, high in draws:
        for a, b in ((low.values_fine, P.values_fine),
                     (P.values_fine, high.values_fine)):
            eigs = np.linalg.eigvalsh(b - a)
            worst = min(worst, float(eigs.min()))
    ok = worst >= -1e-8
    gate(6, "one-player brackets around the game solution", ok,
         f"smallest nodewise eigenvalue margin {worst:.3e} (tol -1e-8)")


def test_criterion_07_contraction_bound():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        d1 = int(rng.integers(1, 9))
        d2 = int(rng.integers(1, 9))
        a = rng.standard_normal((d1, d1 + 2))
        b = rng.standard_normal((d2, d2 + 2))
        op = BlockOperator(m11=a @ a.T,
                           m12=rng.standard_normal((d1, d2)),
                           m22=-b @ b.T)
        for eps in (1e-3, 1e-1, 1.0, 10.0):
            worst = max(worst, contraction_norm(op, eps))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 + 1e-9 and elapsed < 5.0
    gate(7, "shifted-inverse contraction bound", ok,
         f"max spectral norm {worst:.15f} over 800 solves "
         f"in {elapsed:.2f}s (< 5s)")


def test_criterion_08_psd_gap_lemma():
    rng = np.random.default_rng(7)
    worst = np.inf
    for k in range(500):
        n = int(rng.integers(2, 7))
        case = k % 4
        if case == 0:
            m = n
        elif case == 1:
            m = n
        elif case == 2:
            m = max(1, n - int(rng.integers(1, n)))
        else:
            m = n + int(rng.integers(1, 4))
        w = rng.standard_normal((n, n + 1))
        K = rng.standard_normal((n, m))
        if case == 0:        # K square and orthogonal: full-rank corner
            K, _ = np.linalg.qr(K)
        gap = lemma_psd_gap(w @ w.T, K, rng.standard_normal((n, n)),
                            delta=10.0 ** rng.uniform(-6, 0))
        worst = min(worst, float(np.linalg.eigvalsh(gap)[0]))
    ok = worst >= -1e-9
    gate(8, "compressed gap stays positive semidefinite", ok,
         f"min eigenvalue {worst:.3e} over 500 instances (tol -1e-9)")


def test_criterion_09_moments_vs_monte_carlo():
    rng = np.random.default_rng(7)
    grid = TimeGrid(1.0, 500)
    worst_z = 0.0
    for i in range(10):
        spec, x, P, Pi = draw_regular(rng, grid)
        law = build_feedback(spec, P, Pi)
        exact = evaluate_functional(spec, law, x).value
        mc = evaluate_functional_mc(spec, law, x, paths=10_000,
                                    seed=100 + i)
        denom = 3.0 * mc.stderr + (1e-6 if mc.stderr == 0.0 else 0.0)
        worst_z = max(worst_z, abs(mc.value - exact) / denom)
    ok = worst_z <= 1.0
    gate(9, "moment functional matches monte carlo", ok,
         f"worst gap at {worst_z:.2f} of the 3-sigma band, 1e4 paths")


def test_criterion_10_family_norm_bound(ladder61, family52):
    spec52, grid52, fam52 = family52
    target = ControlLaw.from_offset(spec52, TimeGrid(1.0, 500),
                                    np.array([0.0, -1.0]))
    saddle52 = verify_saddle(spec52, target, [1.0])
    excess52 = float(np.max(fam52.norms)) - 1.0      # |u*| = 1

    _, _, flat61, _ = ladder61
    excess61 = float(np.max(flat61.norms))           # |u*| = 0

    ok = (saddle52.is_saddle and excess52 <= 1e-6
          and flat61.saddle is not None and flat61.saddle.is_saddle
          and excess61 <= 1e-6)
    gate(10, "ladder controls never beat the verified saddle", ok,
         f"degenerate game max excess {excess52:.3e}, "
         f"spread game max excess {excess61:.3e} (tol 1e-6)")
