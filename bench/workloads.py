"""The benchmark's three workloads: inputs from a seed, tasks, checks.

Each workload answers one of the package's three questions about a
game and is a fixed list of tasks, run in whole rounds:

* ``ladder`` -- is the open-loop problem solvable?  The epsilon-ladder
  verdicts on examples 61 and 52 (batched Riccati pair solve, moment
  engine one law per call, distance march, deviation engine).
* ``section`` -- the certificate: finite operator sections of example
  52 and of a game with no saddle (moment engine in large batches; no
  Riccati work at all).
* ``suite`` -- the closed-loop saddle and its value on random games
  (single-spec Riccati solves, feedback, moments, Monte Carlo).

The seed draws the inputs; the work a task does is the same for every
seed (grids, rung schedules, block counts and the suite's dimensions
and coefficient kinds are fixed), so runs with different seeds stay
comparable.  Every task checks its outputs against closed forms or
properties the method must have, and raises CheckFailed otherwise.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mflqg import (CoefficientPath, EpsSchedule, GameSpec, RegularityError,
                   TimeGrid, build_feedback, build_section,
                   check_comparison, check_necessary_condition,
                   classify_family, embed_perturbation, evaluate_functional,
                   evaluate_functional_mc, solve_control_riccati,
                   solve_riccati_pair, solve_section_saddle)

class CheckFailed(Exception):
    """An output of the program contradicts a closed form or property."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Task:
    """One timed call sequence; ``run`` returns its failed operations."""

    name: str
    ops: int
    run: Callable[[], list]


def _signed_scale(rng: np.random.Generator) -> float:
    """An initial state away from 0: +-U(0.5, 2)."""
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))


# -- the analytic games ---------------------------------------------------

def example61() -> GameSpec:
    """Spread game: no saddle from x != 0, P = -(1+eps)/(s+eps)."""
    return GameSpec.from_matrices(
        n=1, m1=1, m2=1, T=1.0,
        B1=[[1.0]], D2=[[1.0]], G=[[-1.0]], R11=[[1.0]], R22bar=[[-1.0]])


def example52() -> GameSpec:
    """Degenerate-weight game whose saddle from x is (0, -x)."""
    t = CoefficientPath.polynomial([[[0.0]], [[1.0]]], 1.0)
    t_sq = CoefficientPath.polynomial([[[0.0]], [[0.0]], [[1.0]]], 1.0)
    return GameSpec.from_matrices(n=1, m1=1, m2=1, T=1.0,
                                  B1=t, B2=[[1.0]], G=[[-1.0]], R11=t_sq)


def nosaddle() -> GameSpec:
    """J(0; 0, u2) > 0 for every deterministic u2 != 0: no saddle."""
    return GameSpec.from_matrices(n=1, m1=1, m2=1, T=1.0, B1=[[1.0]],
                                  D2=[[1.0]], G=[[1.0]], R11=[[1.0]])


# -- ladder ---------------------------------------------------------------

LADDER61 = (TimeGrid(1.0, 250), EpsSchedule(0.5, 0.5, 14))
LADDER52 = (TimeGrid(1.0, 250), EpsSchedule(0.1024, 0.5, 11))
# ten times the worst quadrature error of the 14-rung ladder on N = 250
# (|eps * norm - 1| and the relative node error of P both read 1.2e-5)
CLOSED_FORM_RTOL = 1e-4


def _certified(rep, name: str) -> list:
    """The certification of a solvable verdict is an operation of its own."""
    return [] if rep.saddle is not None and rep.saddle.is_saddle else [name]


def ladder(rng: np.random.Generator) -> list:
    spec61, spec52 = example61(), example52()
    grid, sched = LADDER61
    x = _signed_scale(rng)

    def blow_up():
        rep = classify_family(spec61, sched, [x], grid, verify=False)
        check(rep.verdict == "not-solvable"
              and abs(rep.exponent - 1.0) <= 0.05,
              f"ex61 x={x:.4g}: {rep.verdict}, exponent {rep.exponent}")
        # every rung's realized control has the L2 norm |x|/eps
        err = np.max(np.abs(rep.eps_values * rep.norms / abs(x) - 1.0))
        check(err <= CLOSED_FORM_RTOL, f"ex61 norms off 1/eps by {err:.3e}")
        for it in rep.iterates:
            exact = -(1.0 + it.eps) / (grid.nodes + it.eps)
            err = np.max(np.abs(it.riccati.values[:, 0, 0] / exact - 1.0))
            check(err <= CLOSED_FORM_RTOL,
                  f"ex61 eps={it.eps:.3g}: P off the closed form by {err:.3e}")
        return []

    def flat():
        rep = classify_family(spec61, sched, [0.0], grid)
        check(rep.verdict == "solvable" and np.max(rep.norms) <= 1e-12,
              f"ex61 x=0: {rep.verdict}, largest norm {np.max(rep.norms)}")
        return _certified(rep, "ex61 x=0 certification")

    def degenerate():
        grid52, sched52 = LADDER52
        rep = classify_family(spec52, sched52, [1.0], grid52)
        check(rep.verdict == "solvable", f"ex52: {rep.verdict}")
        # no shifted saddle beats the norm |(0, -1)| = 1 of the true one
        excess = np.max(rep.norms) - 1.0
        check(excess <= 1e-6, f"ex52: norm exceeds the saddle's by {excess}")
        # the shift adds -eps |u2|^2 at the saddle, whose value is 0
        eps = rep.eps_values
        gap = np.abs(rep.values + eps) / eps**2
        check(np.all(gap <= 1.0), f"ex52: values off -eps by {gap.max()} eps^2")
        return _certified(rep, "ex52 certification")

    return [Task("ex61-x", 1, blow_up), Task("ex61-0", 2, flat),
            Task("ex52", 2, degenerate)]


# -- section --------------------------------------------------------------

SECTION_GRID = TimeGrid(1.0, 1024)
SECTION_BLOCKS = (16, 32)
NOSADDLE_BLOCKS = 8
SECTION_EPS = 1e-4
# the sectioned form must reproduce a direct evaluation of the same
# control to quadrature accuracy, whichever way the form is assembled
FORM_RTOL = 1e-7


def section(rng: np.random.Generator) -> list:
    spec52, spec_ns = example52(), nosaddle()
    x = _signed_scale(rng)

    def certify52(blocks: int, coeff: np.ndarray):
        sec = build_section(spec52, SECTION_GRID, blocks)
        sol = solve_section_saddle(sec, [x], eps=SECTION_EPS)
        # u2 = -x on every block of width 1/blocks, normalized basis
        target = np.concatenate((np.zeros(blocks),
                                 np.full(blocks, -x / np.sqrt(blocks))))
        gap = np.linalg.norm(sol.coefficients - target)
        check(gap <= 1e-2 * abs(x),
              f"ex52 {blocks} blocks: saddle {gap:.3e} off the closed form")
        direct = evaluate_functional(spec52, sec.basis_law(spec52, coeff),
                                     [x]).value
        form = sec.value([x], coeff)
        check(abs(direct - form) <= FORM_RTOL * (1.0 + abs(direct)),
              f"ex52 {blocks} blocks: form {form} vs direct {direct}")
        return []

    def certify_nosaddle():
        sec = build_section(spec_ns, SECTION_GRID, NOSADDLE_BLOCKS)
        sign = check_necessary_condition(sec)
        check(not sign.passed and sign.witness is not None,
              "no-saddle game passed the sign check")
        # the witness is a unit eigenvector of the violating block
        lam = (sign.min_eig_1 if sign.min_eig_1 < -sign.tol
               else sign.max_eig_2)
        zero = np.zeros(spec_ns.n)
        direct = evaluate_functional(
            spec_ns, sec.basis_law(spec_ns, sign.witness), zero).value
        check(np.sign(direct) == np.sign(lam)
              and abs(direct - lam) <= FORM_RTOL * (1.0 + abs(lam)),
              f"witness value {direct} does not confirm eigenvalue {lam}")
        return []

    tasks = []
    for blocks in SECTION_BLOCKS:
        coeff = rng.standard_normal(2 * blocks)
        tasks.append(Task(f"ex52-{blocks}", 1,
                          lambda b=blocks, c=coeff: certify52(b, c)))
    tasks.append(Task(f"nosaddle-{NOSADDLE_BLOCKS}", 1, certify_nosaddle))
    return tasks


# -- suite ----------------------------------------------------------------

SUITE_GRID = TimeGrid(1.0, 500)
SCREEN_GRID = TimeGrid(1.0, 50)
# (n, m1, m2, kind of A, kind of B1); the other paths are constant.
# Three shapes, three task sizes: the median task of a run then falls
# inside one size's group, not on the edge between two groups.
SUITE_SHAPES = ((1, 1, 1, "constant", "constant"),
                (2, 1, 2, "polynomial", "piecewise"),
                (3, 2, 1, "piecewise", "polynomial"))
MC_PATHS = 200
MC_SIGMAS = 5.0


def random_game(rng, n, m1, m2, kind_a, kind_b1) -> GameSpec:
    """Random well-scaled game with the given dims and path kinds."""
    def mat(r, c, s=0.4):
        return s * rng.standard_normal((r, c))

    def sym(r, s=0.3):
        M = s * rng.standard_normal((r, r))
        return 0.5 * (M + M.T)

    def path(M, kind):
        if kind == "polynomial":
            return CoefficientPath.polynomial(
                [M, 0.3 * rng.standard_normal(M.shape)], 1.0)
        if kind == "piecewise":
            return CoefficientPath.piecewise(
                [(0.0, M), (0.45, M * 0.8 + 0.05)], 1.0)
        return M

    return GameSpec.from_matrices(
        n=n, m1=m1, m2=m2, T=1.0,
        A=path(mat(n, n), kind_a), Abar=mat(n, n, 0.25),
        B1=path(mat(n, m1), kind_b1), B1bar=mat(n, m1, 0.2),
        B2=mat(n, m2), B2bar=mat(n, m2, 0.2),
        C=mat(n, n, 0.3), Cbar=mat(n, n, 0.15),
        D1=mat(n, m1, 0.25), D1bar=mat(n, m1, 0.1),
        D2=mat(n, m2, 0.25), D2bar=mat(n, m2, 0.1),
        Q=sym(n), Qbar=sym(n, 0.2),
        S1=mat(m1, n, 0.2), S1bar=mat(m1, n, 0.1),
        S2=mat(m2, n, 0.2), S2bar=mat(m2, n, 0.1),
        R11=2.0 * np.eye(m1) + sym(m1), R11bar=sym(m1, 0.15),
        R12=mat(m1, m2, 0.2), R12bar=mat(m1, m2, 0.1),
        R22=-2.0 * np.eye(m2) + sym(m2), R22bar=sym(m2, 0.15),
        G=sym(n, 0.4), Gbar=sym(n, 0.2))


def _draw(rng, shape):
    """Embedded draws of one shape until its solves succeed.

    The 0.5 embedding makes nearly every draw uniformly convex-concave;
    a draw whose Riccati solves break down on a coarse grid is skipped,
    deterministically for a given seed.
    """
    while True:
        spec = embed_perturbation(random_game(rng, *shape), 0.5)
        x = rng.standard_normal(spec.n)
        try:
            solve_riccati_pair(spec, SCREEN_GRID)
            for player in (1, 2):
                solve_control_riccati(spec, SCREEN_GRID, player)
        except RegularityError:
            continue
        return spec, x, int(rng.integers(1 << 31))


def suite(rng: np.random.Generator) -> list:
    def closed_loop(spec, x, mc_seed):
        grid = SUITE_GRID
        P, Pi = solve_riccati_pair(spec, grid)
        P1 = solve_control_riccati(spec, grid, 1)
        P2 = solve_control_riccati(spec, grid, 2)
        law = build_feedback(spec, P, Pi)
        cost = evaluate_functional(spec, law, x)
        mc = evaluate_functional_mc(spec, law, x, paths=MC_PATHS,
                                    seed=mc_seed)
        quad = float(x @ Pi.values[0] @ x)
        check(abs(cost.value - quad) <= 1e-4 * (1.0 + float(x @ x)),
              f"value {cost.value} vs <Pi(0)x,x> {quad}")
        brackets = check_comparison(P, P1, P2, tol=1e-8)
        check(brackets.passed,
              f"one-player brackets fail: {brackets.margin_lower.min():.3e}, "
              f"{brackets.margin_upper.min():.3e}")
        check(abs(mc.value - cost.value) <= MC_SIGMAS * mc.stderr,
              f"monte carlo {mc.value} +- {mc.stderr} vs {cost.value}")
        return []

    tasks = []
    for shape in SUITE_SHAPES:
        spec, x, mc_seed = _draw(rng, shape)
        name = "n{}m{}{}".format(*shape[:3])
        tasks.append(Task(name, 1, lambda s=spec, v=x, k=mc_seed:
                          closed_loop(s, v, k)))
    return tasks


# -- set-up ---------------------------------------------------------------

def warm_up(workload: str) -> None:
    """Run every call path of a workload once on tiny inputs."""
    small = TimeGrid(1.0, 16)
    if workload == "ladder":
        sched = EpsSchedule(0.5, 0.5, 3)
        classify_family(example61(), sched, [1.0], small, verify=False)
        classify_family(example61(), sched, [0.0], small)
    elif workload == "section":
        spec = example52()
        sec = build_section(spec, small, 2)
        check_necessary_condition(sec)
        solve_section_saddle(sec, [1.0], eps=SECTION_EPS)
        evaluate_functional(spec, sec.basis_law(spec, np.ones(4)), [1.0])
    else:
        spec = embed_perturbation(example61(), 0.5)
        P, Pi = solve_riccati_pair(spec, small)
        check_comparison(P, solve_control_riccati(spec, small, 1),
                         solve_control_riccati(spec, small, 2))
        law = build_feedback(spec, P, Pi)
        evaluate_functional(spec, law, [1.0])
        evaluate_functional_mc(spec, law, [1.0], paths=10)


def build(workload: str, seed: int) -> list:
    """The workload's task list for ``seed``, after a warm-up.

    Ends with a full collection: solves leave reference cycles that
    hold large arrays until the cyclic collector runs, so peak memory
    depends on the collector's phase, which this resets for every run.
    """
    rng = np.random.default_rng(seed)
    tasks = {"ladder": ladder, "section": section, "suite": suite}[workload](rng)
    warm_up(workload)
    gc.collect()
    return tasks
