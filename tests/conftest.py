"""Shared fixtures: analytic example games and a random-instance generator."""

import numpy as np
import pytest

import mflqg.riccati
from mflqg._integrate import _TimeArrays
from mflqg.model import (CoefficientPath, GameSpec, TimeGrid,
                         embed_perturbation)
from mflqg.riccati import RegularityError, solve_control_riccati, \
    solve_riccati_pair


def make_example61() -> GameSpec:
    """Scalar game with no saddle from nonzero states.

    Minimizer drives the drift, maximizer the diffusion; the only
    nonzero weights are a terminal reward for spread, a unit running
    cost on the minimizer, and a mean penalty rewarding the maximizer.
    """
    return GameSpec.from_matrices(
        n=1, m1=1, m2=1, T=1.0,
        B1=[[1.0]], D2=[[1.0]], G=[[-1.0]],
        R11=[[1.0]], R22bar=[[-1.0]],
    )


def make_example52() -> GameSpec:
    """Deterministic scalar game whose saddle is the pair (0, -1)."""
    t_path = CoefficientPath.polynomial([[[0.0]], [[1.0]]], 1.0)
    t_sq_path = CoefficientPath.polynomial([[[0.0]], [[0.0]], [[1.0]]], 1.0)
    return GameSpec.from_matrices(
        n=1, m1=1, m2=1, T=1.0,
        B1=t_path, B2=[[1.0]], G=[[-1.0]], R11=t_sq_path,
    )


def make_nosaddle() -> GameSpec:
    """Variant whose quadratic form has a positive maximizer direction.

    Flipping the terminal weight to +1 and dropping the mean penalty
    makes J(0; 0, u2) > 0 for any nonzero deterministic u2, so the
    section check must fail with a witness.
    """
    return GameSpec.from_matrices(
        n=1, m1=1, m2=1, T=1.0,
        B1=[[1.0]], D2=[[1.0]], G=[[1.0]], R11=[[1.0]],
    )


def random_instance(rng: np.random.Generator) -> GameSpec:
    """Random well-scaled game; dims in 1..3 states, 1..2 controls."""
    n = int(rng.integers(1, 4))
    m1 = int(rng.integers(1, 3))
    m2 = int(rng.integers(1, 3))
    T = 1.0

    def mat(r, c, s=0.4):
        return s * rng.standard_normal((r, c))

    def sym(r, s=0.3):
        M = s * rng.standard_normal((r, r))
        return 0.5 * (M + M.T)

    def maybe_path(M, kind):
        if kind == 0:
            return M
        if kind == 1:
            M2 = 0.3 * np.random.default_rng(
                int(rng.integers(1 << 30))).standard_normal(M.shape)
            return CoefficientPath.polynomial([M, M2], T)
        pieces = [(0.0, M), (0.45, M * 0.8 + 0.05)]
        return CoefficientPath.piecewise(pieces, T)

    kw = dict(
        A=maybe_path(mat(n, n), int(rng.integers(0, 3))),
        Abar=mat(n, n, 0.25),
        B1=maybe_path(mat(n, m1), int(rng.integers(0, 3))),
        B1bar=mat(n, m1, 0.2),
        B2=mat(n, m2),
        B2bar=mat(n, m2, 0.2),
        C=mat(n, n, 0.3),
        Cbar=mat(n, n, 0.15),
        D1=mat(n, m1, 0.25),
        D1bar=mat(n, m1, 0.1),
        D2=mat(n, m2, 0.25),
        D2bar=mat(n, m2, 0.1),
        Q=sym(n), Qbar=sym(n, 0.2),
        S1=mat(m1, n, 0.2), S1bar=mat(m1, n, 0.1),
        S2=mat(m2, n, 0.2), S2bar=mat(m2, n, 0.1),
        R11=2.0 * np.eye(m1) + sym(m1), R11bar=sym(m1, 0.15),
        R12=mat(m1, m2, 0.2), R12bar=mat(m1, m2, 0.1),
        R22=-2.0 * np.eye(m2) + sym(m2), R22bar=sym(m2, 0.15),
        G=sym(n, 0.4), Gbar=sym(n, 0.2),
    )
    return GameSpec.from_matrices(n=n, m1=m1, m2=m2, T=T, **kw)


def draw_regular(rng: np.random.Generator, grid: TimeGrid, extra=()):
    """Draw embedded instances until the closed-loop equations solve.

    The 0.5-embedding makes most draws uniformly convex-concave; the
    occasional one that still escapes is skipped deterministically.
    Returns (spec, x, P, Pi, *per-player solutions for ``extra``).
    """
    while True:
        spec = embed_perturbation(random_instance(rng), 0.5)
        x = rng.standard_normal(spec.n)
        try:
            P, Pi = solve_riccati_pair(spec, grid)
            others = [solve_control_riccati(spec, grid, p) for p in extra]
        except RegularityError:
            continue
        return (spec, x, P, Pi, *others)


def solve_game(spec: GameSpec, grid: TimeGrid):
    """The game equation alone, backward from P(T) = G, through the
    solvers' shared tail: (times, fine values, node index).  It is the
    oracle of the pair solve's P and of every ladder rung's."""
    ta_n = _TimeArrays(spec, grid.nodes)
    times, values, node_index = mflqg.riccati._solve(
        spec, grid, ta_n, mflqg.riccati._half_view, ta_n.G[None],
        ("the stacked control weight",))[:3]
    return times, values[:, 0], node_index


@pytest.fixture
def example61():
    return make_example61()


@pytest.fixture
def example52():
    return make_example52()


@pytest.fixture
def nosaddle():
    return make_nosaddle()
