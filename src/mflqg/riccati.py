"""Backward Riccati solvers for the zero-sum mean-field LQ game.

Three differential Riccati equations drive the synthesis:

* the game equation for P, which couples both control channels
  through the stacked weights Sigma = R + D' P D;
* one single-channel equation per player (the control equations),
  whose solutions sandwich P when the game is uniformly
  convex-concave;
* the mean equation for Pi, obtained from the barred (coefficient +
  mean-field) data and the already-solved P, with weights
  Sigma_bar = R + Rbar + (D+Dbar)' P (D+Dbar).

All three are one Riccati map of a state Y along P: Y = P on the
plain coefficients (or one player's columns of them), Y = Pi on the
sums A + Abar, ..., R + Rbar.  The map's weight Sigma = R + D' P D and
linear term L = B' Y + D' P C + S (``_terms``) give the slopes, the
regularity margins and the feedback gains -Sigma^-1 L.  The pair
(P, Pi) is that map once, on length-2 stacks (A, A + Abar), ...,
(R, R + Rbar): one linear solve per evaluation for both equations and
every rung.

All solvers integrate backward from the terminal weight with classical
RK4 on the output grid, refining intervals by step doubling where the
flow is fast (terminal layers at small convexification parameters).
Every stored matrix is symmetrized; the worst asymmetry seen before
symmetrization is recorded.  Regularity margins (smallest eigenvalues
of the signed weight blocks) are reported per node, and inversion
aborts when a weight block's condition number passes 1e12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._integrate import (CoefficientCache, IntegrationError, _T, _TimeArrays,
                         integrate_backward)
from .model import CONDITION_LIMIT, GameSpec, TimeGrid

__all__ = [
    "RegularityError",
    "GridMismatchError",
    "RiccatiSolution",
    "ComparisonReport",
    "solve_control_riccati",
    "solve_riccati_pair",
    "check_comparison",
]


class RegularityError(RuntimeError):
    """The Riccati flow lost strong regularity inside the horizon."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


class GridMismatchError(ValueError):
    """Two grid-indexed objects do not share node times."""


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """One solved Riccati path on a grid.

    ``times`` and ``values_fine`` sample the solution on the refined
    partition produced by the integrator (segment boundaries at even
    indices, segment midpoints at odd ones); ``node_index`` locates
    the grid nodes inside it.  ``values`` restricts to the nodes.
    ``regularity_margin_i`` holds the smallest eigenvalue of player
    i's signed block of the equation's weight at each node.
    """

    grid: TimeGrid
    times: np.ndarray
    values_fine: np.ndarray
    node_index: np.ndarray
    regularity_margin_1: np.ndarray
    regularity_margin_2: np.ndarray
    residual_norm: float
    asymmetry_sup: float

    @property
    def values(self) -> np.ndarray:
        return self.values_fine[self.node_index]


@dataclass(frozen=True)
class ComparisonReport:
    """Nodewise eigenvalue margins of P - P1 and P2 - P."""

    margin_lower: np.ndarray
    margin_upper: np.ndarray
    tol: float
    passed: bool


# ----------------------------------------------------------------------
# the slope (as dP/dt, so the quadratic term enters with +)
#
# Every equation is one Riccati map of a state Y along a game solution
# P, and ``_terms`` is the only place its weight and linear term are
# written.  A view turns a _TimeArrays into the map's coefficient
# arguments, each with leading axis time: a CoefficientCache row is one
# time of a view, and the solver tail takes whole views.  A single
# equation's view is (time, 1, ...), so its state is one rung.  The
# pair view stacks the game and mean coefficients on an equation axis
# of length 2, just before the matrix axes, so a pair state has axes
# (rung, equation, n, n) in the rhs and (node, rung, equation, n, n)
# in the tail.  The map's "P" is Y[..., :1, :, :]: the game entry of a
# pair, kept as a length-1 equation axis so that it broadcasts over
# both equations, and a single equation's state itself.
# ----------------------------------------------------------------------

def _terms(A, Bt, C, Dt, D, S, Q, R, Y, P):
    """The map's linear term L = B' Y + D' P C + S and weight
    Sigma = R + D' P D, as (L, Sigma)."""
    DtP = Dt @ P
    return Bt @ Y + DtP @ C + S, R + DtP @ D


def _slope(A, Bt, C, Dt, D, S, Q, R, Y, P):
    """-(Y A + A' Y + C' P C + Q - L' Sigma^-1 L) of ``_terms``."""
    L, Sig = _terms(A, Bt, C, Dt, D, S, Q, R, Y, P)
    X = np.linalg.solve(Sig, L)
    YA = Y @ A
    return -(YA + _T(YA) + _T(C) @ (P @ C) + Q - _T(L) @ X)


def _half_view(ta: _TimeArrays, half: int = 0) -> tuple:
    """The game equation's arguments (half 0) or the mean equation's,
    from the summed coefficients (half 1), as (K, 1, ...) stacks."""
    A, B, C, D, S, Q, R = [p[half][:, None] for p in ta.pairs]
    return A, _T(B), C, _T(D), D, S, Q, R


def _control_view(ta: _TimeArrays, player: int, half: int = 0) -> tuple:
    """One player's single-channel arguments: ``_half_view`` restricted
    to the player's control columns."""
    c = slice(0, ta.m1) if player == 1 else slice(ta.m1, ta.m)
    A, Bt, C, Dt, D, S, Q, R = _half_view(ta, half)
    return (A, Bt[..., c, :], C, Dt[..., c, :], D[..., c], S[..., c, :], Q,
            R[..., c, c])


def _pair_view(ta: _TimeArrays, shift: np.ndarray) -> tuple:
    """Both equations' arguments as (K, 1, 2, ...) stacks; R + Rbar and R
    carry rung e's weight shift[e], giving R shape (K, E, 2, m, m)."""
    A, B, C, D, S, Q, R = [p.swapaxes(0, 1)[:, None] for p in ta.pairs]
    return A, _T(B), C, _T(D), D, S, Q, R + shift[:, None]


def _pair_terms(ta: _TimeArrays, P: np.ndarray, Pi: np.ndarray,
                shift: np.ndarray) -> tuple:
    """``_terms`` of both equations along P and Pi sampled at ``ta``'s
    times, on axes (time, rung, equation, ...); rung e's weights carry
    shift[e] as the pair solve's do."""
    Y = np.stack((P, Pi), axis=1)[:, None]
    return _terms(*_pair_view(ta, shift), Y, Y[:, :, :1])


def _eps_shift(spec: GameSpec, eps) -> np.ndarray:
    """The convexifying weight shift diag(eps I_m1, -eps I_m2) per eps."""
    sign = np.concatenate((np.ones(spec.m1), -np.ones(spec.m2)))
    return np.asarray(eps, dtype=float)[:, None, None] * np.diag(sign)


# ----------------------------------------------------------------------
# margins and conditioning
# ----------------------------------------------------------------------

def _cond_violations(Sig: np.ndarray, nodes: np.ndarray, labels) -> None:
    """Abort on the first nearly singular block of Sig (node, *batch,
    m, m): the first failing batch entry, named by ``labels`` in
    row-major order, at its first failing node."""
    eig = abs(np.linalg.eigvalsh(Sig))
    small = eig.min(axis=-1)
    bad = (small == 0.0) | (eig.max(axis=-1) > CONDITION_LIMIT * small)
    bad = bad.reshape(len(nodes), -1)
    if bad.any():
        first = int(bad.any(axis=0).argmax())
        t = float(nodes[int(bad[:, first].argmax())])
        raise RegularityError(
            f"{labels[first]} is numerically singular at t = {t:.6g} "
            f"(condition estimate above {CONDITION_LIMIT:.0e})", t)


def _signed_block_margins(Sig_stack: np.ndarray, m1: int):
    """Smallest eigenvalues of the player-signed diagonal blocks."""
    mu1 = np.linalg.eigvalsh(Sig_stack[..., :m1, :m1])[..., 0]
    mu2 = np.linalg.eigvalsh(-Sig_stack[..., m1:, m1:])[..., 0]
    return mu1, mu2


def _solution(grid, times, fine, node_index, mu1, mu2, residual,
              asym) -> "RiccatiSolution":
    return RiccatiSolution(
        grid=grid, times=times, values_fine=fine, node_index=node_index,
        regularity_margin_1=mu1, regularity_margin_2=mu2,
        residual_norm=float(residual), asymmetry_sup=asym)


def _solve(spec: GameSpec, grid: TimeGrid, ta_n: _TimeArrays, view,
           terminal: np.ndarray, weights, names=("",)) -> tuple:
    """Integrate a view's rung stack backward from ``terminal`` and
    check it: (times, path, node_index, Sigma at the nodes ``ta_n``,
    midpoint residuals, asymmetry sups).  ``names`` prefixes each
    rung's breakdown message, and ``weights`` names each equation's
    Sigma, of which a nearly singular one aborts first."""
    # the memo, filled where fast-accepted steps call rhs
    cache = CoefficientCache(spec, view)
    if not cache.constant:
        cache.fill(_TimeArrays(spec, grid.half_times))
    try:
        times, values, node_index, asym = integrate_backward(
            lambda t, Y: _slope(*cache.at(t), Y, Y[..., :1, :, :]), grid,
            terminal)
    except IntegrationError as exc:
        raise RegularityError(names[exc.rung] + str(exc), exc.t) from None

    # weights at the nodes, and the sup over nodes of the Frobenius
    # defect of node differences against midpoint slopes, of every rung
    # and equation at once, on axes (node, rung, ...).  Each interval's
    # midpoint is recorded at exactly its half time, as a segment
    # midpoint or as the boundary of the interval's first split.
    mids = np.searchsorted(times, grid.half_times[1::2])
    Y_n, Y_m = values[node_index], values[mids]
    _, Sig = _terms(*view(ta_n), Y_n, Y_n[..., :1, :, :])
    _cond_violations(Sig, grid.nodes,
                     [name + weight for name in names for weight in weights])
    defect = (Y_n[1:] - Y_n[:-1]) / grid.h - _slope(
        *view(_TimeArrays(spec, times[mids])), Y_m, Y_m[..., :1, :, :])
    res = np.linalg.norm(defect, axis=(-2, -1)).max(axis=0, initial=0.0)
    return times, values, node_index, Sig, res, asym


# ----------------------------------------------------------------------
# public solvers
# ----------------------------------------------------------------------

def solve_control_riccati(spec: GameSpec, grid: TimeGrid,
                          player: int) -> RiccatiSolution:
    """Solve the single-channel Riccati equation of one player.

    The equation keeps the shared state weights Q and G but sees only
    the player's own input channel (B_i, D_i, S_i, R_ii).  Margins are
    the smallest eigenvalues of (-1)^(i+1) [R_ii + D_i' P_i D_i] and
    of the barred analogue.
    """
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    ta_n = _TimeArrays(spec, grid.nodes)
    times, values, node_index, Sig, res, asym = _solve(
        spec, grid, ta_n, partial(_control_view, player=player),
        ta_n.G[None], (f"player {player} control weight",))
    P_n = values[node_index]
    _, Sigb = _terms(*_control_view(ta_n, player, 1), P_n, P_n)
    sign = 1.0 if player == 1 else -1.0
    mu, mub = np.linalg.eigvalsh(
        sign * np.stack((Sig[:, 0], Sigb[:, 0])))[..., 0]
    return _solution(grid, times, values[:, 0], node_index, mu, mub, res[0],
                     asym[0])


def solve_riccati_pair(spec: GameSpec, grid: TimeGrid):
    """Solve the game equation and the mean equation in one sweep.

    The pair is integrated jointly so the mean equation sees the game
    solution exactly at every internal stage, layers included.
    Returns (P, Pi) as RiccatiSolutions on a shared refined partition.
    Pi's margins are those of the barred weight R + Rbar + (D+Dbar)' P
    (D+Dbar), so the four margins together measure P's strong
    regularity.
    """
    return _solve_pairs(spec, grid, None)[0]


def _solve_pairs(spec: GameSpec, grid: TimeGrid, eps) -> list:
    """Riccati pairs of several convexified neighbours in one sweep.

    ``eps`` None solves ``spec`` itself; otherwise rung e is the game
    embed_perturbation(spec, eps[e]), and all rungs share one adaptive
    partition, each held to the tests of its own solo solve.  Returns
    one (P, Pi) per rung.  A breakdown raises RegularityError naming
    the first failing rung's eps and the time where it failed.
    """
    if eps is None:
        shift = np.zeros((1, spec.m, spec.m))
        names = [""]
    else:
        shift = _eps_shift(spec, eps)
        names = [f"eps = {e:.6g}: " for e in eps]
    E = shift.shape[0]
    ta_n = _TimeArrays(spec, grid.nodes)
    terminal = np.repeat(np.stack((ta_n.G, ta_n.Gsum))[None], E, axis=0)
    times, values, node_index, Sig, res, asym = _solve(
        spec, grid, ta_n, partial(_pair_view, shift=shift), terminal,
        ("the stacked control weight", "the mean-equation control weight"),
        names)
    mu1, mu2 = _signed_block_margins(Sig, spec.m1)
    out = []
    for e in range(E):
        P_sol = _solution(grid, times, values[:, e, 0], node_index,
                          mu1[:, e, 0], mu2[:, e, 0], res[e, 0], asym[e])
        Pi_sol = _solution(grid, times, values[:, e, 1], node_index,
                           mu1[:, e, 1], mu2[:, e, 1], res[e, 1], asym[e])
        out.append((P_sol, Pi_sol))
    return out


def check_comparison(P: RiccatiSolution, P1: RiccatiSolution,
                     P2: RiccatiSolution,
                     tol: float = 1e-8) -> ComparisonReport:
    """Verify the sandwich P1 <= P <= P2 nodewise in eigenvalue margins."""
    for other in (P1, P2):
        if not np.array_equal(other.grid.nodes, P.grid.nodes):
            raise GridMismatchError("comparison requires one shared grid")
    lower = np.linalg.eigvalsh(P.values - P1.values)[:, 0]
    upper = np.linalg.eigvalsh(P2.values - P.values)[:, 0]
    passed = bool(lower.min() >= -tol and upper.min() >= -tol)
    return ComparisonReport(margin_lower=lower, margin_upper=upper,
                            tol=tol, passed=passed)
