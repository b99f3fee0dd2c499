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

import numpy as np

from ._integrate import (CoefficientCache, IntegrationError, _rung_max, _sym,
                         _T, _TimeArrays, integrate_backward, stage_times)
from .model import CONDITION_LIMIT, DEFAULT_DELTA, GameSpec, TimeGrid

__all__ = [
    "RegularityError",
    "GridMismatchError",
    "RiccatiSolution",
    "DGWeights",
    "RegularityReport",
    "ComparisonReport",
    "solve_game_riccati",
    "solve_control_riccati",
    "solve_mean_riccati",
    "solve_riccati_pair",
    "assemble_dg_weights",
    "check_strong_regularity",
    "check_comparison",
    "riccati_residual",
    "write_riccati_csv",
]

DEFAULT_RTOL = 1e-8


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
    ``companion_fine`` is populated on mean-equation solutions and
    holds the game solution P aligned with ``times``.
    """

    grid: TimeGrid
    kind: str
    times: np.ndarray
    values_fine: np.ndarray
    node_index: np.ndarray
    regularity_margin_1: np.ndarray
    regularity_margin_2: np.ndarray
    residual_norm: float
    strongly_regular: bool
    delta: float
    asymmetry_sup: float
    companion_fine: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray:
        return self.values_fine[self.node_index]

    @property
    def terminal(self) -> np.ndarray:
        return self.values_fine[-1]

    @property
    def initial(self) -> np.ndarray:
        return self.values_fine[0]

    @property
    def companion_values(self) -> np.ndarray | None:
        if self.companion_fine is None:
            return None
        return self.companion_fine[self.node_index]

    @classmethod
    def from_constant(cls, grid: TimeGrid, matrix,
                      kind: str = "manual") -> "RiccatiSolution":
        M = np.asarray(matrix, dtype=float)
        return cls.from_callable(grid, lambda t: M, kind=kind)

    @classmethod
    def from_callable(cls, grid: TimeGrid, fn,
                      kind: str = "manual") -> "RiccatiSolution":
        """Sample an explicit matrix path on the half-grid.

        Margins and residuals are not computed here; use
        check_strong_regularity / riccati_residual on the result.
        """
        times = grid.half_times
        vals = np.stack([_sym(np.asarray(fn(t), dtype=float)) for t in times])
        nan = np.full(grid.N + 1, np.nan)
        return cls(grid=grid, kind=kind, times=np.array(times),
                   values_fine=vals,
                   node_index=np.arange(0, 2 * grid.N + 1, 2),
                   regularity_margin_1=nan, regularity_margin_2=nan,
                   residual_norm=float("nan"), strongly_regular=False,
                   delta=float("nan"), asymmetry_sup=0.0)


@dataclass(frozen=True)
class DGWeights:
    """Mean-equation weight paths assembled from the game solution P.

    upsilon  = Q + Qbar + (C+Cbar)' P (C+Cbar)
    gamma_i  = (Di+Dibar)' P (C+Cbar) + (Si+Sibar)
    sigma_bar = R + Rbar + (D+Dbar)' P (D+Dbar), 2x2-blocked in players.
    """

    grid: TimeGrid
    upsilon: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    sigma_bar: np.ndarray


@dataclass(frozen=True)
class RegularityReport:
    """Nodewise strong-regularity margins for a candidate P path.

    margin_1 / margin_2 are the smallest eigenvalues of the signed
    plain blocks (-1)^(i+1) [R_ii + Di' P Di]; margin_1_bar /
    margin_2_bar use the barred blocks with (D_i + D_ibar) and
    R_ii + R_iibar.  passed requires all four >= delta at every node.
    """

    delta: float
    margin_1: np.ndarray
    margin_2: np.ndarray
    margin_1_bar: np.ndarray
    margin_2_bar: np.ndarray
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    """Nodewise eigenvalue margins of P - P1 and P2 - P."""

    margin_lower: np.ndarray
    margin_upper: np.ndarray
    tol: float
    passed: bool


# ----------------------------------------------------------------------
# right-hand sides (as dP/dt, so the quadratic term enters with +)
#
# Every slope broadcasts over leading axes: coefficients may be stacked
# along time and states along rungs and time.
# ----------------------------------------------------------------------

def _flow(A, C, Q, Y, P, L, X):
    """-(Y A + A' Y + C' P C + Q - L' X), the shared Riccati slope."""
    YA = Y @ A
    return -(YA + _T(YA) + _T(C) @ (P @ C) + Q - _T(L) @ X)


def _game_slope(st, R, P):
    """Game equation slope; R is the stacked control weight."""
    DtP = _T(st.D) @ P
    L = _T(st.B) @ P + DtP @ st.C + st.S
    X = np.linalg.solve(R + DtP @ st.D, L)
    return _flow(st.A, st.C, st.Q, P, P, L, X)


def _mean_slope(st, Rsum, P, Pi):
    """Mean equation slope for Pi along the game solution P."""
    DtP = _T(st.Dsum) @ P
    Lb = _T(st.Bsum) @ Pi + DtP @ st.Csum + st.Ssum
    X = np.linalg.solve(Rsum + DtP @ st.Dsum, Lb)
    return _flow(st.Asum, st.Csum, st.Qsum, Pi, P, Lb, X)


def _columns(spec, player: int) -> slice:
    """The control columns of one player in the stacked coefficients."""
    return slice(0, spec.m1) if player == 1 else slice(spec.m1, spec.m)


def _control_slope(st, cols: slice, P):
    """Single-channel slope of the player owning control columns cols."""
    Di = st.D[..., cols]
    DtP = _T(Di) @ P
    L = _T(st.B[..., cols]) @ P + DtP @ st.C + st.S[..., cols, :]
    X = np.linalg.solve(st.R[..., cols, cols] + DtP @ Di, L)
    return _flow(st.A, st.C, st.Q, P, P, L, X)


def _pair_rhs(cache: CoefficientCache, shift: np.ndarray):
    """Slopes of (P, Pi) for a rung stack Y of shape (E, 2, n, n).

    ``shift[e]`` is added to R and R + Rbar for rung e, so the shared
    coefficients are evaluated once per stage for every rung.
    """
    def rhs(t, Y):
        st = cache.at(t)
        P = Y[:, 0]
        return np.stack((_game_slope(st, st.R + shift, P),
                         _mean_slope(st, st.Rsum + shift, P, Y[:, 1])),
                        axis=1)
    return rhs


def _coefficient_cache(spec: GameSpec, grid: TimeGrid) -> CoefficientCache:
    """The integrator's memo, filled where fast-accepted steps call rhs."""
    cache = CoefficientCache(spec)
    if not cache.constant:
        cache.fill(_TimeArrays(spec, stage_times(grid)))
    return cache


def _eps_shift(spec: GameSpec, eps) -> np.ndarray:
    """The convexifying weight shift diag(eps I_m1, -eps I_m2) per eps."""
    sign = np.concatenate((np.ones(spec.m1), -np.ones(spec.m2)))
    return np.asarray(eps, dtype=float)[:, None, None] * np.diag(sign)


# ----------------------------------------------------------------------
# margins and conditioning
# ----------------------------------------------------------------------

def _cond_violations(Sig_stack: np.ndarray, nodes: np.ndarray, label: str):
    """Abort on the first node whose weight block is nearly singular."""
    eig = np.linalg.eigvalsh(Sig_stack)
    small = np.min(np.abs(eig), axis=-1)
    big = np.max(np.abs(eig), axis=-1)
    bad = (small == 0.0) | (big > CONDITION_LIMIT * small)
    if np.any(bad):
        t = float(nodes[int(np.argmax(bad))])
        raise RegularityError(
            f"{label} is numerically singular at t = {t:.6g} "
            f"(condition estimate above {CONDITION_LIMIT:.0e})", t)


def _signed_block_margins(Sig_stack: np.ndarray, m1: int):
    """Smallest eigenvalues of the player-signed diagonal blocks."""
    mu1 = np.linalg.eigvalsh(Sig_stack[..., :m1, :m1])[..., 0]
    mu2 = np.linalg.eigvalsh(-Sig_stack[..., m1:, m1:])[..., 0]
    return mu1, mu2


def _make_post():
    """Symmetrizer hook that also tracks each rung's worst skew."""
    state = {"sup": 0.0}

    def post(y):
        state["sup"] = np.maximum(state["sup"], _rung_max(y - _T(y)))
        return _sym(y)

    return post, state


def _midpoint_index(times, node_index):
    """Fine index closest to each grid interval's midpoint."""
    i0, i1 = node_index[:-1], node_index[1:]
    # the true interval midpoint is always recorded; locate the fine
    # entry closest to it in case refinement shifted indices
    target = 0.5 * (times[i0] + times[i1])
    j = np.searchsorted(times, target)
    back = (j > i1) | ((j > i0) & (np.abs(times[j - 1] - target)
                                  <= np.abs(times[np.minimum(j, i1)]
                                            - target)))
    return j - back.astype(int)


def _sup_defect(node_vals, h, slope_mid):
    """Per-rung sup Frobenius defect of node differences at midpoints."""
    defect = (node_vals[:, 1:] - node_vals[:, :-1]) / h - slope_mid
    return [max([0.0] + [float(np.linalg.norm(d)) for d in rung])
            for rung in defect]


def _solution(grid, delta, kind, times, fine, node_index, Sig, m1,
              residual, asym, companion=None) -> "RiccatiSolution":
    mu1, mu2 = _signed_block_margins(Sig, m1)
    regular = bool(np.min(mu1) >= delta and np.min(mu2) >= delta)
    return RiccatiSolution(
        grid=grid, kind=kind, times=times, values_fine=fine,
        node_index=node_index, regularity_margin_1=mu1,
        regularity_margin_2=mu2, residual_norm=residual,
        strongly_regular=regular, delta=delta, asymmetry_sup=asym,
        companion_fine=companion)


# ----------------------------------------------------------------------
# public solvers
# ----------------------------------------------------------------------

def solve_game_riccati(spec: GameSpec, grid: TimeGrid,
                       delta: float = DEFAULT_DELTA,
                       rtol: float = DEFAULT_RTOL) -> RiccatiSolution:
    """Solve the game Riccati equation backward from P(T) = G.

    Parameters
    ----------
    spec : GameSpec
        Validated game description.
    grid : TimeGrid
        Output grid; integration refines inside intervals as needed.
    delta : float
        Margin the signed weight blocks must keep for the solution to
        be flagged strongly regular.
    rtol : float
        Step-doubling acceptance tolerance of the integrator.

    Returns
    -------
    RiccatiSolution
        With nodewise margins lambda_min(R11 + D1' P D1) and
        lambda_min(-(R22 + D2' P D2)), the midpoint defect norm, and
        the refined sample path.

    Raises
    ------
    RegularityError
        If a weight block becomes numerically singular on the horizon
        or the flow blows up before t = 0.
    """
    ta_n = _TimeArrays(spec, grid.nodes)
    cache = _coefficient_cache(spec, grid)

    def rhs(t, P):
        st = cache.at(t)
        return _game_slope(st, st.R, P)

    times, values, node_index, asym = _integrate_rungs(
        rhs, grid, ta_n.G[None], rtol)
    fine = values[:, 0]
    mids = _midpoint_index(times, node_index)
    ta_m = _TimeArrays(spec, times[mids])
    P_n = fine[node_index]
    Sig = ta_n.R + _T(ta_n.D) @ P_n @ ta_n.D
    _cond_violations(Sig, grid.nodes, "the stacked control weight")
    residual = _sup_defect(P_n[None], grid.h,
                           _game_slope(ta_m, ta_m.R, fine[mids])[None])[0]
    return _solution(grid, delta, "game", times, fine, node_index, Sig,
                     spec.m1, residual, asym[0])


def solve_control_riccati(spec: GameSpec, grid: TimeGrid, player: int,
                          delta: float = DEFAULT_DELTA,
                          rtol: float = DEFAULT_RTOL) -> RiccatiSolution:
    """Solve the single-channel Riccati equation of one player.

    The equation keeps the shared state weights Q and G but sees only
    the player's own input channel (B_i, D_i, S_i, R_ii).  Margins are
    the smallest eigenvalues of (-1)^(i+1) [R_ii + D_i' P_i D_i] and
    of the barred analogue.
    """
    if player not in (1, 2):
        raise ValueError("player must be 1 or 2")
    cols = _columns(spec, player)
    ta_n = _TimeArrays(spec, grid.nodes)
    cache = _coefficient_cache(spec, grid)
    times, values, node_index, asym = _integrate_rungs(
        lambda t, P: _control_slope(cache.at(t), cols, P), grid,
        ta_n.G[None], rtol)
    values = values[:, 0]
    node_vals = values[node_index]
    mids = _midpoint_index(times, node_index)
    ta_m = _TimeArrays(spec, times[mids])
    Di, Dib = ta_n.D[..., cols], ta_n.Dsum[..., cols]
    Sig = ta_n.R[:, cols, cols] + _T(Di) @ node_vals @ Di
    Sigb = ta_n.Rsum[:, cols, cols] + _T(Dib) @ node_vals @ Dib
    _cond_violations(Sig, grid.nodes, f"player {player} control weight")
    sign = 1.0 if player == 1 else -1.0
    mu = np.linalg.eigvalsh(sign * Sig)[:, 0]
    mub = np.linalg.eigvalsh(sign * Sigb)[:, 0]
    residual = _sup_defect(node_vals[None], grid.h,
                           _control_slope(ta_m, cols, values[mids])[None])[0]
    regular = bool(np.min(mu) >= delta and np.min(mub) >= delta)
    return RiccatiSolution(
        grid=grid, kind=f"control-{player}", times=times,
        values_fine=values, node_index=node_index,
        regularity_margin_1=mu, regularity_margin_2=mub,
        residual_norm=residual, strongly_regular=regular, delta=delta,
        asymmetry_sup=asym[0])


def solve_riccati_pair(spec: GameSpec, grid: TimeGrid,
                       delta: float = DEFAULT_DELTA,
                       rtol: float = DEFAULT_RTOL):
    """Solve the game equation and the mean equation in one sweep.

    The pair is integrated jointly so the mean equation sees the game
    solution exactly at every internal stage, layers included.
    Returns (P, Pi) as RiccatiSolutions on a shared refined partition;
    Pi carries P as its companion path.
    """
    return _solve_pairs(spec, grid, None, delta, rtol)[0]


def _solve_pairs(spec: GameSpec, grid: TimeGrid, eps, delta: float,
                 rtol: float) -> list:
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
    times, values, node_index, asym = _integrate_rungs(
        _pair_rhs(_coefficient_cache(spec, grid), shift), grid, terminal,
        rtol, names)

    # margins at the nodes and midpoint defects, all rungs at once
    mids = _midpoint_index(times, node_index)
    ta_m = _TimeArrays(spec, times[mids])
    Y_n = np.moveaxis(values[node_index], 1, 0)
    Y_m = np.moveaxis(values[mids], 1, 0)
    P_n, P_m = Y_n[:, :, 0], Y_m[:, :, 0]
    sh = shift[:, None]
    Sig = ta_n.R + sh + _T(ta_n.D) @ P_n @ ta_n.D
    # bar margins depend on P, not Pi
    Sigb = ta_n.Rsum + sh + _T(ta_n.Dsum) @ P_n @ ta_n.Dsum
    for e in range(E):
        _cond_violations(Sig[e], grid.nodes,
                         names[e] + "the stacked control weight")
        _cond_violations(Sigb[e], grid.nodes,
                         names[e] + "the mean-equation control weight")
    res_P = _sup_defect(P_n, grid.h, _game_slope(ta_m, ta_m.R + sh, P_m))
    res_Pi = _sup_defect(Y_n[:, :, 1], grid.h,
                         _mean_slope(ta_m, ta_m.Rsum + sh, P_m,
                                     Y_m[:, :, 1]))
    out = []
    for e in range(E):
        P_fine = values[:, e, 0]
        P_sol = _solution(grid, delta, "game", times, P_fine, node_index,
                          Sig[e], spec.m1, res_P[e], asym[e])
        Pi_sol = _solution(grid, delta, "mean", times, values[:, e, 1],
                           node_index, Sigb[e], spec.m1, res_Pi[e], asym[e],
                           companion=P_fine)
        out.append((P_sol, Pi_sol))
    return out


def _integrate_rungs(rhs, grid: TimeGrid, terminal: np.ndarray, rtol: float,
               names=None):
    """Symmetrized backward integration of a rung stack.

    Returns (times, values, node_index, per-rung asymmetry sup); an
    IntegrationError becomes a RegularityError prefixed with the
    failing rung's name.
    """
    post, st = _make_post()
    try:
        times, values, node_index = integrate_backward(
            rhs, grid, terminal, rtol=rtol, post=post)
    except IntegrationError as exc:
        prefix = names[exc.rung] if names else ""
        raise RegularityError(prefix + str(exc), exc.t) from None
    return times, values, node_index, st["sup"]


def solve_mean_riccati(spec: GameSpec, P: RiccatiSolution, grid: TimeGrid,
                       delta: float = DEFAULT_DELTA,
                       rtol: float = DEFAULT_RTOL) -> RiccatiSolution:
    """Solve the mean Riccati equation for Pi given the game solution P.

    P must be the game solution on the same grid; the pair is
    re-integrated jointly (the precondition pins P down, and joint
    integration is the only way to know P inside refined stages), then
    cross-checked against the provided node values.
    """
    if not np.array_equal(P.grid.nodes, grid.nodes):
        raise GridMismatchError("P was solved on a different grid")
    P_pair, Pi = solve_riccati_pair(spec, grid, delta=delta, rtol=rtol)
    scale = 1.0 + float(np.max(np.abs(P_pair.values)))
    gap = float(np.max(np.abs(P_pair.values - P.values)))
    if gap > 1e-6 * scale:
        raise ValueError(
            "provided P does not solve the game equation on this grid "
            f"(node mismatch {gap:.3e})")
    return Pi


def assemble_dg_weights(spec: GameSpec, P: RiccatiSolution,
                        grid: TimeGrid) -> DGWeights:
    """Evaluate the mean-equation weight paths at the grid nodes."""
    if not np.array_equal(P.grid.nodes, grid.nodes):
        raise GridMismatchError("P was solved on a different grid")
    ta = _TimeArrays(spec, grid.nodes)
    Pv, m1 = P.values, spec.m1
    PCs = Pv @ ta.Csum
    DtPC = _T(ta.Dsum) @ PCs + ta.Ssum
    return DGWeights(grid=grid, upsilon=_sym(ta.Qsum + _T(ta.Csum) @ PCs),
                     gamma1=DtPC[:, :m1], gamma2=DtPC[:, m1:],
                     sigma_bar=_sym(ta.Rsum + _T(ta.Dsum) @ Pv @ ta.Dsum))


def check_strong_regularity(P: RiccatiSolution, spec: GameSpec,
                            delta: float = DEFAULT_DELTA) -> RegularityReport:
    """Nodewise signed margins of the plain and barred weight blocks."""
    ta = _TimeArrays(spec, P.grid.nodes)
    Pv = P.values
    Sig = ta.R + _T(ta.D) @ Pv @ ta.D
    Sigb = ta.Rsum + _T(ta.Dsum) @ Pv @ ta.Dsum
    m1p, m2p = _signed_block_margins(Sig, spec.m1)
    m1b, m2b = _signed_block_margins(Sigb, spec.m1)
    passed = bool(min(m1p.min(), m2p.min(), m1b.min(), m2b.min()) >= delta)
    return RegularityReport(delta=delta, margin_1=m1p, margin_2=m2p,
                            margin_1_bar=m1b, margin_2_bar=m2b,
                            passed=passed)


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


def riccati_residual(P: RiccatiSolution, spec: GameSpec, which: str) -> float:
    """Sup Frobenius defect of a path in one of the Riccati equations.

    ``which`` is one of "Ric1" (game), "Ric2" (mean; requires the
    companion game path on P), "Ric-1", "Ric-2" (single channels).
    The time derivative is approximated by central differences at
    interior nodes.
    """
    vals, ta = P.values, _TimeArrays(spec, P.grid.nodes[1:-1])
    inner = vals[1:-1]
    if which == "Ric1":
        slope = _game_slope(ta, ta.R, inner)
    elif which in ("Ric-1", "Ric-2"):
        slope = _control_slope(ta, _columns(spec, int(which[-1])), inner)
    elif which == "Ric2":
        comp = P.companion_values
        if comp is None:
            raise ValueError("Ric2 residual needs the companion game path")
        slope = _mean_slope(ta, ta.Rsum, comp[1:-1], inner)
    else:
        raise ValueError(f"unknown equation tag {which!r}")
    defect = (vals[2:] - vals[:-2]) / (2.0 * P.grid.h) - slope
    return float(np.max(np.linalg.norm(defect, axis=(1, 2)), initial=0.0))


def write_riccati_csv(sol: RiccatiSolution, path) -> None:
    """One row per grid node: t followed by row-major matrix entries."""
    n = sol.values_fine.shape[-1]
    header = ["t"] + [f"P_{i}_{j}" for i in range(n) for j in range(n)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t, M in zip(sol.grid.nodes, sol.values):
            row = [f"{t:.17g}"] + [f"{x:.17g}" for x in M.ravel()]
            fh.write(",".join(row) + "\n")
