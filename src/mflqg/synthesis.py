"""Closed-loop synthesis and verification for the zero-sum mean-field game.

Once the game and mean Riccati paths are available, the candidate
equilibrium is the affine feedback

    u(t) = gain(t) (X - E[X]) + mean_gain(t) E[X],

with gains obtained by inverting the stacked control weights.  This
module builds that law, propagates the closed-loop mean/covariance
pair exactly (the first two moments of a linear mean-field SDE close
on themselves), evaluates the game functional by fourth-order
quadrature or by Monte Carlo on the fluctuation process, and verifies
the saddle property of any affine law against open-loop deviations of
each player around its realized control.

Verification is exact, not sampled.  When one player adds a
deterministic bump b to the realized control while the opponent keeps
the realized process, the functional at bump size s is
J + 2 s <E[rho], b> + s^2 J(0; b), <., .> the L2 pairing on [0, T].
The linear term pairs b with the mean of the open-loop gradient rho,
which one backward adjoint pass of the moment flow yields; the
quadratic term J(0; b) is the
homogeneous cost of b, the zero law's quadratic form.  A saddle needs
E[rho] = 0, and that form convex in the minimizer's bumps and concave
in the maximizer's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._integrate import _mv, _sym, _T, _TimeArrays, hermite_midpoint
from .model import ControlLaw, GameSpec
from .riccati import (GridMismatchError, RiccatiSolution, _pair_terms,
                      _signed_block_margins)

__all__ = [
    "FeedbackLaw",
    "build_feedback",
    "stationarity_residual",
    "MomentPath",
    "propagate_moments",
    "CostReport",
    "evaluate_functional",
    "MCReport",
    "evaluate_functional_mc",
    "SaddleReport",
    "verify_saddle",
]

# Monte Carlo paths simulated at once: bounds the increments' memory,
# not the estimate, which depends only on the seed and the path count.
_MC_BLOCK = 1000

# Curvature a saddle may show with the wrong sign, relative to 1 + |J|.
_CURVATURE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class FeedbackLaw(ControlLaw):
    """Saddle-candidate feedback synthesized from the Riccati pair.

    A control law with zero offset on the pair's refined partition.
    ``riccati`` and ``mean_riccati`` keep the P and Pi paths the law
    was built from; ``margin_1`` and ``margin_2`` are the players'
    signed weight-block margins along them.
    """

    riccati: np.ndarray
    mean_riccati: np.ndarray
    margin_1: np.ndarray
    margin_2: np.ndarray

    def value_at(self, x) -> float:
        """Game value <Pi(0) x, x> of the saddle candidate."""
        x = np.asarray(x, dtype=float).reshape(-1)
        return float(x @ self.mean_riccati[0] @ x)


def build_feedback(spec: GameSpec, P: RiccatiSolution,
                   Pi: RiccatiSolution) -> FeedbackLaw:
    """Invert the control weights along P and Pi into feedback gains.

    P and Pi must be sampled on one partition, as ``solve_riccati_pair``
    returns them; the law lives on that partition.
    """
    if not np.array_equal(P.times, Pi.times):
        raise GridMismatchError("P and Pi are not sampled on one partition")
    fields = _feedback_fields(_TimeArrays(spec, P.times), P.values_fine,
                              Pi.values_fine)
    return FeedbackLaw(times=P.times,
                       offset=np.zeros((P.times.shape[0], spec.m)),
                       riccati=P.values_fine, mean_riccati=Pi.values_fine,
                       **fields)


def _feedback_fields(ta: _TimeArrays, P: np.ndarray, Pi: np.ndarray,
                     shift=0.0) -> dict:
    """Gains and margins along sampled P and Pi paths.

    P and Pi are sampled at ``ta``'s times.  ``shift`` is added to R
    and R + Rbar as the pair solve adds it, so a ladder rung's law is
    built on the unshifted spec's samples.  The gains are
    -sym(Sigma)^-1 L of the Riccati map.  Returns the FeedbackLaw
    fields of that name.
    """
    L, Sig = _pair_terms(ta, P, Pi, np.broadcast_to(shift, (1, ta.m, ta.m)))
    Sig = _sym(Sig[:, 0])
    gains = -np.linalg.solve(Sig, L[:, 0])
    margin_1, margin_2 = _signed_block_margins(Sig[:, 0], ta.m1)
    return dict(gain=gains[:, 0], mean_gain=gains[:, 1], margin_1=margin_1,
                margin_2=margin_2)


def stationarity_residual(spec: GameSpec, law: FeedbackLaw) -> float:
    """Sup defect of the two first-order conditions along the law.

    Checks B' P + D' P C + S + (R + D' P D) gain and its barred
    counterpart with Pi at every sampled time; both vanish for an
    exactly synthesized law, so this measures solve quality and
    catches hand-assembled laws that do not match their Riccati paths.
    """
    L, Sig = _pair_terms(_TimeArrays(spec, law.times), law.riccati,
                         law.mean_riccati, np.zeros((1, spec.m, spec.m)))
    r = L[:, 0] + Sig[:, 0] @ np.stack((law.gain, law.mean_gain), axis=1)
    return float(np.max(np.linalg.norm(r, axis=(-2, -1))))


# ----------------------------------------------------------------------
# the batched moment engine
# ----------------------------------------------------------------------

class _MomentEngine:
    """Batched closed-loop moment propagation and cost quadrature.

    One engine is bound to a partition and to one law, gains of shape
    (K, m, n), or to one law per batch row, (B, K, m, n), row b's R
    and R + Rbar shifted by ``shift[b]`` (the rungs of a ladder).
    ``run`` evaluates the functional for a batch of offset paths, which
    enter the moments only through the control mean: ``_march`` takes
    the mean in z = (m, 1), then the covariance, forced at the mean's
    RK4 stages, each as one affine step map per segment.  Cost and
    squared control norm are Simpson sums over boundaries and Hermite
    midpoints, matching the integrator's fourth order.  ``form``
    returns the functional of one law over spans of offset paths as
    one quadratic form instead.
    """

    def __init__(self, spec: GameSpec, times: np.ndarray, gain: np.ndarray,
                 mean_gain: np.ndarray, arrays: _TimeArrays | None = None,
                 shift: np.ndarray | None = None):
        ta = arrays if arrays is not None else _TimeArrays(spec, times)
        if not np.array_equal(ta.times, times):
            raise ValueError("time arrays do not match the law partition")
        self.ta = ta
        # per-law arrays carry a leading row axis of length 1 or B
        gain = gain if gain.ndim == 4 else gain[None]
        self.mean_gain = mean_gain if mean_gain.ndim == 4 else mean_gain[None]
        R, self.Rsum = ta.R[None], ta.Rsum[None]
        if shift is not None:
            R, self.Rsum = R + shift[:, None], self.Rsum + shift[:, None]
        self.F = ta.A + ta.B @ gain
        self.Gm = ta.C + ta.D @ gain
        gS = _T(gain) @ ta.S
        self.W = ta.Q + gS + _T(gS) + _T(gain) @ R @ gain
        self.gg = _T(gain) @ gain
        self.times = times

    def run(self, x0, v: np.ndarray, record: bool = False):
        """Propagate moments for every offset path in the batch.

        v has shape (B, K, m).  Returns (value, norm_sq) arrays of
        shape (B,), plus (mean_path, cov_path) when ``record``.
        """
        ta, times = self.ta, self.times
        (B, K, _), n = v.shape, ta.n
        h = np.diff(times[::2])
        Mz, Gz, Eu = _mean_system(ta, self.mean_gain, v)
        z0 = np.append(np.asarray(x0, dtype=float).reshape(n), 1.0)
        z, zs = _march([Mz[:, s] for s in _STAGES], None, h,
                       np.tile(z0[:, None], (B, 1, 1)))
        # the diffusion mean at the mean's stages forces the covariance
        g = [_outer(Gz[:, s] @ y) for s, y in zip(_STAGES, zs)]
        L = _vec_op(self.F, self.F, self.Gm, self.Gm)
        cov = _march([L[:, s] for s in _STAGES], g, h,
                     np.zeros((B, n * n, 1)))
        cov = _fill(cov, L[:, ::2] @ cov + _outer(Gz[:, ::2] @ z), h)
        z = _fill(z, Mz[:, ::2] @ z, h)
        mean, cov = z[..., :n, 0], _sym(cov.reshape(B, K, n, n))
        eu = (Eu @ z)[..., 0]
        cost = (np.einsum("...ij,...ji->...", self.W, cov)
                + np.einsum("bki,kij,bkj->bk", mean, ta.Qsum, mean)
                + 2.0 * np.einsum("bkm,kmn,bkn->bk", eu, ta.Ssum, mean)
                + np.einsum("...m,...mr,...r->...", eu, self.Rsum, eu))
        nrm = (np.einsum("...ij,...ji->...", self.gg, cov)
               + np.einsum("bkm,bkm->bk", eu, eu))
        # row by row, so a row's sums do not depend on the batch size
        w = _simpson_weights(times)
        value = (np.sum(cost * w, axis=1)
                 + np.einsum("ij,bji->b", ta.G, cov[:, -1])
                 + np.einsum("bi,ij,bj->b", mean[:, -1], ta.Gsum,
                             mean[:, -1]))
        norm_sq = np.sum(nrm * w, axis=1)
        return (value, norm_sq) + ((mean, cov) if record else (None, None))

    def form(self, v: np.ndarray) -> np.ndarray:
        """The functional as a quadratic form in (x0, offset weights).

        v holds d offset paths, shape (d, K, m).  Returns the symmetric
        (n+d) x (n+d) matrix H with J(x0; sum_a c_a v_a) = z' H z for
        z = (x0, c), the control being this engine's law plus the
        combined offset.  The mean is linear in z: one forward march
        of its n x (n+d) response.  The covariance enters the cost
        only through g = Csum m + Dsum E[u], because tr(G Sigma(T)) +
        int tr(W Sigma) = int g' Lam g along the backward Lyapunov
        flow -Lam' = F' Lam + Lam F + Gm' Lam Gm + W, Lam(T) = G, a
        march in vec form.  Both take ``run``'s steps and samples; the
        cost is one Simpson-weighted contraction over the partition.
        """
        ta, times = self.ta, self.times
        K, n, m, d = times.shape[0], ta.n, ta.m, v.shape[0]
        mean_gain = self.mean_gain[0]
        # E[u] = mean_gain m + U z: U picks the offset weights out of z
        U = np.zeros((K, m, n + d))
        U[:, :, n:] = np.transpose(v, (1, 2, 0))
        Phi = _linear_path(times, ta.Asum + ta.Bsum @ mean_gain, ta.Bsum @ U,
                           np.eye(n, n + d))
        Lam = self.lyapunov()
        Eu = mean_gain @ Phi + U
        g = ta.Csum @ Phi + ta.Dsum @ Eu
        Y = np.concatenate((Phi, Eu), axis=1)
        cost = np.block([[ta.Qsum, _T(ta.Ssum)], [ta.Ssum, self.Rsum[0]]])
        w = _simpson_weights(times)[:, None, None]
        H = (np.tensordot(Y, (w * cost) @ Y, ((0, 1),) * 2)
             + np.tensordot(g, (w * Lam) @ g, ((0, 1),) * 2)
             + Phi[-1].T @ ta.Gsum @ Phi[-1])
        return _sym(H)

    def lyapunov(self) -> np.ndarray:
        """``form``'s Lyapunov dual Lam of this engine's one law at
        every sample, (K, n, n), by one backward march in vec form."""
        ta, n = self.ta, self.ta.n
        F, Gm, W = self.F[0], self.Gm[0], self.W[0]
        return _linear_path(self.times,
                            -_vec_op(_T(F), _T(F), _T(Gm), _T(Gm)),
                            -W.reshape(-1, n * n, 1), ta.G.reshape(n * n, 1),
                            backward=True).reshape(-1, n, n)


def _simpson_weights(times: np.ndarray) -> np.ndarray:
    """Simpson weights of a partition's samples, (..., K) for times
    (..., K), boundaries shared by the segments on either side."""
    h = np.diff(times[..., ::2], axis=-1) / 6.0
    w = np.zeros(times.shape)
    w[..., 1::2] = 4.0 * h
    w[..., :-1:2] += h
    w[..., 2::2] += h
    return w


# -- the linear marcher ---------------------------------------------------

# RK4's stages after the first: offset in steps and weight
_RK4 = ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0))
# a partition's samples at its segments' four RK4 stages
_STAGES = (slice(0, -1, 2), slice(1, None, 2), slice(1, None, 2),
           slice(2, None, 2))


def _march(M, c, h, y0):
    """Boundary values, (..., S + 1, p, q), of a linear system y' = M y
    + c by one RK4 step per segment.

    M holds the four stage operators of every segment (at its start,
    twice at its midpoint, at its end), each (..., S, p, p); c the four
    stage forcings, each (..., S, p, q); h the signed widths, (..., S),
    one row per batch row or one row for all; y0 the first value.
    Every step is first composed, in a few stacked products, into its
    affine map y -> Phi y + psi.  An inclusive prefix scan then
    composes the maps of segments 1..k for every k at once, in about 2
    log2 S levels of stacked products, not one product per segment.  A homogeneous system (c None) also returns
    its four stage values, each (..., S, p, q)."""
    S, h = h.shape[-1], h[..., None, None]
    eye = np.eye(M[0].shape[-1])
    # stage j's map X_j = I + a_j h K_{j-1}, with K_1 = M1 and K_j =
    # M_j X_j; Phi = I + h/6 (K_1 + 2 K_2 + 2 K_3 + K_4), summed in place
    X, K, Phi = [], M[0], M[0].copy()
    for Mj, (a, wt) in zip(M[1:], _RK4):
        X.append(eye + (a * h) * K)
        K = Mj @ X[-1]
        Phi += wt * K
    Phi *= h / 6.0
    Phi += eye
    y = np.zeros(y0.shape[:-2] + (S + 1,) + y0.shape[-2:])
    y[..., 0, :, :] = y0
    # v[k-1] starts as map k applied to 0 (its psi), map 1's applied to
    # y0; the scan turns it into y_k = (map k after ... map 1)(y0)
    v = y[..., 1:, :, :]
    if c is not None:
        # psi by the same recursion on the forcings, summed into v
        k = c[0]
        v += k
        for Mj, cj, (a, wt) in zip(M[1:], c[1:], _RK4):
            k = Mj @ ((a * h) * k) + cj
            v += wt * k
        v *= h / 6.0
    v[..., 0, :, :] += Phi[..., 0, :, :] @ y0
    # work-efficient scan in place: fold each pair (2i, 2i+1) into 2i+1
    # (map 2i+1 after map 2i is Phi_o Phi_e, Phi_o psi_e + psi_o) and
    # repeat on the odd elements; then, coarsest level first, finish
    # each even element after the complete prefix just before it
    levels = []
    while Phi.shape[-3] > 1:
        odd, even = slice(1, None, 2), slice(0, Phi.shape[-3] - 1, 2)
        v[..., odd, :, :] += Phi[..., odd, :, :] @ v[..., even, :, :]
        levels.append((Phi, v))
        Phi, v = Phi[..., odd, :, :] @ Phi[..., even, :, :], v[..., odd, :, :]
    for Phi, v in reversed(levels):
        v[..., 2::2, :, :] += Phi[..., 2::2, :, :] @ v[..., 1:-1:2, :, :]
    if c is None:
        start = y[..., :-1, :, :]
        return y, [start] + [Xj @ start for Xj in X]
    return y


def _fill(y, f, h):
    """A march's samples: its boundary values y, (..., S + 1, p, q), at
    even indices, Hermite midpoints from boundary slopes f at odd; h
    the widths, (..., S)."""
    path = np.empty(y.shape[:-3] + (2 * h.shape[-1] + 1,) + y.shape[-2:])
    path[..., ::2, :, :] = y
    path[..., 1::2, :, :] = hermite_midpoint(
        y[..., :-1, :, :], y[..., 1:, :, :], f[..., :-1, :, :],
        f[..., 1:, :, :], h[..., None, None])
    return path


def _linear_path(times, M, c, y0, backward: bool = False):
    """Samples of y' = M y + c at every time of a law's partition, for
    M and c sampled there, (..., K, p, p) and (..., K, p, q), and times
    (..., K): leading axes march independent systems.  ``y0``, (..., p,
    q), is the value at the first time, or at the last when
    ``backward``."""
    flip = (..., slice(None, None, -1), slice(None), slice(None))
    if backward:
        times, M, c = times[..., ::-1], M[flip], c[flip]
    h = np.diff(times[..., ::2], axis=-1)
    y = _march([M[..., s, :, :] for s in _STAGES],
               [c[..., s, :, :] for s in _STAGES], h, y0)
    path = _fill(y, M[..., ::2, :, :] @ y + c[..., ::2, :, :], h)
    return path[flip] if backward else path


def _mean_system(ta: _TimeArrays, mean_gain, v):
    """The mean flow in z = (m, 1) at every sample, z' = Mz z, and the
    control and diffusion means E[u] = Eu z and g = Gz z, for gains
    mean_gain (..., K, m, n) and offsets v (..., K, m)."""
    n = ta.n
    Eu = np.concatenate((np.broadcast_to(mean_gain, v.shape + (n,)),
                         v[..., None]), axis=-1)
    Gz = ta.Dsum @ Eu
    Gz[..., :n] += ta.Csum
    Mz = np.zeros(Eu.shape[:-2] + (n + 1, n + 1))
    Mz[..., :n, :] = ta.Bsum @ Eu
    Mz[..., :n, :n] += ta.Asum
    return Mz, Gz, Eu


def _vec_op(FL, FR, GL, GR):
    """Z -> FL Z + Z FR' + GL Z GR' on row-major vec Z, as a matrix."""
    eye = np.eye(FL.shape[-1])
    op = FL[..., :, None, :, None] * eye[:, None, :]
    op += eye[:, None, :, None] * FR[..., None, :, None, :]
    op += GL[..., :, None, :, None] * GR[..., None, :, None, :]
    return op.reshape(op.shape[:-4] + (op.shape[-4] * op.shape[-3],) * 2)


def _outer(g):
    """Row-major vec of g g' for stacked columns g, (..., n, 1)."""
    return (g * _T(g)).reshape(g.shape[:-2] + (-1, 1))


@dataclass(frozen=True, eq=False)
class MomentPath:
    """Mean, covariance, and control mean of one closed-loop run."""

    times: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    control_mean: np.ndarray


def propagate_moments(spec: GameSpec, law: ControlLaw, x0) -> MomentPath:
    """Exact first and second moments of the controlled state.

    The law's offset, gains, and partition fully determine the moment
    flow; no sampling is involved.
    """
    eng = _MomentEngine(spec, law.times, law.gain, law.mean_gain)
    _, _, mean_path, cov_path = eng.run(x0, law.offset[None], record=True)
    eu = (np.einsum("kmn,kn->km", law.mean_gain, mean_path[0])
          + law.offset)
    return MomentPath(times=law.times, mean=mean_path[0], cov=cov_path[0],
                      control_mean=eu)


@dataclass(frozen=True)
class CostReport:
    """Functional value and squared L2 control norm of one law."""

    value: float
    control_norm_sq: float


def evaluate_functional(spec: GameSpec, law: ControlLaw, x0) -> CostReport:
    """Game functional J(x0; u) for the law's realized control."""
    eng = _MomentEngine(spec, law.times, law.gain, law.mean_gain)
    value, norm_sq, _, _ = eng.run(x0, law.offset[None])
    return CostReport(value=float(value[0]),
                      control_norm_sq=float(norm_sq[0]))


@dataclass(frozen=True)
class MCReport:
    """Monte Carlo estimate of the functional with its standard error."""

    value: float
    stderr: float
    paths: int
    seed: int


def evaluate_functional_mc(spec: GameSpec, law: ControlLaw, x0,
                           paths: int = 10000, seed: int = 0) -> MCReport:
    """Estimate J(x0; u) by Euler-Maruyama on the fluctuation process.

    The state mean is taken from the exact moment flow and only the
    centered part is simulated, so specs without noise reproduce the
    quadrature value path by path.  Fixing seed and paths fixes the
    estimate exactly; paths are simulated ``_MC_BLOCK`` at a time,
    state-major: a block's fluctuations are the columns of one (n,
    paths) array.
    """
    eng = _MomentEngine(spec, law.times, law.gain, law.mean_gain)
    ta = eng.ta
    _, _, mean_path, _ = eng.run(x0, law.offset[None], record=True)
    mean = mean_path[0]
    eu = np.einsum("kmn,kn->km", law.mean_gain, mean) + law.offset
    g = (np.einsum("kij,kj->ki", ta.Csum, mean)
         + np.einsum("kim,km->ki", ta.Dsum, eu))[..., None]
    times = law.times
    K, n = times.shape[0], spec.n
    dt = np.diff(times)
    sq = np.sqrt(dt)
    # the running cost is z' M z in z = (Y, 1), M = L' [[Q, S'], [S, R]] L
    # for X = mean + Y and u = gain Y + E[u]; M's blocks are the engine's
    # closed-loop weight W, lin, and the cost of the means, to which the
    # path-independent mean-field terms are added
    lin = (_mv(ta.Q, mean) + _mv(_T(ta.S), eu)
           + _mv(_T(law.gain), _mv(ta.S, mean) + _mv(ta.R, eu)))
    const = (np.einsum("ki,kij,kj->k", mean, ta.Qsum, mean)
             + 2.0 * np.einsum("km,kmn,kn->k", eu, ta.Ssum, mean)
             + np.einsum("km,kmr,kr->k", eu, ta.Rsum, eu))
    w = np.convolve(dt, (0.5, 0.5))       # trapezoid weights
    # a path's Y' W Y is (W' Y) . Y; W is symmetric only up to roundoff
    wW = w[:, None, None] * _T(eng.W[0])
    wlin2 = ((2.0 * w)[:, None] * lin)[..., None]
    G_mean = (2.0 * ta.G @ mean[-1])[:, None]
    fixed = float(w @ const) + float(mean[-1] @ ta.Gsum @ mean[-1])
    F, Gm = eng.F[0], eng.Gm[0]

    rng = np.random.default_rng(seed)
    totals = np.empty(paths)
    done = 0
    while done < paths:
        bp = min(_MC_BLOCK, paths - done)
        # time-major increments, so each step reads one contiguous row
        dW = np.ascontiguousarray((rng.standard_normal((bp, K - 1)) * sq).T)
        Y = np.zeros((n, bp))
        acc = np.zeros(bp)
        for i in range(K - 1):
            Y = Y + dt[i] * (F[i] @ Y) + (Gm[i] @ Y + g[i]) * dW[i]
            acc += np.einsum("ip,ip->p", wW[i + 1] @ Y + wlin2[i + 1], Y)
        # the terminal cost's path-dependent part Y' G Y + 2 mean' G Y
        acc += np.einsum("ip,ip->p", ta.G.T @ Y + G_mean, Y)
        totals[done:done + bp] = acc + fixed
        done += bp
    value = float(np.mean(totals))
    if paths > 1:
        stderr = float(np.std(totals, ddof=1) / np.sqrt(paths))
    else:
        stderr = float("inf")
    return MCReport(value=value, stderr=stderr, paths=paths, seed=seed)


# ----------------------------------------------------------------------
# open-loop deviations and saddle verification
# ----------------------------------------------------------------------

def _open_loop_gradient(eng: _MomentEngine, law: ControlLaw,
                        mean: np.ndarray) -> np.ndarray:
    """Mean E[rho] of the open-loop gradient along a law's realization.

    ``mean`` is the realized state mean at every sample.  The first
    adjoint Lam pairs the base fluctuation with a bump's and solves
    -Lam' = Lam F + A' Lam + C' Lam Gm + Q + S' gain, Lam(T) = G; the
    second, lam, carries the means: -lam' = Asum' lam + Qsum m +
    Ssum' E[u] + Csum' Lam g, lam(T) = Gsum m(T), with g = Csum m +
    Dsum E[u] the mean of the diffusion.  Then E[rho] = Bsum' lam +
    Dsum' Lam g + Ssum m + Rsum E[u], and a deterministic bump b moves
    the functional by 2 int <E[rho], b> to first order.
    """
    ta, times, n = eng.ta, law.times, eng.ta.n
    F, Gm = eng.F[0], eng.Gm[0]
    forcing = -(ta.Q + _T(ta.S) @ law.gain).reshape(-1, n * n, 1)
    Lam = _linear_path(times, -_vec_op(_T(ta.A), _T(F), _T(ta.C), _T(Gm)),
                       forcing, ta.G.reshape(n * n, 1),
                       backward=True).reshape(-1, n, n)
    eu = _mv(law.mean_gain, mean) + law.offset
    Lg = _mv(Lam, _mv(ta.Csum, mean) + _mv(ta.Dsum, eu))
    drive = _mv(ta.Qsum, mean) + _mv(_T(ta.Ssum), eu) + _mv(_T(ta.Csum), Lg)
    lam = _linear_path(times, -_T(ta.Asum), -drive[..., None],
                       (ta.Gsum @ mean[-1])[:, None], backward=True)[..., 0]
    return (_mv(_T(ta.Bsum), lam) + _mv(_T(ta.Dsum), Lg)
            + _mv(ta.Ssum, mean) + _mv(ta.Rsum, eu))


def _direction_shapes(times: np.ndarray):
    """Unit-norm scalar bump shapes: quarter windows and low polynomials."""
    T = float(times[-1])
    shapes = []
    for q in range(4):
        lo, hi = q * T / 4.0, (q + 1) * T / 4.0
        ind = ((times >= lo) & (times < hi)).astype(float)
        if q == 3:
            ind = ((times >= lo) & (times <= hi)).astype(float)
        shapes.append((f"window{q + 1}", ind / np.sqrt(T / 4.0)))
    s = times / T
    for name, arr in (("const", np.ones_like(s)),
                      ("ramp", s * np.sqrt(3.0)),
                      ("arc", s**2 * np.sqrt(5.0))):
        shapes.append((name, arr / np.sqrt(T)))
    return shapes


@dataclass(frozen=True, eq=False)
class SaddleReport:
    """Outcome of open-loop saddle verification around a law.

    ``stationarity`` and ``curvature`` are per-direction: the linear
    and quadratic coefficients of the functional in the bump size,
    2 int <E[rho], b> and J(0; b).  A saddle needs all linear terms
    ~ 0, nonnegative curvature for the minimizing player, nonpositive
    for the maximizing one.  ``quadratic_defect`` is the gap between
    ``value`` and the law's own quadratic form at (x0, 1), which the
    two certificates' quadratures must agree on.
    """

    is_saddle: bool
    value: float
    stationarity_sup: float
    curvature_min_1: float
    curvature_max_2: float
    quadratic_defect: float
    players: np.ndarray
    stationarity: np.ndarray
    curvature: np.ndarray
    tol: float
    curvature_tol: float


def verify_saddle(spec: GameSpec, law: ControlLaw, x0,
                  tol: float = 1e-6) -> SaddleReport:
    """Verify the saddle property of a law against open-loop bumps.

    Each player's realized control is bumped along unit-norm window
    and polynomial directions in every control coordinate while the
    opponent keeps the realized control process.  The linear term of
    each bump is the Simpson pairing of the bump with the open-loop
    gradient from one adjoint sweep; its curvature is the diagonal of
    the zero law's quadratic form over the bumps, the form ``check``'s
    sections use.  ``value`` is the law's functional from one moment
    run, and ``quadratic_defect`` its gap to the law's quadratic form.
    ``tol`` bounds stationarity and ``_CURVATURE_TOL`` curvature.
    """
    K, n, m = law.times.shape[0], spec.n, spec.m
    shapes = [shape for _name, shape in _direction_shapes(law.times)]
    players = np.repeat([1, 2], [spec.m1 * len(shapes),
                                 spec.m2 * len(shapes)])
    # direction (coordinate, shape) bumps one control coordinate
    dirs = np.zeros((m, len(shapes), K, m))
    for coord in range(m):
        dirs[coord, :, :, coord] = shapes
    dirs = dirs.reshape(-1, K, m)

    eng = _MomentEngine(spec, law.times, law.gain, law.mean_gain)
    values, _, mean_path, _ = eng.run(x0, law.offset[None], record=True)
    base = float(values[0])
    z = np.append(np.asarray(x0, dtype=float).reshape(n), 1.0)
    defect = abs(base - z @ eng.form(law.offset[None]) @ z)
    grad = _open_loop_gradient(eng, law, mean_path[0])
    lin = 2.0 * np.einsum("k,km,dkm->d", _simpson_weights(law.times), grad,
                          dirs)
    zero = np.zeros_like(law.gain)
    quad = np.diagonal(_MomentEngine(spec, law.times, zero, zero,
                                     arrays=eng.ta).form(dirs))[n:]
    scale = 1.0 + abs(base)
    cur1 = quad[players == 1]
    cur2 = quad[players == 2]
    curvature_min_1 = float(cur1.min()) if cur1.size else float("inf")
    curvature_max_2 = float(cur2.max()) if cur2.size else float("-inf")
    stat_sup = float(np.max(np.abs(lin)))
    ok = (stat_sup <= tol * scale
          and curvature_min_1 >= -_CURVATURE_TOL * scale
          and curvature_max_2 <= _CURVATURE_TOL * scale)
    return SaddleReport(is_saddle=bool(ok), value=base,
                        stationarity_sup=stat_sup,
                        curvature_min_1=curvature_min_1,
                        curvature_max_2=curvature_max_2,
                        quadratic_defect=float(defect), players=players,
                        stationarity=lin, curvature=quad, tol=tol,
                        curvature_tol=_CURVATURE_TOL)
