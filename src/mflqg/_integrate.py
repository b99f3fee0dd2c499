"""Internal numerics: classical RK4 on a fixed output grid with
per-interval step-doubling refinement, and the one coefficient
sampler every solver shares.

The refinement exists because backward Riccati flows develop terminal
or initial layers of width comparable to the perturbation parameter;
a fixed step cannot resolve those while the output grid stays the
user's contract.  Each grid interval is integrated by classical RK4
and accepted only when a step-doubling comparison agrees to a relative
tolerance; otherwise the interval is split in halves, down to a
fixed depth.  The accepted value of a segment is the two-half-step
result, and the half-step value at the segment midpoint is recorded,
so the returned path always alternates segment boundaries (even
indices) and midpoints (odd indices).  Every stored value is
symmetrized, and each rung's worst skew before symmetrization is
returned with the path.  The state's leading axis holds independent
rungs (the neighbours of an eps-ladder, or a single solve) integrated
on one shared partition.

Coefficients are sampled by ``_TimeArrays``, one vectorized
``CoefficientPath.sample`` call per path.  The integrator's rhs reads
them one time at a time from a ``CoefficientCache`` of rows in the
solver's own view, filled in one batch at ``grid.half_times``, whose
midpoints are the integrator's own t0 + 0.5*h.  A state has at least
two axes: rungs, then matrices, square in the last two axes.
"""

from __future__ import annotations

import numpy as np

from .model import GameSpec, TimeGrid

__all__ = [
    "IntegrationError",
    "CoefficientCache",
    "integrate_backward",
    "hermite_midpoint",
]

# Fast-accept thresholds: an interval is taken in a single RK4 step,
# without the doubling comparison, when the stage slopes are this tame.
_FAST_MOVE = 0.04
_FAST_SPREAD = 1e-4

# Escape bound, relative to the terminal-value scale.  A finite-time
# escape tracks its pole with locally consistent steps, so no per-step
# error test can flag it; growth beyond this factor is the detector.
_MAX_GROWTH = 1e8

# Work bound: accepted segments in one grid interval.  A flow that loses
# strong regularity without escaping is taken in ever smaller accepted
# steps and would never reach the next node; legitimate layers (the
# eps-ladders, escapes before they are detected) take a few hundred.
_MAX_SEGMENTS = 4096

# Halvings of one grid interval before a failing doubling test is fatal.
_MAX_DEPTH = 40

# Relative tolerance of the step-doubling test: one step against two.
_RTOL = 1e-8

# Rows a CoefficientCache keeps before it starts over.
_MAX_MEMO = 1 << 18


class IntegrationError(RuntimeError):
    """Raised when refinement bottoms out or the flow blows up.

    ``rung`` indexes the failing slice along the state's leading axis.
    """

    def __init__(self, message: str, t: float, rung: int = 0):
        super().__init__(message)
        self.t = t
        self.rung = rung


def _T(M: np.ndarray) -> np.ndarray:
    """Transpose the trailing matrix axes of a stack."""
    return M.swapaxes(-1, -2)


def _mv(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector products M[...] @ x[...]."""
    return (M @ x[..., None])[..., 0]


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + _T(M))


_FIELDS = ("A", "B", "C", "D", "S", "Q", "R")


class _TimeArrays:
    """Spec coefficients sampled at K times, each field C-contiguous
    with leading axis K: B = [B1 B2], D = [D1 D2], S = [S1; S2],
    R = [[R11 R12]; [R12' R22]], *sum* fields coefficient + bar, and
    the symmetric weights symmetrized once, after validation.  Each
    field and its sum are the halves of one (2, K, ...) array of
    ``pairs`` (order ``_FIELDS``): the stacks the pair slope reads."""

    __slots__ = (_FIELDS + tuple(f + "sum" for f in _FIELDS)
                 + ("pairs", "times", "G", "Gsum", "n", "m", "m1"))

    def __init__(self, spec: GameSpec, times: np.ndarray):
        self.times = times
        self.n, self.m, self.m1 = spec.n, spec.m, spec.m1
        co, w = spec.coefficients, spec.weights

        def side(p1, p2, axis):
            return np.concatenate((p1.sample(times), p2.sample(times)),
                                  axis=axis)

        def pair(plain, bar):
            out = np.empty((2,) + plain.shape)
            out[0] = plain
            np.add(plain, bar, out=out[1])
            return out

        def rpair():
            # both halves' blocks, symmetrized at once; then R + Rbar
            # as Rbar + R, which IEEE addition makes the same bits
            m1 = self.m1
            out = np.empty((2, len(times), self.m, self.m))
            for half, (r11, r12, r22) in zip(out, (
                    (w.R11, w.R12, w.R22), (w.R11bar, w.R12bar, w.R22bar))):
                r12 = r12.sample(times)
                half[:, :m1, :m1] = r11.sample(times)
                half[:, :m1, m1:] = r12
                half[:, m1:, :m1] = _T(r12)
                half[:, m1:, m1:] = r22.sample(times)
            out = _sym(out)
            out[1] += out[0]
            return out

        self.pairs = (
            pair(co.A.sample(times), co.Abar.sample(times)),
            pair(side(co.B1, co.B2, 2), side(co.B1bar, co.B2bar, 2)),
            pair(co.C.sample(times), co.Cbar.sample(times)),
            pair(side(co.D1, co.D2, 2), side(co.D1bar, co.D2bar, 2)),
            pair(side(w.S1, w.S2, 1), side(w.S1bar, w.S2bar, 1)),
            pair(_sym(w.Q.sample(times)), _sym(w.Qbar.sample(times))),
            rpair())
        # indexing, not unpacking: this runs once per memo miss
        self.A, self.B, self.C, self.D, self.S, self.Q, self.R = [
            p[0] for p in self.pairs]
        (self.Asum, self.Bsum, self.Csum, self.Dsum, self.Ssum, self.Qsum,
         self.Rsum) = [p[1] for p in self.pairs]
        self.G = _sym(w.G)
        self.Gsum = self.G + _sym(w.Gbar)


class CoefficientCache:
    """Per-time rows of one spec's coefficients, memoized for an rhs.

    A row is one time of ``view``, which maps a ``_TimeArrays`` to the
    solver's slope arguments with leading axis time, so an rhs does no
    slicing, stacking or shifting of its own.  The Riccati solvers
    ``fill`` the memo in one batch at ``grid.half_times``, the times at
    which the integrator calls rhs on the intervals it fast-accepts.  A
    time inside a refined interval is sampled alone; a constant spec has
    one row.
    """

    def __init__(self, spec: GameSpec, view):
        self.spec = spec
        self.view = view
        self._memo: dict[float, tuple] = {}
        self.constant = all(
            getattr(p, "kind", "constant") == "constant" for p in
            (*vars(spec.coefficients).values(), *vars(spec.weights).values()))
        self._frozen = self._row(np.zeros(1)) if self.constant else None

    def _row(self, times: np.ndarray) -> tuple:
        return next(zip(*self.view(_TimeArrays(self.spec, times))))

    def fill(self, arrays: _TimeArrays) -> None:
        """Memoize every row of one batch sample under its time."""
        self._memo.update(zip(arrays.times.tolist(),
                              zip(*self.view(arrays))))

    def at(self, t: float) -> tuple:
        if self._frozen is not None:
            return self._frozen
        t = float(t)
        row = self._memo.get(t)
        if row is None:
            if len(self._memo) >= _MAX_MEMO:
                self._memo.clear()
            row = self._memo[t] = self._row(np.array([t]))
        return row


def _rung_max(y: np.ndarray) -> np.ndarray:
    """Infinity norm of each rung (slice along the leading axis) of y."""
    return abs(y).reshape(len(y), -1).max(axis=1, initial=0.0)


def _rung_finite(y: np.ndarray) -> np.ndarray:
    return np.isfinite(y).reshape(len(y), -1).all(axis=1)


def _rk4_step(rhs, t: float, h: float, y: np.ndarray, k1: np.ndarray):
    """One classical RK4 step; k1 = rhs(t, y) is supplied by the caller.

    Returns (y_next, max_slope, max_spread) where the slope statistics
    are per-rung infinity norms of the stages, used by the fast-accept
    test.
    """
    k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = rhs(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = rhs(t + h, y + h * k3)
    y_next = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    stages = abs(np.concatenate((k1, k2, k3, k4, k4 - k1, k2 - k3), axis=1))
    stages = stages.reshape(len(y), 6, -1)
    return (y_next, stages[:, :4].max(axis=(1, 2)),
            stages[:, 4:].max(axis=(1, 2)))


def hermite_midpoint(y0, y1, f0, f1, h):
    """Fourth-order midpoint value from endpoint values and slopes."""
    return 0.5 * (y0 + y1) + (h / 8.0) * (f0 - f1)


# a trial step may overflow; _rung_finite rejects it, so numpy's
# warnings about it are noise
@np.errstate(over="ignore", invalid="ignore")
def integrate_backward(rhs, grid: TimeGrid, y_terminal: np.ndarray):
    """Integrate dy/dt = rhs(t, y) from t = T down to t = 0.

    The leading axis of ``y_terminal`` indexes independent rungs that
    share one adaptive partition: ``rhs`` maps a stack of rung states
    to their slopes.  Every rung keeps the tests of a solo solve: its
    own fast-accept and step-doubling test (to ``_RTOL``), and its own
    escape bound against its own terminal scale.  An interval is taken
    in one step when every rung passes its fast test, in two half-steps
    when every rung passes its doubling test, and split in halves
    otherwise.

    Returns (times, values, node_index, skew): ``times`` ascend from 0
    to T and alternate segment boundaries (even indices) and segment
    midpoints (odd indices); ``values[j]`` approximates the rung stack
    at ``times[j]`` to fourth order, symmetrized in its trailing matrix
    axes; ``node_index[k]`` locates grid node k inside ``times``;
    ``skew[e]`` is the largest entry of y - y' over rung e's stored
    values before symmetrization.

    Raises IntegrationError, carrying the failing rung, when an
    interval still disagrees after ``_MAX_DEPTH`` halvings, when a
    grid interval needs more than ``_MAX_SEGMENTS`` accepted segments,
    or when a rung's solution norm explodes, which is how loss of
    strong regularity inside the horizon surfaces.
    """
    nodes = grid.nodes
    y = np.asarray(y_terminal, dtype=float)
    scale0 = 1.0 + _rung_max(y)

    rhs_raw = rhs

    def rhs(t, yv):
        try:
            return rhs_raw(t, yv)
        except np.linalg.LinAlgError:
            rung = next((e for e in range(yv.shape[0])
                         if _raises_linalg(rhs_raw, t, yv[e:e + 1])), 0)
            raise IntegrationError(
                f"a linear solve inside the flow is singular at "
                f"t = {t:.6g}", t, rung) from None

    # Stored as computed, in descending time order; reversed,
    # symmetrized and measured for skew once, at the end.  The running
    # state is the symmetrized value.
    times_desc, values_desc = [nodes[-1]], [y]
    node_pos_desc = [0]
    y = _sym(y)
    f = rhs(nodes[-1], y)

    for k in range(grid.N, 0, -1):
        # the interval's pending segment ends, the nearest last; each
        # segment runs from t0, the last accepted time, to the top end
        t0 = nodes[k]
        ends = [(nodes[k - 1], 0)]
        while ends:
            t1, depth = ends[-1]
            scale = 1.0 + _rung_max(y)
            _check_escape(scale, scale0, t0)
            h = t1 - t0
            t_mid = t0 + 0.5 * h
            y_full, slope, spread = _rk4_step(rhs, t0, h, y, f)
            fast = ((abs(h) * slope / scale <= _FAST_MOVE)
                    & (abs(h) * spread / scale <= _FAST_SPREAD)
                    & _rung_finite(y_full))
            if fast.all():
                f1 = rhs(t1, y_full)
                if _rung_finite(f1).all():
                    # the slope at the end is taken before symmetrizing
                    times_desc += (t_mid, t1)
                    values_desc += (hermite_midpoint(y, y_full, f, f1, h),
                                    y_full)
                    y, f, t0 = _sym(y_full), f1, t1
                    ends.pop()
                    continue

            good = np.zeros_like(fast)
            y_half_mid, _, _ = _rk4_step(rhs, t0, 0.5 * h, y, f)
            mid_ok = _rung_finite(y_half_mid)
            if mid_ok.any():
                f_mid = rhs(t_mid, y_half_mid)
                y_half, _, _ = _rk4_step(rhs, t_mid, 0.5 * h, y_half_mid,
                                         f_mid)
                err = _rung_max(y_full - y_half)
                ynorm = _rung_max(y_half)
                good = (mid_ok & _rung_finite(y_half) & _rung_finite(y_full)
                        & (err <= _RTOL * (1.0 + ynorm)))
            if good.all():
                times_desc += (t_mid, t1)
                values_desc += (y_half_mid, y_half)
                y, t0 = _sym(y_half), t1
                f = rhs(t1, y)
                ends.pop()
                continue

            if depth >= _MAX_DEPTH:
                raise IntegrationError(
                    f"step refinement exhausted at t = {t_mid:.6g} "
                    f"(depth {depth}); a weight block is likely singular "
                    "there", t_mid, int(np.argmin(good)))
            # two entries per accepted segment since the interval's start
            if len(times_desc) - 1 - node_pos_desc[-1] >= 2 * _MAX_SEGMENTS:
                raise IntegrationError(
                    f"step refinement stalled at t = {t_mid:.6g} after "
                    f"{_MAX_SEGMENTS} segments in one grid interval; the "
                    "flow is not regular on this horizon", t_mid,
                    int(np.argmin(good)))
            ends[-1] = (t1, depth + 1)
            ends.append((t_mid, depth + 1))
        node_pos_desc.append(len(times_desc) - 1)
    # the value at t = 0 is accepted too, and may have escaped
    _check_escape(1.0 + _rung_max(y), scale0, nodes[0])

    node_index = len(times_desc) - 1 - np.array(node_pos_desc[::-1])
    values = np.stack(values_desc[::-1])
    skew = _rung_max(np.moveaxis(values - _T(values), 1, 0))
    return np.array(times_desc[::-1]), _sym(values), node_index, skew


def _check_escape(scale, scale0, t) -> None:
    """Raise when a rung's accepted value at t has grown beyond
    ``_MAX_GROWTH`` times its terminal scale; scale is 1 + its norm."""
    grown = scale > _MAX_GROWTH * scale0
    if grown.any():
        # the value is an accepted one, so this is genuine growth of
        # the flow, not a transient of an oversized step
        raise IntegrationError(
            f"solution norm exploded near t = {t:.6g}; "
            "the flow is not regular on this horizon", t,
            int(np.argmax(grown)))


def _raises_linalg(rhs, t, y) -> bool:
    try:
        rhs(t, y)
    except np.linalg.LinAlgError:
        return True
    return False
