"""Problem data for two-player zero-sum mean-field LQ differential games.

A game on [0, T] is described by matrix-valued coefficient paths for the
controlled state equation

    dX = {A X + Abar E[X] + B1 u1 + B1bar E[u1] + B2 u2 + B2bar E[u2]} ds
       + {C X + Cbar E[X] + D1 u1 + D1bar E[u1] + D2 u2 + D2bar E[u2]} dW

and by quadratic cost weights: terminal matrices G, Gbar and running
weights Q, S1, S2, R11, R12, R22 (plus their barred mean-field
counterparts) applied to (X, u1, u2) and (E[X], E[u1], E[u2]).
Player 1 minimizes the functional, player 2 maximizes it.

Coefficient paths come in three kinds:

* ``constant``    one matrix for all t
* ``piecewise``   right-continuous step function given as
                  (breakpoint, matrix) pairs, first breakpoint 0
* ``polynomial``  sum_k  C_k t**k  with matrix coefficients

A path is evaluated at one time by ``CoefficientPath.eval``, and on
an array of times, bitwise equal to eval, by ``CoefficientPath.sample``.

All containers are immutable after construction; their arrays are
stored read-only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SYMMETRY_TOL",
    "DEFAULT_DELTA",
    "CONDITION_LIMIT",
    "CoefficientPath",
    "Coefficients",
    "CostWeights",
    "GameSpec",
    "TimeGrid",
    "ControlLaw",
    "embed_perturbation",
]

# Absolute tolerance for symmetry checks on weight matrices.
SYMMETRY_TOL = 1e-12
# Default uniform-definiteness margin required of the control weights.
DEFAULT_DELTA = 1e-8
# Condition-number ceiling beyond which weight inversions abort.
CONDITION_LIMIT = 1e12


def _frozen(a) -> np.ndarray:
    """Return a float64 C-contiguous read-only copy of ``a``."""
    out = np.array(a, dtype=float, order="C")
    out.setflags(write=False)
    return out


def _check_matrix(a: np.ndarray, what: str) -> np.ndarray:
    if a.ndim != 2:
        raise ValueError(f"{what}: expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what}: non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class CoefficientPath:
    """A matrix-valued function of time on [0, horizon]."""

    kind: str
    rows: int
    cols: int
    horizon: float
    payload: tuple

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, matrix, horizon: float) -> "CoefficientPath":
        m = _check_matrix(_frozen(matrix), "constant path")
        return cls("constant", m.shape[0], m.shape[1], float(horizon), (m,))

    @classmethod
    def piecewise(cls, pairs, horizon: float) -> "CoefficientPath":
        """Right-continuous step path from (breakpoint, matrix) pairs."""
        if not pairs:
            raise ValueError("piecewise path needs at least one segment")
        breaks = _frozen([float(t) for t, _ in pairs]).reshape(-1)
        mats = _frozen([np.asarray(m, dtype=float) for _, m in pairs])
        if mats.ndim != 3:
            raise ValueError("piecewise path: segments must share one shape")
        if breaks[0] != 0.0:
            raise ValueError("piecewise path: first breakpoint must be 0")
        if np.any(np.diff(breaks) <= 0):
            raise ValueError("piecewise path: breakpoints must increase strictly")
        if breaks[-1] > horizon:
            raise ValueError("piecewise path: breakpoint beyond the horizon")
        if not np.all(np.isfinite(mats)):
            raise ValueError("piecewise path: non-finite entries")
        return cls("piecewise", mats.shape[1], mats.shape[2], float(horizon),
                   (breaks, mats))

    @classmethod
    def polynomial(cls, coefficients, horizon: float) -> "CoefficientPath":
        """Path  t -> sum_k coefficients[k] * t**k."""
        coeffs = _frozen([np.asarray(c, dtype=float) for c in coefficients])
        if coeffs.ndim != 3:
            raise ValueError("polynomial path: coefficients must share one shape")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("polynomial path: non-finite entries")
        return cls("polynomial", coeffs.shape[1], coeffs.shape[2],
                   float(horizon), (coeffs,))

    @classmethod
    def zero(cls, rows: int, cols: int, horizon: float) -> "CoefficientPath":
        return cls.constant(np.zeros((rows, cols)), horizon)

    # -- evaluation ----------------------------------------------------

    def eval(self, t: float) -> np.ndarray:
        """Value at time t; piecewise paths are right-continuous, and
        times outside [0, horizon] are not checked."""
        if self.kind == "constant":
            return self.payload[0]
        if self.kind == "piecewise":
            breaks, mats = self.payload
            idx = int(np.searchsorted(breaks, t, side="right")) - 1
            if idx < 0:
                idx = 0
            return mats[idx]
        coeffs = self.payload[0]
        out = np.zeros((self.rows, self.cols))
        for c in coeffs[::-1]:
            out *= t
            out += c
        return out

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Values at ``times`` stacked C-contiguously, (K, rows, cols);
        row k is eval(times[k]) bitwise, by eval's arithmetic."""
        times = np.asarray(times, dtype=float)
        if self.kind == "constant":
            return self.payload[0][None].repeat(times.shape[0], axis=0)
        if self.kind == "piecewise":
            breaks, mats = self.payload
            return mats[np.maximum(
                np.searchsorted(breaks, times, side="right") - 1, 0)]
        out = np.zeros((times.shape[0], self.rows, self.cols))
        t = times[:, None, None]
        for c in self.payload[0][::-1]:
            out *= t
            out += c
        return out

    # -- transforms ----------------------------------------------------

    def add_constant(self, matrix: np.ndarray) -> "CoefficientPath":
        """New path equal to this one plus a constant matrix."""
        m = np.asarray(matrix, dtype=float)
        if m.shape != (self.rows, self.cols):
            raise ValueError("add_constant: shape mismatch")
        if self.kind == "constant":
            return CoefficientPath.constant(self.payload[0] + m, self.horizon)
        if self.kind == "piecewise":
            breaks, mats = self.payload
            pairs = [(b, seg + m) for b, seg in zip(breaks, mats)]
            return CoefficientPath.piecewise(pairs, self.horizon)
        coeffs = np.array(self.payload[0])
        coeffs[0] = coeffs[0] + m
        return CoefficientPath.polynomial(coeffs, self.horizon)

    def stored_matrices(self) -> np.ndarray:
        """All matrices appearing in the representation, stacked."""
        if self.kind == "constant":
            return self.payload[0][None, :, :]
        if self.kind == "piecewise":
            return self.payload[1]
        return self.payload[0]


def _as_path(value, rows: int, cols: int, horizon: float) -> CoefficientPath:
    """Coerce a matrix / scalar / path / None into a CoefficientPath;
    its shape and horizon are checked by the GameSpec it goes into."""
    if value is None:
        return CoefficientPath.zero(rows, cols, horizon)
    if isinstance(value, CoefficientPath):
        return value
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        if rows != cols:
            raise ValueError("scalar coefficient only allowed for square blocks")
        arr = float(arr) * np.eye(rows)
    return CoefficientPath.constant(arr, horizon)


@dataclass(frozen=True, eq=False)
class Coefficients:
    """State-equation coefficient paths."""

    A: CoefficientPath
    Abar: CoefficientPath
    B1: CoefficientPath
    B1bar: CoefficientPath
    B2: CoefficientPath
    B2bar: CoefficientPath
    C: CoefficientPath
    Cbar: CoefficientPath
    D1: CoefficientPath
    D1bar: CoefficientPath
    D2: CoefficientPath
    D2bar: CoefficientPath


@dataclass(frozen=True, eq=False)
class CostWeights:
    """Quadratic cost weights; G, Gbar are terminal, the rest are paths.

    R21 is never stored: it is always the transpose of R12.
    """

    G: np.ndarray
    Gbar: np.ndarray
    Q: CoefficientPath
    Qbar: CoefficientPath
    S1: CoefficientPath
    S1bar: CoefficientPath
    S2: CoefficientPath
    S2bar: CoefficientPath
    R11: CoefficientPath
    R11bar: CoefficientPath
    R12: CoefficientPath
    R12bar: CoefficientPath
    R22: CoefficientPath
    R22bar: CoefficientPath


def _block_shapes(n: int, m1: int, m2: int) -> dict:
    """(rows, cols) of every coefficient and weight path, by name."""
    return {
        "A": (n, n), "Abar": (n, n), "C": (n, n), "Cbar": (n, n),
        "B1": (n, m1), "B1bar": (n, m1), "B2": (n, m2), "B2bar": (n, m2),
        "D1": (n, m1), "D1bar": (n, m1), "D2": (n, m2), "D2bar": (n, m2),
        "Q": (n, n), "Qbar": (n, n),
        "S1": (m1, n), "S1bar": (m1, n), "S2": (m2, n), "S2bar": (m2, n),
        "R11": (m1, m1), "R11bar": (m1, m1),
        "R12": (m1, m2), "R12bar": (m1, m2),
        "R22": (m2, m2), "R22bar": (m2, m2),
    }


_SYMMETRIC_WEIGHTS = ("Q", "Qbar", "R11", "R11bar", "R22", "R22bar")


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Complete description of one game instance.

    Construction checks that the data is a game, however the spec is
    built, and raises ValueError naming the offending key otherwise:
    integer dims >= 1, a positive finite horizon, every path of its
    block shape on [0, T], finite (n, n) terminal weights G and Gbar,
    and G, Gbar, Q, Qbar, R11, R11bar, R22, R22bar symmetric within
    SYMMETRY_TOL (consumers symmetrize them exactly before use).
    """

    n: int
    m1: int
    m2: int
    T: float
    coefficients: Coefficients
    weights: CostWeights

    @staticmethod
    def check_dims(n, m1, m2, T) -> None:
        """Raise ValueError unless n, m1, m2 are integers >= 1 and the
        horizon T is positive and finite: the part of the check that
        callers building blocks of these shapes run first."""
        for key, value in (("n", n), ("m1", m1), ("m2", m2)):
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer)) or value < 1):
                raise ValueError(f"dims.{key} must be an integer >= 1, "
                                 f"got {value!r}")
        if not (np.isfinite(T) and T > 0):
            raise ValueError(f"horizon must be positive and finite, got {T}")

    def __post_init__(self):
        n, T = self.n, self.T
        self.check_dims(n, self.m1, self.m2, T)
        shapes = _block_shapes(n, self.m1, self.m2)
        paths = self.paths()
        for name, path in paths.items():
            if (path.rows, path.cols) != shapes[name]:
                raise ValueError(f"{name}: shape {(path.rows, path.cols)}, "
                                 f"expected {shapes[name]}")
            if path.horizon != T:
                raise ValueError(f"{name}: horizon {path.horizon} != T = {T}")
        w = self.weights
        for name in ("G", "Gbar"):
            mat = getattr(w, name)
            if mat.shape != (n, n):
                raise ValueError(f"{name}: shape {mat.shape}, expected {(n, n)}")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name}: non-finite entries")
        for name, mats in (("G", w.G[None]), ("Gbar", w.Gbar[None]), *(
                (key, paths[key].stored_matrices())
                for key in _SYMMETRIC_WEIGHTS)):
            skew = float(np.max(np.abs(mats - mats.transpose(0, 2, 1))))
            if skew > SYMMETRY_TOL:
                raise ValueError(f"{name}: asymmetric by {skew:.3e} "
                                 f"(tolerance {SYMMETRY_TOL:g})")

    @property
    def m(self) -> int:
        return self.m1 + self.m2

    def paths(self) -> dict:
        """Every coefficient and weight path by name, in block order."""
        co, w = self.coefficients, self.weights
        return {name: getattr(co if hasattr(co, name) else w, name)
                for name in _block_shapes(self.n, self.m1, self.m2)}

    @classmethod
    def from_matrices(cls, n: int, m1: int, m2: int, T: float, **kw) -> "GameSpec":
        """Build a spec from constant matrices / paths, missing ones zero.

        Keyword names follow the field names of Coefficients and
        CostWeights (A, Abar, B1, ..., G, Gbar, Q, ..., R22bar).  Each
        value may be an array, a CoefficientPath, or None.
        """
        cls.check_dims(n, m1, m2, T)
        shapes = _block_shapes(n, m1, m2)
        unknown = set(kw) - set(shapes) - {"G", "Gbar"}
        if unknown:
            raise ValueError(f"unknown coefficient names: {sorted(unknown)}")
        paths = {name: _as_path(kw.get(name), r, c, T)
                 for name, (r, c) in shapes.items()}
        coeff_names = [f.name for f in dataclasses.fields(Coefficients)]
        coeffs = Coefficients(**{k: paths[k] for k in coeff_names})
        G = kw.get("G")
        Gbar = kw.get("Gbar")
        G = _frozen(np.zeros((n, n)) if G is None else np.asarray(G, dtype=float))
        Gbar = _frozen(np.zeros((n, n)) if Gbar is None
                       else np.asarray(Gbar, dtype=float))
        weight_names = [f.name for f in dataclasses.fields(CostWeights)
                        if f.name not in ("G", "Gbar")]
        weights = CostWeights(G=G, Gbar=Gbar,
                              **{k: paths[k] for k in weight_names})
        return cls(n=n, m1=m1, m2=m2, T=float(T),
                   coefficients=coeffs, weights=weights)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = T with step h = T/N."""

    T: float
    N: int

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("grid horizon must be positive")
        if self.N < 1:
            raise ValueError("grid needs at least one step")

    @property
    def h(self) -> float:
        return self.T / self.N

    @cached_property
    def nodes(self) -> np.ndarray:
        out = np.linspace(0.0, self.T, self.N + 1)
        out.setflags(write=False)
        return out

    @cached_property
    def half_times(self) -> np.ndarray:
        """Nodes plus interval midpoints: 2N + 1 times.  Each midpoint is
        the integrator's own t0 + 0.5*h of a backward step from t0."""
        t0 = self.nodes[1:]
        out = np.empty(2 * self.N + 1)
        out[::2] = self.nodes
        out[1::2] = t0 + 0.5 * (self.nodes[:-1] - t0)
        out.setflags(write=False)
        return out


@dataclass(frozen=True, eq=False)
class ControlLaw:
    """Affine control strategy  u(t) = gain (X - E[X]) + mean_gain E[X] + offset.

    The paths are sampled on ``times``, an ascending refinement of a
    uniform grid in which even indices are segment boundaries and odd
    indices are segment midpoints (the plain half-grid in the simplest
    case).  gain and mean_gain have shape (K, m1+m2, n); offset has
    shape (K, m1+m2).
    """

    times: np.ndarray
    gain: np.ndarray
    mean_gain: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        K = self.times.shape[0]
        if K % 2 == 0:
            raise ValueError("law times must alternate boundary/midpoint")
        for name in ("gain", "mean_gain", "offset"):
            if getattr(self, name).shape[0] != K:
                raise ValueError(f"{name} not aligned with times")

    @classmethod
    def zero(cls, spec: GameSpec, grid: TimeGrid) -> "ControlLaw":
        return cls.from_offset(spec, grid, np.zeros(spec.m))

    @classmethod
    def from_offset(cls, spec: GameSpec, grid: TimeGrid, offset) -> "ControlLaw":
        """Pure open-loop law; offset is a vector, callable t->vector,
        or an array sampled on the half-grid."""
        times = grid.half_times
        K, m, n = times.shape[0], spec.m, spec.n
        if callable(offset):
            off = np.stack([np.asarray(offset(t), dtype=float).reshape(m)
                            for t in times])
        else:
            off = np.asarray(offset, dtype=float)
            if off.shape == (m,):
                off = np.tile(off, (K, 1))
            elif off.shape != (K, m):
                raise ValueError("offset must be (m,) or sampled on half-grid")
        return cls(times=_frozen(times), gain=_frozen(np.zeros((K, m, n))),
                   mean_gain=_frozen(np.zeros((K, m, n))), offset=_frozen(off))

    def with_bump(self, spec: GameSpec, player: int, values: np.ndarray,
                  lam: float) -> "ControlLaw":
        """New law whose offset gains lam * values in one player's block.

        values has shape (K, m_i) on this law's times.
        """
        if player not in (1, 2):
            raise ValueError("player must be 1 or 2")
        mi = spec.m1 if player == 1 else spec.m2
        vals = np.asarray(values, dtype=float)
        if vals.shape != (self.times.shape[0], mi):
            raise ValueError("bump values not aligned with law times")
        off = np.array(self.offset)
        lo = 0 if player == 1 else spec.m1
        off[:, lo:lo + mi] += lam * vals
        return ControlLaw(times=self.times, gain=self.gain,
                          mean_gain=self.mean_gain, offset=_frozen(off))


def embed_perturbation(spec: GameSpec, eps: float) -> GameSpec:
    """Two-sided convexification: R11 += eps*I and R22 -= eps*I.

    This realizes the penalized functional J + eps*||u1||^2 -
    eps*||u2||^2.  The barred weights are untouched, so the map is
    additive in eps.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError("eps must be positive and finite")
    w = spec.weights
    weights = dataclasses.replace(
        w,
        R11=w.R11.add_constant(eps * np.eye(spec.m1)),
        R22=w.R22.add_constant(-eps * np.eye(spec.m2)))
    return dataclasses.replace(spec, weights=weights)
