"""Convexification families and open-loop solvability classification.

The closed-loop equations of the game can be solvable while the
open-loop problem has no saddle.  The diagnostic is a family of
strictly convex-concave neighbours: shift the minimizer's control
weight up by eps and the maximizer's down by eps, solve each
neighbour in feedback form, and watch the realized optimal controls
as eps -> 0.  Bounded families converge (in the L2 sense along the
state they generate) to the minimal-norm open-loop saddle; families
that blow up certify that no saddle exists from that initial state.
The blow-up is a power law in 1/eps, so the classifier fits the
growth exponent and measures successive control distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._integrate import _T, _TimeArrays
from .model import GameSpec, TimeGrid, embed_perturbation
from .riccati import (RiccatiSolution, _eps_shift, _solve_pairs,
                      solve_riccati_pair)
from .synthesis import (FeedbackLaw, SaddleReport, _feedback_fields,
                        _march, _mean_system, _MomentEngine, _simpson_weights,
                        _vec_op, build_feedback, evaluate_functional,
                        verify_saddle)

__all__ = [
    "EpsSchedule",
    "EpsIterate",
    "EpsFamilyReport",
    "build_eps_iterate",
    "control_distance",
    "classify_family",
]

_ZERO_FAMILY = 1e-14       # below this the whole family is just 0
_FIT_POINTS = 6            # tail length for the growth-exponent fit
_EXPONENT_FLAT = 0.1       # p below this reads as "bounded"
_EXPONENT_BLOWUP = 0.9     # p above this reads as "divergent"


@dataclass(frozen=True)
class EpsSchedule:
    """Geometric ladder eps0 * factor^k, k = 0..count-1."""

    eps0: float = 0.5
    factor: float = 0.5
    count: int = 14

    def __post_init__(self):
        if not (self.eps0 > 0 and 0 < self.factor < 1 and self.count >= 2):
            raise ValueError("need eps0 > 0, 0 < factor < 1, count >= 2")

    @property
    def values(self) -> np.ndarray:
        return self.eps0 * self.factor ** np.arange(self.count)


@dataclass(frozen=True, eq=False)
class EpsIterate:
    """One solved convexified neighbour of the game."""

    eps: float
    riccati: RiccatiSolution
    mean_riccati: RiccatiSolution
    feedback: FeedbackLaw
    value: float
    norm_sq: float

    @property
    def norm(self) -> float:
        return float(np.sqrt(max(self.norm_sq, 0.0)))


def build_eps_iterate(spec: GameSpec, eps: float, grid: TimeGrid,
                      x) -> EpsIterate:
    """Solve the eps-shifted game and realize its feedback optimum.

    The one-rung composition of the public steps: ``reproduce 61``'s
    rungs, and the reference for ``classify_family``'s batched ladder.
    """
    shifted = embed_perturbation(spec, eps)
    P, Pi = solve_riccati_pair(shifted, grid)
    feedback = build_feedback(shifted, P, Pi)
    report = evaluate_functional(shifted, feedback, x)
    return EpsIterate(eps=eps, riccati=P, mean_riccati=Pi,
                      feedback=feedback, value=report.value,
                      norm_sq=report.control_norm_sq)


def _solve_iterates(spec: GameSpec, eps_values, grid: TimeGrid, x) -> list:
    """Iterates of every eps, solved and realized together.

    The rungs' Riccati pairs share one adaptive partition.  There one
    sample of the spec, shifted per rung as the pair solve shifts it,
    gives every rung's law, and one moment run every rung's value and
    control norm.  A breakdown raises RegularityError naming its eps.
    """
    pairs = _solve_pairs(spec, grid, eps_values)
    times = pairs[0][0].times
    shift = _eps_shift(spec, eps_values)
    ta = _TimeArrays(spec, times)
    # one rung at a time: stacking rungs saves no time in the core (its
    # solves bound it) and its stacked temporaries raise peak memory
    fields = [_feedback_fields(ta, P.values_fine, Pi.values_fine, shift[e])
              for e, (P, Pi) in enumerate(pairs)]
    engine = _MomentEngine(spec, times,
                           np.stack([f["gain"] for f in fields]),
                           np.stack([f["mean_gain"] for f in fields]),
                           arrays=ta, shift=shift)
    offsets = np.zeros((len(pairs), times.shape[0], spec.m))
    values, norms_sq, _, _ = engine.run(x, offsets)
    iterates = []
    for e, (eps, (P, Pi)) in enumerate(zip(eps_values, pairs)):
        law = FeedbackLaw(times=times, offset=offsets[e],
                          riccati=P.values_fine, mean_riccati=Pi.values_fine,
                          **fields[e])
        iterates.append(EpsIterate(eps=eps, riccati=P, mean_riccati=Pi,
                                   feedback=law, value=float(values[e]),
                                   norm_sq=float(norms_sq[e])))
    return iterates


# -- distance between realized controls ---------------------------------

def _law_parts(law) -> tuple:
    if isinstance(law, EpsIterate):
        law = law.feedback
    return law.times, law.gain, law.mean_gain, law.offset


def _stage_times(bounds: np.ndarray) -> np.ndarray:
    """Times at which the distance march samples, per segment.

    Columns: the segment start, the first half-step's RK4 stage times,
    the midpoint, the second half-step's stage times, the segment end.
    """
    t0, t1 = bounds[:-1], bounds[1:]
    h = t1 - t0
    tm = 0.5 * (t0 + t1)
    return np.stack((t0, t0 + 0.5 * (0.5 * h), t0 + 0.5 * h, tm,
                     tm + 0.5 * (0.5 * h), tm + 0.5 * h, t1), axis=1)


def _sample(times: np.ndarray, arr: np.ndarray, tq: np.ndarray):
    """Quadratic interpolation of a boundary/midpoint path at times tq.

    Each query uses the Lagrange stencil of its enclosing segment's
    boundary, midpoint and boundary records.
    """
    bounds = times[::2]
    k = np.clip(np.searchsorted(bounds, tq, side="right") - 1,
                0, bounds.shape[0] - 2)
    i0 = 2 * k
    t0, t1, t2 = times[i0], times[i0 + 1], times[i0 + 2]
    w0 = (tq - t1) * (tq - t2) / ((t0 - t1) * (t0 - t2))
    w1 = (tq - t0) * (tq - t2) / ((t1 - t0) * (t1 - t2))
    w2 = (tq - t0) * (tq - t1) / ((t2 - t0) * (t2 - t1))
    ex = (...,) + (None,) * (arr.ndim - 1)
    return w0[ex] * arr[i0] + w1[ex] * arr[i0 + 1] + w2[ex] * arr[i0 + 2]


def _chain_distances(spec: GameSpec, laws: list, x) -> np.ndarray:
    """L2 distances between the controls consecutive laws realize.

    Every law is driven by the same noise, so the gaps solve one joint
    moment system: each law's state mean and covariance, plus the
    cross covariance of each consecutive pair of states, stacked as
    Z = (L_0 .. L_{E-1}, X_01 .. X_{E-2,E-1}).  ``_march`` takes two
    RK4 half-steps per segment of the union of the laws' segment
    boundaries: first for every law's mean, then for every Z entry, a
    linear system of its own forced at the means' stages.  Simpson's
    rule over the half-step boundaries integrates the squared gaps;
    laws and coefficients are sampled once, at the stage times.
    """
    E, n = len(laws), spec.n
    bounds = laws[0][0][::2]
    for law in laws[1:]:
        bounds = np.union1d(bounds, law[0][::2])
    ts = _stage_times(bounds)
    h = np.repeat(0.5 * np.diff(bounds), 2)

    def sampled(tq):
        return (np.stack([_sample(law[0], law[i], tq) for law in laws])
                for i in (1, 2, 3))

    def stages(arr):
        return [arr[:, j::4] for j in range(4)]

    # half-step 2k of segment k takes its stages at slots 0, 1, 1, 2,
    # half-step 2k + 1 at slots 3, 4, 4, 5; slot 6 ends the segment
    st = ts[:, [0, 1, 1, 2, 3, 4, 4, 5]].ravel()
    ta = _TimeArrays(spec, st)
    gain, mean_gain, offset = sampled(st)
    F, Gm = ta.A + ta.B @ gain, ta.C + ta.D @ gain
    Mz, Gz = _mean_system(ta, mean_gain, offset)[:2]
    # stacks are dropped once used, so the peak memory stays flat
    del ta, gain, mean_gain, offset
    z0 = np.append(np.asarray(x, dtype=float).reshape(n), 1.0)
    z, zs = _march(stages(Mz), None, h, np.tile(z0[:, None], (E, 1, 1)))
    s = [G @ y for G, y in zip(stages(Gz), zs)]
    del Mz, Gz, zs
    # Z entry i pairs law lo[i] (left) with law hi[i] (right)
    lo, hi = np.r_[0:E, 0:E - 1], np.r_[0:E, 1:E]
    Z = _march(stages(_vec_op(F[lo], F[hi], Gm[lo], Gm[hi])),
               [(sj[lo] * _T(sj[hi])).reshape(2 * E - 1, -1, n * n, 1)
                for sj in s], h, np.zeros((2 * E - 1, n * n, 1)))
    # the squared gaps at the half-step boundaries: slots 0 and 3, and
    # the last segment's slot 6
    tb = np.append(ts[:, [0, 3]].ravel(), ts[-1, 6])
    gain, mean_gain, offset = sampled(tb)
    pair = np.einsum("ikmn,ikmn->ik", _T(gain[lo]) @ gain[hi],
                     Z.reshape(2 * E - 1, -1, n, n))
    du = np.diff((mean_gain @ z[..., :n, :])[..., 0] + offset, axis=0)
    gap = (pair[:E - 1] + pair[1:E] - 2.0 * pair[E:]
           + np.einsum("ekm,ekm->ek", du, du))
    # row by row, so a pair's sum does not depend on the chain length
    return np.sqrt(np.maximum(np.sum(gap * _simpson_weights(tb), axis=1),
                              0.0))


def control_distance(spec: GameSpec, it_a, it_b, x) -> float:
    """L2 distance of the controls two laws realize from state x.

    Both laws are driven by the same noise, so the gap solves a joint
    moment system: means, second moments, and the cross second moment
    of the two closed-loop states.  The laws may live on different
    grids; sampling interpolates each law quadratically through its
    own segment records, and the march runs on the union of their
    segment boundaries.
    """
    return float(_chain_distances(
        spec, [_law_parts(it_a), _law_parts(it_b)], x)[0])


# -- classification ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EpsFamilyReport:
    """Outcome of a convexification sweep from one initial state.

    verdict is "solvable" (family bounded and Cauchy: its limit is
    the minimal-norm open-loop saddle), "not-solvable" (norms grow
    like a power of 1/eps), or "inconclusive".  ``exponent`` is the
    fitted growth power p in |u_eps| ~ eps^{-p}; ``distances`` are
    L2 gaps between consecutive realized controls.  ``saddle``
    certifies ``limit`` (the last iterate) on the game shifted by the
    last eps, the game that law solves.
    """

    x: np.ndarray
    schedule: EpsSchedule
    iterates: tuple
    norms: np.ndarray
    values: np.ndarray
    distances: np.ndarray
    exponent: float
    verdict: str
    tol: float
    limit: FeedbackLaw | None
    saddle: SaddleReport | None

    @property
    def eps_values(self) -> np.ndarray:
        return np.array([it.eps for it in self.iterates])


def classify_family(spec: GameSpec, schedule: EpsSchedule, x,
                    grid: TimeGrid, tol: float = 1e-2,
                    verify: bool = True) -> EpsFamilyReport:
    """Sweep the convexification ladder and classify solvability.

    The growth exponent is fitted by least squares on the last
    min(6, count) points of log |u_eps| against log(1/eps); flat
    families (p < 0.1) whose final consecutive distance is below
    ``tol`` are declared solvable, clear power laws (p > 0.9)
    not-solvable, anything else inconclusive.  ``verify=True``
    additionally runs the open-loop saddle check on the limit law (the
    last iterate), against the game it solves: the one shifted by the
    last eps.
    """
    xvec = np.asarray(x, dtype=float).reshape(spec.n)
    iterates = _solve_iterates(spec, schedule.values, grid, xvec)
    norms = np.array([it.norm for it in iterates])
    values = np.array([it.value for it in iterates])
    # when both controls are zero in L2 their distance is exactly zero
    # (triangle inequality); skip the joint march for such pairs
    zero = norms[:-1] + norms[1:] < _ZERO_FAMILY
    distances = np.zeros(schedule.count - 1)
    if not zero.all():
        marched = _chain_distances(
            spec, [_law_parts(it) for it in iterates], xvec)
        distances = np.where(zero, 0.0, marched)

    tail = min(_FIT_POINTS, schedule.count)
    if np.all(norms[-tail:] < _ZERO_FAMILY):
        exponent = 0.0
    else:
        eps_tail = schedule.values[-tail:]
        safe = np.maximum(norms[-tail:], _ZERO_FAMILY)
        exponent = float(np.polyfit(np.log(1.0 / eps_tail),
                                    np.log(safe), 1)[0])

    if exponent < _EXPONENT_FLAT and distances[-1] <= tol:
        verdict = "solvable"
    elif exponent > _EXPONENT_BLOWUP:
        verdict = "not-solvable"
    else:
        verdict = "inconclusive"

    limit = iterates[-1].feedback if verdict == "solvable" else None
    saddle = None
    if verify and limit is not None:
        # the limit law is the last iterate, a saddle of its own shifted
        # game: against the unshifted one the shift alone leaves a
        # stationarity defect of 2 eps |u2|
        saddle = verify_saddle(embed_perturbation(spec, iterates[-1].eps),
                               limit, xvec)
    return EpsFamilyReport(x=xvec, schedule=schedule,
                           iterates=tuple(iterates), norms=norms,
                           values=values, distances=distances,
                           exponent=exponent, verdict=verdict, tol=tol,
                           limit=limit, saddle=saddle)
