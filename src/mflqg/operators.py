"""Finite sections of the control-to-cost operators and their sign algebra.

The game functional at a fixed initial state is quadratic in the
control pair, so restricting controls to a finite orthonormal family
of deterministic piecewise-constant paths turns it into an ordinary
quadratic form

    J(x; sum_a c_a e_a) = <O x, x> + 2 <K x, c> + <M c, c>.

The matrix M inherits the saddle sign structure: the block acting on
the minimizer's coordinates must be positive semidefinite and the
maximizer's block negative semidefinite whenever an open-loop saddle
exists, so a sign failure on any finite section is a certificate of
non-existence (a pass is evidence only — deterministic sections do
not span the stochastic control space).  This module assembles such
sections by linear response (the mean is linear in the initial state
and the coefficients, and the covariance costs through one backward
Lyapunov flow), checks the sign blocks, solves the sectioned saddle
(exactly, or through the same convexifying shift used on the full
game), and provides the two matrix facts the perturbation analysis
rests on: the compressed Schur-complement positivity gap and the
contraction property of the shifted inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import CONDITION_LIMIT, ControlLaw, GameSpec, TimeGrid
from .synthesis import _MomentEngine

__all__ = [
    "BlockOperator",
    "OperatorSection",
    "SignReport",
    "SectionSaddle",
    "build_section",
    "check_necessary_condition",
    "lemma_psd_gap",
    "perturbed_inverse",
    "contraction_norm",
    "solve_section_saddle",
]

_SYM_TOL = 1e-12     # declared symmetry slack for operator blocks
_SIGN_TOL = 1e-10    # slack when certifying PSD/NSD preconditions


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Symmetric matrix split into minimizer/maximizer blocks.

    Stores the three independent blocks; the lower-left block is the
    transpose of ``m12`` by construction.  The leading ``d1``
    coordinates belong to the minimizing player.
    """

    m11: np.ndarray
    m12: np.ndarray
    m22: np.ndarray

    def __post_init__(self):
        d1, d2 = self.m12.shape
        if self.m11.shape != (d1, d1) or self.m22.shape != (d2, d2):
            raise ValueError("block shapes are inconsistent")
        for name, blk in (("m11", self.m11), ("m22", self.m22)):
            if blk.size and np.max(np.abs(blk - blk.T)) > _SYM_TOL:
                raise ValueError(f"{name} is not symmetric")

    @property
    def d1(self) -> int:
        return self.m12.shape[0]

    @property
    def d2(self) -> int:
        return self.m12.shape[1]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The assembled symmetric (d1+d2) x (d1+d2) matrix."""
        out = np.block([[self.m11, self.m12],
                        [self.m12.T, self.m22]])
        out.setflags(write=False)
        return out

    @property
    def sign_matrix(self) -> np.ndarray:
        """diag(+I, -I) with this operator's block sizes."""
        return np.diag(np.concatenate([np.ones(self.d1),
                                       -np.ones(self.d2)]))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, d1: int) -> "BlockOperator":
        matrix = np.asarray(matrix, dtype=float)
        return cls(m11=matrix[:d1, :d1], m12=matrix[:d1, d1:],
                   m22=matrix[d1:, d1:])


@dataclass(frozen=True, eq=False)
class OperatorSection:
    """Sectioned functional of one game over a block-indicator basis.

    The horizon is split into ``blocks`` equal windows; basis path
    (i, b) pushes control channel i with height 1/sqrt(width) on
    window b (an orthonormal family in L2).  Player-1 channels come
    first, channel-major.  ``m_section`` is the control-control form,
    ``k_section`` maps initial states to the cross term (one row per
    basis path), and ``o_section`` is the state-state form, so

        J(x; c) = x' O x + 2 (K x) . c + c' M c

    for any coefficient vector c over the basis.
    """

    m_section: BlockOperator
    k_section: np.ndarray
    o_section: np.ndarray
    grid: TimeGrid
    blocks: int
    m1: int
    m2: int

    def value(self, x, coeff) -> float:
        """Functional value at initial state x and basis combination."""
        xv = np.asarray(x, dtype=float).reshape(-1)
        c = np.asarray(coeff, dtype=float).reshape(-1)
        return float(xv @ self.o_section @ xv
                     + 2.0 * (self.k_section @ xv) @ c
                     + c @ self.m_section.matrix @ c)

    def basis_law(self, spec: GameSpec, coeff) -> ControlLaw:
        """Pure-offset control law realizing sum_a coeff_a e_a."""
        c = np.asarray(coeff, dtype=float).reshape(1, -1)
        off = _basis_offsets(spec, self.grid, self.blocks, c)[0]
        return ControlLaw.from_offset(spec, self.grid, off)


def _basis_offsets(spec: GameSpec, grid: TimeGrid, blocks: int,
                   coeffs: np.ndarray) -> np.ndarray:
    """Map section coefficients to offset paths on the half-grid.

    coeffs has shape (B, m*blocks) in channel-major order; returns
    (B, 2N+1, m) offset samples.
    """
    times = grid.half_times
    m = spec.m
    width = grid.T / blocks
    idx = np.minimum((times / width).astype(int), blocks - 1)
    c = coeffs.reshape(coeffs.shape[0], m, blocks)
    return c[:, :, idx].transpose(0, 2, 1) / np.sqrt(width)


def build_section(spec: GameSpec, grid: TimeGrid,
                  basis_blocks: int) -> OperatorSection:
    """Assemble the sectioned quadratic form by linear response.

    Under the zero law the state mean is linear in the initial state
    x and the coefficients c, and the covariance enters the cost only
    through the noise-intensity mean, so one forward march of the
    mean response and one backward Lyapunov march give the whole form
    [x; c]' H [x; c] (``_MomentEngine.form``); O, K and M are its
    state-state, control-state and control-control blocks.
    ``basis_blocks`` must divide the grid so indicator edges sit on
    nodes.
    """
    if basis_blocks < 1 or grid.N % basis_blocks != 0:
        raise ValueError("basis_blocks must divide the grid intervals")
    n, d = spec.n, spec.m * basis_blocks
    zero = ControlLaw.zero(spec, grid)
    eng = _MomentEngine(spec, zero.times, zero.gain, zero.mean_gain)
    H = eng.form(_basis_offsets(spec, grid, basis_blocks, np.eye(d)))
    op = BlockOperator.from_matrix(H[n:, n:], spec.m1 * basis_blocks)
    return OperatorSection(m_section=op, k_section=H[n:, :n],
                           o_section=H[:n, :n], grid=grid,
                           blocks=basis_blocks, m1=spec.m1, m2=spec.m2)


@dataclass(frozen=True, eq=False)
class SignReport:
    """Sign verdict on a section's diagonal blocks.

    A saddle needs min_eig_1 >= -tol and max_eig_2 <= tol; a failure
    certifies that no open-loop saddle exists, with ``witness``
    holding the offending combination in full section coordinates.
    A pass is labelled non-conclusive: deterministic sections see
    only part of the control space.
    """

    passed: bool
    conclusive: bool
    min_eig_1: float
    max_eig_2: float
    tol: float
    witness: np.ndarray | None


def check_necessary_condition(section: OperatorSection,
                              tol: float = 1e-9) -> SignReport:
    """Convexity/concavity of the sectioned functional per player."""
    op = section.m_section
    w1, v1 = np.linalg.eigh(op.m11)
    w2, v2 = np.linalg.eigh(op.m22)
    min1, max2 = float(w1[0]), float(w2[-1])
    witness = None
    if min1 < -tol:
        witness = np.zeros(op.d1 + op.d2)
        witness[:op.d1] = v1[:, 0]
    elif max2 > tol:
        witness = np.zeros(op.d1 + op.d2)
        witness[op.d1:] = v2[:, -1]
    passed = witness is None
    return SignReport(passed=passed, conclusive=not passed,
                      min_eig_1=min1, max_eig_2=max2, tol=tol,
                      witness=witness)


def lemma_psd_gap(M: np.ndarray, K: np.ndarray, L: np.ndarray,
                  delta: float) -> np.ndarray:
    """Compressed Schur gap of a PSD form.

    For symmetric PSD M (n x n), any K (n x m), L (n x n) and
    delta > 0, the matrix

        L' M L - L' M K (K' M K + delta I_m)^{-1} K' M L

    is again positive semidefinite; this returns it (symmetrized)
    for the caller to certify.  Rejects inputs whose smallest
    eigenvalue is below -1e-10 — the claim needs a PSD form.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    M = np.asarray(M, dtype=float)
    sym = 0.5 * (M + M.T)
    if np.linalg.eigvalsh(sym)[0] < -_SIGN_TOL:
        raise ValueError("M must be positive semidefinite")
    ML = sym @ L
    MK = sym @ K
    core = K.T @ MK + delta * np.eye(K.shape[1])
    gap = L.T @ ML - (L.T @ MK) @ np.linalg.solve(core, MK.T @ L)
    return 0.5 * (gap + gap.T)


def _require_sign_structure(op: BlockOperator) -> None:
    if op.d1 and np.linalg.eigvalsh(op.m11)[0] < -_SIGN_TOL:
        raise ValueError("leading block is not positive semidefinite")
    if op.d2 and np.linalg.eigvalsh(op.m22)[-1] > _SIGN_TOL:
        raise ValueError("trailing block is not negative semidefinite")


def perturbed_inverse(op: BlockOperator, eps: float) -> BlockOperator:
    """Blockwise inverse of M + eps * diag(I, -I).

    Requires the saddle sign structure (PSD leading block, NSD
    trailing block); the shift then makes the leading block positive
    definite and the Schur complement

        Phi = m22 - eps I - m21 (m11 + eps I)^{-1} m12

    negative definite, and the inverse assembles from those two
    solves.  Returns the inverse with the same block split.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    _require_sign_structure(op)
    d1, d2 = op.d1, op.d2
    A = op.m11 + eps * np.eye(d1)
    B = op.m12
    Ainv = np.linalg.inv(A) if d1 else np.zeros((0, 0))
    Ainv_B = Ainv @ B
    phi = op.m22 - eps * np.eye(d2) - B.T @ Ainv_B
    phi = 0.5 * (phi + phi.T)
    phi_inv = np.linalg.inv(phi) if d2 else np.zeros((0, 0))
    top = Ainv + Ainv_B @ phi_inv @ Ainv_B.T
    return BlockOperator(m11=0.5 * (top + top.T),
                         m12=-Ainv_B @ phi_inv,
                         m22=0.5 * (phi_inv + phi_inv.T))


def contraction_norm(op: BlockOperator, eps: float) -> float:
    """Spectral norm of (M + eps J)^{-1} M with J = diag(I, -I).

    Under the saddle sign structure the shift moves every coordinate
    away from singularity in its own sign direction, so the norm
    never exceeds one (up to roundoff).
    """
    inv = perturbed_inverse(op, eps)
    return float(np.linalg.norm(inv.matrix @ op.matrix, 2))


@dataclass(frozen=True, eq=False)
class SectionSaddle:
    """Stationary point of the (possibly shifted) sectioned game.

    ``norm`` is the L2 norm of the realized control (the basis is
    orthonormal, so it equals |coefficients|).  ``residual`` is the
    stationarity defect |(M + eps J) c + K x|.
    """

    eps: float
    coefficients: np.ndarray
    value: float
    norm: float
    residual: float


def solve_section_saddle(section: OperatorSection, x,
                         eps: float = 0.0) -> SectionSaddle:
    """Solve (M + eps J) c = -K x on the section.

    With eps = 0 the section matrix itself must be safely invertible
    (condition estimate below 1e12); with eps > 0 the sign-structured
    shifted solve of perturbed_inverse is used.  The reported value
    is the *unshifted* sectioned functional at the solution.
    """
    xv = np.asarray(x, dtype=float).reshape(-1)
    rhs = -(section.k_section @ xv)
    op = section.m_section
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        matrix = op.matrix
        if matrix.size and np.linalg.cond(matrix) >= CONDITION_LIMIT:
            raise np.linalg.LinAlgError("section not uniformly definite")
        c = np.linalg.solve(matrix, rhs)
        shifted = matrix
    else:
        inv = perturbed_inverse(op, eps)
        c = inv.matrix @ rhs
        shifted = op.matrix + eps * op.sign_matrix
    residual = float(np.linalg.norm(shifted @ c - rhs))
    return SectionSaddle(eps=eps, coefficients=c,
                         value=section.value(xv, c),
                         norm=float(np.linalg.norm(c)), residual=residual)
