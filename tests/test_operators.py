"""Sectioned functionals, sign certificates, perturbed block inverses."""

import numpy as np
import pytest

from mflqg.model import ControlLaw, TimeGrid, embed_perturbation
from mflqg.operators import (BlockOperator, build_section,
                             check_necessary_condition, contraction_norm,
                             lemma_psd_gap, perturbed_inverse,
                             solve_section_saddle)
from mflqg.riccati import solve_riccati_pair
from mflqg.synthesis import _MomentEngine, build_feedback, evaluate_functional

from conftest import (make_example52, make_example61, make_nosaddle,
                      random_instance)


# ------------------------------------------------------------- blocks

def test_block_operator_validation():
    with pytest.raises(ValueError, match="inconsistent"):
        BlockOperator(m11=np.eye(2), m12=np.zeros((1, 1)), m22=np.eye(1))
    with pytest.raises(ValueError, match="not symmetric"):
        BlockOperator(m11=np.array([[0.0, 1.0], [0.0, 0.0]]),
                      m12=np.zeros((2, 1)), m22=np.eye(1))


def test_block_operator_matrix_round_trip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    full = a + a.T
    op = BlockOperator.from_matrix(full, 2)
    np.testing.assert_array_equal(op.matrix, full)
    np.testing.assert_array_equal(
        op.sign_matrix, np.diag([1.0, 1.0, -1.0]))


# ----------------------------------------------------------- sections

def test_single_window_section_is_exact():
    # constant coefficients: moment ODEs are integrated exactly, so the
    # one-window section hits the hand-computed form dead on
    sec = build_section(make_example61(), TimeGrid(1.0, 200), 1)
    want_m = np.array([[0.0, 0.0], [0.0, -2.0]])
    np.testing.assert_allclose(sec.m_section.matrix, want_m, atol=1e-12)
    np.testing.assert_allclose(sec.k_section, [[-1.0], [0.0]], atol=1e-12)
    np.testing.assert_allclose(sec.o_section, [[-1.0]], atol=1e-12)
    assert sec.m_section.d1 == sec.m_section.d2 == 1


def test_section_value_matches_direct_evaluation():
    spec = make_example61()
    grid = TimeGrid(1.0, 400)
    sec = build_section(spec, grid, 2)
    c = np.array([0.3, -0.2, 0.5, -0.7])
    x = np.array([0.5])
    direct = evaluate_functional(spec, sec.basis_law(spec, c), x).value
    assert sec.value(x, c) == pytest.approx(direct, abs=1e-10)


def _polarized(spec, sec):
    """The section's form entry by entry, by polarization of direct
    evaluations: z' H z = J(x; sum_a c_a e_a) for z = (x, c)."""
    n = spec.n
    p = n + sec.m_section.d1 + sec.m_section.d2

    def J(z):
        law = sec.basis_law(spec, z[n:])
        return evaluate_functional(spec, law, z[:n]).value

    eye = np.eye(p)
    diag = np.array([J(e) for e in eye])
    H = np.diag(diag)
    for a in range(p):
        for b in range(a + 1, p):
            H[a, b] = H[b, a] = 0.5 * (J(eye[a] + eye[b]) - diag[a] - diag[b])
    return H


def _oracle_gap(spec, grid, blocks):
    """Largest entry gap of build_section against polarization, and
    the scale 1 + max|M| it is measured against."""
    sec = build_section(spec, grid, blocks)
    H = _polarized(spec, sec)
    n = spec.n
    gap = max(np.max(np.abs(sec.m_section.matrix - H[n:, n:])),
              np.max(np.abs(sec.k_section - H[n:, :n])),
              np.max(np.abs(sec.o_section - H[:n, :n])))
    return gap, 1.0 + np.max(np.abs(sec.m_section.matrix))


@pytest.mark.parametrize("make, N, blocks", [
    (make_example61, 400, 8), (make_example52, 256, 8),
    (make_nosaddle, 400, 4)])
def test_section_matches_polarization_oracle(make, N, blocks):
    # the covariance of these games is either absent or costs through a
    # constant Lyapunov flow, so both assemblies agree to roundoff
    gap, scale = _oracle_gap(make(), TimeGrid(1.0, N), blocks)
    assert gap <= 1e-12 * scale


def _noisy_varying_games(seed, count=3):
    """The first ``count`` random instances of a seed with a time-varying
    drift or control coefficient (every instance is noisy)."""
    rng = np.random.default_rng(seed)
    games = []
    while len(games) < count:
        spec = random_instance(rng)
        co = spec.coefficients
        if co.A.kind != "constant" or co.B1.kind != "constant":
            games.append(spec)
    return games


@pytest.mark.parametrize("index", range(3))
def test_section_matches_polarization_on_random_games(index):
    # the engine marches the covariance while the form integrates its
    # Lyapunov dual, so the two assemblies differ at quadrature order
    spec = _noisy_varying_games(2026)[index]
    gap, scale = _oracle_gap(spec, TimeGrid(1.0, 256), 4)
    assert gap <= 1e-6 * scale


def test_form_matches_moment_run_on_feedback_law():
    spec = embed_perturbation(make_example61(), 0.5)
    P, Pi = solve_riccati_pair(spec, TimeGrid(1.0, 200))
    law = build_feedback(spec, P, Pi)
    eng = _MomentEngine(spec, law.times, law.gain, law.mean_gain)
    rng = np.random.default_rng(5)
    t = law.times
    shapes = np.stack((np.ones_like(t), t, t**2, np.sin(3.0 * t)))
    v = np.einsum("amj,jk->akm", rng.standard_normal((3, 2, 4)), shapes)
    H = eng.form(v)
    for _ in range(4):
        x, c = rng.standard_normal(1), rng.standard_normal(3)
        value = eng.run(x, np.einsum("a,akm->km", c, v)[None])[0][0]
        z = np.concatenate((x, c))
        assert z @ H @ z == pytest.approx(value, rel=1e-6)


def test_build_section_rejects_non_dividing_blocks():
    with pytest.raises(ValueError, match="divide"):
        build_section(make_example61(), TimeGrid(1.0, 100), 3)


# ------------------------------------------------------ sign verdicts

def test_sign_check_passes_on_saddle_instance():
    sec = build_section(make_example61(), TimeGrid(1.0, 400), 8)
    rep = check_necessary_condition(sec)
    assert rep.passed
    assert not rep.conclusive           # a pass is evidence only
    assert rep.witness is None
    assert rep.min_eig_1 >= -1e-9
    assert rep.max_eig_2 <= -1.9


def test_sign_check_fails_with_witness_on_flipped_terminal():
    sec = build_section(make_nosaddle(), TimeGrid(1.0, 400), 4)
    rep = check_necessary_condition(sec)
    assert not rep.passed
    assert rep.conclusive               # failure certifies no saddle
    assert rep.max_eig_2 > 0.99
    assert rep.witness is not None
    # the witness combination really makes the maximizer's value positive
    assert sec.value(np.zeros(1), rep.witness) > 0.99


def test_sign_failure_persists_under_block_doubling():
    grid = TimeGrid(1.0, 400)
    prev = -np.inf
    for blocks in (1, 2, 4):
        rep = check_necessary_condition(
            build_section(make_nosaddle(), grid, blocks))
        assert not rep.passed
        assert rep.max_eig_2 >= prev - 1e-9   # nested bases only grow
        prev = rep.max_eig_2


# -------------------------------------------------- perturbed inverse

def _random_sign_op(rng, d1, d2):
    a = rng.standard_normal((d1, d1 + 2))
    b = rng.standard_normal((d2, d2 + 2))
    return BlockOperator(m11=a @ a.T,
                         m12=rng.standard_normal((d1, d2)),
                         m22=-b @ b.T)


def test_perturbed_inverse_matches_dense():
    rng = np.random.default_rng(42)
    op = _random_sign_op(rng, 3, 2)
    eps = 0.05
    inv = perturbed_inverse(op, eps)
    dense = np.linalg.inv(op.matrix + eps * op.sign_matrix)
    np.testing.assert_allclose(inv.matrix, dense, atol=1e-10)


def test_perturbed_inverse_of_zero_operator():
    op = BlockOperator(m11=np.zeros((1, 1)), m12=np.zeros((1, 1)),
                       m22=np.zeros((1, 1)))
    inv = perturbed_inverse(op, 2.0)
    np.testing.assert_allclose(inv.matrix, np.diag([0.5, -0.5]),
                               atol=1e-15)


def test_perturbed_inverse_rejects_bad_inputs():
    op = BlockOperator(m11=np.eye(1), m12=np.zeros((1, 1)),
                       m22=-np.eye(1))
    with pytest.raises(ValueError, match="eps"):
        perturbed_inverse(op, 0.0)
    with pytest.raises(ValueError, match="leading"):
        perturbed_inverse(
            BlockOperator(m11=-np.eye(1), m12=np.zeros((1, 1)),
                          m22=-np.eye(1)), 0.1)
    with pytest.raises(ValueError, match="trailing"):
        perturbed_inverse(
            BlockOperator(m11=np.eye(1), m12=np.zeros((1, 1)),
                          m22=np.eye(1)), 0.1)


def test_contraction_norm_identity_case():
    op = BlockOperator(m11=np.eye(2), m12=np.zeros((2, 2)),
                       m22=-np.eye(2))
    assert contraction_norm(op, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_contraction_norm_never_exceeds_one():
    rng = np.random.default_rng(123)
    for _ in range(25):
        d1 = int(rng.integers(1, 5))
        d2 = int(rng.integers(1, 5))
        op = _random_sign_op(rng, d1, d2)
        for eps in (1e-3, 0.1, 1.0, 10.0):
            assert contraction_norm(op, eps) <= 1.0 + 1e-9


# ----------------------------------------------------------- psd gap

def test_lemma_psd_gap_stays_psd():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        w = rng.standard_normal((n, n + 1))
        gap = lemma_psd_gap(w @ w.T, rng.standard_normal((n, n - 1)),
                            rng.standard_normal((n, n)),
                            delta=10.0 ** rng.uniform(-6, 0))
        assert np.linalg.eigvalsh(gap)[0] >= -1e-10


def test_lemma_psd_gap_edge_cases():
    n = 3
    L = np.diag([1.0, 2.0, 3.0])
    zero_gap = lemma_psd_gap(np.zeros((n, n)), np.eye(n), L, 0.5)
    np.testing.assert_allclose(zero_gap, 0.0, atol=1e-15)
    M = np.diag([1.0, 4.0, 9.0])
    full = lemma_psd_gap(M, np.zeros((n, 2)), L, 0.5)
    np.testing.assert_allclose(full, L.T @ M @ L, atol=1e-12)
    with pytest.raises(ValueError, match="delta"):
        lemma_psd_gap(M, np.eye(n), L, 0.0)
    with pytest.raises(ValueError, match="positive semidefinite"):
        lemma_psd_gap(-np.eye(n), np.eye(n), L, 0.5)


# ----------------------------------------------------- section saddle

def test_section_saddle_on_definite_instance():
    spec = embed_perturbation(make_example61(), 0.5)
    sec = build_section(spec, TimeGrid(1.0, 200), 4)
    sol = solve_section_saddle(sec, [1.0], eps=0.0)
    assert sol.residual <= 1e-12
    assert sol.norm == pytest.approx(2.0, abs=1e-9)
    # the sectioned value reaches the game value -(1+eps)/eps * x^2
    assert sol.value == pytest.approx(-3.0, abs=1e-9)


def test_section_saddle_raises_on_degenerate_instance():
    sec = build_section(make_example52(), TimeGrid(1.0, 256), 8)
    with pytest.raises(np.linalg.LinAlgError, match="uniformly definite"):
        solve_section_saddle(sec, [1.0], eps=0.0)
    sol = solve_section_saddle(sec, [1.0], eps=1e-4)
    assert sol.residual <= 1e-8
    assert sol.norm == pytest.approx(1.0, abs=1e-4)
