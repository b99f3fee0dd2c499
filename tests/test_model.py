"""Model layer: paths, specs, grids, control laws, validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflqg.model import (SYMMETRY_TOL, CoefficientPath, ControlLaw, GameSpec,
                         TimeGrid, embed_perturbation)

from conftest import make_example52, make_example61


# ---------------------------------------------------------------- paths

def test_constant_path_eval():
    p = CoefficientPath.constant([[1.0, 2.0]], 3.0)
    assert p.kind == "constant"
    assert p.rows == 1 and p.cols == 2
    np.testing.assert_array_equal(p.eval(0.0), [[1.0, 2.0]])
    np.testing.assert_array_equal(p.eval(2.7), [[1.0, 2.0]])


def test_piecewise_path_right_continuous():
    p = CoefficientPath.piecewise(
        [(0.0, [[1.0]]), (0.5, [[2.0]])], 1.0)
    assert p.eval(0.25)[0, 0] == 1.0
    assert p.eval(0.5)[0, 0] == 2.0      # new segment applies at its start
    assert p.eval(0.75)[0, 0] == 2.0
    assert p.eval(1.0)[0, 0] == 2.0      # last segment runs to the horizon


def test_piecewise_rejects_bad_breakpoints():
    with pytest.raises(ValueError):
        CoefficientPath.piecewise([(0.1, [[1.0]])], 1.0)
    with pytest.raises(ValueError):
        CoefficientPath.piecewise(
            [(0.0, [[1.0]]), (0.6, [[2.0]]), (0.6, [[3.0]])], 1.0)
    with pytest.raises(ValueError):
        CoefficientPath.piecewise([(0.0, [[1.0]]), (1.5, [[2.0]])], 1.0)


def test_polynomial_path_matches_horner():
    c0 = np.array([[1.0, 0.0], [0.0, 2.0]])
    c1 = np.array([[0.5, 1.0], [0.0, 0.0]])
    c2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    p = CoefficientPath.polynomial([c0, c1, c2], 1.0)
    for t in (0.0, 0.3, 1.0):
        np.testing.assert_allclose(p.eval(t), c0 + t * c1 + t * t * c2,
                                   atol=1e-15)


def _sample_paths():
    rng = np.random.default_rng(5)
    M = [rng.standard_normal((2, 3)) for _ in range(4)]
    polys = [CoefficientPath.polynomial(M[:d + 1], 1.0) for d in range(4)]
    return polys + [
        CoefficientPath.constant(M[0], 1.0),
        # 0.45 is grid node 225 at N = 500; the last piece starts at T
        CoefficientPath.piecewise(
            [(0.0, M[0]), (0.45, M[1]), (1.0, M[2])], 1.0),
        CoefficientPath.piecewise([(0.0, M[0]), (0.3, M[3])], 1.0),
    ]


@pytest.mark.parametrize("path", _sample_paths(),
                         ids=lambda p: f"{p.kind}{len(p.stored_matrices())}")
def test_sample_equals_eval_bitwise(path):
    grid = TimeGrid(1.0, 500)
    assert grid.nodes[225] == 0.45
    # the half grid, and the uniform one its midpoints differ from
    times = np.concatenate((grid.half_times, np.linspace(0.0, 1.0, 1001),
                            [0.0, 0.45, 0.3, 1.0, np.nextafter(0.45, 0.0)]))
    out = path.sample(times)
    assert out.shape == (times.shape[0], path.rows, path.cols)
    assert out.flags.c_contiguous
    for t, row in zip(times, out):
        assert row.tobytes() == path.eval(float(t)).tobytes(), t


def test_add_constant_all_kinds():
    shift = np.array([[10.0]])
    const = CoefficientPath.constant([[1.0]], 1.0)
    piece = CoefficientPath.piecewise([(0.0, [[1.0]]), (0.5, [[2.0]])], 1.0)
    poly = CoefficientPath.polynomial([[[1.0]], [[3.0]]], 1.0)
    for p in (const, piece, poly):
        q = p.add_constant(shift)
        for t in (0.0, 0.25, 0.5, 0.99):
            np.testing.assert_allclose(q.eval(t), p.eval(t) + shift)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_polynomial_eval_is_horner(t, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((4, 2, 3))
    p = CoefficientPath.polynomial(list(coeffs), 1.0)
    direct = sum(coeffs[k] * t**k for k in range(4))
    np.testing.assert_allclose(p.eval(t), direct, atol=1e-12, rtol=1e-12)


# ------------------------------------------------------------ game spec

def test_from_matrices_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown"):
        GameSpec.from_matrices(n=1, m1=1, m2=1, T=1.0, R22_bar=[[1.0]])


def test_from_matrices_rejects_bad_shape():
    with pytest.raises(ValueError):
        GameSpec.from_matrices(n=2, m1=1, m2=1, T=1.0, B1=[[1.0]])


def test_omitted_blocks_default_to_zero(example61):
    co = example61.coefficients
    assert not np.any(co.A.stored_matrices())
    assert not np.any(co.D1.stored_matrices())
    assert np.any(co.B1.stored_matrices())
    assert example61.m == 2


def test_spec_symmetry_has_a_tolerance():
    skew = 0.5 * SYMMETRY_TOL
    spec = GameSpec.from_matrices(n=2, m1=1, m2=1, T=1.0,
                                  Q=[[1.0, skew], [0.0, 1.0]],
                                  G=[[0.0, skew], [0.0, 0.0]])
    assert spec.weights.Q.eval(0.0)[0, 1] == spec.weights.G[0, 1] == skew
    with pytest.raises(ValueError, match="Qbar: asymmetric"):
        GameSpec.from_matrices(n=2, m1=1, m2=1, T=1.0,
                               Qbar=[[1.0, 3 * skew], [0.0, 1.0]])


@pytest.mark.parametrize("build, message", [
    (lambda: GameSpec.from_matrices(n=2, m1=1, m2=1, T=1.0,
                                    Q=[[1.0, 0.3], [0.0, 1.0]]),
     "Q: asymmetric by 3.000e-01"),
    (lambda: GameSpec.from_matrices(n=1, m1=1, m2=1, T=1.0,
                                    G=[[float("nan")]]),
     "G: non-finite entries"),
    (lambda: GameSpec.from_matrices(n=1, m1=1, m2=1, T=1.0,
                                    Gbar=[[1.0, 2.0]]),
     r"Gbar: shape \(1, 2\), expected \(1, 1\)"),
    (lambda: GameSpec.from_matrices(n=1, m1=0, m2=1, T=1.0),
     "dims.m1 must be an integer >= 1, got 0"),
    (lambda: GameSpec.from_matrices(n=1, m1=1, m2=1, T=float("nan")),
     "horizon must be positive and finite, got nan"),
    (lambda: dataclasses.replace(
        make_example52(), weights=dataclasses.replace(
            make_example52().weights, R22=CoefficientPath.piecewise(
                [(0.0, [[-1.0]]), (0.5, [[-2.0]])], 2.0))),
     "R22: horizon 2.0 != T = 1.0"),
    (lambda: dataclasses.replace(make_example61(), T=2.0),
     "A: horizon 1.0 != T = 2.0"),
], ids=["Q-asymmetric", "G-nan", "Gbar-shape", "m1-zero", "T-nan",
        "replace-R22-horizon", "replace-T"])
def test_invalid_spec_does_not_build(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_embed_perturbation_shifts_only_running_weights(example61):
    eps = 0.25
    shifted = embed_perturbation(example61, eps)
    w0, w1 = example61.weights, shifted.weights
    for t in (0.0, 0.4, 1.0):
        np.testing.assert_allclose(w1.R11.eval(t),
                                   w0.R11.eval(t) + eps * np.eye(1))
        np.testing.assert_allclose(w1.R22.eval(t),
                                   w0.R22.eval(t) - eps * np.eye(1))
        np.testing.assert_array_equal(w1.R11bar.eval(t), w0.R11bar.eval(t))
        np.testing.assert_array_equal(w1.R22bar.eval(t), w0.R22bar.eval(t))
    np.testing.assert_array_equal(w1.G, w0.G)
    np.testing.assert_array_equal(
        shifted.coefficients.B1.eval(0.5), example61.coefficients.B1.eval(0.5))


def test_embed_perturbation_rejects_nonpositive(example61):
    for eps in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            embed_perturbation(example61, eps)


def test_embed_is_additive(example61):
    twice = embed_perturbation(embed_perturbation(example61, 0.25), 0.25)
    once = embed_perturbation(example61, 0.5)
    for t in (0.0, 0.7):
        np.testing.assert_allclose(twice.weights.R11.eval(t),
                                   once.weights.R11.eval(t), atol=1e-15)
        np.testing.assert_allclose(twice.weights.R22.eval(t),
                                   once.weights.R22.eval(t), atol=1e-15)


# ----------------------------------------------------------- time grid

def test_time_grid_basic():
    grid = TimeGrid(2.0, 4)
    assert grid.h == 0.5
    np.testing.assert_allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.half_times.shape == (9,)
    np.testing.assert_allclose(grid.half_times[1::2],
                               [0.25, 0.75, 1.25, 1.75])


def test_time_grid_rejects_bad_args():
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 10)


# --------------------------------------------------------- control law

def test_from_offset_vector_and_callable(example52):
    grid = TimeGrid(1.0, 10)
    law_v = ControlLaw.from_offset(example52, grid, np.array([0.0, -1.0]))
    assert law_v.offset.shape == (21, 2)
    assert np.all(law_v.offset[:, 1] == -1.0)
    assert not np.any(law_v.gain)

    law_c = ControlLaw.from_offset(example52, grid,
                                   lambda t: np.array([t, t * t]))
    np.testing.assert_allclose(law_c.offset[:, 0], grid.half_times)
    np.testing.assert_allclose(law_c.offset[:, 1], grid.half_times**2)


def test_from_offset_rejects_misaligned_array(example52):
    grid = TimeGrid(1.0, 10)
    with pytest.raises(ValueError):
        ControlLaw.from_offset(example52, grid, np.zeros((20, 2)))
