"""Feedback synthesis, moment propagation, functional evaluation, saddles."""

import numpy as np
import pytest

from mflqg.model import ControlLaw, TimeGrid, embed_perturbation
from mflqg.riccati import solve_riccati_pair
from mflqg.synthesis import (build_feedback, evaluate_functional,
                             evaluate_functional_mc, propagate_moments,
                             stationarity_residual, verify_saddle,
                             write_feedback_csv, write_moments_csv)

from conftest import make_example52, make_example61, random_instance


@pytest.fixture(scope="module")
def law61():
    spec = embed_perturbation(make_example61(), 0.5)
    grid = TimeGrid(1.0, 500)
    P, Pi = solve_riccati_pair(spec, grid)
    return spec, build_feedback(spec, P, Pi)


# ------------------------------------------------------------ feedback

def test_feedback_gains_match_closed_form(law61):
    spec, law = law61
    eps = 0.5
    exact = 1.0 / (law.times + eps)
    assert np.max(np.abs(law.gain[:, 0, 0] - exact)) <= 1e-6
    assert np.max(np.abs(law.gain[:, 1, 0])) <= 1e-9
    assert np.max(np.abs(law.mean_gain[:, 0, 0] - exact)) <= 1e-6
    # saddle-gain margins carry the players' signed weight blocks
    assert law.margin_1.min() >= 1.0 + eps - 1e-9
    assert law.margin_2.min() >= eps - 1e-9


def test_feedback_value_and_functional_agree(law61):
    spec, law = law61
    eps = 0.5
    x = np.array([0.7])
    want = -(1.0 + eps) / eps * 0.7**2
    assert law.value_at(x) == pytest.approx(want, abs=1e-8)
    rep = evaluate_functional(spec, law, x)
    assert rep.value == pytest.approx(want, abs=1e-8)
    assert rep.control_norm_sq == pytest.approx(0.7**2 / eps**2, rel=1e-9)


def test_stationarity_residual_vanishes_at_saddle_gains(law61):
    spec, law = law61
    assert stationarity_residual(spec, law) <= 1e-8


def test_as_control_law_round_trip(law61):
    _, law = law61
    cl = law.as_control_law()
    np.testing.assert_array_equal(cl.times, law.times)
    np.testing.assert_array_equal(cl.gain, law.gain)
    assert not np.any(cl.offset)


# ------------------------------------------------------------- moments

def test_moments_of_known_open_loop_law():
    # deterministic game: X' = t*u1 + u2, saddle law (0, -1) from x=1
    spec = make_example52()
    grid = TimeGrid(1.0, 200)
    law = ControlLaw.from_offset(spec, grid, np.array([0.0, -1.0]))
    path = propagate_moments(spec, law, [1.0])
    np.testing.assert_allclose(path.mean[:, 0], 1.0 - path.times,
                               atol=1e-10)
    assert np.max(np.abs(path.cov)) <= 1e-12
    rep = evaluate_functional(spec, law, [1.0])
    assert rep.value == pytest.approx(0.0, abs=1e-12)
    assert rep.control_norm_sq == pytest.approx(1.0, rel=1e-12)


def test_moment_covariance_psd_random_instance():
    rng = np.random.default_rng(11)
    spec = embed_perturbation(random_instance(rng), 0.5)
    grid = TimeGrid(1.0, 200)
    P, Pi = solve_riccati_pair(spec, grid)
    law = build_feedback(spec, P, Pi)
    x = rng.standard_normal(spec.n)
    path = propagate_moments(spec, law, x)
    np.testing.assert_allclose(path.mean[0], x, atol=1e-14)
    eigs = np.linalg.eigvalsh(path.cov)
    assert eigs.min() >= -1e-10
    assert np.all(np.abs(path.cov - path.cov.transpose(0, 2, 1)) <= 1e-12)


# --------------------------------------------------------- monte carlo

def test_mc_is_seed_deterministic(law61):
    spec, law = law61
    a = evaluate_functional_mc(spec, law, [1.0], paths=2000, seed=5)
    b = evaluate_functional_mc(spec, law, [1.0], paths=2000, seed=5)
    assert a.value == b.value and a.stderr == b.stderr


def test_mc_matches_moments_within_three_sigma():
    rng = np.random.default_rng(7)
    spec = embed_perturbation(random_instance(rng), 0.5)
    x = rng.standard_normal(spec.n)
    grid = TimeGrid(1.0, 500)
    P, Pi = solve_riccati_pair(spec, grid)
    law = build_feedback(spec, P, Pi)
    rep = evaluate_functional(spec, law, x)
    mc = evaluate_functional_mc(spec, law, x, paths=10000, seed=100)
    assert mc.stderr > 0
    assert abs(mc.value - rep.value) <= 3.0 * mc.stderr
    other = evaluate_functional_mc(spec, law, x, paths=10000, seed=101)
    assert other.value != mc.value


def test_mc_deterministic_game_has_zero_stderr():
    spec = make_example52()
    grid = TimeGrid(1.0, 200)
    law = ControlLaw.from_offset(spec, grid, np.array([0.0, -1.0]))
    mc = evaluate_functional_mc(spec, law, [1.0], paths=50, seed=0)
    assert mc.stderr == 0.0
    assert mc.value == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------- saddle checks

def test_verify_saddle_accepts_known_saddle():
    spec = make_example52()
    grid = TimeGrid(1.0, 500)
    law = ControlLaw.from_offset(spec, grid, np.array([0.0, -1.0]))
    rep = verify_saddle(spec, law, [1.0])
    assert rep.is_saddle
    assert rep.value == pytest.approx(0.0, abs=1e-12)
    assert rep.stationarity_sup <= 1e-9
    assert rep.curvature_min_1 > 0.01       # strictly convex in player 1
    assert rep.curvature_max_2 < -0.2       # strictly concave in player 2
    assert abs(rep.quadratic_defect) <= 1e-9


def test_verify_saddle_rejects_shifted_candidate():
    spec = make_example52()
    grid = TimeGrid(1.0, 500)
    law = ControlLaw.from_offset(spec, grid, np.array([0.3, -1.0]))
    rep = verify_saddle(spec, law, [1.0])
    assert not rep.is_saddle
    assert rep.stationarity_sup == pytest.approx(0.3, abs=1e-9)


def test_verify_saddle_zero_candidate_on_spread_game():
    # from x = 0 the zero pair is a genuine saddle; from x = 1 it is not
    spec = make_example61()
    grid = TimeGrid(1.0, 400)
    law = ControlLaw.zero(spec, grid)
    good = verify_saddle(spec, law, [0.0])
    assert good.is_saddle
    # discrete bump quadrature: -2 + O(1/N)
    assert -2.1 < good.curvature_max_2 < -1.9
    bad = verify_saddle(spec, law, [1.0])
    assert not bad.is_saddle
    assert bad.stationarity_sup == pytest.approx(2.0, abs=1e-6)


# ---------------------------------------------------------------- csv

def test_write_feedback_and_moments_csv(tmp_path, law61):
    spec, law = law61
    fpath = tmp_path / "fb.csv"
    write_feedback_csv(fpath, law)
    lines = fpath.read_text().strip().splitlines()
    assert lines[0] == "t,gain_0_0,gain_1_0,mean_gain_0_0,mean_gain_1_0"
    assert len(lines) == 502    # header + N+1 boundary rows

    mpath = tmp_path / "mo.csv"
    write_moments_csv(mpath, propagate_moments(spec, law, [1.0]))
    lines = mpath.read_text().strip().splitlines()
    assert lines[0] == "t,mean_0,cov_0_0,control_mean_0,control_mean_1"
    assert len(lines) == 502
    assert all(len(row.split(",")) == 5 for row in lines[1:])
