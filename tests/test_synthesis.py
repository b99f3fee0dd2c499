"""Feedback synthesis, moment propagation, functional evaluation, saddles."""

import numpy as np
import pytest

from mflqg.model import (CoefficientPath, ControlLaw, GameSpec, TimeGrid,
                         embed_perturbation)
from mflqg.riccati import solve_riccati_pair
from mflqg.synthesis import (_direction_shapes, build_feedback,
                             evaluate_functional, evaluate_functional_mc,
                             propagate_moments, stationarity_residual,
                             verify_saddle, write_feedback_csv,
                             write_moments_csv)

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


# --------------------------------------- open-loop bumps by an oracle

def _coefficients(path):
    """Polynomial coefficients of a constant or polynomial path."""
    if path.kind == "constant":
        return path.payload[0][None]
    assert path.kind == "polynomial", path.kind
    return path.payload[0]


def _block(rows, T):
    """One polynomial path from a block matrix whose entries are paths
    or constant arrays."""
    rows = [[_coefficients(CoefficientPath.constant(p, T)
                           if isinstance(p, np.ndarray) else p)
             for p in row] for row in rows]
    deg = max(len(c) for row in rows for c in row)
    rows = [[np.concatenate((c, np.zeros((deg - len(c),) + c.shape[1:])))
             for c in row] for row in rows]
    return CoefficientPath.polynomial(
        [np.block([[c[k] for c in row] for row in rows])
         for k in range(deg)], T)


def doubled_game(spec):
    """The game of (X, Z) under the controls (u, b).

    Z follows the original dynamics driven by b alone, on the same
    Brownian motion, and every weight acts on X + Z and u + b.  So a
    law playing u on X and the open-loop offset b has the functional
    J(x; u + b) of the original game from (x, 0): the bumped state is
    X + Z.
    """
    co, w, T = spec.coefficients, spec.weights, spec.T
    n, m1, m2 = spec.n, spec.m1, spec.m2
    zero = np.zeros((n, n))

    def diag(p):
        return _block([[p, zero], [zero, p]], T)

    def full(p):
        return _block([[p, p], [p, p]], T)

    def controls(p1, p2):
        z = (np.zeros((n, m1)), np.zeros((n, m2)))
        return _block([[p1, p2], z], T), _block([z, [p1, p2]], T)

    def weights(s1, s2, r11, r12, r22):
        s = _block([[s1, s1], [s2, s2]], T)
        r12t = CoefficientPath.polynomial(
            _coefficients(r12).transpose(0, 2, 1), T)
        r = _block([[r11, r12], [r12t, r22]], T)
        return dict(S1=s, S2=s, R11=r, R12=r, R22=r)

    B1, B2 = controls(co.B1, co.B2)
    B1bar, B2bar = controls(co.B1bar, co.B2bar)
    D1, D2 = controls(co.D1, co.D2)
    D1bar, D2bar = controls(co.D1bar, co.D2bar)
    bars = weights(w.S1bar, w.S2bar, w.R11bar, w.R12bar, w.R22bar)
    return GameSpec.from_matrices(
        n=2 * n, m1=spec.m, m2=spec.m, T=T,
        A=diag(co.A), Abar=diag(co.Abar), C=diag(co.C), Cbar=diag(co.Cbar),
        B1=B1, B2=B2, B1bar=B1bar, B2bar=B2bar,
        D1=D1, D2=D2, D1bar=D1bar, D2bar=D2bar,
        Q=full(w.Q), Qbar=full(w.Qbar),
        G=np.block([[w.G, w.G], [w.G, w.G]]),
        Gbar=np.block([[w.Gbar, w.Gbar], [w.Gbar, w.Gbar]]),
        **weights(w.S1, w.S2, w.R11, w.R12, w.R22),
        **{k + "bar": v for k, v in bars.items()})


def bump_coefficients(spec, cl, x):
    """Linear and quadratic coefficients of s -> J(x; u + s b) for every
    direction b of verify_saddle, from J at s = 0, +-1 on the doubled
    game (the functional is exactly quadratic in s)."""
    big = doubled_game(spec)
    K, m, n = cl.gain.shape
    gain, mean_gain = np.zeros((2, K, 2 * m, 2 * n))
    gain[:, :m, :n], mean_gain[:, :m, :n] = cl.gain, cl.mean_gain
    x2 = np.concatenate((x, np.zeros(n)))

    def value(b):
        law = ControlLaw(times=cl.times, gain=gain, mean_gain=mean_gain,
                         offset=np.concatenate((cl.offset, b), axis=1))
        return evaluate_functional(big, law, x2).value

    base = value(np.zeros((K, m)))
    lin, quad, window = [], [], []
    for coord in range(m):
        for name, shape in _direction_shapes(cl.times):
            b = np.zeros((K, m))
            b[:, coord] = shape
            up, down = value(b), value(-b)
            lin.append(0.5 * (up - down))
            quad.append(0.5 * (up + down) - base)
            window.append(name.startswith("window"))
    return base, np.array(lin), np.array(quad), np.array(window)


def _bump_cases():
    # the examples' quadratures are exact on their bumps, so one grid
    # shows the routes agree to roundoff in every direction
    ex52, ex61 = make_example52(), make_example61()
    yield ("ex52 target", ex52, [1.0], (200,),
           lambda g: ControlLaw.from_offset(ex52, g, np.array([0.0, -1.0])))
    yield ("ex52 shifted", ex52, [1.0], (200,),
           lambda g: ControlLaw.from_offset(ex52, g, np.array([0.3, -1.0])))
    for x in (0.0, 1.0):
        yield (f"ex61 zero x={x}", ex61, [x], (200,),
               lambda g: ControlLaw.zero(ex61, g))
    # noisy games whose paths are constant or polynomial (the doubling
    # blocks polynomial coefficients), each at its saddle feedback and
    # at that feedback plus a smooth offset
    rng = np.random.default_rng(2024)
    games = 0
    while games < 2:
        spec = embed_perturbation(random_instance(rng), 0.5)
        x = rng.standard_normal(spec.n)
        if "piecewise" in (spec.coefficients.A.kind,
                           spec.coefficients.B1.kind):
            continue
        games += 1

        def feedback(g, spec=spec, off=0.0):
            cl = build_feedback(spec, *solve_riccati_pair(spec, g)
                                ).as_control_law()
            shift = off * np.cos(3.0 * cl.times)[:, None] * np.ones(spec.m)
            return ControlLaw(times=cl.times, gain=cl.gain,
                              mean_gain=cl.mean_gain,
                              offset=cl.offset + shift)

        yield (f"random {games} feedback", spec, x, (200, 400), feedback)
        yield (f"random {games} offset", spec, x, (200, 400),
               lambda g, f=feedback: f(g, off=0.4))


@pytest.mark.parametrize("case", list(_bump_cases()), ids=lambda c: c[0])
def test_verify_saddle_matches_doubled_game_oracle(case):
    _, spec, x, grids, make_law = case
    x = np.asarray(x, dtype=float)
    gaps = []
    for N in grids:
        cl = make_law(TimeGrid(1.0, N))
        rep = verify_saddle(spec, cl, x)
        assert rep.value == evaluate_functional(spec, cl, x).value
        base, lin, quad, window = bump_coefficients(spec, cl, x)
        scale = 1.0 + abs(base) + np.max(np.abs(lin)) + np.max(np.abs(quad))
        gap = np.maximum(np.abs(rep.stationarity - lin),
                         np.abs(rep.curvature - quad)) / scale
        assert abs(rep.value - base) <= 1e-12 * scale
        assert np.all(gap[~window] <= 1e-9)
        gaps.append(gap[window].max())
    # a window bump jumps inside a segment, which neither route resolves
    # beyond second order in h: the gap must shrink with the step (or,
    # on one grid, be roundoff)
    assert gaps[-1] <= max(gaps[0] / 3.0, 1e-13)


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
