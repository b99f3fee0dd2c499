"""Feedback synthesis, moment propagation, functional evaluation, saddles."""

import numpy as np
import pytest

from mflqg._integrate import _mv, _sym, _T, _TimeArrays, hermite_midpoint
from mflqg.model import (DEFAULT_DELTA, CoefficientPath, ControlLaw,
                         GameSpec, TimeGrid, embed_perturbation)
from mflqg.perturbation import EpsSchedule
from mflqg.riccati import (GridMismatchError, RegularityError, _eps_shift,
                           _solve_pairs, solve_riccati_pair)
from mflqg.synthesis import (_RK4, FeedbackLaw, _direction_shapes,
                             _feedback_fields, _march, _MomentEngine,
                             _open_loop_gradient, _simpson_weights,
                             build_feedback, evaluate_functional,
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


def test_feedback_needs_one_partition():
    # P and Pi of pairs solved on different grids share no partition
    spec = embed_perturbation(make_example61(), 0.5)
    P, _ = solve_riccati_pair(spec, TimeGrid(1.0, 100))
    _, Pi = solve_riccati_pair(spec, TimeGrid(1.0, 150))
    with pytest.raises(GridMismatchError):
        build_feedback(spec, P, Pi)


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


# ------------------------------------- the linear march by an oracle
#
# The per-segment loops the marcher replaced: one RK4 step per segment
# through the moment rhs (``run``), and the generic sweep of ``form``
# and ``_open_loop_gradient``.  Measured against them, as |a - b| /
# (1 + |b|): <= 1.1e-14 everywhere, except the values of ex61's ladder
# from x = 1.3, whose smallest rungs (values down to -2.8e4) differ by
# <= 2.2e-11.  There the value is the gap between a running and a
# terminal cost each about 1/eps times larger (1.6e4 on the smallest
# rung), so both routes carry roundoff of that size.

def _oracle_rhs(eng, idx, mean, cov, v):
    ta = eng.ta
    eu = _mv(eng.mean_gain[:, idx], mean) + v[:, idx]
    dm = (np.einsum("ij,bj->bi", ta.Asum[idx], mean)
          + np.einsum("im,bm->bi", ta.Bsum[idx], eu))
    g = (np.einsum("ij,bj->bi", ta.Csum[idx], mean)
         + np.einsum("im,bm->bi", ta.Dsum[idx], eu))
    FL = eng.F[:, idx] @ cov
    Gm = eng.Gm[:, idx]
    dC = FL + _T(FL) + Gm @ cov @ _T(Gm) + g[:, :, None] * g[:, None, :]
    return dm, dC


def _oracle_integrands(eng, idx, mean, cov, v):
    ta = eng.ta
    eu = _mv(eng.mean_gain[:, idx], mean) + v[:, idx]
    c = (np.einsum("...ij,...ji->...", eng.W[:, idx], cov)
         + np.einsum("bi,ij,bj->b", mean, ta.Qsum[idx], mean)
         + 2.0 * np.einsum("bm,mn,bn->b", eu, ta.Ssum[idx], mean)
         + np.einsum("...m,...mk,...k->...", eu, eng.Rsum[:, idx], eu))
    nrm = (np.einsum("...ij,...ji->...", eng.gg[:, idx], cov)
           + np.einsum("bm,bm->b", eu, eu))
    return c, nrm


def _oracle_run(eng, x0, v):
    """``_MomentEngine.run`` as one RK4 step per segment, recording."""
    ta, times = eng.ta, eng.times
    K, B, n = times.shape[0], v.shape[0], ta.n
    mean = np.tile(np.asarray(x0, dtype=float).reshape(n), (B, 1))
    cov = np.zeros((B, n, n))
    value, norm_sq = np.zeros(B), np.zeros(B)
    mean_path, cov_path = np.empty((B, K, n)), np.empty((B, K, n, n))
    mean_path[:, 0], cov_path[:, 0] = mean, cov
    dm0, dC0 = _oracle_rhs(eng, 0, mean, cov, v)
    c0, r0 = _oracle_integrands(eng, 0, mean, cov, v)
    for j in range(0, K - 2, 2):
        i1, i2 = j + 1, j + 2
        h = times[i2] - times[j]
        k2m, k2C = _oracle_rhs(eng, i1, mean + 0.5 * h * dm0,
                               cov + 0.5 * h * dC0, v)
        k3m, k3C = _oracle_rhs(eng, i1, mean + 0.5 * h * k2m,
                               cov + 0.5 * h * k2C, v)
        k4m, k4C = _oracle_rhs(eng, i2, mean + h * k3m, cov + h * k3C, v)
        mean_n = mean + (h / 6.0) * (dm0 + 2.0 * (k2m + k3m) + k4m)
        cov_n = _sym(cov + (h / 6.0) * (dC0 + 2.0 * (k2C + k3C) + k4C))
        dm1, dC1 = _oracle_rhs(eng, i2, mean_n, cov_n, v)
        mean_mid = hermite_midpoint(mean, mean_n, dm0, dm1, h)
        cov_mid = _sym(hermite_midpoint(cov, cov_n, dC0, dC1, h))
        cm, rm = _oracle_integrands(eng, i1, mean_mid, cov_mid, v)
        c1, r1 = _oracle_integrands(eng, i2, mean_n, cov_n, v)
        value += (h / 6.0) * (c0 + 4.0 * cm + c1)
        norm_sq += (h / 6.0) * (r0 + 4.0 * rm + r1)
        mean_path[:, i1], cov_path[:, i1] = mean_mid, cov_mid
        mean_path[:, i2], cov_path[:, i2] = mean_n, cov_n
        mean, cov, dm0, dC0, c0, r0 = mean_n, cov_n, dm1, dC1, c1, r1
    value += (np.einsum("ij,bji->b", ta.G, cov)
              + np.einsum("bi,ij,bj->b", mean, ta.Gsum, mean))
    return value, norm_sq, mean_path, cov_path


def _oracle_sweep(times, y0, rhs, backward=False):
    """Samples of y' = rhs(k, y), one RK4 step per segment."""
    K = times.shape[0]
    path = np.empty((K,) + y0.shape)
    first, last, step = (K - 1, 0, -2) if backward else (0, K - 1, 2)
    y = path[first] = y0
    f = rhs(first, y)
    for i0 in range(first, last, step):
        i1, i2 = i0 + step // 2, i0 + step
        h = times[i2] - times[i0]
        k2 = rhs(i1, y + (0.5 * h) * f)
        k3 = rhs(i1, y + (0.5 * h) * k2)
        k4 = rhs(i2, y + h * k3)
        y_n = y + (h / 6.0) * (f + 2.0 * (k2 + k3) + k4)
        f_n = rhs(i2, y_n)
        path[i1] = hermite_midpoint(y, y_n, f, f_n, h)
        path[i2] = y = y_n
        f = f_n
    return path


def _oracle_form(eng, v):
    ta, times = eng.ta, eng.times
    K, n, m, d = times.shape[0], ta.n, ta.m, v.shape[0]
    F, Gm, W, mean_gain = (a[0] for a in (eng.F, eng.Gm, eng.W,
                                          eng.mean_gain))
    U = np.zeros((K, m, n + d))
    U[:, :, n:] = np.transpose(v, (1, 2, 0))
    drift, push = ta.Asum + ta.Bsum @ mean_gain, ta.Bsum @ U
    Phi = _oracle_sweep(times, np.eye(n, n + d),
                        lambda k, P: drift[k] @ P + push[k])

    def lyapunov(k, L):
        LF = L @ F[k]
        return -(LF + LF.T + Gm[k].T @ L @ Gm[k] + W[k])

    Lam = _oracle_sweep(times, ta.G, lyapunov, backward=True)
    Eu = mean_gain @ Phi + U
    g = ta.Csum @ Phi + ta.Dsum @ Eu
    Y = np.concatenate((Phi, Eu), axis=1)
    cost = np.block([[ta.Qsum, _T(ta.Ssum)], [ta.Ssum, eng.Rsum[0]]])
    w = _simpson_weights(times)[:, None, None]
    return _sym(np.tensordot(Y, w * (cost @ Y), ((0, 1),) * 2)
                + np.tensordot(g, w * (Lam @ g), ((0, 1),) * 2)
                + Phi[-1].T @ ta.Gsum @ Phi[-1])


def _oracle_gradient(eng, cl, mean):
    ta, times = eng.ta, cl.times
    F, Gm = eng.F[0], eng.Gm[0]
    AT, CT, AsT = _T(ta.A), _T(ta.C), _T(ta.Asum)
    forcing = ta.Q + _T(ta.S) @ cl.gain
    Lam = _oracle_sweep(times, ta.G, lambda k, L: -(
        L @ F[k] + AT[k] @ L + CT[k] @ L @ Gm[k] + forcing[k]),
        backward=True)
    eu = _mv(cl.mean_gain, mean) + cl.offset
    Lg = _mv(Lam, _mv(ta.Csum, mean) + _mv(ta.Dsum, eu))
    drive = _mv(ta.Qsum, mean) + _mv(_T(ta.Ssum), eu) + _mv(_T(ta.Csum), Lg)
    lam = _oracle_sweep(times, ta.Gsum @ mean[-1],
                        lambda k, l: -(AsT[k] @ l + drive[k]), backward=True)
    return (_mv(_T(ta.Bsum), lam) + _mv(_T(ta.Dsum), Lg)
            + _mv(ta.Ssum, mean) + _mv(ta.Rsum, eu))


def _assert_close(ours, ref, tol=1e-12):
    assert np.all(np.abs(ours - ref) <= tol * (1.0 + np.abs(ref)))


@pytest.mark.parametrize("make, sched, x", [
    (make_example61, EpsSchedule(), 1.3),
    (make_example61, EpsSchedule(), 0.0),
    (make_example52, EpsSchedule(0.1024, 0.5, 11), 1.0),
], ids=["ex61 x=1.3", "ex61 x=0", "ex52"])
def test_ladder_moment_march_matches_loop_oracle(make, sched, x):
    # the ladder's engine: one law per rung on the shared partition
    spec = make()
    pairs = _solve_pairs(spec, TimeGrid(1.0, 250), sched.values,
                         DEFAULT_DELTA)
    times = pairs[0][0].times
    shift = _eps_shift(spec, sched.values)
    ta = _TimeArrays(spec, times)
    fields = [_feedback_fields(ta, P.values_fine, Pi.values_fine, shift[e])
              for e, (P, Pi) in enumerate(pairs)]
    eng = _MomentEngine(spec, times, np.stack([f["gain"] for f in fields]),
                        np.stack([f["mean_gain"] for f in fields]),
                        arrays=ta, shift=shift)
    v = np.zeros((sched.count, times.shape[0], spec.m))
    ours, ref = eng.run([x], v, record=True), _oracle_run(eng, [x], v)
    _assert_close(ours[0], ref[0], 1e-10 if x else 1e-12)
    for a, b in zip(ours[1:], ref[1:]):
        _assert_close(a, b)


def _noisy_varying(n):
    """A solvable embedded random game with n states whose drift or
    control coefficient varies in time (every random game is noisy)."""
    rng = np.random.default_rng(5)
    while True:
        spec = embed_perturbation(random_instance(rng), 0.5)
        x = rng.standard_normal(spec.n)
        co = spec.coefficients
        if spec.n != n or co.A.kind == co.B1.kind == "constant":
            continue
        try:
            return spec, x, solve_riccati_pair(spec, TimeGrid(1.0, 200))
        except RegularityError:
            continue


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("off", [0.0, 0.4], ids=["feedback", "offset"])
def test_moment_march_matches_loop_oracle_on_random_games(n, off):
    spec, x, (P, Pi) = _noisy_varying(n)
    law = build_feedback(spec, P, Pi)
    offset = off * np.cos(3.0 * law.times)[:, None] * np.ones(spec.m)
    cl = ControlLaw(times=law.times, gain=law.gain,
                    mean_gain=law.mean_gain, offset=offset)
    eng = _MomentEngine(spec, cl.times, cl.gain, cl.mean_gain)
    ours, ref = eng.run(x, offset[None], record=True), _oracle_run(
        eng, x, offset[None])
    for a, b in zip(ours, ref):
        _assert_close(a, b)
    v = np.random.default_rng(n).standard_normal((5, cl.times.shape[0],
                                                  spec.m))
    _assert_close(eng.form(v), _oracle_form(eng, v))
    _assert_close(_open_loop_gradient(eng, cl, ours[2][0]),
                  _oracle_gradient(eng, cl, ref[2][0]))


# The sequential march the prefix scan replaced: the same step maps,
# applied one segment after another.

def _oracle_march(M, c, h, y0):
    h = h[:, None, None]
    eye = np.eye(M[0].shape[-1])
    X, K, Phi = [], M[0], M[0].copy()
    for Mj, (a, wt) in zip(M[1:], _RK4):
        X.append(eye + (a * h) * K)
        K = Mj @ X[-1]
        Phi += wt * K
    Phi *= h / 6.0
    Phi += eye
    y = np.empty((len(h) + 1,) + y0.shape)
    y[0] = y0
    if c is None:
        for P, cur, nxt in zip(np.moveaxis(Phi, -3, 0), y, y[1:]):
            np.matmul(P, cur, out=nxt)
        y = np.moveaxis(y, 0, -3)
        start = y[..., :-1, :, :]
        return y, [start] + [Xj @ start for Xj in X]
    k, psi = c[0], c[0].copy()
    for Mj, cj, (a, wt) in zip(M[1:], c[1:], _RK4):
        k = Mj @ ((a * h) * k) + cj
        psi += wt * k
    psi *= h / 6.0
    for P, q, cur, nxt in zip(np.moveaxis(Phi, -3, 0),
                              np.moveaxis(psi, -3, 0), y, y[1:]):
        np.add(np.matmul(P, cur, out=nxt), q, out=nxt)
    return np.moveaxis(y, 0, -3)


@pytest.mark.parametrize("S", [1, 2, 3, 7, 8, 1024, 1025])
def test_march_scan_matches_sequential_oracle(S):
    # odd and even lengths, powers of two and one past: every shape of
    # the scan's levels; stage operators of norm about 1 on [0, 1]
    rng = np.random.default_rng(S)
    for (p, q), sign in zip([(1, 1), (2, 1), (4, 9), (9, 1), (9, 9)] * 2,
                            [1.0] * 5 + [-1.0] * 5):
        M = [rng.standard_normal((3, S, p, p)) / np.sqrt(p)
             for _ in range(4)]
        c = [rng.standard_normal((3, S, p, q)) for _ in range(4)]
        h = sign * rng.uniform(0.5, 1.5, S) / S
        y0 = rng.standard_normal((3, p, q))
        ours, ref = _march(M, c, h, y0), _oracle_march(M, c, h, y0)
        assert ours.shape == ref.shape == (3, S + 1, p, q)
        _assert_close(ours, ref)
        (ours, ours_st), (ref, ref_st) = (_march(M, None, h, y0),
                                          _oracle_march(M, None, h, y0))
        assert ours.shape == ref.shape and len(ours_st) == len(ref_st) == 4
        for a, b in zip([ours] + ours_st, [ref] + ref_st):
            _assert_close(a, b)


# ------------------------------------------------- the shared Riccati map
#
# The oracles below are the feedback fields and the stationarity
# residual as they once wrote out the map's weight R + D' P D and
# linear term B' Y + D' P C + S themselves.

def _oracle_feedback_fields(ta, P, Pi, shift=0.0):
    m1 = ta.m1
    DtP = _T(ta.D) @ P
    weight = _sym(ta.R + shift + DtP @ ta.D)
    gain = -np.linalg.solve(weight, _T(ta.B) @ P + DtP @ ta.C + ta.S)
    DtPs = _T(ta.Dsum) @ P
    mean_weight = _sym(ta.Rsum + shift + DtPs @ ta.Dsum)
    mean_gain = -np.linalg.solve(
        mean_weight, _T(ta.Bsum) @ Pi + DtPs @ ta.Csum + ta.Ssum)
    return dict(gain=gain, mean_gain=mean_gain, weight=weight,
                mean_weight=mean_weight,
                margin_1=np.linalg.eigvalsh(weight[..., :m1, :m1])[..., 0],
                margin_2=np.linalg.eigvalsh(-weight[..., m1:, m1:])[..., 0])


def _oracle_stationarity(spec, law):
    ta = _TimeArrays(spec, law.times)
    P, Pi = law.riccati, law.mean_riccati
    DtP, DtPs = _T(ta.D) @ P, _T(ta.Dsum) @ P
    r1 = _T(ta.B) @ P + DtP @ ta.C + ta.S + (ta.R + DtP @ ta.D) @ law.gain
    r2 = (_T(ta.Bsum) @ Pi + DtPs @ ta.Csum + ta.Ssum
          + (ta.Rsum + DtPs @ ta.Dsum) @ law.mean_gain)
    return max(float(np.max(np.linalg.norm(r, axis=(1, 2))))
               for r in (r1, r2))


def _map_rungs(case):
    """(spec, P, Pi, shift, game the law solves) of one case's rungs."""
    if case == "ex52-ladder":
        spec, eps = make_example52(), EpsSchedule(0.1024, 0.5, 11).values
        pairs = _solve_pairs(spec, TimeGrid(1.0, 150), eps, DEFAULT_DELTA)
        return [(spec, P, Pi, shift, embed_perturbation(spec, e))
                for e, shift, (P, Pi) in zip(eps, _eps_shift(spec, eps),
                                             pairs)]
    if case == "ex61":
        spec = embed_perturbation(make_example61(), 0.5)
        P, Pi = solve_riccati_pair(spec, TimeGrid(1.0, 150))
    else:
        spec, _, (P, Pi) = _noisy_varying(int(case[-1]))
    return [(spec, P, Pi, 0.0, spec)]


@pytest.mark.parametrize("case", ["ex61", "ex52-ladder", "random-n1",
                                  "random-n2", "random-n3"])
def test_feedback_and_stationarity_match_written_out_map(case):
    for spec, P, Pi, shift, game in _map_rungs(case):
        ta = _TimeArrays(spec, P.times)
        ours = _feedback_fields(ta, P.values_fine, Pi.values_fine, shift)
        ref = _oracle_feedback_fields(ta, P.values_fine, Pi.values_fine,
                                      shift)
        assert ours.keys() == ref.keys()
        for name, want in ref.items():
            assert ours[name].shape == want.shape
            assert ours[name].tobytes() == want.tobytes(), name
        law = FeedbackLaw(grid=P.grid, times=P.times,
                          node_index=P.node_index, riccati=P.values_fine,
                          mean_riccati=Pi.values_fine, **ours)
        assert (stationarity_residual(game, law)
                == _oracle_stationarity(game, law))


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
