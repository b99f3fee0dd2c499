"""Convexification ladders: iterates, distances, solvability verdicts."""

import numpy as np
import pytest

from mflqg._integrate import _mv, _T, _TimeArrays
from mflqg.model import TimeGrid, embed_perturbation
from mflqg.perturbation import (EpsSchedule, _chain_distances, _law_parts,
                                _sample, _stage_times, build_eps_iterate,
                                classify_family, control_distance)
from mflqg.riccati import RegularityError, solve_riccati_pair
from mflqg.synthesis import (build_feedback, evaluate_functional,
                             propagate_moments, verify_saddle)

from conftest import (draw_regular, make_example52, make_example61,
                      random_instance, solve_game)


@pytest.fixture(scope="module")
def iterates61():
    spec = make_example61()
    grid = TimeGrid(1.0, 250)
    a = build_eps_iterate(spec, 0.1, grid, [1.0])
    b = build_eps_iterate(spec, 0.05, grid, [1.0])
    return spec, grid, a, b


def test_schedule_values_and_validation():
    sched = EpsSchedule(0.8, 0.5, 4)
    np.testing.assert_allclose(sched.values, [0.8, 0.4, 0.2, 0.1])
    with pytest.raises(ValueError):
        EpsSchedule(0.0, 0.5, 4)
    with pytest.raises(ValueError):
        EpsSchedule(0.5, 1.0, 4)
    with pytest.raises(ValueError):
        EpsSchedule(0.5, 0.5, 1)


def test_eps_iterate_tracks_closed_form(iterates61):
    # shifted game pushes |u_eps| = |x| / eps and value -(1+eps)/eps
    _, _, a, b = iterates61
    assert a.norm == pytest.approx(10.0, rel=1e-6)
    assert b.norm == pytest.approx(20.0, rel=1e-6)
    assert a.value == pytest.approx(-11.0, abs=1e-9)
    assert a.norm_sq == pytest.approx(100.0, rel=1e-6)


def test_control_distance_between_ladder_steps(iterates61):
    spec, grid, a, b = iterates61
    d = control_distance(spec, a, b, [1.0])
    # controls are x/eps along nearly identical mean flows: gap is 10
    assert d == pytest.approx(10.0, rel=1e-5)
    assert control_distance(spec, b, a, [1.0]) == d
    assert control_distance(spec, a, a, [1.0]) == 0.0


def test_classify_blowup_family():
    rep = classify_family(make_example61(), EpsSchedule(0.5, 0.5, 8),
                          [1.0], TimeGrid(1.0, 100), verify=False)
    assert rep.verdict == "not-solvable"
    assert rep.exponent == pytest.approx(1.0, abs=0.05)
    assert rep.limit is None and rep.saddle is None
    assert np.all(np.diff(rep.norms) > 0)      # ladder norms blow up
    np.testing.assert_allclose(rep.eps_values, rep.schedule.values)


def test_classify_flat_family_verifies_saddle():
    rep = classify_family(make_example61(), EpsSchedule(0.5, 0.5, 8),
                          [0.0], TimeGrid(1.0, 100))
    assert rep.verdict == "solvable"
    assert rep.exponent == 0.0
    assert np.max(rep.norms) <= 1e-12          # zero is the limit law
    assert rep.limit is not None
    assert rep.saddle is not None and rep.saddle.is_saddle


@pytest.mark.parametrize("make, sched, N", [
    (make_example61, EpsSchedule(0.5, 0.5, 4), 100),
    (make_example52, EpsSchedule(0.1024, 0.5, 4), 200),
])
def test_ladder_rungs_match_one_rung_oracle(make, sched, N):
    # the ladder solves all rungs on one shared partition; each rung
    # solved alone through the public one-rung path is the oracle
    spec, grid = make(), TimeGrid(1.0, N)
    rep = classify_family(spec, sched, [1.0], grid, verify=False)
    alone = [build_eps_iterate(spec, e, grid, [1.0]) for e in sched.values]
    times = rep.iterates[0].riccati.times
    for it, ref in zip(rep.iterates, alone):
        # the one-rung path is the plain solve of the embedded game
        P, Pi = solve_riccati_pair(embed_perturbation(spec, it.eps), grid)
        np.testing.assert_allclose(ref.riccati.values_fine, P.values_fine,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(ref.mean_riccati.values_fine,
                                   Pi.values_fine, rtol=1e-12, atol=0.0)
        # the game solver alone, through its own rhs, reproduces P
        Pg = solve_game(embed_perturbation(spec, it.eps), grid)[1]
        np.testing.assert_allclose(P.values_fine, Pg, rtol=1e-12, atol=0.0)
        assert np.array_equal(it.feedback.times, times)
        np.testing.assert_allclose(it.riccati.values, ref.riccati.values,
                                   rtol=1e-8, atol=0.0)
        np.testing.assert_allclose(it.mean_riccati.values,
                                   ref.mean_riccati.values,
                                   rtol=1e-8, atol=0.0)
        assert it.norm == pytest.approx(ref.norm, rel=1e-8)
        assert it.value == pytest.approx(ref.value, rel=1e-8)
    pairwise = [control_distance(spec, a, b, [1.0])
                for a, b in zip(alone[:-1], alone[1:])]
    np.testing.assert_allclose(rep.distances, pairwise, rtol=1e-6)


def _noisy_varying_n3(seed):
    """The first n = 3 random game of a seed with a time-varying drift
    or control coefficient (every random game is noisy)."""
    rng = np.random.default_rng(seed)
    while True:
        spec = random_instance(rng)
        co = spec.coefficients
        if spec.n == 3 and (co.A.kind != "constant"
                            or co.B1.kind != "constant"):
            return spec


@pytest.mark.parametrize("case", ["ex61", "ex52", "random"])
def test_batched_ladder_matches_one_rung_realization(case):
    # the ladder realizes every rung in one batched pass; the oracle is
    # build_eps_iterate's one-rung realization (build_feedback, then
    # evaluate_functional, on the shifted game) of the rung's own
    # Riccati pair, since a solo pair solve refines its own partition
    if case == "ex61":
        spec, sched, x = make_example61(), EpsSchedule(), [1.0]
    elif case == "ex52":
        spec, sched, x = make_example52(), EpsSchedule(0.1024, 0.5, 11), [1.0]
    else:
        spec, sched, x = (_noisy_varying_n3(61), EpsSchedule(0.5, 0.5, 5),
                          [1.0, -0.5, 0.25])
    rep = classify_family(spec, sched, x, TimeGrid(1.0, 250), verify=False)
    for it in rep.iterates:
        shifted = embed_perturbation(spec, it.eps)
        law = build_feedback(shifted, it.riccati, it.mean_riccati)
        cost = evaluate_functional(shifted, law, x)
        assert it.value == pytest.approx(cost.value, rel=1e-12)
        assert it.norm_sq == pytest.approx(cost.control_norm_sq, rel=1e-12)
        assert np.array_equal(it.feedback.times, law.times)
        assert np.array_equal(it.feedback.node_index, law.node_index)
        for name in ("gain", "mean_gain", "weight", "mean_weight",
                     "margin_1", "margin_2"):
            ours, ref = getattr(it.feedback, name), getattr(law, name)
            assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_ladder_breakdown_names_failing_rung():
    # alone, the 1e-6 and 1e-8 rungs solve while the 1e-10 rung's
    # terminal layer trips the escape bound just above t = 0
    spec, grid = make_example61(), TimeGrid(1.0, 100)
    for eps in (1e-6, 1e-8):
        build_eps_iterate(spec, eps, grid, [1.0])
    with pytest.raises(RegularityError) as alone:
        build_eps_iterate(spec, 1e-10, grid, [1.0])
    with pytest.raises(RegularityError) as ladder:
        classify_family(spec, EpsSchedule(1e-6, 0.01, 3), [1.0], grid,
                        verify=False)
    assert "eps = 1e-10" in str(ladder.value)
    assert 1e-9 < ladder.value.t < 1e-8
    assert ladder.value.t == pytest.approx(alone.value.t, rel=0.5)


def test_limit_law_certified_on_its_shifted_game():
    # the limit law is the last iterate, the saddle of the game shifted
    # by the last eps; on the unshifted game the shift alone leaves a
    # stationarity defect of 2 eps |u2| = 2 eps here
    spec = make_example52()
    rep = classify_family(spec, EpsSchedule(), [1.0], TimeGrid(1.0, 500))
    assert rep.verdict == "solvable"
    assert rep.saddle.is_saddle
    eps = rep.eps_values[-1]
    unshifted = verify_saddle(spec, rep.limit, [1.0])
    assert unshifted.stationarity_sup == pytest.approx(2.0 * eps, rel=1e-2)
    # the same law with u2's offset moved by 1e-3 is no saddle of it
    # (its feedback steers the state back, x(T) moves by 6e-7, and the
    # stationarity defect reads 1.2e-6)
    K = rep.limit.times.shape[0]
    moved = rep.limit.as_control_law().with_bump(spec, 2, np.ones((K, 1)),
                                                  1e-3)
    bad = verify_saddle(embed_perturbation(spec, eps), moved, [1.0])
    assert not bad.is_saddle
    assert bad.stationarity_sup > bad.tol


def test_control_distance_matches_shared_noise_simulation():
    # two feedback laws of a noisy game, both state fluctuations driven
    # by one Brownian path (Euler on the laws' shared partition, exact
    # means); only noise couples the pair here, which ex61 and ex52 lack
    rng = np.random.default_rng(13)
    grid = TimeGrid(1.0, 100)
    spec, x, _, _ = draw_regular(rng, grid)
    rep = classify_family(spec, EpsSchedule(2.0, 0.01, 2), x, grid,
                          verify=False)
    laws = [it.feedback for it in rep.iterates]
    times = laws[0].times
    co = spec.coefficients

    def path(*names):
        return np.stack([np.hstack([getattr(co, nm).eval(t) for nm in names])
                         for t in times])

    A, B, C, D = path("A"), path("B1", "B2"), path("C"), path("D1", "D2")
    Csum, Dsum = C + path("Cbar"), D + path("D1bar", "D2bar")
    flows = []
    for law in laws:
        mom = propagate_moments(spec, law, x)
        g = (np.einsum("kij,kj->ki", Csum, mom.mean)
             + np.einsum("kim,km->ki", Dsum, mom.control_mean))
        flows.append((A + B @ law.gain, C + D @ law.gain, g, law.gain,
                      mom.control_mean))

    paths = 20000
    noise = np.random.default_rng(3)
    Y = np.zeros((2, paths, spec.n))

    def gap_sq(k):
        du = [np.einsum("mn,pn->pm", f[3][k], y) + f[4][k]
              for f, y in zip(flows, Y)]
        return np.sum((du[0] - du[1]) ** 2, axis=1)

    acc, g0 = np.zeros(paths), gap_sq(0)
    for k, dt in enumerate(np.diff(times)):
        dW = noise.standard_normal(paths) * np.sqrt(dt)
        Y = np.stack([y + dt * y @ f[0][k].T
                      + (y @ f[1][k].T + f[2][k]) * dW[:, None]
                      for f, y in zip(flows, Y)])
        g1 = gap_sq(k + 1)
        acc += 0.5 * dt * (g0 + g1)
        g0 = g1
    d = control_distance(spec, laws[0], laws[1], x)
    assert d == rep.distances[0]
    # the Euler and trapezoid bias measured at 2e5 paths is below 0.1
    # of this run's standard error
    stderr = acc.std(ddof=1) / np.sqrt(paths)
    assert abs(acc.mean() - d ** 2) <= 4.0 * stderr


def _oracle_chain_distances(spec, laws, x):
    """The distance march as two RK4 half-steps per segment, one rhs
    call per stage, with Simpson's rule over the half-step boundaries."""
    E = len(laws)
    x0 = np.asarray(x, dtype=float).reshape(spec.n)
    bounds = laws[0][0][::2]
    for law in laws[1:]:
        bounds = np.union1d(bounds, law[0][::2])
    ts = _stage_times(bounds)
    S = ts.shape[0]
    ta = _TimeArrays(spec, ts.ravel())

    def coef(arr):
        return arr.reshape((S, 7, 1) + arr.shape[1:])

    As, Bs, Cs, Ds = (coef(ta.Asum), coef(ta.Bsum), coef(ta.Csum),
                      coef(ta.Dsum))
    gain, mean_gain, offset = (
        np.stack([_sample(law[0], law[i], ts) for law in laws], axis=2)
        for i in (1, 2, 3))
    F = coef(ta.A) + coef(ta.B) @ gain
    Gm = coef(ta.C) + coef(ta.D) @ gain
    lo, hi = np.r_[0:E, 0:E - 1], np.r_[0:E, 1:E]
    FL, FR = F[:, :, lo], _T(F[:, :, hi])
    GL, GR = Gm[:, :, lo], _T(Gm[:, :, hi])
    gg = _T(gain[:, :, lo]) @ gain[:, :, hi]

    def rhs(k, j, state):
        m, Z = state
        eu = _mv(mean_gain[k, j], m) + offset[k, j]
        s = _mv(Cs[k, j], m) + _mv(Ds[k, j], eu)
        dm = _mv(As[k, j], m) + _mv(Bs[k, j], eu)
        dZ = (FL[k, j] @ Z + Z @ FR[k, j] + GL[k, j] @ Z @ GR[k, j]
              + s[lo][:, :, None] * s[hi][:, None, :])
        return dm, dZ

    def gap_sq(k, j, state):
        m, Z = state
        eu = _mv(mean_gain[k, j], m) + offset[k, j]
        tr = np.trace(gg[k, j, :E] @ Z[:E], axis1=-2, axis2=-1)
        cross = np.einsum("eij,eij->e", gg[k, j, E:], Z[E:])
        mean = eu[:-1] - eu[1:]
        return (tr[:-1] + tr[1:] - 2.0 * cross
                + np.einsum("ei,ei->e", mean, mean))

    def axpy(a, xs, ys):
        return tuple(y + a * x for x, y in zip(xs, ys))

    def rk4(k, j, h, state, f0):
        k2 = rhs(k, j + 1, axpy(0.5 * h, f0, state))
        k3 = rhs(k, j + 1, axpy(0.5 * h, k2, state))
        k4 = rhs(k, j + 2, axpy(h, k3, state))
        step = tuple((a + 2.0 * b + 2.0 * c + d) / 6.0
                     for a, b, c, d in zip(f0, k2, k3, k4))
        return axpy(h, step, state)

    state = (np.tile(x0, (E, 1)), np.zeros((2 * E - 1, spec.n, spec.n)))
    total = np.zeros(E - 1)
    f = rhs(0, 0, state)
    g0 = gap_sq(0, 0, state)
    for k in range(S):
        h = bounds[k + 1] - bounds[k]
        s_mid = rk4(k, 0, 0.5 * h, state, f)
        f_mid = rhs(k, 3, s_mid)
        m_end, Z_end = rk4(k, 3, 0.5 * h, s_mid, f_mid)
        gm = gap_sq(k, 3, s_mid)
        state = (m_end, np.concatenate((0.5 * (Z_end[:E] + _T(Z_end[:E])),
                                        Z_end[E:])))
        f = rhs(k, 6, state)
        g1 = gap_sq(k, 6, state)
        total += h / 6.0 * (g0 + 4.0 * gm + g1)
        g0 = g1
    return np.sqrt(np.maximum(total, 0.0))


@pytest.mark.parametrize("make, sched, x", [
    (make_example61, EpsSchedule(), 1.3),
    (make_example52, EpsSchedule(0.1024, 0.5, 11), 1.0),
], ids=["ex61", "ex52"])
def test_distance_march_matches_loop_oracle(make, sched, x):
    # every consecutive distance of a ladder; measured <= 1.7e-14 relative
    spec = make()
    rep = classify_family(spec, sched, [x], TimeGrid(1.0, 250), verify=False)
    laws = [_law_parts(it) for it in rep.iterates]
    ref = _oracle_chain_distances(spec, laws, [x])
    assert np.all(ref > 0)
    np.testing.assert_allclose(_chain_distances(spec, laws, [x]), ref,
                               rtol=1e-12, atol=0.0)


def test_control_distance_across_grids_matches_loop_oracle():
    # two laws of a noisy game on grids of 100 and 150 intervals: the
    # march runs on the union of their segment boundaries
    rng = np.random.default_rng(13)
    spec, x, P, Pi = draw_regular(rng, TimeGrid(1.0, 100))
    shifted = embed_perturbation(spec, 0.3)
    a = build_feedback(spec, P, Pi)
    b = build_feedback(shifted, *solve_riccati_pair(shifted,
                                                    TimeGrid(1.0, 150)))
    bounds = np.union1d(a.times[::2], b.times[::2])
    assert bounds.shape[0] > max(a.times.shape[0], b.times.shape[0]) // 2 + 1
    ref = _oracle_chain_distances(spec, [_law_parts(a), _law_parts(b)], x)[0]
    assert control_distance(spec, a, b, x) == pytest.approx(ref, rel=1e-12)
