"""Backward Riccati flows: analytic solutions, oracles, and guards."""

import gc
import weakref

import numpy as np
import pytest

import mflqg._integrate
import mflqg.riccati
from mflqg._integrate import _TimeArrays, integrate_backward
from mflqg.model import (DEFAULT_DELTA, GameSpec, TimeGrid,
                         embed_perturbation)
from mflqg.perturbation import EpsSchedule
from mflqg.riccati import (RegularityError, check_comparison,
                           solve_control_riccati, solve_riccati_pair)

from conftest import (make_example52, make_example61, random_instance,
                      solve_game)


def _analytic_61(eps):
    """Closed form of the embedded example: both paths -(1+eps)/(s+eps)."""
    return lambda s: -(1.0 + eps) / (s + eps)


# ----------------------------------------------------- analytic example

@pytest.mark.parametrize("eps", [1.0, 0.25])
def test_example61_matches_closed_form(eps):
    spec = embed_perturbation(make_example61(), eps)
    grid = TimeGrid(1.0, 1000)
    P, Pi = solve_riccati_pair(spec, grid)
    exact = _analytic_61(eps)(grid.nodes)
    assert np.max(np.abs(P.values[:, 0, 0] - exact)) <= 1e-6
    assert np.max(np.abs(Pi.values[:, 0, 0] - exact)) <= 1e-6
    assert min(P.regularity_margin_1.min(),
               P.regularity_margin_2.min()) >= DEFAULT_DELTA
    assert P.asymmetry_sup <= 1e-12


def test_example61_margins_are_analytic():
    # player margins of the shifted game: R11+eps, and -(R22-eps+P)
    eps = 1.0
    spec = embed_perturbation(make_example61(), eps)
    grid = TimeGrid(1.0, 200)
    P, Pi = solve_riccati_pair(spec, grid)
    s = grid.nodes
    Pex = _analytic_61(eps)(s)
    np.testing.assert_allclose(P.regularity_margin_1,
                               np.full_like(s, 1.0 + eps), atol=1e-9)
    np.testing.assert_allclose(P.regularity_margin_2, eps - Pex, atol=1e-8)
    np.testing.assert_allclose(Pi.regularity_margin_1,
                               np.full_like(s, 1.0 + eps), atol=1e-9)
    np.testing.assert_allclose(Pi.regularity_margin_2, (1.0 + eps) - Pex,
                               atol=1e-8)


def test_pair_agrees_with_separate_game_solve():
    spec = embed_perturbation(make_example61(), 0.5)
    grid = TimeGrid(1.0, 400)
    P_pair, Pi = solve_riccati_pair(spec, grid)
    _, P_solo, node_index = solve_game(spec, grid)
    assert np.max(np.abs(P_pair.values - P_solo[node_index])) <= 1e-9


def test_mean_equation_reduces_without_mean_field():
    # with every barred block zero the two equations coincide
    spec = GameSpec.from_matrices(
        n=2, m1=1, m2=1, T=1.0,
        A=[[0.1, 0.2], [0.0, -0.3]], B1=[[1.0], [0.5]], B2=[[0.2], [1.0]],
        C=[[0.3, 0.0], [0.1, 0.2]], D1=[[0.4], [0.0]],
        Q=np.eye(2), R11=[[2.0]], R22=[[-2.0]], G=0.5 * np.eye(2),
    )
    P, Pi = solve_riccati_pair(spec, TimeGrid(1.0, 300))
    assert np.max(np.abs(P.values - Pi.values)) <= 1e-11


# ------------------------------------------------- independent oracle

def test_control_riccati_against_handwritten_rk4():
    # scalar minimization problem with an independently coded integrator:
    #   -P' = 2AP + C^2 P + Q - (B P)^2 / R11,  P(T) = G
    A, C, Q, B, R, G = 1.0, 0.5, 1.0, 1.0, 2.0, 1.0
    spec = GameSpec.from_matrices(
        n=1, m1=1, m2=1, T=1.0,
        A=[[A]], C=[[C]], B1=[[B]], Q=[[Q]], R11=[[R]],
        R22=[[-1.0]], G=[[G]],
    )
    grid = TimeGrid(1.0, 500)
    sol = solve_control_riccati(spec, grid, player=1)

    def f(p):
        return -(2.0 * A * p + C * C * p + Q - (B * p) ** 2 / R)

    steps = 100_000
    h = 1.0 / steps
    p = G
    oracle = np.empty(steps + 1)
    oracle[steps] = p
    for k in range(steps, 0, -1):     # integrate dP/ds backward
        k1 = f(p)
        k2 = f(p - 0.5 * h * k1)
        k3 = f(p - 0.5 * h * k2)
        k4 = f(p - h * k3)
        p = p - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        oracle[k - 1] = p
    at_nodes = oracle[::steps // grid.N]
    assert np.max(np.abs(sol.values[:, 0, 0] - at_nodes)) <= 1e-8


def test_comparison_brackets_game_solution():
    rng = np.random.default_rng(3)
    spec = embed_perturbation(random_instance(rng), 0.5)
    grid = TimeGrid(1.0, 300)
    P, _ = solve_riccati_pair(spec, grid)
    P1 = solve_control_riccati(spec, grid, 1)
    P2 = solve_control_riccati(spec, grid, 2)
    rep = check_comparison(P, P1, P2)
    assert rep.passed
    assert rep.margin_lower.min() >= -1e-9
    assert rep.margin_upper.min() >= -1e-9
    # the brackets touch at the shared terminal value
    assert abs(rep.margin_lower[-1]) <= 1e-12
    assert abs(rep.margin_upper[-1]) <= 1e-12


# --------------------------------------------------------- residuals

def _residual(spec, grid, values, companion=None):
    """Sup Frobenius defect of node values in the game equation, or in
    the mean equation along the game path ``companion``: central
    differences at interior nodes against the written-out slopes of
    the fused-slope oracle below."""
    st = _TimeArrays(spec, grid.nodes[1:-1])
    Y = values[1:-1]
    slope = (_game_slope(st, st.R, Y) if companion is None
             else _mean_slope(st, st.Rsum, companion[1:-1], Y))
    defect = (values[2:] - values[:-2]) / (2.0 * grid.h) - slope
    return float(np.max(np.linalg.norm(defect, axis=(1, 2)), initial=0.0))


def test_residual_of_analytic_path_vanishes_with_grid():
    eps = 0.5
    spec = embed_perturbation(make_example61(), eps)
    res = []
    for N in (100, 200, 400):
        grid = TimeGrid(1.0, N)
        values = _analytic_61(eps)(grid.nodes)[:, None, None]
        res.append(_residual(spec, grid, values))
    assert res[0] <= 5e-3
    # central differences are second order; 4x the grid shrinks by ~16
    assert res[2] <= res[0] / 10.0


def test_residual_flags_wrong_path():
    spec = embed_perturbation(make_example61(), 0.5)
    grid = TimeGrid(1.0, 100)
    assert _residual(spec, grid, np.full((grid.N + 1, 1, 1), -1.0)) > 0.1


def test_mean_residual_needs_companion():
    # Pi solves the mean equation along P, and not along another path;
    # example 61's mean equation does not see P, so a random game shows it
    grid = TimeGrid(1.0, 100)
    spec = embed_perturbation(make_example61(), 0.5)
    P, Pi = solve_riccati_pair(spec, grid)
    assert _residual(spec, grid, Pi.values, P.values) <= 5e-3
    spec = embed_perturbation(random_instance(np.random.default_rng(3)), 0.5)
    P, Pi = solve_riccati_pair(spec, grid)
    assert _residual(spec, grid, Pi.values, P.values) <= 5e-3
    assert _residual(spec, grid, Pi.values, np.zeros_like(P.values)) > 0.1


# ----------------------------------------------------------- failure

def test_unembedded_spread_game_escapes():
    with pytest.raises(RegularityError):
        solve_riccati_pair(make_example61(), TimeGrid(1.0, 100))


def test_singular_weight_raises_at_terminal_time():
    with pytest.raises(RegularityError) as info:
        solve_riccati_pair(make_example52(), TimeGrid(1.0, 100))
    assert info.value.t == pytest.approx(1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_trial_steps_do_not_warn():
    # trial half-steps of this ladder's doubling test overflow; the
    # integrator rejects them, so numpy's warnings would be noise
    pairs = mflqg.riccati._solve_pairs(
        make_example52(), TimeGrid(1.0, 150),
        EpsSchedule(0.1024, 0.5, 11).values)
    assert len(pairs) == 11


def test_integrate_backward_frees_its_rhs_without_the_collector():
    # the integrator must not keep rhs and the partition alive in a
    # reference cycle
    def rhs(t, y):
        return 30.0 * y

    ref = weakref.ref(rhs)
    gc.disable()
    try:
        out = integrate_backward(rhs, TimeGrid(1.0, 4), np.ones((1, 1)))
        assert out[0].shape[0] > 2 * 4 + 1         # intervals were split
        del rhs, out
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------- coefficient sampler

def _stacked_oracle(spec, t):
    """Every _TimeArrays field at one time, by per-time eval."""
    co, w = spec.coefficients, spec.weights

    def sym(M):
        return 0.5 * (M + M.T)

    def rblock(r11, r12, r22):
        m1 = r11.shape[0]
        out = np.empty((m1 + r22.shape[0],) * 2)
        out[:m1, :m1] = r11
        out[:m1, m1:] = r12
        out[m1:, :m1] = r12.T
        out[m1:, m1:] = r22
        return sym(out)

    A = co.A.eval(t)
    B = np.hstack((co.B1.eval(t), co.B2.eval(t)))
    C = co.C.eval(t)
    D = np.hstack((co.D1.eval(t), co.D2.eval(t)))
    S = np.vstack((w.S1.eval(t), w.S2.eval(t)))
    R = rblock(w.R11.eval(t), w.R12.eval(t), w.R22.eval(t))
    Q = sym(w.Q.eval(t))
    return dict(
        A=A, B=B, C=C, D=D, S=S, R=R, Q=Q,
        Asum=A + co.Abar.eval(t),
        Bsum=B + np.hstack((co.B1bar.eval(t), co.B2bar.eval(t))),
        Csum=C + co.Cbar.eval(t),
        Dsum=D + np.hstack((co.D1bar.eval(t), co.D2bar.eval(t))),
        Ssum=S + np.vstack((w.S1bar.eval(t), w.S2bar.eval(t))),
        Rsum=R + rblock(w.R11bar.eval(t), w.R12bar.eval(t),
                        w.R22bar.eval(t)),
        Qsum=Q + sym(w.Qbar.eval(t)))


def _half_grid_game():
    """A game whose A is a polynomial and whose B1 steps at 0.45, a node
    at N = 500, and whose solves at N = 500 refine no interval."""
    spec = embed_perturbation(random_instance(np.random.default_rng(6)), 0.5)
    co = spec.coefficients
    assert (co.A.kind, co.B1.kind) == ("polynomial", "piecewise")
    return spec


def test_time_arrays_match_per_time_oracle():
    grid = TimeGrid(1.0, 500)
    # the half grid, and the uniform one its midpoints differ from
    times = np.concatenate((grid.half_times, np.linspace(0.0, 1.0, 1001),
                            [0.45, 1.0, 0.3]))
    for spec in (_half_grid_game(), make_example52(), make_example61()):
        ta = _TimeArrays(spec, times)
        for k, t in enumerate(times):
            for name, want in _stacked_oracle(spec, float(t)).items():
                got = getattr(ta, name)
                assert got.flags.c_contiguous, name
                assert got[k].tobytes() == want.tobytes(), (name, t)


def test_half_grid_solve_makes_no_single_time_sample(monkeypatch):
    # every rhs time of a fast-accepted interval is filled in one batch;
    # a single-time sample goes through _integrate's own name
    samples = []

    def counted(spec, times):
        samples.append(len(times))
        return _TimeArrays(spec, times)

    monkeypatch.setattr(mflqg._integrate, "_TimeArrays", counted)
    spec, grid = _half_grid_game(), TimeGrid(1.0, 500)
    for times in (solve_riccati_pair(spec, grid)[0].times,
                  solve_game(spec, grid)[0],
                  solve_control_riccati(spec, grid, 1).times,
                  solve_control_riccati(spec, grid, 2).times):
        assert times.shape[0] == 2 * grid.N + 1
    assert samples == []


# ------------------------------------------------- the fused slope

# The three slopes the fused one replaced, kept as its oracle: the game
# and mean equations each with its own solve, and the single channel
# slicing a player's columns per call.

def _T(M):
    return M.swapaxes(-1, -2)


def _flow(A, C, Q, Y, P, L, X):
    YA = Y @ A
    return -(YA + _T(YA) + _T(C) @ (P @ C) + Q - _T(L) @ X)


def _game_slope(st, R, P):
    DtP = _T(st.D) @ P
    L = _T(st.B) @ P + DtP @ st.C + st.S
    X = np.linalg.solve(R + DtP @ st.D, L)
    return _flow(st.A, st.C, st.Q, P, P, L, X)


def _mean_slope(st, Rsum, P, Pi):
    DtP = _T(st.Dsum) @ P
    Lb = _T(st.Bsum) @ Pi + DtP @ st.Csum + st.Ssum
    X = np.linalg.solve(Rsum + DtP @ st.Dsum, Lb)
    return _flow(st.Asum, st.Csum, st.Qsum, Pi, P, Lb, X)


def _control_slope(st, cols, P):
    Di = st.D[..., cols]
    DtP = _T(Di) @ P
    L = _T(st.B[..., cols]) @ P + DtP @ st.C + st.S[..., cols, :]
    X = np.linalg.solve(st.R[..., cols, cols] + DtP @ Di, L)
    return _flow(st.A, st.C, st.Q, P, P, L, X)


class _Row:
    """Every _TimeArrays field of one time, sampled alone."""

    def __init__(self, spec, t):
        ta = _TimeArrays(spec, np.array([t]))
        for name in ("A", "B", "C", "D", "S", "Q", "R"):
            setattr(self, name, getattr(ta, name)[0])
            setattr(self, name + "sum", getattr(ta, name + "sum")[0])


class _Captured(Exception):
    pass


def _solver_rhs(monkeypatch, solve):
    """The rhs a solver hands the integrator, its memo filled."""
    got = []

    def capture(rhs, *args, **kwargs):
        got.append(rhs)
        raise _Captured

    with monkeypatch.context() as m:
        m.setattr(mflqg.riccati, "integrate_backward", capture)
        with pytest.raises(_Captured):
            solve()
    return got[0]


def _states(rng, lead, n):
    M = 0.3 * rng.standard_normal(lead + (n, n))
    return M + _T(M)


_GRID = TimeGrid(1.0, 50)
# a stage time the solvers pre-fill, and one inside no fast interval
_TIMES = {"stage": float(_GRID.half_times[7]), "miss": 0.123456789}


def _time_varying_n3():
    spec = embed_perturbation(random_instance(np.random.default_rng(4)), 0.5)
    co = spec.coefficients
    assert (spec.n, spec.m1, spec.m2) == (3, 2, 2)
    assert (co.A.kind, co.B1.kind) == ("polynomial", "polynomial")
    return spec


def _pair_case(case):
    """(spec, rung eps or None) of one pair-slope case."""
    if case == "ex61":
        return embed_perturbation(make_example61(), 0.5), None
    if case == "ex52":
        return make_example52(), EpsSchedule(0.1024, 0.5, 11).values
    return _time_varying_n3(), np.array([0.3, 0.05])


def _single_samples(monkeypatch):
    """Sizes of the samples a cache takes alone, through its own name."""
    sizes = []

    def counted(spec, times):
        sizes.append(len(times))
        return _TimeArrays(spec, times)

    monkeypatch.setattr(mflqg._integrate, "_TimeArrays", counted)
    return sizes


@pytest.mark.parametrize("when", sorted(_TIMES))
@pytest.mark.parametrize("case", ["ex61", "ex52", "random-n3"])
def test_pair_slope_matches_two_equation_oracle(monkeypatch, case, when):
    spec, eps = _pair_case(case)
    if eps is None:
        shift = np.zeros((1, spec.m, spec.m))
        rhs = _solver_rhs(monkeypatch,
                          lambda: solve_riccati_pair(spec, _GRID))
    else:
        shift = mflqg.riccati._eps_shift(spec, eps)
        rhs = _solver_rhs(monkeypatch, lambda: mflqg.riccati._solve_pairs(
            spec, _GRID, eps))
    t = _TIMES[when]
    Y = _states(np.random.default_rng(11), (shift.shape[0], 2), spec.n)
    sizes = _single_samples(monkeypatch)
    got = rhs(t, Y)
    # a time-varying spec samples a miss alone, and a stage time never
    assert sizes == ([1] if when == "miss" and case != "ex61" else [])
    st = _Row(spec, t)
    want = np.stack((_game_slope(st, st.R + shift, Y[:, 0]),
                     _mean_slope(st, st.Rsum + shift, Y[:, 0], Y[:, 1])),
                    axis=1)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("when", sorted(_TIMES))
def test_game_and_control_slopes_match_oracle(monkeypatch, when):
    spec = _time_varying_n3()
    t = _TIMES[when]
    P = _states(np.random.default_rng(12), (1,), spec.n)
    st = _Row(spec, t)
    cases = [(lambda: solve_game(spec, _GRID),
              _game_slope(st, st.R, P))]
    for player, cols in ((1, slice(0, 2)), (2, slice(2, 4))):
        cases.append((lambda p=player: solve_control_riccati(spec, _GRID, p),
                      _control_slope(st, cols, P)))
    for solve, want in cases:
        got = _solver_rhs(monkeypatch, solve)(t, P)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_singular_weight_names_first_rung_then_sigma_before_sigma_bar():
    # (node, rung, equation) stacks: rung 1's Sigma-bar fails at an
    # earlier node than its Sigma, and rung 2's Sigma at the first node
    nodes = np.linspace(0.0, 1.0, 5)
    Sig = np.tile(np.eye(2), (5, 3, 2, 1, 1))
    Sig[2, 1, 1] = np.diag([1.0, 1e-13])
    Sig[4, 1, 0] = np.diag([1.0, 0.0])
    Sig[0, 2, 0] = np.diag([1.0, 1e-14])
    labels = [f"rung {e} {w}" for e in range(3) for w in ("Sigma", "bar")]
    with pytest.raises(RegularityError, match="^rung 1 Sigma is") as info:
        mflqg.riccati._cond_violations(Sig, nodes, labels)
    assert info.value.t == 1.0
    Sig[4, 1, 0] = np.eye(2)
    with pytest.raises(RegularityError, match="^rung 1 bar is") as info:
        mflqg.riccati._cond_violations(Sig, nodes, labels)
    assert info.value.t == 0.5


# ------------------------------------------------- the shared map's weights
#
# The oracles below are the weights Sigma = R + D' P D as the solvers
# once wrote them out, each on its own.

def _oracle_regularity(P, spec):
    """The pair solve's margins, (plain, barred) per player: P's are
    the plain ones and Pi's the barred ones."""
    _, _, _, D, _, _, R = _TimeArrays(spec, P.grid.nodes).pairs
    Sig = R + _T(D) @ P.values @ D
    m1 = spec.m1
    return (np.linalg.eigvalsh(Sig[..., :m1, :m1])[..., 0],
            np.linalg.eigvalsh(-Sig[..., m1:, m1:])[..., 0])


def _oracle_control_margins(spec, sol, player):
    """solve_control_riccati's (plain, barred) margins from its nodes."""
    ta = _TimeArrays(spec, sol.grid.nodes)
    c = slice(0, spec.m1) if player == 1 else slice(spec.m1, spec.m)
    weights = []
    for D, R in ((ta.D, ta.R), (ta.Dsum, ta.Rsum)):
        Dt = _T(D)[..., c, :]
        weights.append(R[..., c, c] + Dt @ sol.values @ D[..., c])
    sign = 1.0 if player == 1 else -1.0
    return np.linalg.eigvalsh(sign * np.stack(weights))[..., 0]


def _varying_game(n):
    """A solvable embedded random game with n states whose drift or
    control coefficient varies in time."""
    rng = np.random.default_rng(7)
    while True:
        spec = embed_perturbation(random_instance(rng), 0.5)
        co = spec.coefficients
        if spec.n != n or co.A.kind == co.B1.kind == "constant":
            continue
        try:
            solve_riccati_pair(spec, TimeGrid(1.0, 40))
        except RegularityError:
            continue
        return spec


def _map_games(case):
    """(game, P, Pi) of one case; a ladder rung's game is the
    embedding its shifted pair solves."""
    grid = TimeGrid(1.0, 150)
    if case == "ex52-ladder":
        spec, eps = make_example52(), EpsSchedule(0.1024, 0.5, 11).values
        pairs = mflqg.riccati._solve_pairs(spec, grid, eps)
        return [(embed_perturbation(spec, e), P, Pi)
                for e, (P, Pi) in zip(eps, pairs)]
    spec = (embed_perturbation(make_example61(), 0.5) if case == "ex61"
            else _varying_game(int(case[-1])))
    return [(spec, *solve_riccati_pair(spec, grid))]


_MAP_CASES = ["ex61", "ex52-ladder", "random-n1", "random-n2", "random-n3"]


@pytest.mark.parametrize("case", _MAP_CASES)
def test_regularity_margins_match_written_out_weights(case):
    for spec, P, Pi in _map_games(case):
        (m1p, m1b), (m2p, m2b) = _oracle_regularity(P, spec)
        for got, want in ((P.regularity_margin_1, m1p),
                          (P.regularity_margin_2, m2p),
                          (Pi.regularity_margin_1, m1b),
                          (Pi.regularity_margin_2, m2b)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", _MAP_CASES)
def test_control_margins_match_written_out_weights(case):
    for spec, _, _ in _map_games(case):
        for player in (1, 2):
            sol = solve_control_riccati(spec, TimeGrid(1.0, 150), player)
            mu, mub = _oracle_control_margins(spec, sol, player)
            assert sol.regularity_margin_1.tobytes() == mu.tobytes()
            assert sol.regularity_margin_2.tobytes() == mub.tobytes()
