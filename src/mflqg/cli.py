"""Command-line driver: solve, check, perturb, verify, reproduce.

Workflows operate on a JSON game config (see the README for the
schema) or one of the two bundled examples, and write CSV data plus a
JSON run report.  Exit codes: 0 success/pass, 1 verification or
classification failure, 2 input error, 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np

from ._integrate import IntegrationError
from .model import (DEFAULT_DELTA, SYMMETRY_TOL, CoefficientPath,
                    Coefficients, ControlLaw, CostWeights, GameSpec,
                    TimeGrid, embed_perturbation)
from .riccati import RegularityError, solve_riccati_pair
from .synthesis import (build_feedback, evaluate_functional,
                        evaluate_functional_mc, propagate_moments,
                        stationarity_residual, verify_saddle)
from .operators import build_section, check_necessary_condition
from .perturbation import EpsSchedule, classify_family, control_distance

__all__ = ["main", "load_config"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_EXAMPLE_IDS = ("52", "61")


class InputError(ValueError):
    """Bad config, flags, or candidate file: exit code 2."""


# -- config ---------------------------------------------------------------

def _path_from_config(obj, horizon: float, name: str) -> CoefficientPath:
    if not isinstance(obj, dict) or "kind" not in obj or "data" not in obj:
        raise InputError(f"{name}: path objects need 'kind' and 'data'")
    kind, data = obj["kind"], obj["data"]
    try:
        if kind == "constant":
            return CoefficientPath.constant(data, horizon)
        if kind == "piecewise":
            return CoefficientPath.piecewise(
                [(seg[0], seg[1]) for seg in data], horizon)
        if kind == "polynomial":
            return CoefficientPath.polynomial(data, horizon)
    except (ValueError, TypeError, IndexError) as exc:
        raise InputError(f"{name}: {exc}") from exc
    raise InputError(f"{name}: unknown path kind {kind!r} "
                     "(expected constant, piecewise, or polynomial)")


def load_config(path) -> tuple[GameSpec, dict]:
    """Parse a JSON game config into a GameSpec.

    Top-level keys: dims {n, m1, m2}, horizon, coefficients {...},
    weights {...}.  Coefficient and weight entries are path objects
    {kind, data} except G and Gbar, which are plain matrices.  Each
    section takes only its own dataclass's field names.  Anything
    omitted is zero.  The GameSpec decides what a game is; whatever it
    rejects is an input error here.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config is not valid JSON: {exc}") from exc
    try:
        dims = raw["dims"]
        # JSON does not tell 2.0 from 2
        n, m1, m2 = (int(v) if isinstance(v, float) and v.is_integer() else v
                     for v in [dims[key] for key in ("n", "m1", "m2")])
        horizon = raw["horizon"]
        if isinstance(horizon, bool) or not isinstance(horizon, (int, float)):
            raise ValueError(f"horizon must be a number, got {horizon!r}")
        horizon = float(horizon)
        GameSpec.check_dims(n, m1, m2, horizon)    # before any path on them
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"config needs dims{{n,m1,m2}} and horizon: {exc}")
    kw = {}
    for section, fields in (("coefficients", Coefficients),
                            ("weights", CostWeights)):
        names = [f.name for f in dataclasses.fields(fields)]
        for name, obj in (raw.get(section) or {}).items():
            key = f"{section}.{name}"
            if name not in names:
                raise InputError(f"{key}: not one of {', '.join(names)}")
            kw[name] = (obj if name in ("G", "Gbar")
                        else _path_from_config(obj, horizon, key))
    try:
        spec = GameSpec.from_matrices(n, m1, m2, horizon, **kw)
    except (ValueError, TypeError) as exc:
        raise InputError(f"config rejected: {exc}") from exc
    return spec, raw


def _config_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _bundled_config(example: str) -> Path:
    if example not in _EXAMPLE_IDS:
        raise InputError(f"unknown example id {example!r}; valid ids: "
                         + ", ".join(_EXAMPLE_IDS))
    return Path(str(resources.files("mflqg.data") / f"example{example}.json"))


def _load_spec(args) -> tuple[GameSpec, dict, str]:
    if getattr(args, "example", None):
        path = _bundled_config(args.example)
    elif getattr(args, "config", None):
        path = Path(args.config)
    else:
        raise InputError("need --config PATH or --example ID")
    spec, raw = load_config(path)
    return spec, raw, _config_hash(raw)


def _grid_from(args, spec: GameSpec, multiple_of: int = 1) -> TimeGrid:
    N = args.grid
    if N < 10:
        raise InputError(f"--grid must be at least 10, got {N}")
    # both end up in the report, where a NaN or infinity is not JSON
    for flag in ("tol", "delta"):
        value = getattr(args, flag, None)
        if value is not None and not np.isfinite(value):
            raise InputError(f"--{flag} must be finite, got {value}")
    if multiple_of > 1 and N % multiple_of:
        N += multiple_of - N % multiple_of
    return TimeGrid(spec.T, N)


def _x_from(args, spec: GameSpec) -> np.ndarray:
    if args.x is None:
        return np.ones(spec.n)
    try:
        vec = np.array([float(v) for v in args.x.split(",")])
    except ValueError as exc:
        raise InputError(f"--x must be comma-separated numbers: {exc}")
    if not np.all(np.isfinite(vec)):
        raise InputError(f"--x entries must be finite, got {args.x}")
    if vec.shape != (spec.n,):
        raise InputError(f"--x has {vec.shape[0]} entries, spec needs "
                         f"{spec.n}")
    return vec


# -- report plumbing ------------------------------------------------------

def _jsonable(x):
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _emit(report: dict, args, name: str) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=_jsonable)
    print(text)
    target = _out_path(args, f"{name}_report.json")
    if target:
        target.write_text(text + "\n")


def _out_path(args, filename: str) -> Path | None:
    if not getattr(args, "out", None):
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / filename


def _columns(prefix: str, shape: tuple) -> list:
    """Column names prefix_i_j.. of an array's entries, row-major."""
    return [f"{prefix}_" + "_".join(map(str, idx))
            for idx in np.ndindex(*shape)]


def _write_csv(path: Path, header: list, rows) -> None:
    """The one CSV dialect of every output file: a header row, floats
    as %.17g, strings as they are, lines ending in \\n."""
    lines = [header] + [[v if isinstance(v, str) else "%.17g" % v
                         for v in row] for row in rows]
    path.write_text("".join(",".join(line) + "\n" for line in lines),
                    newline="\n")


def _write_feedback(path: Path, law) -> None:
    """Boundary rows of a feedback law: t, then both gain matrices."""
    K, m, n = law.gain.shape
    _write_csv(path, ["t", *_columns("gain", (m, n)),
                      *_columns("mean_gain", (m, n))],
               np.column_stack((law.times, law.gain.reshape(K, -1),
                                law.mean_gain.reshape(K, -1)))[::2])


def _validation(spec: GameSpec) -> dict:
    """The checks every spec passed on construction, and its entries
    above 1e8, which are reported, not forbidden."""
    warnings = []
    for name, path in spec.paths().items():
        big = float(np.max(np.abs(path.stored_matrices())))
        if big > 1e8:
            warnings.append(f"{name}: entries up to {big:.3e}; conditioning "
                            "is reported, not forbidden")
    for name in ("G", "Gbar"):
        if np.max(np.abs(getattr(spec.weights, name))) > 1e8:
            warnings.append(f"{name}: extreme magnitude")
    return {"passed": True, "warnings": warnings,
            "symmetry_tol": SYMMETRY_TOL}


# -- commands -------------------------------------------------------------

def cmd_solve(args) -> int:
    """Closed-loop solve: Riccati pair, feedback gains, game value."""
    t_start = time.perf_counter()
    spec, raw, chash = _load_spec(args)
    if args.eps:
        try:
            spec = embed_perturbation(spec, args.eps)
        except ValueError as exc:
            raise InputError(f"--eps: {exc}") from exc
    grid = _grid_from(args, spec)
    if args.paths < 0 or args.paths == 1:
        raise InputError(f"--paths must be 0 or at least 2, got {args.paths}")
    if args.seed < 0:
        raise InputError(f"--seed must be at least 0, got {args.seed}")
    x = _x_from(args, spec)
    stages: dict = {"validation": _validation(spec)}

    t0 = time.perf_counter()
    P, Pi = solve_riccati_pair(spec, grid)
    t_riccati = time.perf_counter() - t0
    # Pi's margins are those of the barred weight along P; P is strongly
    # regular when all four reach delta
    margins = {"player_1": float(P.regularity_margin_1.min()),
               "player_2": float(P.regularity_margin_2.min()),
               "mean_player_1": float(Pi.regularity_margin_1.min()),
               "mean_player_2": float(Pi.regularity_margin_2.min())}
    stages["riccati"] = {
        "strongly_regular": all(v >= args.delta for v in margins.values()),
        "margins": {**margins, "required_at_least": args.delta},
        "residual": {"value": P.residual_norm,
                     "note": "midpoint defect of the stage-wise flow"},
        "asymmetry_sup": P.asymmetry_sup,
    }
    stages["mean_riccati"] = {
        "residual": {"value": Pi.residual_norm},
        "asymmetry_sup": Pi.asymmetry_sup,
    }

    law = build_feedback(spec, P, Pi)
    stat = stationarity_residual(spec, law)
    stages["feedback"] = {
        "stationarity_sup": {"value": stat, "tol": args.tol},
        "margin_1": law.margin_1,
        "margin_2": law.margin_2,
    }
    value = float(x @ law.initial_mean_riccati @ x)
    cost = evaluate_functional(spec, law, x)
    gap = {"value": abs(value - cost.value),
           "tol": 1e-4 * (1.0 + float(x @ x))}
    stages["value"] = {
        "x": x,
        "quadratic_form": value,
        "realized_cost": cost.value,
        "gap": gap,
        "control_norm_sq": cost.control_norm_sq,
    }
    if args.paths:
        mc = evaluate_functional_mc(spec, law, x, paths=args.paths,
                                    seed=args.seed)
        stages["monte_carlo"] = {
            "value": mc.value, "stderr": mc.stderr,
            "paths": mc.paths, "seed": mc.seed,
            "gap": {"value": abs(mc.value - cost.value),
                    "tol": "3 * stderr"},
        }

    if args.out:
        n, m = spec.n, spec.m
        for fname, sol in (("riccati.csv", P), ("mean_riccati.csv", Pi)):
            _write_csv(_out_path(args, fname), ["t", *_columns("P", (n, n))],
                       np.column_stack((grid.nodes,
                                        sol.values.reshape(grid.N + 1, -1))))
        _write_feedback(_out_path(args, "feedback.csv"), law)
        mo = propagate_moments(spec, law, x)
        K = mo.times.shape[0]
        _write_csv(_out_path(args, "moments.csv"),
                   ["t", *_columns("mean", (n,)), *_columns("cov", (n, n)),
                    *_columns("control_mean", (m,))],
                   np.column_stack((mo.times, mo.mean, mo.cov.reshape(K, -1),
                                    mo.control_mean))[::2])

    report = {
        "command": "solve",
        "config_hash": chash,
        "grid": grid.N,
        "eps_embedded": args.eps or 0.0,
        "stages": stages,
        "timings": {"riccati_s": round(t_riccati, 4),
                    "total_s": round(time.perf_counter() - t_start, 4)},
    }
    _emit(report, args, "solve")
    # the Monte Carlo gap's "3 * stderr" is informational
    passed = stat <= args.tol and gap["value"] <= gap["tol"]
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_check(args) -> int:
    """Necessary-condition check on a finite operator section."""
    t_start = time.perf_counter()
    spec, raw, chash = _load_spec(args)
    if args.blocks < 1:
        raise InputError(f"--blocks must be at least 1, got {args.blocks}")
    grid = _grid_from(args, spec, multiple_of=args.blocks)
    section = build_section(spec, grid, args.blocks)
    sign = check_necessary_condition(section, tol=args.tol)
    if args.out:
        _write_csv(_out_path(args, "section.csv"), ["part", "i", "j", "value"],
                   ([name, i, j, mat[i, j]] for name, mat in (
                       ("M", section.m_section.matrix),
                       ("K", section.k_section), ("O", section.o_section))
                    for i, j in np.ndindex(*mat.shape)))
    report = {
        "command": "check",
        "config_hash": chash,
        "grid": grid.N,
        "blocks": args.blocks,
        "necessary_condition": {
            "passed": sign.passed,
            "conclusive": sign.conclusive,
            "note": ("sign failure certifies no open-loop saddle exists; "
                     "a pass is evidence only (finite deterministic "
                     "section)"),
            "min_eig_player_1": {"value": sign.min_eig_1,
                                 "tol": -sign.tol},
            "max_eig_player_2": {"value": sign.max_eig_2,
                                 "tol": sign.tol},
        },
        "timings": {"total_s": round(time.perf_counter() - t_start, 4)},
    }
    if sign.witness is not None:
        report["necessary_condition"]["witness"] = sign.witness
        report["necessary_condition"]["witness_value"] = section.value(
            np.zeros(spec.n), sign.witness)
    _emit(report, args, "check")
    return EXIT_PASS if sign.passed else EXIT_FAIL


def cmd_perturb(args) -> int:
    """Convexification sweep and open-loop solvability verdict."""
    t_start = time.perf_counter()
    spec, raw, chash = _load_spec(args)
    grid = _grid_from(args, spec)
    x = _x_from(args, spec)
    try:
        schedule = EpsSchedule(args.eps0, args.eps_factor, args.eps_steps)
    except ValueError as exc:
        raise InputError(f"--eps0, --eps-factor, --eps-steps: {exc}") from exc
    family = classify_family(spec, schedule, x, grid, tol=args.tol)
    if args.out:
        _write_csv(_out_path(args, "family.csv"),
                   ["eps", "control_norm", "value"],
                   ([it.eps, it.norm, it.value] for it in family.iterates))
    report = {
        "command": "perturb",
        "config_hash": chash,
        "grid": grid.N,
        "x": x,
        "schedule": {"eps0": schedule.eps0, "factor": schedule.factor,
                     "count": schedule.count},
        "verdict": family.verdict,
        "growth_exponent": {"value": family.exponent,
                            "solvable_below": 0.1,
                            "not_solvable_above": 0.9},
        "norms": family.norms,
        "values": family.values,
        "distances": {"values": family.distances, "cauchy_tol": args.tol},
        "timings": {"total_s": round(time.perf_counter() - t_start, 4)},
    }
    ok = family.verdict in ("solvable", "not-solvable")
    if family.verdict == "solvable":
        saddle = family.saddle
        report["limit"] = {
            "eps": family.iterates[-1].eps,
            "control_norm": family.norms[-1],
            "saddle_verified": bool(saddle and saddle.is_saddle),
        }
        if saddle is not None:
            report["limit"]["saddle"] = {
                "stationarity_sup": {"value": saddle.stationarity_sup,
                                     "tol": saddle.tol},
                "curvature_min_player_1": {
                    "value": saddle.curvature_min_1,
                    "tol": -saddle.curvature_tol},
                "curvature_max_player_2": {
                    "value": saddle.curvature_max_2,
                    "tol": saddle.curvature_tol},
            }
        ok = ok and bool(saddle and saddle.is_saddle)
        if args.out:
            _write_feedback(_out_path(args, "limit_feedback.csv"),
                            family.limit)
    _emit(report, args, "perturb")
    return EXIT_PASS if ok else EXIT_FAIL


def _load_candidate(path, spec: GameSpec, grid: TimeGrid) -> ControlLaw:
    """Read a control law from CSV.

    Header must contain t and offset_i columns; gain_i_j and
    mean_gain_i_j columns are optional (zero when absent).  Values are
    interpolated linearly onto the grid.
    """
    try:
        table = np.genfromtxt(path, delimiter=",", names=True)
    except OSError as exc:
        raise InputError(f"cannot read candidate: {exc}") from exc
    if table.dtype.names is None or "t" not in table.dtype.names:
        raise InputError("candidate CSV needs a header with a t column")
    table = np.atleast_1d(table)
    if not table.shape[0]:
        raise InputError("candidate CSV has no rows")
    cols = table.dtype.names

    def column(name):
        if not np.all(np.isfinite(table[name])):
            raise InputError(f"candidate CSV column {name} has a "
                             "non-numeric or non-finite cell")
        return table[name]

    ts = column("t")
    if np.any(np.diff(ts) <= 0):
        raise InputError("candidate CSV times must increase strictly")
    m, n = spec.m, spec.n
    half = grid.half_times

    def gather(prefix, shape):
        names = _columns(prefix, shape)
        if not any(nm in cols for nm in names):
            return None
        missing = [nm for nm in names if nm not in cols]
        if missing:
            raise InputError(f"candidate CSV is missing columns: "
                             f"{', '.join(missing)}")
        flat = np.stack([np.interp(half, ts, column(nm)) for nm in names],
                        axis=1)
        return flat.reshape((half.shape[0],) + shape)

    offset = gather("offset", (m,))
    if offset is None:
        raise InputError("candidate CSV needs offset_0.. columns")
    gain = gather("gain", (m, n))
    mean_gain = gather("mean_gain", (m, n))
    zero = ControlLaw.zero(spec, grid)
    return ControlLaw(times=zero.times,
                      gain=zero.gain if gain is None else gain,
                      mean_gain=(zero.mean_gain if mean_gain is None
                                 else mean_gain),
                      offset=offset)


def cmd_verify(args) -> int:
    """Open-loop saddle verification of a candidate control law."""
    t_start = time.perf_counter()
    spec, raw, chash = _load_spec(args)
    grid = _grid_from(args, spec)
    x = _x_from(args, spec)
    if not args.candidate:
        raise InputError("verify needs --candidate PATH (control law CSV)")
    law = _load_candidate(args.candidate, spec, grid)
    result = verify_saddle(spec, law, x, tol=args.tol)
    report = {
        "command": "verify",
        "config_hash": chash,
        "grid": grid.N,
        "x": x,
        "candidate": str(args.candidate),
        "is_saddle": result.is_saddle,
        "value": result.value,
        "stationarity_sup": {"value": result.stationarity_sup,
                             "tol": result.tol},
        "curvature_min_player_1": {"value": result.curvature_min_1,
                                   "tol": -result.curvature_tol},
        "curvature_max_player_2": {"value": result.curvature_max_2,
                                   "tol": result.curvature_tol},
        "quadratic_defect": result.quadratic_defect,
        "directions": {
            "player": result.players,
            "linear_term": result.stationarity,
            "quadratic_term": result.curvature,
        },
        "timings": {"total_s": round(time.perf_counter() - t_start, 4)},
    }
    _emit(report, args, "verify")
    return EXIT_PASS if result.is_saddle else EXIT_FAIL


# -- reproduce ------------------------------------------------------------

def _row(name: str, measured: float, tol: float) -> dict:
    return {"check": name, "measured": float(measured), "tol": float(tol),
            "passed": bool(measured <= tol)}


def _reproduce_61() -> tuple[list, dict]:
    spec, raw = load_config(_bundled_config("61"))
    rows = []
    grid = TimeGrid(spec.T, 1000)
    for eps in (1.0, 0.5, 0.25, 0.1):
        shifted = embed_perturbation(spec, eps)
        P, Pi = solve_riccati_pair(shifted, grid)
        # closed form of the shifted equations: both matrix paths equal
        # -(1+eps)/(s+eps), and the minimizing gain is 1/(s+eps)
        nodes = P.grid.nodes
        exact = -(1.0 + eps) / (nodes + eps)
        err_p = np.max(np.abs(P.values[:, 0, 0] - exact))
        err_pi = np.max(np.abs(Pi.values[:, 0, 0] - exact))
        rows.append(_row(f"riccati_error_eps_{eps}", err_p, 1e-6))
        rows.append(_row(f"mean_riccati_error_eps_{eps}", err_pi, 1e-6))
        law = build_feedback(shifted, P, Pi)
        texact = 1.0 / (law.times + eps)
        err_gain = max(np.max(np.abs(law.gain[:, 0, 0] - texact)),
                       np.max(np.abs(law.gain[:, 1, 0])),
                       np.max(np.abs(law.mean_gain[:, 0, 0] - texact)),
                       np.max(np.abs(law.mean_gain[:, 1, 0])))
        rows.append(_row(f"gain_error_eps_{eps}", err_gain, 1e-6))
        cost = evaluate_functional(shifted, law, [1.0])
        rows.append(_row(f"norm_sq_rel_error_eps_{eps}",
                         abs(cost.control_norm_sq * eps * eps - 1.0), 1e-6))
        rows.append(_row(f"value_error_eps_{eps}",
                         abs(law.value_at(np.ones(1)) + (1.0 + eps) / eps),
                         1e-6))
    # solvability verdicts from the convexification sweep
    cgrid = TimeGrid(spec.T, 250)
    fam1 = classify_family(spec, EpsSchedule(0.5, 0.5, 14), [1.0], cgrid)
    rows.append(_row("exponent_error_x_1", abs(fam1.exponent - 1.0), 0.05))
    rows.append({"check": "verdict_x_1", "measured": fam1.verdict,
                 "tol": "not-solvable",
                 "passed": fam1.verdict == "not-solvable"})
    fam0 = classify_family(spec, EpsSchedule(0.5, 0.5, 14), [0.0], cgrid)
    rows.append({"check": "verdict_x_0", "measured": fam0.verdict,
                 "tol": "solvable",
                 "passed": fam0.verdict == "solvable"})
    rows.append(_row("limit_norm_x_0", fam0.norms[-1], 1e-12))
    rows.append({"check": "limit_saddle_x_0",
                 "measured": bool(fam0.saddle and fam0.saddle.is_saddle),
                 "tol": "pass",
                 "passed": bool(fam0.saddle and fam0.saddle.is_saddle)})
    extras = {"x_1_norms_head": fam1.norms[:3]}
    return rows, extras


def _reproduce_52() -> tuple[list, dict]:
    spec, raw = load_config(_bundled_config("52"))
    rows = []
    grid = TimeGrid(spec.T, 2000)
    schedule = EpsSchedule(0.1024, 0.5, 11)    # ends at eps = 1e-4
    family = classify_family(spec, schedule, [1.0], grid, verify=False)
    rows.append({"check": "verdict_x_1", "measured": family.verdict,
                 "tol": "solvable", "passed": family.verdict == "solvable"})
    target = ControlLaw.from_offset(spec, grid, np.array([0.0, -1.0]))
    dist = control_distance(spec, family.limit, target, [1.0])
    rows.append(_row("limit_distance_to_saddle", dist, 1e-2))
    rows.append(_row("norm_bound_excess",
                     float(np.max(family.norms)) - 1.0, 1e-6))
    # the known saddle itself must verify on the original game
    check = verify_saddle(spec, target, [1.0])
    rows.append({"check": "saddle_verifies", "measured": check.is_saddle,
                 "tol": "pass", "passed": check.is_saddle})
    rows.append(_row("saddle_stationarity", check.stationarity_sup, 1e-6))
    extras = {"family_norms": family.norms,
              "saddle_value": check.value}
    return rows, extras


def cmd_reproduce(args) -> int:
    """Analytic-example regression table; exit 0 iff every row passes."""
    t_start = time.perf_counter()
    if args.example_id not in _EXAMPLE_IDS:
        raise InputError(f"unknown example id {args.example_id!r}; "
                         f"valid ids: {', '.join(_EXAMPLE_IDS)}")
    rows, extras = (_reproduce_61() if args.example_id == "61"
                    else _reproduce_52())
    width = max(len(r["check"]) for r in rows)
    for r in rows:
        mark = "PASS" if r["passed"] else "FAIL"
        if isinstance(r["measured"], float):
            print(f"{mark}  {r['check']:<{width}}  measured="
                  f"{r['measured']:.3e}  tol={r['tol']}")
        else:
            print(f"{mark}  {r['check']:<{width}}  measured="
                  f"{r['measured']}  expected={r['tol']}")
    all_pass = all(r["passed"] for r in rows)
    report = {
        "command": "reproduce",
        "example": args.example_id,
        "rows": rows,
        "extras": extras,
        "all_passed": all_pass,
        "timings": {"total_s": round(time.perf_counter() - t_start, 4)},
    }
    _emit(report, args, f"reproduce{args.example_id}")
    return EXIT_PASS if all_pass else EXIT_FAIL


# -- parser ---------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, tol: float) -> None:
    p.add_argument("--config", help="path to a JSON game config")
    p.add_argument("--example", choices=_EXAMPLE_IDS,
                   help="use a bundled example config instead")
    p.add_argument("--grid", type=int, default=2000,
                   help="time-grid intervals (default 2000)")
    p.add_argument("--x", help="initial state, comma-separated "
                   "(default all ones)")
    p.add_argument("--tol", type=float, default=tol,
                   help="command tolerance (default %(default)g)")
    p.add_argument("--out", help="directory for CSV and report files")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mflqg",
        description="Two-player zero-sum mean-field LQ game solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="closed-loop Riccati solve and value")
    _add_common(p, 1e-6)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA,
                   help="uniform definiteness margin (default %(default)g)")
    p.add_argument("--eps", type=float, default=0.0,
                   help="convexifying shift to embed before solving")
    p.add_argument("--paths", type=int, default=0,
                   help="Monte Carlo cross-check paths (0 = off)")
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="necessary-condition section check")
    _add_common(p, 1e-9)
    p.add_argument("--blocks", type=int, default=16,
                   help="basis blocks per control coordinate (default 16)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("perturb", help="convexification family classifier")
    _add_common(p, 1e-2)
    p.add_argument("--eps0", type=float, default=0.5,
                   help="largest shift in the schedule (default 0.5)")
    p.add_argument("--eps-factor", type=float, default=0.5,
                   help="geometric decay per step (default 0.5)")
    p.add_argument("--eps-steps", type=int, default=14,
                   help="schedule length (default 14)")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("verify", help="verify a candidate open-loop saddle")
    _add_common(p, 1e-6)
    p.add_argument("--candidate", help="control-law CSV to verify")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce", help="regression table for a bundled "
                       "example")
    p.add_argument("example_id", help="bundled example id (52 or 61)")
    p.add_argument("--out", help="directory for the report file")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RegularityError, IntegrationError) as exc:
        t = getattr(exc, "t", None)
        where = f" near t = {t:.6g}" if t is not None else ""
        if args.command == "perturb":
            way_out = ("the rung at the eps named above has no regular "
                       "solution on this grid; a larger smallest eps "
                       "(a larger --eps0 or fewer --eps-steps) may keep "
                       "every rung solvable")
        else:
            way_out = ("the closed-loop equations have no regular "
                       "solution for this data (a convexifying --eps "
                       "shift may make the game solvable)")
        print(f"numerical breakdown{where}: {exc}\n"
              "hint: a weight block loses definiteness or the flow "
              f"escapes near this time; {way_out}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
