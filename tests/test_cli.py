"""Command-line interface: exit codes, reports, file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mflqg
from mflqg.cli import (EXIT_FAIL, EXIT_INPUT, EXIT_NUMERIC, EXIT_PASS,
                       load_config, main)
from mflqg.model import TimeGrid, embed_perturbation
from mflqg.riccati import solve_riccati_pair


def _strict(constant):
    raise ValueError(f"report is not valid JSON: {constant}")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = None
    if captured.out.strip().startswith("{"):
        report = json.loads(captured.out, parse_constant=_strict)
    return code, report, captured


_EXAMPLE61 = Path(mflqg.__file__).parent / "data" / "example61.json"


def strip_timings(report):
    return {k: v for k, v in report.items() if k != "timings"}


# -------------------------------------------------------------- solve

def test_solve_embedded_example(capsys, tmp_path):
    code, rep, _ = run(capsys, "solve", "--example", "61", "--eps", "1",
                       "--grid", "200", "--out", str(tmp_path))
    assert code == EXIT_PASS
    stages = rep["stages"]
    assert stages["riccati"]["strongly_regular"] is True
    assert stages["riccati"]["margins"]["player_1"] >= 1.9
    assert stages["value"]["quadratic_form"] == pytest.approx(-2.0,
                                                              abs=1e-6)
    assert stages["value"]["gap"]["value"] <= stages["value"]["gap"]["tol"]
    assert stages["feedback"]["stationarity_sup"]["value"] <= 1e-6
    for name in ("riccati.csv", "mean_riccati.csv", "feedback.csv",
                 "moments.csv", "solve_report.json"):
        assert (tmp_path / name).exists()


def test_solve_outputs_are_deterministic(capsys, tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    _, rep_a, _ = run(capsys, "solve", "--example", "61", "--eps", "0.5",
                      "--grid", "120", "--out", str(a_dir))
    _, rep_b, _ = run(capsys, "solve", "--example", "61", "--eps", "0.5",
                      "--grid", "120", "--out", str(b_dir))
    assert strip_timings(rep_a) == strip_timings(rep_b)
    for name in ("riccati.csv", "feedback.csv", "moments.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_solve_reports_the_pair_solves_margins(capsys):
    code, rep, _ = run(capsys, "solve", "--example", "61", "--eps", "0.5",
                       "--grid", "200")
    assert code == EXIT_PASS
    spec, _ = load_config(_EXAMPLE61)
    P, Pi = solve_riccati_pair(embed_perturbation(spec, 0.5),
                               TimeGrid(1.0, 200))
    riccati = rep["stages"]["riccati"]
    assert riccati["strongly_regular"] is True
    margins = dict(riccati["margins"])
    assert margins.pop("required_at_least") == 1e-8
    assert margins == {"player_1": P.regularity_margin_1.min(),
                       "player_2": P.regularity_margin_2.min(),
                       "mean_player_1": Pi.regularity_margin_1.min(),
                       "mean_player_2": Pi.regularity_margin_2.min()}


def test_strong_regularity_is_every_margin_against_delta(capsys):
    args = ("solve", "--example", "61", "--eps", "0.5", "--grid", "40")
    _, rep, _ = run(capsys, *args)
    smallest = min(v for k, v in rep["stages"]["riccati"]["margins"].items()
                   if k != "required_at_least")
    for delta, regular in ((np.nextafter(smallest, -np.inf), True),
                           (smallest, True),
                           (np.nextafter(smallest, np.inf), False)):
        _, rep, _ = run(capsys, *args, "--delta", repr(float(delta)))
        riccati = rep["stages"]["riccati"]
        assert riccati["margins"]["required_at_least"] == delta
        assert riccati["strongly_regular"] is regular, delta


def test_solve_reports_the_checks_its_spec_passed(capsys, tmp_path):
    cfg = {"dims": {"n": 1, "m1": 1, "m2": 1}, "horizon": 1.0,
           "coefficients": {"B1": {"kind": "constant", "data": [[1.0]]},
                            "B2": {"kind": "constant", "data": [[1.0]]}},
           "weights": {"G": [[1.0]],
                       "R11": {"kind": "constant", "data": [[2e8]]},
                       "R22": {"kind": "constant", "data": [[-1.0]]}}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    code, rep, _ = run(capsys, "solve", "--config", str(path), "--grid", "20")
    assert code == EXIT_FAIL
    assert rep["stages"]["validation"] == {
        "passed": True, "symmetry_tol": 1e-12,
        "warnings": ["R11: entries up to 2.000e+08; conditioning is "
                     "reported, not forbidden"]}


def test_solve_reports_breakdown_without_embedding(capsys):
    code, _, cap = run(capsys, "solve", "--example", "61",
                       "--grid", "200")
    assert code == EXIT_NUMERIC
    assert "numerical breakdown" in cap.err
    assert "--eps" in cap.err           # the hint names the way out


def test_solve_degenerate_weights_hit_singular_solve(capsys):
    code, _, cap = run(capsys, "solve", "--example", "52",
                       "--grid", "100")
    assert code == EXIT_NUMERIC
    assert "singular" in cap.err


def test_solve_stalled_refinement_exits_numeric():
    # a random game (embedded at eps = 0.5) whose pair flow loses strong
    # regularity near t = 0.0041 without escaping: refinement crawls at
    # steps near 1e-10 until the per-interval work bound stops it.  Run
    # in a child process, so a crawl fails the test instead of hanging.
    config = Path(__file__).parent / "data" / "stalled_flow.json"
    env = dict(os.environ, PYTHONPATH=str(Path(mflqg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "mflqg.cli", "solve", "--config",
         str(config), "--eps", "0.5", "--grid", "50"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    assert "segments in one grid interval" in proc.stderr


def test_solve_at_the_pole_does_not_pass(capsys):
    # plain ex61 escapes at t = 0 (P = -1/t).  On N = 41 the flow
    # crosses the growth bound only in the value stored at t = 0; on
    # N = 20 it stays under the bound, and the value gap fails instead
    code, _, cap = run(capsys, "solve", "--example", "61", "--grid", "41")
    assert code == EXIT_NUMERIC
    assert "exploded near t = 0;" in cap.err
    code, rep, _ = run(capsys, "solve", "--example", "61", "--grid", "20")
    assert code == EXIT_FAIL
    assert rep["stages"]["value"]["gap"]["value"] > 1e8


def test_solve_fails_past_its_tolerances(capsys):
    args = ("solve", "--example", "61", "--eps", "0.5", "--grid", "40")
    code, rep, _ = run(capsys, *args)
    assert code == EXIT_PASS
    code, rep, _ = run(capsys, *args, "--tol", "1e-30")
    assert code == EXIT_FAIL
    stat = rep["stages"]["feedback"]["stationarity_sup"]
    assert stat["tol"] == 1e-30 < stat["value"]


def test_solve_rejects_wrong_state_length(capsys):
    code, _, cap = run(capsys, "solve", "--example", "61", "--eps", "1",
                       "--x", "1,2")
    assert code == EXIT_INPUT
    assert "error:" in cap.err


def test_solve_rejects_tiny_grid(capsys):
    code, _, cap = run(capsys, "solve", "--example", "61", "--eps", "1",
                       "--grid", "4")
    assert code == EXIT_INPUT
    assert "at least 10" in cap.err


def test_solve_with_monte_carlo_stage(capsys):
    code, rep, _ = run(capsys, "solve", "--example", "61", "--eps", "1",
                       "--grid", "120", "--paths", "500", "--seed", "3")
    assert code == EXIT_PASS
    mc = rep["stages"]["monte_carlo"]
    assert mc["paths"] == 500
    assert abs(mc["value"] - rep["stages"]["value"]["quadratic_form"]) \
        <= 3.0 * mc["stderr"] + 1e-6


# -------------------------------------------------------------- check

def test_check_passes_on_bundled_example(capsys):
    code, rep, _ = run(capsys, "check", "--example", "61",
                       "--grid", "160", "--blocks", "8")
    assert code == EXIT_PASS
    nc = rep["necessary_condition"]
    assert nc["passed"] is True
    assert nc["conclusive"] is False
    assert "witness" not in nc


def test_check_fails_with_witness_on_flipped_terminal(capsys, tmp_path):
    cfg = {
        "dims": {"n": 1, "m1": 1, "m2": 1},
        "horizon": 1.0,
        "coefficients": {
            "B1": {"kind": "constant", "data": [[1.0]]},
            "D2": {"kind": "constant", "data": [[1.0]]},
        },
        "weights": {
            "G": [[1.0]],
            "R11": {"kind": "constant", "data": [[1.0]]},
        },
    }
    path = tmp_path / "nosaddle.json"
    path.write_text(json.dumps(cfg))
    code, rep, _ = run(capsys, "check", "--config", str(path),
                       "--grid", "160", "--blocks", "8")
    assert code == EXIT_FAIL
    nc = rep["necessary_condition"]
    assert nc["passed"] is False
    assert nc["conclusive"] is True
    assert nc["max_eig_player_2"]["value"] > 0.9
    assert nc["witness_value"] > 0.9
    assert len(nc["witness"]) == 16


# ------------------------------------------------------------ perturb

def test_perturb_flat_family(capsys, tmp_path):
    code, rep, _ = run(capsys, "perturb", "--example", "61",
                       "--x", "0", "--grid", "100",
                       "--eps0", "0.5", "--eps-steps", "6",
                       "--out", str(tmp_path))
    assert code == EXIT_PASS
    assert rep["verdict"] == "solvable"
    assert rep["limit"]["saddle_verified"] is True
    assert rep["limit"]["control_norm"] <= 1e-9
    assert (tmp_path / "family.csv").exists()
    assert (tmp_path / "limit_feedback.csv").exists()
    lines = (tmp_path / "family.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,control_norm,value"
    assert len(lines) == 7


def test_perturb_blowup_family(capsys):
    code, rep, _ = run(capsys, "perturb", "--example", "61",
                       "--x", "1", "--grid", "100",
                       "--eps0", "0.5", "--eps-steps", "8")
    # a definitive not-solvable verdict is a successful classification
    assert code == EXIT_PASS
    assert rep["verdict"] == "not-solvable"
    assert abs(rep["growth_exponent"]["value"] - 1.0) <= 0.05
    assert rep["growth_exponent"]["not_solvable_above"] == 0.9
    assert "limit" not in rep


def test_perturb_certifies_degenerate_limit(capsys):
    # the limit law is certified on the game shifted by limit.eps, the
    # game it solves
    code, rep, _ = run(capsys, "perturb", "--example", "52",
                       "--grid", "500")
    assert code == EXIT_PASS
    assert rep["verdict"] == "solvable"
    assert rep["limit"]["saddle_verified"] is True
    stat = rep["limit"]["saddle"]["stationarity_sup"]
    assert stat["value"] <= stat["tol"]


def test_perturb_breakdown_hint_suggests_schedule_flags(capsys):
    # the 1e-10 rung's terminal layer escapes just above t = 0
    code, _, cap = run(capsys, "perturb", "--example", "61", "--x", "1",
                       "--grid", "100", "--eps0", "1e-6",
                       "--eps-factor", "0.01", "--eps-steps", "3")
    assert code == EXIT_NUMERIC
    assert "eps = 1e-10" in cap.err
    hint = cap.err.split("hint:", 1)[1]
    assert "--eps0" in hint and "--eps-steps" in hint
    assert "--eps " not in hint         # perturb has no --eps flag


# ------------------------------------------------------------- verify

def _write_candidate(path, times, offsets, extra=None):
    cols = ["t"] + [f"offset_{i}" for i in range(offsets.shape[1])]
    data = np.column_stack([times, offsets])
    if extra:
        for name, vals in extra.items():
            cols.append(name)
            data = np.column_stack([data, vals])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in data:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def test_verify_accepts_saddle_candidate(capsys, tmp_path):
    times = np.linspace(0.0, 1.0, 21)
    offsets = np.column_stack([np.zeros(21), -np.ones(21)])
    cand = tmp_path / "cand.csv"
    _write_candidate(cand, times, offsets)
    code, rep, _ = run(capsys, "verify", "--example", "52",
                       "--grid", "300", "--candidate", str(cand))
    assert code == EXIT_PASS
    assert rep["is_saddle"] is True
    assert abs(rep["value"]) <= 1e-9
    assert rep["stationarity_sup"]["value"] <= 1e-9
    assert rep["curvature_min_player_1"]["value"] > 0


def test_verify_rejects_shifted_candidate(capsys, tmp_path):
    times = np.linspace(0.0, 1.0, 21)
    offsets = np.column_stack([np.full(21, 0.3), -np.ones(21)])
    cand = tmp_path / "cand.csv"
    _write_candidate(cand, times, offsets)
    code, rep, _ = run(capsys, "verify", "--example", "52",
                       "--grid", "300", "--candidate", str(cand))
    assert code == EXIT_FAIL
    assert rep["is_saddle"] is False
    assert rep["stationarity_sup"]["value"] == pytest.approx(0.3,
                                                             abs=1e-6)


def test_verify_requires_candidate(capsys):
    code, _, cap = run(capsys, "verify", "--example", "52")
    assert code == EXIT_INPUT
    assert "candidate" in cap.err


def test_verify_rejects_partial_gain_columns(capsys, tmp_path):
    times = np.linspace(0.0, 1.0, 5)
    offsets = np.zeros((5, 2))
    cand = tmp_path / "cand.csv"
    _write_candidate(cand, times, offsets,
                     extra={"gain_0_0": np.ones(5)})
    code, _, cap = run(capsys, "verify", "--example", "52",
                       "--candidate", str(cand))
    assert code == EXIT_INPUT
    assert "gain" in cap.err


def test_verify_rejects_non_numeric_cell(capsys, tmp_path):
    cand = tmp_path / "cand.csv"
    cand.write_text("t,offset_0,offset_1\n0,0,-1\n0.5,abc,-1\n1,0,-1\n")
    code, rep, cap = run(capsys, "verify", "--example", "52",
                         "--candidate", str(cand))
    assert code == EXIT_INPUT
    assert rep is None
    assert "offset_0" in cap.err


def test_verify_rejects_candidate_without_rows(capsys, tmp_path):
    cand = tmp_path / "cand.csv"
    cand.write_text("t,offset_0,offset_1\n")
    code, rep, cap = run(capsys, "verify", "--example", "52",
                         "--candidate", str(cand))
    assert code == EXIT_INPUT
    assert rep is None
    assert "candidate CSV has no rows" in cap.err


def test_verify_rejects_unsorted_times(capsys, tmp_path):
    times = np.array([0.0, 0.5, 0.25, 1.0])
    offsets = np.zeros((4, 2))
    cand = tmp_path / "cand.csv"
    _write_candidate(cand, times, offsets)
    code, _, cap = run(capsys, "verify", "--example", "52",
                       "--candidate", str(cand))
    assert code == EXIT_INPUT
    assert "increase" in cap.err


@pytest.mark.parametrize("argv", [
    ("solve", "--eps", "-0.5"),
    ("solve", "--paths", "-3"),
    ("solve", "--paths", "1"),
    ("solve", "--x", "nan"),
    ("perturb", "--eps0", "-1"),
    ("perturb", "--eps-factor", "1.5"),
    ("perturb", "--eps-steps", "1"),
    ("check", "--blocks", "0"),
    ("check", "--blocks", "-4"),
    ("solve", "--delta", "nan"),
    ("solve", "--delta", "inf"),
    ("solve", "--tol", "nan"),
    ("check", "--tol", "nan"),
    ("perturb", "--tol", "nan"),
    ("verify", "--tol", "inf"),
    ("solve", "--seed", "-1", "--paths", "10"),
], ids=" ".join)
def test_invalid_numeric_flags_are_input_errors(capsys, argv):
    code, rep, cap = run(capsys, *argv, "--example", "61", "--grid", "40")
    assert code == EXIT_INPUT
    assert rep is None
    assert cap.err.startswith("error: ") and argv[1] in cap.err


@pytest.mark.parametrize("command", ["check", "perturb", "verify"])
def test_only_solve_takes_delta(capsys, command):
    # the margin delta belongs to the closed-loop solve alone
    with pytest.raises(SystemExit) as info:
        main([command, "--example", "61", "--grid", "40", "--delta", "0.1"])
    assert info.value.code == EXIT_INPUT
    assert "--delta" in capsys.readouterr().err


def test_solve_reports_its_tol(capsys):
    code, rep, _ = run(capsys, "solve", "--example", "61", "--eps", "0.5",
                       "--grid", "40", "--tol", "1e-3")
    assert code == EXIT_PASS
    assert rep["stages"]["feedback"]["stationarity_sup"]["tol"] == 1e-3


# ------------------------------------------------------- output files

_OUTPUT_RUNS = {
    "solve": ("solve", "--example", "61", "--eps", "0.5", "--grid", "100"),
    "check": ("check", "--example", "61", "--grid", "100", "--blocks", "2"),
    "perturb": ("perturb", "--example", "61", "--x", "0", "--grid", "100",
                "--eps-steps", "4"),
}


@pytest.mark.parametrize("command", sorted(_OUTPUT_RUNS))
def test_every_csv_has_one_dialect(capsys, tmp_path, command):
    # a header row, %.17g numbers, lines ending in \n, the same bytes on
    # every run
    files = []
    for out in (tmp_path / "a", tmp_path / "b"):
        code, _, _ = run(capsys, *_OUTPUT_RUNS[command], "--out", str(out))
        assert code == EXIT_PASS
        files.append({p.name: p.read_bytes()
                      for p in sorted(out.glob("*.csv"))})
    assert files[0] == files[1]
    assert files[0], "no CSV written"
    for name, data in files[0].items():
        assert b"\r" not in data, name
        header, *rows = data.decode().split("\n")[:-1]
        assert rows and all(not _is_number(c) for c in header.split(",")), name
        numbers = [c for row in rows for c in row.split(",") if _is_number(c)]
        assert numbers, name
        for cell in numbers:
            assert "%.17g" % float(cell) == cell, (name, cell)


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _csv_lines(path):
    return path.read_text().strip().splitlines()


def test_solve_writes_riccati_csv(capsys, tmp_path):
    code, _, _ = run(capsys, "solve", "--example", "61", "--eps", "1",
                     "--grid", "50", "--out", str(tmp_path))
    assert code == EXIT_PASS
    P, Pi = solve_riccati_pair(embed_perturbation(
        load_config(_EXAMPLE61)[0], 1.0), TimeGrid(1.0, 50))
    for name, sol in (("riccati.csv", P), ("mean_riccati.csv", Pi)):
        lines = _csv_lines(tmp_path / name)
        assert lines[0] == "t,P_0_0"
        assert len(lines) == 50 + 2
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == sol.values[0, 0, 0]


def test_solve_writes_feedback_and_moments_csv(capsys, tmp_path):
    code, _, _ = run(capsys, "solve", "--example", "61", "--eps", "0.5",
                     "--grid", "500", "--out", str(tmp_path))
    assert code == EXIT_PASS
    lines = _csv_lines(tmp_path / "feedback.csv")
    assert lines[0] == "t,gain_0_0,gain_1_0,mean_gain_0_0,mean_gain_1_0"
    assert len(lines) == 502    # header + N+1 boundary rows
    lines = _csv_lines(tmp_path / "moments.csv")
    assert lines[0] == "t,mean_0,cov_0_0,control_mean_0,control_mean_1"
    assert len(lines) == 502
    assert all(len(row.split(",")) == 5 for row in lines[1:])


def test_perturb_writes_family_csv(capsys, tmp_path):
    code, _, _ = run(capsys, "perturb", "--example", "61", "--x", "0",
                     "--grid", "50", "--eps0", "0.5", "--eps-steps", "3",
                     "--out", str(tmp_path))
    assert code == EXIT_PASS
    lines = _csv_lines(tmp_path / "family.csv")
    assert lines[0] == "eps,control_norm,value"
    assert len(lines) == 4
    assert float(lines[1].split(",")[0]) == 0.5


def test_check_writes_section_csv(capsys, tmp_path):
    code, _, _ = run(capsys, "check", "--example", "61", "--grid", "100",
                     "--blocks", "1", "--out", str(tmp_path))
    assert code == EXIT_PASS
    lines = _csv_lines(tmp_path / "section.csv")
    assert lines[0] == "part,i,j,value"
    d = 2                       # one block per control coordinate
    assert len(lines) == 1 + d * d + d * 1 + 1 * 1
    assert lines[1].startswith("M,0,0,")


# ------------------------------------------------------ configuration

def test_missing_config_file(capsys, tmp_path):
    code, _, cap = run(capsys, "solve", "--config",
                       str(tmp_path / "absent.json"))
    assert code == EXIT_INPUT


def test_malformed_config_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, cap = run(capsys, "solve", "--config", str(bad))
    assert code == EXIT_INPUT


def test_unknown_coefficient_name(capsys, tmp_path):
    cfg = {"dims": {"n": 1, "m1": 1, "m2": 1}, "horizon": 1.0,
           "coefficients": {"Z9": {"kind": "constant", "data": [[1.0]]}},
           "weights": {"G": [[1.0]]}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code, _, cap = run(capsys, "solve", "--config", str(bad))
    assert code == EXIT_INPUT


_ASYMMETRIC_Q = {
    "dims": {"n": 2, "m1": 1, "m2": 1}, "coefficients": {},
    "weights": {"Q": {"kind": "constant", "data": [[1.0, 0.3], [0.0, 1.0]]}}}


@pytest.mark.parametrize("changes, message", [
    ({"horizon": 0}, "horizon must be positive and finite"),
    ({"horizon": -1}, "horizon must be positive and finite"),
    ({"horizon": float("nan")}, "horizon must be positive and finite"),
    ({"horizon": -1, "coefficients": {"B1": {
        "kind": "piecewise", "data": [[0.0, [[1.0]]], [0.5, [[2.0]]]]}}},
     "horizon must be positive and finite"),
    ({"dims": {"n": 1.7, "m1": 1, "m2": 1}}, "dims.n must be an integer"),
    ({"weights": {"G": [[1.0, 2.0]]}}, "G: shape (1, 2), expected (1, 1)"),
    ({"weights": {"G": [[float("nan")]]}}, "G: non-finite entries"),
    (_ASYMMETRIC_Q, "Q: asymmetric by 3.000e-01"),
    ({"dims": {"n": 1, "m1": 0, "m2": 1}, "coefficients": {},
      "weights": {"G": [[-1.0]]}},
     "dims.m1 must be an integer >= 1, got 0"),
    ({"horizon": True}, "horizon must be a number, got True"),
    ({"horizon": "1.0"}, "horizon must be a number, got '1.0'"),
    ({"weights": {"A": {"kind": "constant", "data": [[1.0]]}}},
     "weights.A: not one of"),
    ({"coefficients": {"Q": {"kind": "constant", "data": [[1.0]]}}},
     "coefficients.Q: not one of"),
], ids=["horizon-zero", "horizon-negative", "horizon-nan",
        "horizon-negative-piecewise", "dims-fraction", "G-shape", "G-nan",
        "Q-asymmetric", "m1-zero", "horizon-bool", "horizon-string",
        "A-under-weights", "Q-under-coefficients"])
def test_bad_config_values_are_input_errors(capsys, tmp_path, changes,
                                            message):
    cfg = {"dims": {"n": 1, "m1": 1, "m2": 1}, "horizon": 1.0,
           "coefficients": {"B1": {"kind": "constant", "data": [[1.0]]}},
           "weights": {"G": [[-1.0]],
                       "R11": {"kind": "constant", "data": [[1.0]]}}}
    cfg.update(changes)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    cand = tmp_path / "cand.csv"
    cand.write_text("t,offset_0,offset_1\n0,0,0\n1,0,0\n")
    for command, *extra in (("solve",), ("check",), ("perturb",),
                            ("verify", "--candidate", str(cand))):
        code, rep, cap = run(capsys, command, "--config", str(bad),
                             "--grid", "20", *extra)
        assert code == EXIT_INPUT, command
        assert rep is None
        assert message in cap.err, command


def test_unknown_path_kind(capsys, tmp_path):
    cfg = {"dims": {"n": 1, "m1": 1, "m2": 1}, "horizon": 1.0,
           "coefficients": {"A": {"kind": "spline", "data": [[1.0]]}},
           "weights": {"G": [[1.0]]}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    code, _, cap = run(capsys, "solve", "--config", str(bad))
    assert code == EXIT_INPUT
    assert "spline" in cap.err


# ---------------------------------------------------------- reproduce

def test_reproduce_rejects_unknown_id(capsys):
    code, _, cap = run(capsys, "reproduce", "99")
    assert code == EXIT_INPUT
    assert "52" in cap.err and "61" in cap.err
