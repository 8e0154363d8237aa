import csv
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ZERO_DOC = """{
  "boundary": {"A1": 1.0, "A2": 0.0, "B1": 2.0, "B2": 0.0},
  "rhs": {"f": {"name": "zero"}, "h": {"name": "zero"}}
}"""

MANUFACTURED_DOC = '{"model": "manufactured-exp"}'

PENDULUM_DOC = """{
  "model": "spring-pendulum",
  "params": {"m": 1.0, "k": 1.0, "g": 9.8, "l0": 1.0,
             "alpha": [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
             "beta": 3.0, "gamma": 3.0, "B1": 0.5, "B2": 0.5, "t0": 1.0}
}"""


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "impulsebvp.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


@pytest.fixture
def zero_file(tmp_path):
    f = tmp_path / "zero.json"
    f.write_text(ZERO_DOC)
    return f


def test_solve_zero_problem_exit_zero_and_artifacts(zero_file, tmp_path):
    out = tmp_path / "out"
    res = run_cli("solve", str(zero_file), "--out-dir", str(out),
                  "--mesh-spacing", "0.05")
    assert res.returncode == 0, res.stderr
    for name in ("solution.csv", "solution.dat", "diagnostics.json",
                 "manifest.json"):
        assert (out / name).exists()
    with open(out / "solution.csv") as fh:
        rows = list(csv.DictReader(fh))
    # solution equals the affine boundary pair
    for row in rows[:200:17]:
        t = float(row["t"])
        assert float(row["u"]) == pytest.approx(1.0 + 2.0 * t, abs=1e-12)
        assert float(row["u_deriv"]) == pytest.approx(2.0, abs=1e-12)
        assert float(row["v"]) == 0.0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["solve"]["converged"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve" and "timestamp" in manifest


def test_solve_manufactured_exit_zero_small_residuals(tmp_path):
    prob = tmp_path / "manufactured.json"
    prob.write_text(MANUFACTURED_DOC)
    out = tmp_path / "out"
    res = run_cli("solve", str(prob), "--out-dir", str(out),
                  "--mesh-spacing", "0.002", "--tol", "1e-8")
    assert res.returncode == 0, res.stderr
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["residuals"]["ode_residual_sup"]["u"] < 1e-6
    assert max(diag["residuals"]["jump_residual_sup"].values()) < 1e-10
    # jump rows at the impulse times appear with both sides
    with open(out / "solution.csv") as fh:
        rows = list(csv.DictReader(fh))
    sides = [(float(r["t"]), r["side"]) for r in rows if r["side"]]
    assert (1.0, "-") in sides and (1.0, "+") in sides
    assert (2.0, "-") in sides and (2.0, "+") in sides


def test_manufactured_rows_have_no_near_duplicates(tmp_path):
    # the u grid is split at the impulse times 1 and 2, the v grid is one
    # piece; their nodes one rounding apart give one row
    out = tmp_path / "out"
    assert _run_main(["solve", str(DEMO_PROBLEMS / "manufactured.json"),
                      "--out-dir", str(out)]) == 0
    with open(out / "solution.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4003
    t = np.array([float(r["t"]) for r in rows])
    close = np.flatnonzero(np.diff(t) < 1e-12)
    assert [(rows[i]["side"], rows[i + 1]["side"]) for i in close] == [("-", "+")] * 2


def test_solve_distinct_component_schedules_in_csv(tmp_path):
    doc = {
        "boundary": {"A1": 0.0, "A2": 0.0, "B1": 0.0, "B2": 0.0},
        "impulses": {
            "u": {"schedule": {"points": [1.0]},
                  "I0": {"name": "constant", "params": {"value": 0.5}}},
            "v": {"schedule": {"points": [2.5]},
                  "J0": {"name": "constant", "params": {"value": -0.25}}}},
    }
    prob = tmp_path / "mixed.json"
    prob.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = run_cli("solve", str(prob), "--out-dir", str(out),
                  "--horizon", "5.0", "--mesh-spacing", "0.1")
    assert res.returncode == 0, res.stderr
    with open(out / "solution.csv") as fh:
        rows = {(float(r["t"]), r["side"]): r for r in csv.DictReader(fh)}
    # the u-jump at 1.0 and the v-jump at 2.5 both get two-sided rows
    assert float(rows[(1.0, "+")]["u"]) - float(rows[(1.0, "-")]["u"]) == 0.5
    assert float(rows[(1.0, "+")]["v"]) == float(rows[(1.0, "-")]["v"])
    assert float(rows[(2.5, "+")]["v"]) - float(rows[(2.5, "-")]["v"]) == -0.25
    assert float(rows[(2.5, "+")]["u"]) == float(rows[(2.5, "-")]["u"])


def test_solve_pendulum_deterministic_exit(tmp_path):
    prob = tmp_path / "pendulum.json"
    prob.write_text(PENDULUM_DOC)
    outs = []
    codes = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = run_cli("solve", str(prob), "--out-dir", str(out),
                      "--mesh-spacing", "0.05", "--max-iter", "25",
                      "--damping", "0.5")
        codes.append(res.returncode)
        outs.append(out)
    assert codes[0] == codes[1] and codes[0] in (0, 2)
    a = (outs[0] / "solution.csv").read_bytes()
    b = (outs[1] / "solution.csv").read_bytes()
    assert a == b
    da = (outs[0] / "diagnostics.json").read_bytes()
    db = (outs[1] / "diagnostics.json").read_bytes()
    assert da == db


DEMO_PROBLEMS = Path(__file__).resolve().parents[1] / "demos" / "problems"


@pytest.mark.parametrize("component,huge", [("T2", "h"), ("T1", "f")])
def test_overflowing_image_fails_on_the_error_line(component, huge, tmp_path):
    # the cumulative moments of a 1e306 right-hand side overflow, so the
    # first image is not finite: an evaluation error on one line, with no
    # residual, traceback or numpy warning
    rhs = {"f": {"name": "zero"}, "h": {"name": "zero"}}
    rhs[huge] = {"name": "constant", "params": {"value": 1e306}}
    prob = tmp_path / "huge.json"
    prob.write_text(json.dumps({"boundary": {"A1": 1.0, "A2": 0.0, "B1": 0.5, "B2": 0.0},
                                "rhs": rhs}))
    res = run_cli("solve", str(prob), "--out-dir", str(tmp_path / "o"))
    assert res.returncode == 1, res.stdout + res.stderr
    err = res.stderr.splitlines()
    assert len(err) == 1, res.stderr
    assert err[0].startswith(f"error: {component} returned a non-finite value at s=")
    assert err[0].endswith(" in iteration 1")


def test_solve_pendulum_with_anderson_mixing(tmp_path):
    from impulsebvp.operator import QuadratureConfig
    from impulsebvp.problemfile import load_problem_file
    from impulsebvp.solver import SolverConfig, solve
    out = tmp_path / "out"
    res = run_cli("solve", str(DEMO_PROBLEMS / "pendulum.json"), "--t0", "4",
                  "--anderson", "3", "--out-dir", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["solver_config"]["anderson_depth"] == 3
    diag = json.loads((out / "diagnostics.json").read_text())["solve"]
    assert diag["converged"] is True and diag["iterations"] == 8  # Picard takes 32
    p = dataclasses.replace(load_problem_file(DEMO_PROBLEMS / "pendulum.json"), t0=4.0)
    _, want = solve(p, SolverConfig(anderson_depth=3), QuadratureConfig())
    assert diag["residual_history"] == want.residual_history


def test_study_manufactured_mesh_levels(tmp_path):
    out = tmp_path / "out"
    res = run_cli("study", str(DEMO_PROBLEMS / "manufactured.json"), "--out-dir", str(out),
                  "--mesh-levels", "0.04,0.02,0.01")
    assert res.returncode == 0, res.stdout + res.stderr
    with open(out / "study.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["mesh_spacing"]) for r in rows] == [0.04, 0.02, 0.01]
    assert all(r["converged"] == "True" for r in rows)
    assert rows[0]["diff_to_prev"] == ""
    assert all(float(r["diff_to_prev"]) <= 1e-13 for r in rows[1:])
    # the collocation residual is O(h^2): halving h divides it by about 4
    ode = [float(r["ode_residual"]) for r in rows]
    assert all(3.5 <= a / b <= 4.5 for a, b in zip(ode, ode[1:]))


def test_solve_invalid_file_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli("solve", str(bad), "--out-dir", str(tmp_path / "o"))
    assert res.returncode == 1
    assert "error" in res.stderr.lower()


def test_solve_missing_boundary_exit_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rhs": {"f": {"name": "zero"}}}')
    res = run_cli("solve", str(bad), "--out-dir", str(tmp_path / "o"))
    assert res.returncode == 1
    assert "boundary" in res.stderr


# (command, problem, flags, the field the error names); the common flags
# keep the runs short, and a flag given twice takes its last value
_CHEAP = {"solve": ["--mesh-spacing", "0.05"], "study": ["--mesh-spacing", "0.05"],
          "check": ["--samples", "1000", "--ball-samples", "5", "--K", "200",
                    "--mesh-spacing", "0.1"]}
BAD_INPUTS = [
    ("solve", MANUFACTURED_DOC, ["--tol", "nan"], "tol"),
    ("solve", MANUFACTURED_DOC, ["--tol", "inf"], "tol"),
    ("solve", MANUFACTURED_DOC, ["--mesh-spacing", "nan"], "mesh_spacing"),
    ("solve", MANUFACTURED_DOC, ["--mesh-spacing", "inf"], "mesh_spacing"),
    ("solve", MANUFACTURED_DOC, ["--horizon", "inf"], "horizon"),
    ("solve", MANUFACTURED_DOC, ["--horizon", "nan"], "horizon"),
    ("check", PENDULUM_DOC, ["--ball-samples", "0"], "samples"),
    ("check", PENDULUM_DOC, ["--rho", "nan"], "rho"),
    ("check", PENDULUM_DOC, ["--rho", "inf"], "rho"),
    ("check", PENDULUM_DOC, ["--rho1", "nan"], "rho1"),
    ("check", PENDULUM_DOC, ["--rho1", "-1"], "rho1"),
    ("study", MANUFACTURED_DOC, ["--horizons", "20,10"], "horizons"),
    ("solve", MANUFACTURED_DOC, ["--t0", "inf"], "t0"),
    ("solve", MANUFACTURED_DOC, ["--t0", "nan"], "t0"),
    ("solve", MANUFACTURED_DOC, ["--t0", "50"], "t0"),
    ("check", PENDULUM_DOC, ["--t0", "nan"], "t0"),
    ("check", PENDULUM_DOC, ["--t0", "50"], "t0"),
    ("study", MANUFACTURED_DOC, ["--t0", "nan", "--horizons", "10,20"], "t0"),
    ("study", MANUFACTURED_DOC, ["--t0", "30", "--horizons", "10,20"], "t0"),
    # rho (1 + t) <= 0.41 < u_floor = 1 on all of [1, 40]: no state to test
    ("check", PENDULUM_DOC, ["--rho", "0.01", "--sample-at-rho2"], "u_floor"),
]


@pytest.mark.parametrize("command,doc,flags,field", BAD_INPUTS,
                         ids=[" ".join([c, *f]) for c, _, f, _ in BAD_INPUTS])
def test_bad_numeric_input_fails_fast_naming_the_field(command, doc, flags, field,
                                                       tmp_path):
    prob = tmp_path / "problem.json"
    prob.write_text(doc)
    out = tmp_path / "o"
    res = run_cli(command, str(prob), "--out-dir", str(out), *_CHEAP[command], *flags)
    assert res.returncode == 1, res.stdout + res.stderr
    errors = [line for line in res.stderr.splitlines() if line.startswith("error: ")]
    assert errors and f"{field} must" in errors[0], res.stderr
    assert "Traceback" not in res.stderr
    for name in ("solution.csv", "hypothesis_report.json", "study.csv"):
        assert not (out / name).exists()


@pytest.mark.parametrize("command,doc,flags,field", BAD_INPUTS,
                         ids=[" ".join([c, *f]) for c, _, f, _ in BAD_INPUTS])
def test_bad_input_creates_no_output_directory(command, doc, flags, field, tmp_path,
                                               capsys):
    prob = tmp_path / "problem.json"
    prob.write_text(doc)
    out = tmp_path / "o"
    assert _run_main([command, str(prob), "--out-dir", str(out), *_CHEAP[command],
                      *flags]) == 1
    assert f"{field} must" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_model_prints_the_bare_message(tmp_path, capsys):
    from impulsebvp.problemfile import MODEL_REGISTRY
    prob = tmp_path / "problem.json"
    prob.write_text('{"model": "nope"}')
    assert _run_main(["solve", str(prob), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"error: unknown model 'nope'; "
                                       f"registry: {sorted(MODEL_REGISTRY)}\n")


def test_nonfinite_impulse_map_fails_validation(tmp_path, capsys):
    # a map that is NaN everywhere stops at validation, before iteration 1
    doc = {"boundary": {"A1": 1.0, "A2": 0.0, "B1": 0.5, "B2": 0.0},
           "impulses": {"v": {"schedule": {"points": [1.0, 2.0]},
                              "J1": {"name": "constant", "params": {"value": math.nan}}}}}
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(doc))
    assert _run_main(["solve", str(prob), "--out-dir", str(tmp_path / "o"),
                      "--horizon", "5", "--mesh-spacing", "0.1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "problem validation failed:"
    assert len(err) == 2 and err[1].startswith("  J1_continuity: "), err
    assert not (tmp_path / "o").exists()


# each command on a problem it would finish, with the output directory
# blocked: the directory is a file, or its manifest.json is a directory
_FINISHING = [("solve", ZERO_DOC, ["--mesh-spacing", "0.1"]),
              ("check", PENDULUM_DOC, _CHEAP["check"]),
              ("study", ZERO_DOC, ["--horizons", "5,10", "--mesh-spacing", "0.1"])]


@pytest.mark.parametrize("blocked", ["out_dir", "manifest"])
@pytest.mark.parametrize("command,doc,flags", _FINISHING, ids=[c for c, _, _ in _FINISHING])
def test_output_errors_leave_through_the_error_line(command, doc, flags, blocked, tmp_path):
    prob = tmp_path / "problem.json"
    prob.write_text(doc)
    out = tmp_path / "o"
    if blocked == "out_dir":
        out.write_text("")
    else:
        (out / "manifest.json").mkdir(parents=True)
    res = run_cli(command, str(prob), "--out-dir", str(out), *flags)
    assert res.returncode == 1, res.stdout + res.stderr
    errors = [line for line in res.stderr.splitlines() if line.startswith("error: ")]
    assert errors and str(out) in errors[0], res.stderr
    assert "Traceback" not in res.stderr


def test_flag_defaults_are_the_config_defaults():
    from impulsebvp.cli import _solver_config, build_parser
    from impulsebvp.operator import QuadratureConfig
    from impulsebvp.solver import SolverConfig
    qc = QuadratureConfig()
    for command in ("solve", "check", "study"):
        args = build_parser().parse_args([command, "x"])
        assert (args.horizon, args.mesh_spacing) == (qc.horizon, qc.mesh_spacing)
        if command != "check":
            assert _solver_config(args) == SolverConfig()


def test_check_pendulum_exit_zero(tmp_path):
    prob = tmp_path / "pendulum.json"
    prob.write_text(PENDULUM_DOC)
    out = tmp_path / "out"
    res = run_cli("check", str(prob), "--out-dir", str(out),
                  "--rho", "1.0", "--samples", "1000", "--ball-samples", "5",
                  "--K", "200", "--mesh-spacing", "0.1")
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "hypothesis_report.json").read_text())
    assert report["all_pass"] is True
    assert report["rho2"] > 0
    assert "rho2" in res.stdout


def test_check_zero_problem_with_zero_bounds(tmp_path):
    # no rhs, no impulses: rho2 = max(rho1, K1, K2, |B1|, |B2|)
    doc = json.loads(ZERO_DOC)
    doc["bounds"] = {}
    prob = tmp_path / "zero.json"
    prob.write_text(json.dumps(doc))
    out = tmp_path / "o"
    res = run_cli("check", str(prob), "--out-dir", str(out),
                  "--rho", "1.0", "--rho1", "0.5", "--samples", "200",
                  "--ball-samples", "5", "--K", "10", "--mesh-spacing", "0.1")
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "hypothesis_report.json").read_text())
    assert report["rho2"] == 2.0  # K1 = max(|1|, |2|) dominates


def test_check_without_bounds_exit_one(zero_file, tmp_path):
    res = run_cli("check", str(zero_file), "--out-dir", str(tmp_path / "o"))
    assert res.returncode == 1
    assert "bounds" in res.stderr


def test_check_audit_failure_exit_three(tmp_path):
    # Phi too small for the declared right-hand side: domination violations
    doc = {
        "boundary": {"A1": 0.0, "A2": 0.0, "B1": 0.0, "B2": 0.0},
        "rhs": {"f": {"name": "constant", "params": {"value": 2.0}},
                "h": {"name": "zero"}},
        "bounds": {"Phi": {"name": "exp_decay",
                           "params": {"amplitude": 1.0, "rate": 1.0}}},
    }
    prob = tmp_path / "undersized.json"
    prob.write_text(json.dumps(doc))
    res = run_cli("check", str(prob), "--out-dir", str(tmp_path / "o"),
                  "--rho", "1.0", "--samples", "500", "--ball-samples", "2",
                  "--K", "10", "--mesh-spacing", "0.1")
    assert res.returncode == 3, res.stdout + res.stderr
    report = json.loads((tmp_path / "o" / "hypothesis_report.json").read_text())
    assert len(report["domination_violations"]) > 0


def test_study_manufactured_horizons(tmp_path):
    prob = tmp_path / "manufactured.json"
    prob.write_text(MANUFACTURED_DOC)
    out = tmp_path / "out"
    res = run_cli("study", str(prob), "--out-dir", str(out),
                  "--horizons", "20,40,80", "--mesh-spacing", "0.02")
    assert res.returncode == 0, res.stderr
    with open(out / "study.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    diffs = [r["diff_to_prev"] for r in rows]
    assert diffs[0] == ""
    d1, d2 = float(diffs[1]), float(diffs[2])
    assert d1 > d2 or (d1 == 0 and d2 == 0)
    assert d2 < 1e-5


def test_study_zero_problem_zero_differences(zero_file, tmp_path):
    out = tmp_path / "out"
    res = run_cli("study", str(zero_file), "--out-dir", str(out),
                  "--horizons", "10,20,40", "--mesh-spacing", "0.1")
    assert res.returncode == 0, res.stderr
    with open(out / "study.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["diff_to_prev"] for r in rows[1:]] == ["0.0", "0.0"]


def test_study_requires_an_axis(tmp_path):
    prob = tmp_path / "m.json"
    prob.write_text(MANUFACTURED_DOC)
    res = run_cli("study", str(prob), "--out-dir", str(tmp_path / "o"))
    assert res.returncode == 1


def test_study_validates_the_problem_like_solve(tmp_path):
    # an arithmetic rule with a negative step is not increasing: study stops
    # before its first level with solve's validation report
    doc = json.loads(ZERO_DOC)
    doc["impulses"] = {"u": {"schedule": {"rule": "arithmetic", "start": 1.0,
                                          "step": -0.5}}}
    prob = tmp_path / "decreasing.json"
    prob.write_text(json.dumps(doc))
    out = tmp_path / "o"
    study = run_cli("study", str(prob), "--out-dir", str(out),
                    "--horizons", "5,10", "--mesh-spacing", "0.1")
    solve = run_cli("solve", str(prob), "--out-dir", str(tmp_path / "s"),
                    "--horizon", "10", "--mesh-spacing", "0.1")
    assert study.returncode == solve.returncode == 1
    assert study.stderr == solve.stderr
    assert study.stderr.startswith("problem validation failed:\n  u_schedule: ")
    assert "'non_monotone_at_index': 2" in study.stderr
    assert not (out / "study.csv").exists()


def test_out_dir_env_var(zero_file, tmp_path, monkeypatch):
    import os
    env = dict(os.environ)
    env["IMPULSEBVP_OUT_DIR"] = str(tmp_path / "envout")
    res = run_cli("solve", str(zero_file), "--mesh-spacing", "0.1", env=env)
    assert res.returncode == 0
    assert (tmp_path / "envout" / "solution.csv").exists()


# u and v share the impulse at 1.0; the u impulse at 2.0 falls on a plain
# v grid node; v jumps at 2.5 and 3.7, where u does not
MIXED_DOC = {
    "boundary": {"A1": 0.5, "A2": -0.25, "B1": 0.1, "B2": 0.2},
    "rhs": {"f": {"name": "linear_state_decay",
                  "params": {"c0": 0.2, "cx": 0.1, "cy": 0.05, "cz": 0.1, "cw": 0.05}},
            "h": {"name": "decaying_sin_state"}},
    "impulses": {
        "u": {"schedule": {"points": [1.0, 2.0]},
              "I0": {"name": "constant", "params": {"value": 0.5}},
              "I1": {"name": "constant", "params": {"value": 0.1}}},
        "v": {"schedule": {"points": [1.0, 2.5, 3.7]},
              "J0": {"name": "constant", "params": {"value": -0.25}},
              "J1": {"name": "constant", "params": {"value": 0.05}}}},
}


def _side_rows_scalar(pair):
    """Reference: rows (t, side, u, u', v, v') over the pair's one grid, one
    scalar evaluation per row and component."""
    u, v = pair.u, pair.v
    times = u.mesh.grid
    jumps = np.union1d(u.mesh.impulse_times, v.mesh.impulse_times)

    def at(fn, t, side):
        if side == "+" and np.isin(t, fn.mesh.impulse_times):
            lo, hi = fn.mesh.impulse_slots(t)
            return fn.values[hi], fn.derivs[hi]
        return fn(t), fn.deriv(t)

    rows = []
    for t in times:
        sides = ("-", "+") if np.isin(t, jumps) else ("",)
        for side in sides:
            eff = "+" if side == "+" else "-"
            uu, du = at(u, t, eff)
            vv, dv = at(v, t, eff)
            rows.append((float(t), side, float(uu), float(du), float(vv), float(dv)))
    return rows


def _write_solution_scalar(out, pair):
    """Reference writer over the scalar rows."""
    rows = _side_rows_scalar(pair)
    with open(out / "solution.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "side", "u", "u_deriv", "v", "v_deriv"])
        for r in rows:
            w.writerow([repr(r[0]), r[1], repr(r[2]), repr(r[3]), repr(r[4]), repr(r[5])])
    with open(out / "solution.dat", "w") as fh:
        fh.write("# t u u_deriv v v_deriv\n")
        for r in rows:
            if r[1] == "+":
                fh.write("\n")
            fh.write(f"{r[0]!r} {r[2]!r} {r[3]!r} {r[4]!r} {r[5]!r}\n")


def _writer_case(name):
    from impulsebvp.manufactured import manufactured_problem
    from impulsebvp.operator import QuadratureConfig
    from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
    from impulsebvp.problemfile import load_problem
    if name == "manufactured":
        return manufactured_problem(), QuadratureConfig(horizon=40.0, mesh_spacing=0.02)
    if name == "pendulum":
        return (build_pendulum_problem(PendulumParams()),
                QuadratureConfig(horizon=6.0, mesh_spacing=0.01))
    return load_problem(MIXED_DOC), QuadratureConfig(horizon=5.0, mesh_spacing=0.1)


@pytest.mark.parametrize("name", ["manufactured", "pendulum", "mixed"])
def test_solution_writer_matches_scalar_reference(name, tmp_path):
    from impulsebvp.cli import _write_solution
    from impulsebvp.solver import SolverConfig, solve
    p, qc = _writer_case(name)
    pair, _ = solve(p, SolverConfig(max_iter=5), qc)
    if name == "mixed":
        mu, mv = pair.u.mesh, pair.v.mesh
        assert set(mu.impulse_times) & set(mv.impulse_times) == {1.0}
        assert 2.0 in mu.impulse_times and 2.0 in mv.grid and 2.0 not in mv.impulse_times
        assert set(mv.impulse_times) - set(mu.impulse_times) == {2.5, 3.7}
    new, ref = tmp_path / "new", tmp_path / "ref"
    new.mkdir()
    ref.mkdir()
    _write_solution(new, pair)
    _write_solution_scalar(ref, pair)
    for fname in ("solution.csv", "solution.dat"):
        assert (new / fname).read_bytes() == (ref / fname).read_bytes()


def _written_solution(name, out):
    """The pair of a ``_writer_case`` and the rows of the files
    ``_write_solution`` makes of it: csv rows without the header, .dat
    lines without the comment."""
    from impulsebvp.cli import _write_solution
    from impulsebvp.solver import SolverConfig, solve
    p, qc = _writer_case(name)
    pair, _ = solve(p, SolverConfig(max_iter=5), qc)
    _write_solution(out, pair)
    with open(out / "solution.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    lines = (out / "solution.dat").read_text().split("\n")[1:-1]
    return pair, rows, lines


@pytest.mark.parametrize("name", ["manufactured", "pendulum", "mixed"])
def test_solution_dat_rows_hold_the_csv_number_strings(name, tmp_path):
    _, rows, lines = _written_solution(name, tmp_path)
    fields = []
    for r in rows:
        if r[1] == "+":
            assert lines.pop(0) == ""
        fields.append(lines.pop(0).split(" "))
    assert lines == []
    assert fields == [[r[0], *r[2:]] for r in rows]


@pytest.mark.parametrize("name", ["manufactured", "pendulum", "mixed"])
def test_solution_numbers_read_back_as_the_slot_values(name, tmp_path):
    from impulsebvp.cli import _side_rows
    pair, rows, lines = _written_solution(name, tmp_path)
    cols = _side_rows(pair)
    del cols[1]
    want = np.column_stack(cols)
    from_dat = np.array([[float(x) for x in ln.split()] for ln in lines if ln])
    from_csv = np.array([[float(x) for x in (r[0], *r[2:])] for r in rows])
    assert from_dat.tobytes() == want.tobytes()
    assert from_csv.tobytes() == want.tobytes()


def _flaky_rhs(fail_from=3, above=2.0037):
    """Registry factory: an f that returns NaN at every point past ``above``
    from its ``fail_from``-th call on quadrature points on.  The 200-point
    samples of problem validation are not counted."""
    calls = [0]

    def fn(t, x, y, z, w):
        if t.size != 200:
            calls[0] += 1
        out = 0.1 * np.exp(-t) * x
        return np.where(t > above, np.nan, out) if calls[0] >= fail_from else out

    return fn


def _run_main(argv):
    from impulsebvp import cli
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    return exc.value.code


def test_rhs_failure_names_iteration_and_first_bad_point(tmp_path, monkeypatch, capsys):
    _check_rhs_failure(tmp_path, monkeypatch, capsys)


def test_rhs_failure_in_a_later_iteration_names_it_and_the_first_bad_point(
        tmp_path, monkeypatch, capsys):
    # f is called once per application, so its 5th call opens iteration 5
    _check_rhs_failure(tmp_path, monkeypatch, capsys, fail_from=5)


def _check_rhs_failure(tmp_path, monkeypatch, capsys, fail_from=3):
    from impulsebvp.operator import (EvaluationError, QuadratureConfig, _gauss_panels,
                                     _refined_boundaries, problem_meshes)
    from impulsebvp.problemfile import RHS_REGISTRY, load_problem
    from impulsebvp.solver import SolverConfig, solve
    monkeypatch.setitem(RHS_REGISTRY, "flaky", _flaky_rhs)
    doc = {"boundary": {"A1": 1.0, "A2": 0.0, "B1": 0.5, "B2": 0.0},
           "rhs": {"f": {"name": "flaky", "params": {"fail_from": fail_from}}},
           "impulses": {"u": {"schedule": {"points": [1.3]},
                              "I0": {"name": "constant", "params": {"value": 0.1}}}}}
    prob = tmp_path / "flaky.json"
    prob.write_text(json.dumps(doc))
    flags = ["--horizon", "5", "--mesh-spacing", "0.1", "--tol", "1e-30"]
    code = _run_main(["solve", str(prob), "--out-dir", str(tmp_path / "o"), *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert f"iteration {fail_from}" in err

    # reference: the same panels panel-major, whose flat order is time order
    p = load_problem(doc)
    qc = QuadratureConfig(horizon=5.0, mesh_spacing=0.1)
    mu, mv = problem_meshes(p, qc)
    boundaries = _refined_boundaries(mu.grid, np.union1d(mu.impulse_times, mv.impulse_times))
    flat = _gauss_panels(boundaries)[0].T.ravel()
    want = flat[np.flatnonzero(flat > 2.0037)[0]]
    # the panel holding 2.0037 has good points before the first bad one, so
    # the first bad point of a Gauss-major scan lies in the next panel
    assert flat[np.flatnonzero(flat > 2.0037)[0] - 1] > 2.0
    assert f"flaky returned a non-finite value at s={want:.6g} " in err
    with pytest.raises(EvaluationError) as exc:
        solve(p, SolverConfig(tol=1e-30), qc)
    assert exc.value.location["s"] == want
    assert exc.value.location["iteration"] == fail_from
    assert str(exc.value).endswith(f" in iteration {fail_from}")


def test_manifest_records_the_environment(zero_file, tmp_path):
    import platform
    out = tmp_path / "out"
    assert _run_main(["solve", str(zero_file), "--out-dir", str(out),
                      "--mesh-spacing", "0.1"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "platform"}
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["platform"].startswith(platform.system() + "-")
    assert env["platform"].endswith("-" + platform.machine())


def test_package_version_matches_pyproject():
    # manifest.json's tool_version pins the quadrature rule; pyproject.toml
    # must name the same release
    import re
    from impulsebvp import __version__
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == __version__


def test_an_evaluation_error_leaves_no_output_directory(tmp_path, capsys):
    prob = tmp_path / "huge.json"
    prob.write_text(json.dumps({"boundary": {"A1": 1.0, "A2": 0.0, "B1": 0.5, "B2": 0.0},
                                "rhs": {"f": {"name": "zero"},
                                        "h": {"name": "constant", "params": {"value": 1e306}}}}))
    out = tmp_path / "new" / "out"
    assert _run_main(["solve", str(prob), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: T2 returned a non-finite value")
    assert not (tmp_path / "new").exists()


def test_check_validates_the_problem_like_solve(tmp_path, capsys):
    # f is NaN everywhere: check stops before its audits with solve's report
    prob = tmp_path / "nan_f.json"
    prob.write_text(json.dumps({"boundary": {"A1": 1.0, "A2": 0.0, "B1": 0.5, "B2": 0.0},
                                "rhs": {"f": {"name": "constant", "params": {"value": math.nan}}},
                                "bounds": {}}))
    flags = ["--horizon", "5", "--mesh-spacing", "0.1"]
    assert _run_main(["check", str(prob), "--out-dir", str(tmp_path / "c"), *flags,
                      "--samples", "500", "--ball-samples", "5", "--K", "10"]) == 1
    check = capsys.readouterr().err
    assert _run_main(["solve", str(prob), "--out-dir", str(tmp_path / "s"), *flags]) == 1
    assert check == capsys.readouterr().err
    assert check.startswith("problem validation failed:\n  f_finite: {'first_nonfinite': ")
    assert not (tmp_path / "c").exists()
