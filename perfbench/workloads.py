"""The benchmark's workloads: CLI command lines, generated inputs and the
checks that decide whether a command's outputs are correct.

``BENCHMARK.json`` lists ``dense-impulse`` and ``pendulum-audit``, which
together reach every measured layer; the other two run by hand only (see
DESIGN.md for why, and for the layer map).

- ``manufactured-fine``: output-heavy (the CSV writer evaluates the solution
  one scalar at a time); the only workload with an exact solution.
- ``pendulum-picard``: operator-heavy with few impulses; 50 Picard
  iterations that end in reported non-convergence (exit code 2).
- ``dense-impulse``: impulse-heavy, generated from the seed; exercises both
  schedule kinds (an arithmetic rule and an explicit point list).
- ``pendulum-audit``: the ``check`` command; applies the operator to 100
  independent ball samples instead of a chain of iterates.
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from impulsebvp.fnspace import norm_X, pair_lincomb
from impulsebvp.manufactured import (u_exact, u_exact_deriv, v_exact,
                                     v_exact_deriv)
from impulsebvp.operator import apply_T

HORIZON = 40.0


@dataclass(frozen=True)
class Workload:
    command: str                      # CLI sub-command
    problem: str                      # problem file, or "" when generated
    flags: tuple = ()                 # further CLI flags
    exit_codes: frozenset = frozenset({0})
    mesh_spacing: float = 0.01
    exact_solution: bool = False      # manufactured: compare with the exact solution
    checks: tuple = ()


def output_file(workload):
    return "hypothesis_report.json" if workload.command == "check" else "solution.csv"


def command_argv(workload, problem, out_dir, seed, horizon=HORIZON):
    return [workload.command, str(problem), "--out-dir", str(out_dir), "--seed", str(seed),
            "--horizon", repr(horizon), "--mesh-spacing", repr(workload.mesh_spacing),
            *workload.flags]


# --- generated inputs --------------------------------------------------------

def _linear(rng, c0, ca, cb):
    """A `linear` impulse map with each coefficient within 10 % of the given one.

    The ranges are narrow so that every seed gives the same contraction
    rate and hence the same iteration count (8 at tol 1e-8)."""
    near = lambda c: float(c * rng.uniform(0.9, 1.1))
    return {"name": "linear", "params": {"c0": near(c0), "ca": near(ca), "cb": near(cb)}}


DENSE_RHS = {
    "f": {"name": "linear_state_decay",
          "params": {"c0": 0.2, "cx": 0.1, "cy": 0.05, "cz": 0.1, "cw": 0.05, "rate": 1.0}},
    "h": {"name": "decaying_sin_state", "params": {"amplitude": 0.25, "rate": 1.0}},
}
DENSE_BOUNDARY = {"A1": 1.0, "A2": 0.5, "B1": 0.5, "B2": 0.25}
DENSE_U_STEP = 0.1
DENSE_V_DENSITY = 4.0  # explicit v impulses per unit time


def dense_impulse_problem(seed, horizon=HORIZON):
    """Problem document of the ``dense-impulse`` workload.

    u jumps on the arithmetic rule start + (k-1) 0.1 (about 400 times below
    H = 40); v jumps at 4 H (160) random explicit points in
    (0.005 H, 0.995 H), at least 1e-3 apart.  The impulse maps are small
    `linear` ones, which keeps T contractive.
    """
    rng = np.random.default_rng(seed)
    start = float(rng.uniform(0.05, 0.1))
    k_v = round(DENSE_V_DENSITY * horizon)
    while True:
        pts = np.sort(rng.uniform(0.005 * horizon, 0.995 * horizon, k_v))
        pts = np.round(pts, 6)
        if np.min(np.diff(pts)) > 1e-3:
            break
    return {
        "t0": 0.0,
        "boundary": DENSE_BOUNDARY,
        "rhs": DENSE_RHS,
        "impulses": {
            "u": {"schedule": {"rule": "arithmetic", "start": start, "step": DENSE_U_STEP},
                  "I0": _linear(rng, 1e-2, 1e-4, 1e-3),
                  "I1": _linear(rng, -1e-3, -1e-6, 1e-5)},
            "v": {"schedule": {"points": [float(p) for p in pts]},
                  "J0": _linear(rng, -1e-2, 1e-4, -1e-3),
                  "J1": _linear(rng, 1e-3, 1e-6, -1e-5)},
        },
    }


def sweep_problem(step):
    """Both components jump at the multiples of ``step`` (the K/N sweep)."""
    lin = {"name": "linear", "params": {"c0": 1e-3, "ca": 1e-5, "cb": 1e-4}}
    sched = {"schedule": {"rule": "integers", "step": step}}
    return {
        "t0": 0.0, "boundary": DENSE_BOUNDARY, "rhs": DENSE_RHS,
        "impulses": {"u": {**sched, "I0": lin, "I1": lin},
                     "v": {**sched, "J0": lin, "J1": lin}},
    }


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --- output checks -----------------------------------------------------------
#
# Each check takes a Result and returns a list of failure messages.  They run
# outside the timed region.

@dataclass
class Result:
    workload: Workload
    exit_code: int
    out_dir: Path
    problem: object                   # the loaded ImpulsiveCoupledBVP
    qc: object                        # the QuadratureConfig of the command
    solved: tuple = None              # (pair, diagnostics) returned by solve
    tol: float = 1e-8                 # the CLI's default tolerance

    def diagnostics(self):
        return read_json(self.out_dir / "diagnostics.json")

    def report(self):
        return read_json(self.out_dir / "hypothesis_report.json")


def residual_maxima(diag):
    """(ode, jump, boundary) maxima of a diagnostics.json residual block."""
    r = diag["residuals"]
    return (max(r["ode_residual_sup"].values()),
            max(r["jump_residual_sup"].values()),
            max(r["boundary_residuals"].values()))


def check_exit(res):
    if res.exit_code not in res.workload.exit_codes:
        return [f"exit code {res.exit_code} not in {sorted(res.workload.exit_codes)}"]
    return []


def _check_converged(res):
    return [] if res.diagnostics()["solve"]["converged"] else ["did not converge"]


def solution_error(csv_path):
    """Weighted sup error of solution.csv against the manufactured solution:
    max of |x - x_exact| / (1 + t) and |x' - x_exact'| over every row, with
    the right limit on '+' rows."""
    worst = 0.0
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    t = np.array([float(r[0]) for r in rows])
    right = np.array([r[1] == "+" for r in rows])
    cols = np.array([[float(x) for x in r[2:]] for r in rows])
    te = np.where(right, np.nextafter(t, np.inf), t)
    for got, want in ((cols[:, 0], u_exact(te)), (cols[:, 2], v_exact(te))):
        worst = max(worst, float(np.max(np.abs(got - want) / (1.0 + t))))
    for got, want in ((cols[:, 1], u_exact_deriv(te)), (cols[:, 3], v_exact_deriv(te))):
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def check_manufactured(res):
    fails = _check_converged(res)
    err = solution_error(res.out_dir / "solution.csv")
    if not err <= 1e-10:
        fails.append(f"solution_error {err:.3e} > 1e-10")
    _, jump, _ = residual_maxima(res.diagnostics())
    if not jump <= 1e-12:
        fails.append(f"jump residual {jump:.3e} > 1e-12")
    return fails


def check_picard(res):
    fails = []
    diag = res.diagnostics()
    hist = diag["solve"]["residual_history"]
    numbers = [*hist, *residual_maxima(diag), diag["solution_norm"]]
    if not all(math.isfinite(x) for x in numbers):
        fails.append("non-finite diagnostics")
    converged = diag["solve"]["converged"]
    if converged != (hist[-1] <= res.tol):
        fails.append(f"converged={converged} but final residual {hist[-1]:.3e}")
    if (res.exit_code == 0) != converged:
        fails.append(f"exit code {res.exit_code} disagrees with converged={converged}")
    # the returned iterate is the lowest-residual one; re-measure it
    pair, _ = res.solved
    image, _ = apply_T(res.problem, pair, res.qc)
    again = norm_X(pair_lincomb(1.0, image, -1.0, pair))
    if again != min(hist):
        fails.append(f"re-measured residual {again!r} != reported {min(hist)!r}")
    return fails


def check_dense(res):
    fails = _check_converged(res)
    _, jump, boundary = residual_maxima(res.diagnostics())
    if not jump <= 1e-10:
        fails.append(f"jump residual {jump:.3e} > 1e-10")
    if not boundary <= 1e-10:
        fails.append(f"boundary residual {boundary:.3e} > 1e-10")
    return fails


def check_audit(res):
    rep = res.report()
    fails = [f"verdict {k} failed" for k, ok in rep["verdicts"].items() if not ok]
    if rep["ball_inside"] != rep["ball_tested"]:
        fails.append(f"ball samples inside {rep['ball_inside']}/{rep['ball_tested']}")
    return fails


WORKLOADS = {
    "manufactured-fine": Workload(
        "solve", "demos/problems/manufactured.json", mesh_spacing=0.005,
        exact_solution=True,
        checks=(check_exit, check_manufactured)),
    "pendulum-picard": Workload(
        "solve", "demos/problems/pendulum.json", exit_codes=frozenset({0, 2}),
        checks=(check_exit, check_picard)),
    "dense-impulse": Workload(
        "solve", "", checks=(check_exit, check_dense)),
    "pendulum-audit": Workload(
        "check", "demos/problems/pendulum.json", ("--samples", "10000"),
        checks=(check_exit, check_audit)),
}
