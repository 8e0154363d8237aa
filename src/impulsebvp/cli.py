"""Command-line front-end: solve / check / study on problem files.

Exit codes are a stable contract: 0 success, 1 input, output or evaluation
error (one ``error:`` line, or the failed validation checks), 2 reported
non-convergence, 3 hypothesis-audit failure.  Every run writes a manifest
(problem source, resolved configuration, seed, tool version, Python, numpy
and platform versions) next to its outputs; re-running with the same
manifest reproduces the data files bit-for-bit (the manifest itself carries
the only timestamp).
"""

import argparse
import csv
import dataclasses
import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .audit import run_audit
from .fnspace import (_eval_on_slots, _union_mesh, difference_norm, norm_X,
                      slot_sides)
from .model import validate_problem
from .operator import QuadratureConfig
from .problemfile import load_problem_file
from .solver import SolverConfig, solve, verify_residuals

OUT_DIR_ENV = "IMPULSEBVP_OUT_DIR"


def _add_common(sub):
    sub.add_argument("problem", help="problem JSON file")
    sub.add_argument("--horizon", type=float, default=QuadratureConfig.horizon,
                     help="truncation horizon H (default %(default)g)")
    sub.add_argument("--t0", type=float, default=None,
                     help="override the working-domain start")
    sub.add_argument("--mesh-spacing", type=float, default=QuadratureConfig.mesh_spacing,
                     help="node spacing of the working mesh (default %(default)g)")
    sub.add_argument("--seed", type=int, default=0, help="manifest seed")
    sub.add_argument("--out-dir", default=None,
                     help=f"output directory (default: ${OUT_DIR_ENV} or '.')")


def _add_solver_flags(sub):
    sub.add_argument("--tol", type=float, default=SolverConfig.tol,
                     help="stop at ||T(s) - s||_X <= tol (default %(default)g)")
    sub.add_argument("--max-iter", type=int, default=SolverConfig.max_iter,
                     help="iteration cap (default %(default)g)")
    sub.add_argument("--damping", type=float, default=SolverConfig.damping,
                     help="damping in (0, 1] (default %(default)g)")
    sub.add_argument("--anderson", type=int, default=SolverConfig.anderson_depth,
                     help="Anderson mixing depth, 0 = damped Picard (default %(default)g)")


def _solver_config(args):
    return SolverConfig(max_iter=args.max_iter, tol=args.tol,
                        damping=args.damping, anderson_depth=args.anderson)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="impulsebvp",
        description="solve and audit impulsive coupled BVPs on the half-line")
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("solve", help="solve a problem file")
    _add_common(s)
    _add_solver_flags(s)
    s.add_argument("--gnuplot-script", action="store_true",
                   help="also emit a plotting script next to the data file")

    c = sp.add_parser("check", help="audit the existence-theorem hypotheses")
    _add_common(c)
    c.add_argument("--rho", type=float, default=1.0,
                   help="domination radius for the sampling audits")
    c.add_argument("--rho1", type=float, default=None,
                   help="given ball radius (default: rho)")
    c.add_argument("--samples", type=int, default=10000)
    c.add_argument("--ball-samples", type=int, default=100)
    c.add_argument("--K", type=int, default=1000,
                   help="impulse-sum truncation for the summability audit")
    c.add_argument("--sample-at-rho2", action="store_true",
                   help="draw ball samples from the rho2-ball instead of the "
                        "rho-ball (probes the literal self-mapping)")

    t = sp.add_parser("study", help="horizon/mesh refinement study")
    _add_common(t)
    _add_solver_flags(t)
    t.add_argument("--horizons", default=None,
                   help="comma list of increasing horizons, e.g. 20,40,80")
    t.add_argument("--mesh-levels", default=None,
                   help="comma list of mesh spacings, e.g. 0.02,0.01,0.005")
    return ap


def _out_dir(args):
    path = Path(args.out_dir or os.environ.get(OUT_DIR_ENV) or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args):
    """The problem file, with ``--t0`` applied."""
    p = load_problem_file(args.problem)
    if args.t0 is not None:
        p = dataclasses.replace(p, t0=args.t0)
    return p


def _resolve(args):
    qc = QuadratureConfig(horizon=args.horizon, mesh_spacing=args.mesh_spacing)
    return _load(args), qc


def _valid(p, horizon, seed):
    """Run validate_problem up to the horizon; print the failed checks to
    stderr and return False if any fails."""
    report = validate_problem(p, horizon, seed=seed)
    if not report.passed:
        print("problem validation failed:", file=sys.stderr)
        for c in report.checks:
            if not c["passed"]:
                print(f"  {c['name']}: {c['details']}", file=sys.stderr)
    return report.passed


def _environment():
    """Python, numpy and platform versions: the bits of the results rest on
    numpy's reduction order and its SIMD math functions, which can differ
    between builds and CPUs.  (platform.platform() is not used: it runs
    `uname -p` in a subprocess and reads the interpreter binary.)"""
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "platform": "-".join((platform.system(), platform.release(),
                                  platform.machine()))}


def _write_manifest(out, args, qc=None, sc=None):
    resolved = {k: v for k, v in vars(args).items() if k != "command"}
    manifest = {
        "command": args.command,
        "problem": str(Path(args.problem).resolve()),
        "resolved_flags": resolved,
        "seed": args.seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "environment": _environment(),
    }
    if qc is not None:
        manifest["quadrature_config"] = dataclasses.asdict(qc)
    if sc is not None:
        manifest["solver_config"] = {
            **vars(sc),
            "initial_guess": (sc.initial_guess
                              if isinstance(sc.initial_guess, str)
                              else "user-supplied")}
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, default=str)


def _side_rows(pair):
    """Columns (t, side, u, u', v, v') over the slots of the pair's union
    mesh: the union grid, ascending, with a '-' row then a '+' row at every
    impulse time of either component.

    A component that jumps at a '+' row's time reports its right-slot
    values there; every other row is the left-continuous evaluation."""
    mesh = _union_mesh(pair.u.mesh, pair.v.mesh)
    return [mesh.nodes, slot_sides(mesh),
            *_eval_on_slots(pair.u, mesh), *_eval_on_slots(pair.v, mesh)]


# per-row templates by side label; the CSV rows are what csv.writer makes of
# (repr(t), side, repr(u), ...), and gnuplot breaks the .dat polyline at the
# blank line before a '+' row
_CSV_ROW = {s: f"%r,{s},%r,%r,%r,%r\r\n" for s in ("", "-", "+")}
_DAT_ROW = {s: ("\n" if s == "+" else "") + "%.17g %.17g %.17g %.17g %.17g\n"
            for s in ("", "-", "+")}
_BLOCK_ROWS = 2048  # rows formatted per '%': bounds the text held at once


def _write_solution(out, pair, gnuplot_script=False):
    cols = _side_rows(pair)
    side = cols.pop(1).tolist()
    data = np.column_stack(cols)  # rows (t, u, u', v, v')
    with open(out / "solution.csv", "w", newline="") as fc, \
            open(out / "solution.dat", "w") as fd:
        fc.write("t,side,u,u_deriv,v,v_deriv\r\n")
        fd.write("# t u u_deriv v v_deriv\n")
        for a in range(0, len(side), _BLOCK_ROWS):
            sides = side[a:a + _BLOCK_ROWS]
            vals = tuple(data[a:a + _BLOCK_ROWS].ravel().tolist())
            fc.write("".join([_CSV_ROW[s] for s in sides]) % vals)
            fd.write("".join([_DAT_ROW[s] for s in sides]) % vals)
    if gnuplot_script:
        with open(out / "solution.gp", "w") as fh:
            fh.write('set xlabel "t"\n'
                     'plot "solution.dat" using 1:2 with lines title "u", \\\n'
                     '     "solution.dat" using 1:4 with lines title "v"\n')


def cmd_solve(args):
    p, qc = _resolve(args)
    if not _valid(p, args.horizon, args.seed):
        return 1
    sc = _solver_config(args)
    out = _out_dir(args)
    pair, diag = solve(p, sc, qc)
    residuals = verify_residuals(p, pair)
    _write_manifest(out, args, qc=qc, sc=sc)
    _write_solution(out, pair, gnuplot_script=args.gnuplot_script)
    with open(out / "diagnostics.json", "w") as fh:
        json.dump({"solve": diag.to_dict(), "residuals": residuals.to_dict(),
                   "solution_norm": norm_X(pair)}, fh, indent=2)
    status = "converged" if diag.converged else "did NOT converge"
    print(f"{status} after {diag.iterations} iterations; "
          f"final residual {diag.residual_history[-1]:.3e}; "
          f"outputs in {out}")
    return 0 if diag.converged else 2


def cmd_check(args):
    p, qc = _resolve(args)
    if p.bounds is None:
        raise ValueError("the problem carries no Caratheodory bounds "
                         "(field 'bounds'); the audit needs Phi/Psi and the four "
                         "impulse-bound sequences")
    rho1 = args.rho1 if args.rho1 is not None else args.rho
    report = run_audit(p, p.bounds, rho=args.rho, rho1=rho1, K=args.K,
                       qc=qc, samples=args.samples, seed=args.seed,
                       ball_samples=args.ball_samples,
                       sample_at_rho=not args.sample_at_rho2)
    out = _out_dir(args)
    _write_manifest(out, args, qc=qc)
    report.to_json(out / "hypothesis_report.json")
    print(report.summary())
    return 0 if report.all_pass else 3


def _study_levels(args):
    """The quadrature config of each study level, all checked before any
    level is solved."""
    if args.horizons and args.mesh_levels:
        raise ValueError("pick one study axis: --horizons or --mesh-levels")
    if args.horizons:
        hs = [float(x) for x in args.horizons.split(",")]
        if any(b <= a for a, b in zip(hs, hs[1:])):
            raise ValueError(f"--horizons must increase, got {args.horizons}")
        levels = [(h, args.mesh_spacing) for h in hs]
    elif args.mesh_levels:
        levels = [(args.horizon, float(m)) for m in args.mesh_levels.split(",")]
    else:
        raise ValueError("study needs --horizons or --mesh-levels")
    return [QuadratureConfig(horizon=h, mesh_spacing=m) for h, m in levels]


def cmd_study(args):
    levels = _study_levels(args)
    sc = _solver_config(args)
    p0 = _load(args)
    if not _valid(p0, max(qc.horizon for qc in levels), args.seed):
        return 1
    out = _out_dir(args)

    rows = []
    prev = None
    for qc in levels:
        row = {"horizon": qc.horizon, "mesh_spacing": qc.mesh_spacing}
        try:
            pair, diag = solve(p0, sc, qc)
            residuals = verify_residuals(p0, pair)
            row.update({
                "converged": diag.converged,
                "iterations": diag.iterations,
                "residual": diag.residual_history[-1],
                "ode_residual": residuals.max_ode_residual,
                "integral_tail": diag.truncation.integral_tail_estimate,
                "impulse_tail": diag.truncation.impulse_tail_estimate,
                "diff_to_prev": (difference_norm(prev, pair)
                                 if prev is not None else None),
            })
            prev = pair
        except (RuntimeError, ValueError) as exc:
            row["error"] = str(exc)
        rows.append(row)

    _write_manifest(out, args, sc=sc)
    fields = ["horizon", "mesh_spacing", "converged", "iterations", "residual",
              "ode_residual", "integral_tail", "impulse_tail", "diff_to_prev",
              "error"]
    with open(out / "study.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        for row in rows:
            w.writerow({k: row.get(k, "") for k in fields})
    for row in rows:
        print(" ".join(f"{k}={row[k]}" for k in fields if row.get(k) is not None))
    return 0 if any("error" not in r for r in rows) else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = {"solve": cmd_solve, "check": cmd_check, "study": cmd_study}[args.command]
    try:
        code = command(args)
    except (RuntimeError, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        msg = exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else exc
        print(f"error: {msg}", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
