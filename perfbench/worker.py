"""Runs one benchmark workload in this process and prints the result.

``run.py`` starts it as a child process with BLAS threads pinned to 1 and
``src`` on the import path; the last line of standard output is the result
object.  Commands run in a closed loop: each CLI command starts after the
previous one and its output checks have finished.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` the first half of the time runs untraced commands, the second
half traced ones, and the result holds the per-layer metrics (medians over
the traced commands) and the tracing overhead.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import time
from pathlib import Path

from impulsebvp import audit, cli, fnspace, model, operator, problemfile, solver
from impulsebvp.operator import QuadratureConfig, apply_T, problem_meshes
from impulsebvp.problemfile import load_problem

import workloads as wl
from spans import Tracer

SETUP_BLOCK_S = 0.3
MIN_COMMANDS = 3
WARMUP_HORIZON = 5.0  # the warm-up command runs on the same problem, cut short
SWEEP = {  # name: (impulse spacing, mesh spacing) on H = 40
    "K40": (1.0, 0.01), "K400": (0.1, 0.01), "K2000": (0.02, 0.01),
    "N4000": (1.0, 0.01), "N8000": (1.0, 0.005), "N16000": (1.0, 0.0025),
}
SWEEP_REPEATS = 3
TRACED_SETUPS = 5

# the calls that produce the checked answer: their time is verified_solve_s
CHECKED_ANSWER = ((solver, "solve"), (solver, "verify_residuals"), (audit, "run_audit"))
LAYER_FUNCTIONS = CHECKED_ANSWER + (
    (operator, "apply_T"), (audit, "check_domination"), (audit, "check_impulse_bounds"),
    (audit, "compute_rho2_entries"), (audit, "sample_ball_pair"),
    (audit, "check_ball_invariance"), (fnspace, "build_mesh"), (fnspace, "norm_X"),
    (fnspace, "pair_lincomb"), (model, "validate_problem"),
    (problemfile, "load_problem_file"), (cli, "cmd_solve"), (cli, "cmd_check"))


def span_name(mod, fn):
    return f"{mod.__name__.rsplit('.', 1)[-1]}.{fn}"


def install_stopwatch(tracer):
    """Spans around the calls that produce the checked answer only."""
    for mod, fn in CHECKED_ANSWER:
        tracer.wrap_function(getattr(mod, fn), span_name(mod, fn))


def install_layers(tracer):
    """Spans around the public functions and methods of every traced module."""
    for mod, fn in LAYER_FUNCTIONS:
        tracer.wrap_function(getattr(mod, fn), span_name(mod, fn))
    fn_cls = fnspace.PiecewiseC1Function
    tracer.wrap_method(fn_cls, "__call__", "fnspace.eval", sized=True)
    tracer.wrap_method(fn_cls, "deriv", "fnspace.eval", sized=True)
    tracer.wrap_method(fn_cls, "left_limits_at", "fnspace.left_limits_at")
    tracer.wrap_method(fnspace.Mesh, "impulse_slots", "fnspace.impulse_slots")
    tracer.wrap_method(model.RhsFunction, "__call__", "model.rhs", sized=True)
    tracer.wrap_method(model.ImpulseMap, "__call__", "model.impulse_map")
    tracer.wrap_method(model.ImpulseSchedule, "points_below", "model.points_below")


class Runner:
    """One workload at one seed: its inputs, commands and checks."""

    def __init__(self, name, seed, work_dir, horizon):
        self.workload = wl.WORKLOADS[name]
        self.seed = seed
        self.horizon = horizon
        self.out_dir = work_dir / "out"
        self.qc = QuadratureConfig(horizon=horizon, mesh_spacing=self.workload.mesh_spacing)
        self.info = {"workload": name, "seed": seed}
        if self.workload.problem:
            self.problem_path = Path(self.workload.problem)
        else:
            self.problem_path = work_dir / "problem.json"
            with open(self.problem_path, "w") as fh:
                json.dump(wl.dense_impulse_problem(seed, horizon), fh, indent=1)
            self.info["problem_sha256"] = wl.sha256_file(self.problem_path)
        self.problem = problemfile.load_problem_file(self.problem_path)
        self.failures = []
        self.attempted = 0
        self.digests = set()

    def setup(self):
        """The per-problem work before the first operator application."""
        p = problemfile.load_problem_file(self.problem_path)
        model.validate_problem(p, self.horizon, seed=self.seed)
        return problem_meshes(p, self.qc)

    def command(self, tracer, warm_up=False):
        """Run one CLI command and check its outputs; returns its wall time.

        A warm-up command runs on the horizon WARMUP_HORIZON and is neither
        counted nor checked."""
        argv = wl.command_argv(self.workload, self.problem_path, self.out_dir, self.seed,
                               WARMUP_HORIZON if warm_up else self.horizon)
        tracer.last.clear()
        tracer.enabled = True
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                cli.main(argv)
                code = 0
            except SystemExit as exc:
                code = exc.code
            elapsed = time.perf_counter() - start
        tracer.enabled = False
        if warm_up:
            tracer.drain()
            return elapsed
        self.attempted += 1
        res = wl.Result(self.workload, code, self.out_dir, self.problem, self.qc,
                        solved=tracer.last.get("solver.solve"))
        try:
            fails = [msg for check in self.workload.checks for msg in check(res)]
            self.digests.add(wl.sha256_file(self.out_dir / wl.output_file(self.workload)))
        except (OSError, KeyError, ValueError, TypeError) as exc:
            fails = [f"output check raised {exc!r}"]
        if fails:
            self.failures.append(fails)
        return elapsed

    def loop(self, tracer, seconds, min_commands, between=None):
        """Closed loop for ``seconds``; per command (wall time, span summary).

        ``between`` runs after each command, outside its timing.  A command
        starts only if one of typical length (with its checks and
        ``between``) would end within ``seconds``, so the loop does not
        overrun by a whole command."""
        out, costs = [], []
        end = time.perf_counter() + seconds
        while len(out) < min_commands or time.perf_counter() + statistics.median(costs) < end:
            start = time.perf_counter()
            tracer.request += 1
            elapsed = self.command(tracer)
            out.append((elapsed, tracer.drain()))
            if between is not None:
                between()
            costs.append(time.perf_counter() - start)
        return out


def verified_seconds(by_name):
    names = (span_name(mod, fn) for mod, fn in CHECKED_ANSWER)
    return sum(by_name[n][1] for n in names if n in by_name)


def run_end_to_end(runner, seconds, smoke):
    stopwatch = Tracer()
    install_stopwatch(stopwatch)
    runner.command(stopwatch, warm_up=True)
    setup = SetupTimer(runner, 0.01 if smoke else SETUP_BLOCK_S)
    samples = runner.loop(stopwatch, seconds, 1 if smoke else MIN_COMMANDS,
                          between=setup.block)
    stopwatch.uninstall()
    runner.info["run_s_samples"] = [round(s[0], 4) for s in samples]
    runner.info["setup_s_samples"] = [round(s, 6) for s in setup.samples]
    return {
        "run_s": statistics.median(s[0] for s in samples),
        "verified_solve_s": statistics.median(verified_seconds(s[1][0]) for s in samples),
        "setup_s": statistics.median(setup.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


class SetupTimer:
    """Times the per-problem set-up in blocks of repeats.

    One set-up takes a few milliseconds, too short to time alone.  The
    first block runs for ``block_s`` and fixes the repeat count; one more
    block runs after every timed command, so that set-up is sampled across
    the whole run, under the same host load as the commands."""

    def __init__(self, runner, block_s):
        self.setup = runner.setup
        self.repeats = 0
        self.samples = []
        start = time.perf_counter()
        while time.perf_counter() - start < block_s:
            self.setup()
            self.repeats += 1
        self.samples.append((time.perf_counter() - start) / self.repeats)

    def block(self):
        start = time.perf_counter()
        for _ in range(self.repeats):
            self.setup()
        self.samples.append((time.perf_counter() - start) / self.repeats)


def layer_metrics(by_name, by_parent):
    """Per-layer metrics of one traced command."""
    zero = [0, 0.0, 0.0, 0]
    n = lambda name: by_name.get(name, zero)
    under = lambda name, parent: by_parent.get((name, parent), zero)
    apply_calls, apply_s, apply_self, _ = n("operator.apply_T")
    rhs_in_apply = under("model.rhs", "operator.apply_T")[2]
    cmd = [a + b for a, b in zip(n("cli.cmd_solve"), n("cli.cmd_check"))]
    return {
        "operator.apply_calls": apply_calls,
        "operator.apply_s": apply_s,
        "operator.apply_self_s": apply_self,
        "operator.apply_ms": 1e3 * apply_s / apply_calls if apply_calls else 0.0,
        "operator.quad_points": rhs_in_apply / (2 * apply_calls) if apply_calls else 0.0,
        "fnspace.eval_calls": n("fnspace.eval")[0],
        "fnspace.eval_points": n("fnspace.eval")[3],
        "fnspace.eval_s": n("fnspace.eval")[1],
        "fnspace.impulse_slots_calls": n("fnspace.impulse_slots")[0],
        "fnspace.impulse_slots_s": n("fnspace.impulse_slots")[1],
        "fnspace.left_limits_calls": n("fnspace.left_limits_at")[0],
        "fnspace.build_mesh_calls": n("fnspace.build_mesh")[0],
        "fnspace.build_mesh_s": n("fnspace.build_mesh")[1],
        "fnspace.norm_s": n("fnspace.norm_X")[1],
        "fnspace.lincomb_s": n("fnspace.pair_lincomb")[1],
        "model.rhs_calls": n("model.rhs")[0],
        "model.rhs_points": n("model.rhs")[3],
        "model.rhs_s": n("model.rhs")[1],
        "model.impulse_map_calls": n("model.impulse_map")[0],
        "model.impulse_map_s": n("model.impulse_map")[1],
        "model.schedule_enum_calls": n("model.points_below")[0],
        "model.schedule_enum_s": n("model.points_below")[1],
        "solver.solve_s": n("solver.solve")[1],
        "solver.self_s": n("solver.solve")[2],
        "solver.iterations": under("operator.apply_T", "solver.solve")[0],
        "solver.verify_s": n("solver.verify_residuals")[1],
        "audit.domination_s": n("audit.check_domination")[1],
        "audit.impulse_bounds_s": n("audit.check_impulse_bounds")[1],
        "audit.rho2_s": n("audit.compute_rho2_entries")[1],
        "audit.ball_sample_s": n("audit.sample_ball_pair")[1],
        "audit.ball_apply_s": under("operator.apply_T", "audit.check_ball_invariance")[1],
        "cli.output_s": cmd[2],
    }


def output_metrics(runner):
    """Sizes and accuracy of the last command's outputs."""
    out = runner.out_dir
    m = {"cli.output_bytes": sum(f.stat().st_size for f in out.iterdir() if f.is_file()),
         "cli.output_rows": 0, "solver.ode_residual": 0.0, "solver.jump_residual": 0.0,
         "solver.boundary_residual": 0.0, "manufactured.solution_error": 0.0,
         "audit.ball_tested": 0, "audit.ball_inside_ratio": 0.0}
    if runner.workload.command == "solve":
        with open(out / "solution.csv") as fh:
            m["cli.output_rows"] = sum(1 for _ in fh) - 1
        ode, jump, boundary = wl.residual_maxima(wl.read_json(out / "diagnostics.json"))
        m.update({"solver.ode_residual": ode, "solver.jump_residual": jump,
                  "solver.boundary_residual": boundary})
        if runner.workload.exact_solution:
            m["manufactured.solution_error"] = wl.solution_error(out / "solution.csv")
    else:
        rep = wl.read_json(out / "hypothesis_report.json")
        m["audit.ball_tested"] = rep["ball_tested"]
        if rep["ball_tested"]:
            m["audit.ball_inside_ratio"] = rep["ball_inside"] / rep["ball_tested"]
    return m


def sweep(horizon):
    """Median apply_T time (ms) at each K/N sweep point."""
    out = {}
    for name, (step, spacing) in SWEEP.items():
        p = load_problem(wl.sweep_problem(step * horizon / wl.HORIZON))
        qc = QuadratureConfig(horizon=horizon, mesh_spacing=spacing)
        s = solver.initial_pair(p, qc)
        times = []
        for _ in range(SWEEP_REPEATS):
            start = time.perf_counter()
            apply_T(p, s, qc)
            times.append(time.perf_counter() - start)
        out[f"operator.apply_ms.{name}"] = 1e3 * statistics.median(times)
    return out


def run_traced(runner, seconds, smoke):
    """The K/N sweep (``dense-impulse`` only) runs first; the commands share
    what is left of ``seconds``, so the run lasts ``seconds`` in all."""
    min_commands = 1 if smoke else 2
    start = time.perf_counter()
    if runner.info["workload"] == "dense-impulse":
        scaling = sweep(runner.horizon)
    else:
        scaling = {f"operator.apply_ms.{k}": 0.0 for k in SWEEP}
    seconds = max(0.0, seconds - (time.perf_counter() - start))
    stopwatch = Tracer()
    install_stopwatch(stopwatch)
    runner.command(stopwatch, warm_up=True)
    plain = runner.loop(stopwatch, seconds / 2, min_commands)
    stopwatch.uninstall()
    plain_digests = set(runner.digests)

    tracer = Tracer()
    install_layers(tracer)
    setup = []
    for _ in range(min_commands if smoke else TRACED_SETUPS):
        tracer.request += 1
        tracer.enabled = True
        mu, mv = runner.setup()
        tracer.enabled = False
        by_name, _ = tracer.drain()
        setup.append((by_name["model.validate_problem"][1],
                      by_name["problemfile.load_problem_file"][1]))
    traced = runner.loop(tracer, seconds / 2, min_commands)
    tracer.uninstall()
    if runner.digests != plain_digests:
        runner.failures.append(["traced and untraced output digests differ"])

    per_command = [layer_metrics(*s[1]) for s in traced]
    metrics = {k: statistics.median(m[k] for m in per_command) for k in per_command[0]}
    metrics.update(output_metrics(runner))
    metrics.update({
        "fnspace.n_slots": mu.n_slots + mv.n_slots,
        "model.validate_s": statistics.median(s[0] for s in setup),
        "problemfile.load_s": statistics.median(s[1] for s in setup),
        "trace.overhead_s": (statistics.median(s[0] for s in traced)
                             - statistics.median(s[0] for s in plain)),
    })
    metrics.update(scaling)
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--spec", type=Path, required=True, help="BENCHMARK.json")
    ap.add_argument("--smoke", action="store_true",
                    help="reduced size: horizon 5, one command per loop")
    args = ap.parse_args(argv)

    with open(args.spec) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    horizon = 5.0 if args.smoke else wl.HORIZON
    runner = Runner(args.workload, args.seed, args.work_dir, horizon)
    if args.trace:
        values = run_traced(runner, args.seconds, args.smoke)
    else:
        values = run_end_to_end(runner, args.seconds, args.smoke)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not "
                           f"the ones {args.spec} declares")

    mu, mv = runner.setup()
    info = dict(runner.info, commands=runner.attempted, n_slots_u=mu.n_slots,
                n_slots_v=mv.n_slots, k_u=int(mu.impulse_times.size),
                k_v=int(mv.impulse_times.size),
                output_sha256=sorted(runner.digests), failures=runner.failures[:3])
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    main()
