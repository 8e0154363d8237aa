"""Benchmark of the impulsebvp command line: CLI workloads, end-to-end
timings and memory, per-module layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-impulse --seed 1 --seconds 60 --trace 0

The workload runs in one child process (``worker.py``), single-threaded,
with BLAS threads pinned to 1 and the checkout's ``src`` on the import path.
The child's standard output passes through; its last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.  Metric names and
units are declared in ``BENCHMARK.json``; the design is in DESIGN.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REQUIRED = ("BENCHMARK.json", "src/impulsebvp/cli.py", "demos/problems/manufactured.json",
            "demos/problems/pendulum.json")
DEADLINE_S = 170  # the whole run must end within 180 s
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced problem size, for checking the benchmark itself")
    args = ap.parse_args(argv)

    root = Path.cwd()
    missing = [f for f in REQUIRED if not (root / f).is_file()]
    if missing:
        print(f"error: run from the root of an impulsebvp checkout; missing {missing}",
              file=sys.stderr)
        return 2

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    env.update({k: "1" for k in PINNED_THREADS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work),
           "--spec", str(root / "BENCHMARK.json")]
    if args.smoke:
        cmd.append("--smoke")
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        child = subprocess.run(cmd, env=env, cwd=root, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        print(f"error: the workload did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0 if child.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
