"""The spring-pendulum instance: build, iterate, and report honestly.

The existence theory guarantees a solution but offers no algorithm.  At
these desk-scale parameters the discrete problem has a fixed point (u(1)
about 2.063), but it repels: Picard cannot converge to it, damped or not,
and damped Picard and damped Anderson(4) mixing keep the iterates finite
while their residual stays above about 0.5.  Undamped Anderson(5) mixing
with 100 iterations reaches it here at h = 0.02 (43 iterations) and at
the default h = 0.01 (52); it misses it at h = 0.04 and h = 0.005, so
reaching the branch depends on the mixing and is not yet robust.
Non-convergence is a reported outcome with diagnostics, not an error;
the lowest-residual iterate is returned.  (gravity dominates the
right-hand side near t0 = 1; the jump maps themselves are mild.)
"""

import numpy as np

from impulsebvp import (QuadratureConfig, SolverConfig, solve,
                        validate_problem, verify_residuals)
from impulsebvp.pendulum import PendulumParams, build_pendulum_problem

pp = PendulumParams()  # m=1, k=1, g=9.8, l0=1, alpha=0.1, B1=B2=0.5, t0=1
p = build_pendulum_problem(pp)

report = validate_problem(p, 40.0)
print(f"validation passed: {report.passed}")
print(f"impulse times below 40: "
      f"{report.entries('u_schedule')[0]['details']['count_below_horizon']} "
      f"(t_k = k; the point at t0 = 1 is outside the working domain)")

qc = QuadratureConfig(horizon=40.0, mesh_spacing=0.02)
runs = (("damped Picard", SolverConfig(max_iter=40, damping=0.5)),
        ("damped Anderson(4)", SolverConfig(max_iter=40, damping=0.5, anderson_depth=4)),
        ("Anderson(5)", SolverConfig(max_iter=100, anderson_depth=5)))
for label, sc in runs:
    pair, diag = solve(p, sc, qc)
    h = diag.residual_history
    print(f"\n{label}, damping={sc.damping}, anderson={sc.anderson_depth}: "
          f"converged={diag.converged}, best residual {min(h):.3e} at iteration "
          f"{int(np.argmin(h)) + 1}")
    print(f"  first/last residuals: {h[0]:.2e} ... {h[-1]:.2e}")
    rr = verify_residuals(p, pair)
    what = ("solution" if diag.converged
            else "best iterate (not a solution, diagnostics only)")
    print(f"  residuals of the {label} {what}:")
    print(f"    ode: ({rr.ode_residual_sup[0]:.2e}, {rr.ode_residual_sup[1]:.2e}), "
          f"jumps: {max(rr.jump_residual_sup):.2e}")
    print(f"    length range on [1, 40]: [{pair.u.values.min():.3f}, "
          f"{pair.u.values.max():.3f}]")
