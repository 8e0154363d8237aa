"""Evaluating the fixed-point operator and its jump handling.

T1 assembles A1 + B1 t, the impulse sums, and the kernel integral of f
along the current iterate.  Three sanity views:

  1. with f = e^-s and zero boundary data, T1 equals -1 + e^-t;
  2. a single derivative impulse produces the characteristic two-sum
     shape: a ramp -d t before the impulse, a constant -d t1 after;
  3. jumps are inserted algebraically, so the output's jump registry
     reproduces the impulse-map values to machine precision.
"""

import numpy as np

from impulsebvp import (BoundaryData, ImpulseMap, ImpulseSchedule,
                        ImpulsiveCoupledBVP, QuadratureConfig, RhsFunction,
                        apply_T, initial_pair)

ZERO = RhsFunction(lambda t, x, y, z, w: np.zeros_like(t), name="zero")


def problem(f=ZERO, boundary=(0, 0, 0, 0), points=(), I0=None, I1=None):
    return ImpulsiveCoupledBVP(
        f=f, h=ZERO, boundary=BoundaryData(*boundary),
        u_schedule=ImpulseSchedule(points=tuple(points)),
        v_schedule=ImpulseSchedule.empty(),
        I0=I0 or ImpulseMap.zero(), I1=I1 or ImpulseMap.zero(),
        J0=ImpulseMap.zero(), J1=ImpulseMap.zero())


qc = QuadratureConfig(horizon=40.0, mesh_spacing=0.01)

print("1) representation oracle, f = e^-s:")
p = problem(f=RhsFunction(lambda t, x, y, z, w: np.exp(-t), name="exp_decay"))
image, report = apply_T(p, initial_pair(p, qc, "zero"), qc)
out = image.u
t = out.mesh.nodes
print(f"   sup |T1 - (-1 + e^-t)| = {np.max(np.abs(out.values - (-1 + np.exp(-t)))):.3e}")
print(f"   integral tail estimate   {report.integral_tail_estimate:.3e}")

print("\n2) single derivative impulse at t1 = 1 with size d = 0.7:")
d = 0.7
p = problem(points=(1.0,),
            I1=ImpulseMap(lambda pp, a, b: np.full_like(pp, d), name="const"))
qc10 = QuadratureConfig(horizon=10.0, mesh_spacing=0.05)
out = apply_T(p, initial_pair(p, qc10, "zero"), qc10)[0].u
for tt in (0.5, 1.0, 1.5, 3.0, 10.0):
    print(f"   T1({tt:5.2f}) = {out(tt):+8.4f}   T1'({tt:5.2f}) = {out.deriv(tt):+8.4f}")
print(f"   jump registry: {out.jump_registry}")

print("\n3) jump exactness on a coupled problem with state-dependent maps:")
p = problem(f=RhsFunction(lambda t, x, y, z, w: np.exp(-t) * np.sin(x), "f"),
            boundary=(1.0, 0.0, 0.5, 0.0), points=(1.0, 2.5, 4.0),
            I0=ImpulseMap(lambda pp, a, b: 0.2 * a + 0.1 * b, "lin"),
            I1=ImpulseMap(lambda pp, a, b: -0.1 * a + 0.3 * b, "lin"))
qc20 = QuadratureConfig(horizon=20.0, mesh_spacing=0.02)
s = initial_pair(p, qc20, "affine_boundary")
out = apply_T(p, s, qc20)[0].u
pts = np.asarray([j[0] for j in out.jump_registry])
a, b = s.u.left_limits_at(pts)
want0 = 0.2 * a + 0.1 * b
want1 = -0.1 * a + 0.3 * b
got0 = np.asarray([j[1] for j in out.jump_registry])
got1 = np.asarray([j[2] for j in out.jump_registry])
print(f"   max |registered - map| value jumps : {np.max(np.abs(got0 - want0)):.2e}")
print(f"   max |registered - map| deriv jumps : {np.max(np.abs(got1 - want1)):.2e}")
print(f"   T1(0) = {out.values[0]} (= A1 exactly)")
print(f"   T1'(H) = {out.derivs[-1]} (= B1 exactly after truncation)")
