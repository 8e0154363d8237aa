"""A manufactured impulsive problem with a known exact solution.

The first component is u(t) = 1 + t + e^(-t) plus a prescribed +0.5 value
jump at t = 1 and a -0.2 derivative jump at t = 2; reverse-engineering the
data gives f = u'' = e^(-t), A1 = u(0) = 2, and B1 = lim u' = 1 - 0.2 = 0.8
(the derivative jump shifts the slope at infinity).  The second component
is jump-free with h = e^(-t), A2 = 0, B2 = 1, i.e. v(t) = t - 1 + e^(-t).

Because the right-hand sides and jumps are state-independent, the operator
is a constant map and the solver lands on the exact solution in one step;
the instance is the ground-truth oracle for solver and residual tests.
"""

import numpy as np

from .model import (BoundaryData, ImpulseMap, ImpulseSchedule,
                    ImpulsiveCoupledBVP, RhsFunction, staged)

__all__ = ["manufactured_problem", "u_exact", "u_exact_deriv",
           "v_exact", "v_exact_deriv"]

JUMP_VALUE_AT_1 = 0.5
JUMP_DERIV_AT_2 = -0.2


def u_exact(t):
    """Left-continuous exact first component."""
    t = np.asarray(t, dtype=float)
    out = 1.0 + t + np.exp(-t)
    out = out + JUMP_VALUE_AT_1 * (t > 1.0)
    out = out + JUMP_DERIV_AT_2 * (t - 2.0) * (t > 2.0)
    return out


def u_exact_deriv(t):
    t = np.asarray(t, dtype=float)
    return 1.0 - np.exp(-t) + JUMP_DERIV_AT_2 * (t > 2.0)


def v_exact(t):
    t = np.asarray(t, dtype=float)
    return t - 1.0 + np.exp(-t)


def v_exact_deriv(t):
    t = np.asarray(t, dtype=float)
    return 1.0 - np.exp(-t)


def manufactured_problem() -> ImpulsiveCoupledBVP:
    def at(t):
        e = np.exp(-t)
        return lambda x, y, z, w: e

    exp_decay = staged(at)

    def jump_value(p, a, b):
        return np.where(np.asarray(p) == 1.0, JUMP_VALUE_AT_1, 0.0)

    def jump_deriv(p, a, b):
        return np.where(np.asarray(p) == 2.0, JUMP_DERIV_AT_2, 0.0)

    return ImpulsiveCoupledBVP(
        f=RhsFunction(exp_decay, name="exp_decay"),
        h=RhsFunction(exp_decay, name="exp_decay"),
        boundary=BoundaryData(A1=2.0, A2=0.0, B1=1.0 + JUMP_DERIV_AT_2, B2=1.0),
        u_schedule=ImpulseSchedule(points=(1.0, 2.0)),
        v_schedule=ImpulseSchedule.empty(),
        I0=ImpulseMap(jump_value, name="point-values"),
        I1=ImpulseMap(jump_deriv, name="point-values"),
        J0=ImpulseMap.zero(),
        J1=ImpulseMap.zero(),
        t0=0.0,
    )
