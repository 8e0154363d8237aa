"""The spring-pendulum instance: a mass on a spring swinging from the
ceiling, with the spring length and the swing angle coupled through a
second-order system carrying a 1/t^3 time weight, impulses at the integers,
and derivative data prescribed at infinity.

The right-hand sides contain 1/t^3 (taken verbatim from the model) and the
angle equation divides by the squared length, so the instance is posed on a
working domain [t0, inf) with t0 > 0 and comes with a user assertion
``l_min`` that the length stays above a positive floor.  The dominating
bound functions, summable impulse-bound sequences, and their closed-form
tails are attached so the hypothesis audit runs out of the box.
"""

from dataclasses import dataclass

import numpy as np

from .fnspace import _require_positive
from .model import (BoundaryData, CaratheodoryBounds, ImpulseMap, ImpulseSchedule,
                    ImpulsiveCoupledBVP, RhsFunction, staged)

__all__ = ["PendulumParams", "build_pendulum_problem",
           "spring_pendulum_f", "spring_pendulum_h",
           "pendulum_bound_Phi", "pendulum_bound_Psi"]


@dataclass(frozen=True)
class PendulumParams:
    """Physical and impulse parameters of the spring pendulum.

    ``alpha`` are the eight impulse coefficients; ``beta``/``gamma`` the
    decay exponents of the derivative-jump (resp. angle-jump) sequences,
    both at least 3 so the bound sequences are summable with room for the
    integral-test tails.  ``l_min`` is the asserted lower bound of the
    spring length used by the angle equation's dominator.
    """

    m: float = 1.0
    k: float = 1.0
    g: float = 9.8
    l0: float = 1.0
    alpha: tuple = (0.1,) * 8
    beta: float = 3.0
    gamma: float = 3.0
    B1: float = 0.5
    B2: float = 0.5
    t0: float = 1.0
    l_min: float = 1.0

    def __post_init__(self):
        # every guard is written so that NaN fails it
        _require_positive(m=self.m, l0=self.l0, l_min=self.l_min)
        if not (0.0 <= self.k < np.inf and 0.0 <= self.g < np.inf):
            raise ValueError("spring constant and gravity must be finite and >= 0")
        if not (3.0 <= self.beta < np.inf and 3.0 <= self.gamma < np.inf):
            raise ValueError("beta and gamma must be finite and >= 3")
        if not (0.0 <= self.B1 <= np.pi and 0.0 <= self.B2 <= np.pi):
            raise ValueError("B1, B2 must lie in [0, pi]")
        if len(self.alpha) != 8 or not np.all(np.isfinite(self.alpha)):
            raise ValueError("alpha must have eight finite entries")
        if not self.t0 > 0.0:
            raise ValueError("the pendulum right-hand sides contain 1/t^3; "
                             "pick a working-domain start t0 > 0")


def spring_pendulum_f(m=1.0, k=1.0, g=9.8, l0=1.0):
    """The length equation's right-hand side f(t, x, y, z, w), with
    x = length, y = angle, z = length', w = angle'."""
    km = k / m

    def at(t):
        t3 = t ** 3
        return lambda x, y, z, w: (x * w - g * np.cos(y) - km * (x - l0)) / t3

    return staged(at)


def spring_pendulum_h(m=1.0, k=1.0, g=9.8, l0=1.0):
    """The angle equation's right-hand side h(t, x, y, z, w); ``m``, ``k``
    and ``l0`` do not enter it and are accepted for a uniform signature."""

    def at(t):
        t3 = t ** 3
        return lambda x, y, z, w: (-g * x * np.sin(y) - 2.0 * x * z * w) / (t3 * x * x)

    return staged(at)


def pendulum_bound_Phi(pp: PendulumParams, rho, t):
    """Dominator of the length equation on the rho-ball:
    (1/t^3) (rho^2 (1+t) + g + (k/m)(rho (1+t) + l0))."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= pp.t0):
        raise ValueError("bound evaluated below the working domain start")
    return (rho * rho * (1.0 + t) + pp.g
            + (pp.k / pp.m) * (rho * (1.0 + t) + pp.l0)) / t ** 3


def pendulum_bound_Psi(pp: PendulumParams, rho, t, l_min=None):
    """Dominator of the angle equation, valid while the length stays >= l_min:
    (1/t^3) (g rho (1+t) + 2 rho^3 (1+t)) / l_min^2."""
    l_min = pp.l_min if l_min is None else l_min
    _require_positive(l_min=l_min)
    t = np.asarray(t, dtype=float)
    return (pp.g * rho + 2.0 * rho ** 3) * (1.0 + t) / (t ** 3 * l_min ** 2)


def _affine_tail(c_lin, c_const, t):
    """integral_t^inf (c_lin (1+s) + c_const) / s^3 ds in closed form."""
    return c_lin * (1.0 / t + 0.5 / t ** 2) + c_const * 0.5 / t ** 2


def _power_seq(ca, cb, power):
    """k -> rho (|ca| (1+k) + |cb|) / k^power and its integral-test tail."""
    ca, cb = abs(ca), abs(cb)

    def seq(rho, k):
        k = np.asarray(k, dtype=float)
        return rho * (ca * (1.0 + k) + cb) / k ** power

    def tail(rho, K):
        # sum_{k>K} (ca k + ca + cb) / k^p <= ca K^(2-p)/(p-2) + (ca+cb) K^(1-p)/(p-1)
        return rho * (ca * K ** (2.0 - power) / (power - 2.0)
                      + (ca + cb) * K ** (1.0 - power) / (power - 1.0))

    return seq, tail


def _pendulum_bounds(pp: PendulumParams) -> CaratheodoryBounds:
    def tail_f(rho, t):
        return _affine_tail(rho * rho + rho * pp.k / pp.m,
                            pp.g + pp.k * pp.l0 / pp.m, t)

    def tail_h(rho, t):
        return _affine_tail((pp.g * rho + 2.0 * rho ** 3) / pp.l_min ** 2, 0.0, t)

    return CaratheodoryBounds.from_pairs({
        "Phi": (lambda rho, t: pendulum_bound_Phi(pp, rho, t), tail_f),
        "Psi": (lambda rho, t: pendulum_bound_Psi(pp, rho, t), tail_h),
        "phi_seq": _power_seq(pp.alpha[0], pp.alpha[1], 3.0),
        "psi_seq": _power_seq(pp.alpha[2], pp.alpha[3], pp.beta),
        "phij_seq": _power_seq(pp.alpha[4], pp.alpha[5], pp.gamma),
        "thetaj_seq": _power_seq(pp.alpha[6], pp.alpha[7], 3.0),
    }, u_floor=pp.l_min)


def build_pendulum_problem(pp: PendulumParams) -> ImpulsiveCoupledBVP:
    """Assemble the coupled problem with attached Caratheodory bounds.

    State map: x = length, y = angle, z = length', w = angle'.  Impulse
    schedules are the integers (t_k = k, tau_j = j); since times equal
    indices, the power-decay jump maps read the index off the time.
    """
    phys = {"m": pp.m, "k": pp.k, "g": pp.g, "l0": pp.l0}
    a = pp.alpha
    integers = ImpulseSchedule(rule=lambda k: float(k))
    return ImpulsiveCoupledBVP(
        f=RhsFunction(spring_pendulum_f(**phys), name="spring-pendulum-f"),
        h=RhsFunction(spring_pendulum_h(**phys), name="spring-pendulum-h"),
        boundary=BoundaryData(A1=0.0, A2=0.0, B1=pp.B1, B2=pp.B2),
        u_schedule=integers,
        v_schedule=integers,
        I0=ImpulseMap(lambda p, x, z: (a[0] * x + a[1] * z) / p ** 3, name="power-decay"),
        I1=ImpulseMap(lambda p, x, z: (a[2] * x + a[3] * z) / p ** pp.beta,
                      name="power-decay"),
        J0=ImpulseMap(lambda p, y, w: (a[4] * y + a[5] * w) / p ** pp.gamma,
                      name="power-decay"),
        J1=ImpulseMap(lambda p, y, w: (a[6] * y + a[7] * w) / p ** 3, name="power-decay"),
        t0=pp.t0,
        bounds=_pendulum_bounds(pp),
    )
