"""Problem files: a JSON schema plus a registry of named model functions.

Arbitrary mathematical expressions are deliberately not parsed; right-hand
sides and impulse maps are selected from the registry below by name plus
parameters (see docs/problem-format.md for the schema).  Whole instances
can also be requested through the top-level ``model`` key, e.g.
``{"model": "spring-pendulum", "params": {...}}``.
"""

import json
import math

import numpy as np

from .audit import CaratheodoryBounds
from .manufactured import manufactured_problem
from .model import (BoundaryData, ImpulseMap, ImpulseSchedule,
                    ImpulsiveCoupledBVP, RhsFunction)
from .pendulum import (PendulumParams, build_pendulum_problem, spring_pendulum_f,
                       spring_pendulum_h)

__all__ = ["load_problem", "load_problem_file", "RHS_REGISTRY",
           "IMPULSE_REGISTRY", "MODEL_REGISTRY", "BOUND_REGISTRY",
           "SEQ_BOUND_REGISTRY"]


def _rhs_zero():
    return lambda t, x, y, z, w: np.zeros_like(t)


def _rhs_constant(value=0.0):
    return lambda t, x, y, z, w: np.full_like(t, float(value))


def _rhs_exp_decay(amplitude=1.0, rate=1.0):
    return lambda t, x, y, z, w: amplitude * np.exp(-rate * t)


def _rhs_decaying_sin_state(amplitude=0.25, rate=1.0):
    return lambda t, x, y, z, w: amplitude * np.exp(-rate * t) * np.sin(x)


def _rhs_bump_weighted_state(mass=0.5, center=2.0, width=0.05):
    amp = mass / (width * math.sqrt(2.0 * math.pi))
    return lambda t, x, y, z, w: (
        amp * np.exp(-0.5 * ((t - center) / width) ** 2) * x / (1.0 + t))


def _rhs_linear_state_decay(cx=0.0, cy=0.0, cz=0.0, cw=0.0, c0=0.0, rate=1.0):
    return lambda t, x, y, z, w: np.exp(-rate * t) * (
        c0 + cx * x + cy * y + cz * z + cw * w)


RHS_REGISTRY = {
    "zero": _rhs_zero,
    "constant": _rhs_constant,
    "exp_decay": _rhs_exp_decay,
    "decaying_sin_state": _rhs_decaying_sin_state,
    "bump_weighted_state": _rhs_bump_weighted_state,
    "linear_state_decay": _rhs_linear_state_decay,
    "spring_pendulum_f": spring_pendulum_f,
    "spring_pendulum_h": spring_pendulum_h,
}


def _imp_zero():
    return lambda p, a, b: np.zeros_like(p)


def _imp_constant(value=0.0):
    return lambda p, a, b: np.full_like(p, float(value))


def _imp_linear(c0=0.0, ca=0.0, cb=0.0):
    return lambda p, a, b: c0 + ca * a + cb * b


def _imp_power_decay(ca=0.0, cb=0.0, c0=0.0, power=3.0):
    return lambda p, a, b: (c0 + ca * a + cb * b) / p ** power


def _imp_point_values(points=(), values=()):
    table = {float(p): float(v) for p, v in zip(points, values)}

    def fn(p, a, b):
        p = np.atleast_1d(np.asarray(p, dtype=float))
        return np.asarray([table.get(float(pp), 0.0) for pp in p])

    return fn


IMPULSE_REGISTRY = {
    "zero": _imp_zero,
    "constant": _imp_constant,
    "linear": _imp_linear,
    "power_decay": _imp_power_decay,
    "point_values": _imp_point_values,
}


def _bound_zero():
    fn = lambda rho, t: np.zeros_like(np.asarray(t, dtype=float))
    tail = lambda rho, t: 0.0
    return fn, tail


def _bound_constant(value=1.0, rho_power=0.0):
    fn = lambda rho, t: np.full_like(np.asarray(t, dtype=float),
                                     value * rho ** rho_power)
    return fn, None  # a constant dominator has no finite tail integral


def _bound_exp_decay(amplitude=1.0, rate=1.0, rho_power=0.0):
    fn = lambda rho, t: (amplitude * rho ** rho_power
                         * np.exp(-rate * np.asarray(t, dtype=float)))
    tail = lambda rho, t: amplitude * rho ** rho_power * math.exp(-rate * t) / rate
    return fn, tail


BOUND_REGISTRY = {
    "zero": _bound_zero,
    "constant": _bound_constant,
    "exp_decay": _bound_exp_decay,
}


def _seq_zero():
    fn = lambda rho, k: np.zeros_like(np.asarray(k, dtype=float))
    tail = lambda rho, K: 0.0
    return fn, tail


def _seq_power(c=1.0, power=3.0, rho_power=1.0):
    if power <= 1.0:
        raise ValueError("sequence bound needs power > 1 to be summable")
    fn = lambda rho, k: c * rho ** rho_power / np.asarray(k, dtype=float) ** power
    tail = lambda rho, K: c * rho ** rho_power * K ** (1.0 - power) / (power - 1.0)
    return fn, tail


SEQ_BOUND_REGISTRY = {
    "zero": _seq_zero,
    "power": _seq_power,
}


def _call(registry, what, name, params, where=""):
    """``registry[name](**params)``; an unknown name, or params the entry does
    not take, is a KeyError naming ``what`` and the entry."""
    if name not in registry:
        raise KeyError(f"unknown {what} {name!r}{where}; registry: {sorted(registry)}")
    try:
        return registry[name](**params)
    except TypeError as exc:
        raise KeyError(f"{what} {name!r}{where}: {exc}") from exc


def _make(cls, registry, what, spec):
    """``cls`` (RhsFunction or ImpulseMap) of a {"name", "params"} spec; zero if absent."""
    if spec is None:
        spec = {"name": "zero"}
    name, params = spec["name"], spec.get("params", {})
    return cls(_call(registry, what, name, params), name=name)


def _make_bounds(spec):
    if spec is None:
        return None

    def pick(key, registry):
        sub = spec.get(key, {"name": "zero"})
        return _call(registry, "bound family", sub["name"], sub.get("params", {}),
                     f" for {key}")

    Phi, tail_f = pick("Phi", BOUND_REGISTRY)
    Psi, tail_h = pick("Psi", BOUND_REGISTRY)
    phi_seq, t_phi = pick("phi_seq", SEQ_BOUND_REGISTRY)
    psi_seq, t_psi = pick("psi_seq", SEQ_BOUND_REGISTRY)
    phij_seq, t_phij = pick("phij_seq", SEQ_BOUND_REGISTRY)
    theta_seq, t_theta = pick("thetaj_seq", SEQ_BOUND_REGISTRY)
    return CaratheodoryBounds(
        Phi=Phi, Psi=Psi, phi_seq=phi_seq, psi_seq=psi_seq,
        phij_seq=phij_seq, thetaj_seq=theta_seq,
        tail_integral_f=tail_f, tail_integral_h=tail_h,
        seq_tail_phi=t_phi, seq_tail_psi=t_psi,
        seq_tail_phij=t_phij, seq_tail_theta=t_theta,
        u_floor=spec.get("u_floor"))


def _make_schedule(spec) -> ImpulseSchedule:
    if spec is None:
        return ImpulseSchedule.empty()
    if "points" in spec:
        return ImpulseSchedule(points=tuple(spec["points"]))
    rule = spec.get("rule")
    if rule == "integers":
        step = float(spec.get("step", 1.0))
        return ImpulseSchedule(rule=lambda k: k * step)
    if rule == "arithmetic":
        start = float(spec["start"])
        step = float(spec["step"])
        return ImpulseSchedule(rule=lambda k: start + (k - 1) * step)
    raise KeyError(f"unknown schedule rule {rule!r}")


def _model_pendulum(**params):
    if "alpha" in params:
        params["alpha"] = tuple(params["alpha"])
    return build_pendulum_problem(PendulumParams(**params))


MODEL_REGISTRY = {
    "spring-pendulum": _model_pendulum,
    "manufactured-exp": manufactured_problem,
}


def load_problem(doc) -> ImpulsiveCoupledBVP:
    """Build a problem from a parsed JSON document (a dict)."""
    if "model" in doc:
        return _call(MODEL_REGISTRY, "model", doc["model"], doc.get("params", {}))

    bd = doc.get("boundary")
    if bd is None:
        raise KeyError("problem file needs a 'boundary' object (A1, A2, B1, B2)")
    boundary = BoundaryData(A1=float(bd["A1"]), A2=float(bd["A2"]),
                            B1=float(bd["B1"]), B2=float(bd["B2"]))
    rhs = doc.get("rhs", {})
    imp = doc.get("impulses", {})
    u_spec = imp.get("u", {})
    v_spec = imp.get("v", {})
    return ImpulsiveCoupledBVP(
        f=_make(RhsFunction, RHS_REGISTRY, "rhs", rhs.get("f")),
        h=_make(RhsFunction, RHS_REGISTRY, "rhs", rhs.get("h")),
        boundary=boundary,
        u_schedule=_make_schedule(u_spec.get("schedule")),
        v_schedule=_make_schedule(v_spec.get("schedule")),
        I0=_make(ImpulseMap, IMPULSE_REGISTRY, "impulse map", u_spec.get("I0")),
        I1=_make(ImpulseMap, IMPULSE_REGISTRY, "impulse map", u_spec.get("I1")),
        J0=_make(ImpulseMap, IMPULSE_REGISTRY, "impulse map", v_spec.get("J0")),
        J1=_make(ImpulseMap, IMPULSE_REGISTRY, "impulse map", v_spec.get("J1")),
        t0=float(doc.get("t0", 0.0)),
        bounds=_make_bounds(doc.get("bounds")),
    )


def load_problem_file(path) -> ImpulsiveCoupledBVP:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level")
    return load_problem(doc)
