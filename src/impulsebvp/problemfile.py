"""Problem files: a JSON schema plus registries of named model functions.

Arbitrary mathematical expressions are deliberately not parsed; right-hand
sides, impulse maps, bound families and schedule rules are selected from
the registries below by name plus parameters (see docs/problem-format.md
for the schema).  Whole instances can also be requested through the
top-level ``model`` key, e.g. ``{"model": "spring-pendulum", "params":
{...}}``.  Every object of a document may hold only the keys of the
schema, and each error names the path of the object at fault.
"""

import json
import math

import numpy as np

from .manufactured import manufactured_problem
from .model import (_BOUND_TAILS, BoundaryData, CaratheodoryBounds, ImpulseMap,
                    ImpulseSchedule, ImpulsiveCoupledBVP, RhsFunction, staged)
from .pendulum import (PendulumParams, build_pendulum_problem, spring_pendulum_f,
                       spring_pendulum_h)

__all__ = ["load_problem", "load_problem_file", "RHS_REGISTRY",
           "IMPULSE_REGISTRY", "MODEL_REGISTRY", "BOUND_REGISTRY",
           "SEQ_BOUND_REGISTRY", "SCHEDULE_REGISTRY"]


def _rhs_zero():
    return lambda t, x, y, z, w: np.zeros_like(t)


def _rhs_constant(value=0.0):
    return lambda t, x, y, z, w: np.full_like(t, value)


def _rhs_exp_decay(amplitude=1.0, rate=1.0):
    def at(t):
        a = amplitude * np.exp(-rate * t)
        return lambda x, y, z, w: a

    return staged(at)


def _rhs_decaying_sin_state(amplitude=0.25, rate=1.0):
    def at(t):
        a = amplitude * np.exp(-rate * t)
        return lambda x, y, z, w: a * np.sin(x)

    return staged(at)


def _rhs_bump_weighted_state(mass=0.5, center=2.0, width=0.05):
    amp = mass / (width * math.sqrt(2.0 * math.pi))

    def at(t):
        a = amp * np.exp(-0.5 * ((t - center) / width) ** 2)
        d = 1.0 + t
        return lambda x, y, z, w: a * x / d

    return staged(at)


def _rhs_linear_state_decay(cx=0.0, cy=0.0, cz=0.0, cw=0.0, c0=0.0, rate=1.0):
    def at(t):
        e = np.exp(-rate * t)
        return lambda x, y, z, w: e * (c0 + cx * x + cy * y + cz * z + cw * w)

    return staged(at)


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
    return lambda p, a, b: np.full_like(p, value)


def _imp_linear(c0=0.0, ca=0.0, cb=0.0):
    return lambda p, a, b: c0 + ca * a + cb * b


def _imp_power_decay(ca=0.0, cb=0.0, c0=0.0, power=3.0):
    return lambda p, a, b: (c0 + ca * a + cb * b) / p ** power


def _imp_point_values(points=(), values=()):
    table = dict(zip(points, values, strict=True))

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
    if not rate > 0.0:  # NaN fails it too
        raise ValueError(f"the dominator needs rate > 0 to be integrable, got {rate!r}")
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
    if not power > 1.0:  # NaN fails it too
        raise ValueError("sequence bound needs power > 1 to be summable")
    fn = lambda rho, k: c * rho ** rho_power / np.asarray(k, dtype=float) ** power
    tail = lambda rho, K: c * rho ** rho_power * K ** (1.0 - power) / (power - 1.0)
    return fn, tail


SEQ_BOUND_REGISTRY = {
    "zero": _seq_zero,
    "power": _seq_power,
}


def _rule_integers(step=1.0):
    return lambda k: k * step


def _rule_arithmetic(start, step):
    return lambda k: start + (k - 1) * step


SCHEDULE_REGISTRY = {"integers": _rule_integers, "arithmetic": _rule_arithmetic}


def _call(registry, what, name, params, where=""):
    """``registry[name](**params)``, each parameter converted to a float (a
    list to a tuple of floats).  An unknown name, or params the entry does
    not take, is a KeyError naming ``what`` and the entry; the conversion's
    and the entry's TypeError (as a KeyError), ValueError and ArithmeticError
    are re-raised naming it too."""
    if not (isinstance(name, str) and name in registry):
        raise KeyError(f"unknown {what} {name!r}{where}; registry: {sorted(registry)}")
    try:
        if isinstance(params, dict):
            params = {k: tuple(map(float, v)) if isinstance(v, list) else float(v)
                      for k, v in params.items()}
        return registry[name](**params)
    except TypeError as exc:
        raise KeyError(f"{what} {name!r}{where}: {exc}") from exc
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"{what} {name!r}{where}: {exc}") from exc


def _object(obj, path, keys=None, required=()):
    """``obj``, checked to be a JSON object that holds only ``keys`` (any
    keys when None) and all of ``required``; every error names ``path``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {obj!r}")
    for key in obj:
        if keys is not None and key not in keys:
            raise KeyError(f"{path}: unknown key {key!r}; expected one of {sorted(keys)}")
    for key in required:
        if key not in obj:
            raise KeyError(f"{path}: missing key {key!r}")
    return obj


def _number(value, path):
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{path}: expected a number, got {value!r}") from None


def _numbers(values, path):
    """A JSON list of numbers as a tuple of floats; errors name ``path``."""
    if not isinstance(values, list):
        raise ValueError(f"{path}: expected a list of numbers, got {values!r}")
    try:
        return tuple(map(float, values))
    except (TypeError, ValueError, OverflowError):  # name the first value float() rejects
        for i, v in enumerate(values):
            _number(v, f"{path}[{i}]")
        raise


def _entry(spec, path):
    """(name, params) of a {"name", "params"} registry entry; zero if absent."""
    if spec is None:
        return "zero", {}
    _object(spec, path, ("name", "params"), required=("name",))
    return spec["name"], spec.get("params", {})


def _make(cls, registry, what, spec, path):
    """``cls`` (RhsFunction or ImpulseMap) of the registry entry ``spec``."""
    name, params = _entry(spec, path)
    return cls(_call(registry, what, name, params), name=name)


def _make_bounds(spec):
    if spec is None:
        return None
    _object(spec, "bounds", (*_BOUND_TAILS, "u_floor"))
    pairs = {key: _call(SEQ_BOUND_REGISTRY if key.endswith("_seq") else BOUND_REGISTRY,
                        "bound family", *_entry(spec.get(key), f"bounds.{key}"),
                        f" for {key}")
             for key in _BOUND_TAILS}
    u_floor = spec.get("u_floor")
    return CaratheodoryBounds.from_pairs(
        pairs, u_floor=None if u_floor is None else _number(u_floor, "bounds.u_floor"))


def _make_schedule(spec, path) -> ImpulseSchedule:
    """Explicit ``points``, or a ``rule`` with its parameters beside it."""
    if spec is None:
        return ImpulseSchedule.empty()
    _object(spec, path)
    if ("points" in spec) == ("rule" in spec):
        raise KeyError(f"{path}: takes exactly one of 'points' and 'rule'")
    if "rule" in spec:
        params = {k: v for k, v in spec.items() if k != "rule"}
        return ImpulseSchedule(rule=_call(SCHEDULE_REGISTRY, "schedule rule", spec["rule"],
                                          params, f" for {path}"))
    pts = _object(spec, path, ("points",))["points"]
    return ImpulseSchedule(points=_numbers(pts, f"{path}.points"))


def _model_pendulum(**params):
    return build_pendulum_problem(PendulumParams(**params))


MODEL_REGISTRY = {
    "spring-pendulum": _model_pendulum,
    "manufactured-exp": manufactured_problem,
}


def load_problem(doc) -> ImpulsiveCoupledBVP:
    """Build a problem from a parsed JSON document (a dict).  Every object
    may hold only the keys of the format; each error names its path."""
    if isinstance(doc, dict) and "model" in doc:
        _object(doc, "top level", ("model", "params"))
        return _call(MODEL_REGISTRY, "model", doc["model"], doc.get("params", {}))

    _object(doc, "top level", ("t0", "boundary", "rhs", "impulses", "bounds"),
            required=("boundary",))
    keys = ("A1", "A2", "B1", "B2")
    bd = _object(doc["boundary"], "boundary", keys, required=keys)
    rhs = _object(doc.get("rhs", {}), "rhs", ("f", "h"))
    imp = _object(doc.get("impulses", {}), "impulses", ("u", "v"))
    u_spec = _object(imp.get("u", {}), "impulses.u", ("schedule", "I0", "I1"))
    v_spec = _object(imp.get("v", {}), "impulses.v", ("schedule", "J0", "J1"))
    return ImpulsiveCoupledBVP(
        f=_make(RhsFunction, RHS_REGISTRY, "rhs", rhs.get("f"), "rhs.f"),
        h=_make(RhsFunction, RHS_REGISTRY, "rhs", rhs.get("h"), "rhs.h"),
        boundary=BoundaryData(**{k: _number(bd[k], f"boundary.{k}") for k in keys}),
        u_schedule=_make_schedule(u_spec.get("schedule"), "impulses.u.schedule"),
        v_schedule=_make_schedule(v_spec.get("schedule"), "impulses.v.schedule"),
        I0=_make(ImpulseMap, IMPULSE_REGISTRY, "impulse map", u_spec.get("I0"), "impulses.u.I0"),
        I1=_make(ImpulseMap, IMPULSE_REGISTRY, "impulse map", u_spec.get("I1"), "impulses.u.I1"),
        J0=_make(ImpulseMap, IMPULSE_REGISTRY, "impulse map", v_spec.get("J0"), "impulses.v.J0"),
        J1=_make(ImpulseMap, IMPULSE_REGISTRY, "impulse map", v_spec.get("J1"), "impulses.v.J1"),
        t0=_number(doc.get("t0", 0.0), "t0"),
        bounds=_make_bounds(doc.get("bounds")),
    )


def load_problem_file(path) -> ImpulsiveCoupledBVP:
    with open(path) as fh:
        return load_problem(json.load(fh))
