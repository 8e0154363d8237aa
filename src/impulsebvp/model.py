"""Problem statement for the impulsive coupled system on the half-line.

The data here describes the equations ``u'' = f(t,u,v,u',v')``,
``v'' = h(t,u,v,u',v')``, the boundary values ``u(0)=A1``, ``v(0)=A2``,
``u'(+inf)=B1``, ``v'(+inf)=B2``, and jump conditions at two strictly
increasing unbounded schedules of impulse times, with jump sizes produced
by maps of the left limits.  Nothing in this module knows about meshes or
solution methods.

Everything is immutable after construction; the callables are expected to
be pure and get read-only arguments, so concurrent evaluation is safe.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .fnspace import _require_domain

__all__ = [
    "RhsFunction",
    "BoundaryData",
    "ImpulseSchedule",
    "ImpulseMap",
    "ImpulsiveCoupledBVP",
    "ValidationReport",
    "validate_problem",
]

_ENUM_CAP = 100_000  # rule calls per enumeration; no plan holds this many impulses


class _ScheduleOrderError(ValueError):
    """A schedule rule that fails to increase; ``index`` is the first k
    whose rule(k) does not exceed rule(k - 1)."""

    def __init__(self, k, value, prev):
        self.index = k
        super().__init__(f"schedule rule is not strictly increasing: rule({k}) = "
                         f"{value!r} does not exceed rule({k - 1}) = {prev!r}")


def _pointwise(fn, lead, *rest):
    """fn(lead, *rest) on read-only float arrays of lead's shape; a callable
    that cannot take arrays, or that writes into them, runs point by point."""
    shape = np.shape(lead)
    args = [np.asarray(a, dtype=float) for a in (lead, *rest)]
    args = [a.view() if a.shape == shape else np.broadcast_to(a, shape) for a in args]
    for a in args:
        a.flags.writeable = False
    try:
        out = np.asarray(fn(*args), dtype=float)
        if out.shape == shape:
            return out
    except (TypeError, ValueError):
        pass
    out = np.array([float(fn(*vals)) for vals in zip(*(a.ravel() for a in args))])
    return out.reshape(shape)


def _first_nonfinite(*arrays, rank=None):
    """Flat index of the first entry that is non-finite in any of the
    same-shape ``arrays`` (with ``rank``, of least rank(index)), or None."""
    ok = np.logical_and.reduce([np.isfinite(a) for a in arrays])
    if ok.all():
        return None
    i = np.flatnonzero(~ok)
    return int(i[0] if rank is None else i[np.argmin(rank(i))])


@dataclass(frozen=True)
class RhsFunction:
    """Right-hand side g(t, x, y, z, w) with (x,y,z,w) = (u, v, u', v').

    ``fn`` gets five read-only float arrays of one shape; one that cannot
    take arrays, or that writes into them, is looped over point by point.
    The points arrive in no particular time order (the operator passes its
    quadrature points Gauss-major), so ``fn`` must be pointwise: its value
    at a point depends only on that point's arguments.  It may be called
    more than once per operator application, on disjoint sets of points
    (one call per block of quadrature panels).  ``name``/``params``
    identify registry entries for problem files and are descriptive here.
    """

    fn: Callable
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __call__(self, t, x, y, z, w):
        return _pointwise(self.fn, t, x, y, z, w)


@dataclass(frozen=True)
class BoundaryData:
    """Values at 0 (A1, A2) and derivative limits at +inf (B1, B2)."""

    A1: float
    A2: float
    B1: float
    B2: float

    def __post_init__(self):
        vals = (self.A1, self.A2, self.B1, self.B2)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("boundary data must be finite")


@dataclass(frozen=True)
class ImpulseSchedule:
    """Strictly increasing impulse times diverging to +inf.

    Either an explicit finite tuple ``points`` or a ``rule`` mapping the
    1-based index k to the k-th time.  Infinite schedules are enumerated
    lazily below any finite horizon.  The enumeration stops with a
    ValueError naming the index and value at the first rule value that does
    not exceed its predecessor, or at the ``_ENUM_CAP``-th time below the
    horizon (a bounded rule).
    """

    points: Optional[Sequence[float]] = None
    rule: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        if self.points is not None:
            pts = tuple(float(p) for p in self.points)
            bad = [i for i, p in enumerate(pts) if not math.isfinite(p)]
            if bad:
                raise ValueError(f"impulse times must be finite: points[{bad[0]}] = "
                                 f"{pts[bad[0]]!r}")
            if any(p <= 0 for p in pts):
                raise ValueError("impulse times must be positive")
            if any(b <= a for a, b in zip(pts, pts[1:])):
                raise ValueError("impulse times must be strictly increasing")
            object.__setattr__(self, "points", pts)

    @staticmethod
    def empty():
        return ImpulseSchedule(points=())

    def point(self, k: int) -> float:
        """The k-th impulse time, k >= 1."""
        if k < 1:
            raise ValueError("impulse indices are 1-based")
        if self.points is not None:
            if k > len(self.points):
                raise IndexError(f"schedule has only {len(self.points)} points")
            return self.points[k - 1]
        if self.rule is None:
            raise ValueError("schedule has neither points nor a rule")
        return float(self.rule(k))

    def points_below(self, horizon: float) -> np.ndarray:
        """All schedule times in (0, horizon), in order."""
        if self.points is not None:
            return np.asarray([p for p in self.points if p < horizon], dtype=float)
        out = []
        prev = -np.inf
        for k in itertools.count(1):
            p = float(self.rule(k))
            if not p > prev:  # also catches NaN
                raise _ScheduleOrderError(k, p, prev)
            prev = p
            if p >= horizon:
                break
            out.append(p)
            if k == _ENUM_CAP:
                raise ValueError(f"schedule rule is still below the horizon {horizon!r} "
                                 f"at rule({k}) = {p!r}; does it diverge to +inf?")
        return np.asarray(out, dtype=float)

    def points_between(self, lo: float, hi: float) -> np.ndarray:
        pts = self.points_below(hi)
        return pts[pts > lo]

    def count_below(self, horizon: float) -> int:
        return int(self.points_below(horizon).size)


@dataclass(frozen=True)
class ImpulseMap:
    """Jump-size map (p, a, b) -> jump, with (a, b) the left limits (x, x')."""

    fn: Callable
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __call__(self, p, a, b):
        return _pointwise(self.fn, p, a, b)

    @staticmethod
    def zero():
        return ImpulseMap(fn=lambda p, a, b: np.zeros_like(p), name="zero")


@dataclass(frozen=True)
class ImpulsiveCoupledBVP:
    """The full problem statement, independent of any solution method.

    ``t0`` is the lower cutoff of the working domain: right-hand sides are
    only ever evaluated at t >= t0 (the spring-pendulum instance has a
    1/t^3 factor, so it needs t0 > 0).  Impulse times at or below t0 are
    outside the working domain and are ignored by the operator.
    """

    f: RhsFunction
    h: RhsFunction
    boundary: BoundaryData
    u_schedule: ImpulseSchedule
    v_schedule: ImpulseSchedule
    I0: ImpulseMap
    I1: ImpulseMap
    J0: ImpulseMap
    J1: ImpulseMap
    t0: float = 0.0
    bounds: Optional["CaratheodoryBounds"] = None  # noqa: F821  (audit module)

    def __post_init__(self):
        if not (math.isfinite(self.t0) and self.t0 >= 0.0):
            raise ValueError(f"t0 must be finite and >= 0, got {self.t0!r}")


@dataclass
class ValidationReport:
    """Outcome of the static problem checks, one entry per check."""

    checks: list
    passed: bool

    def entries(self, name):
        return [c for c in self.checks if c["name"] == name]


def _check_schedule(name, schedule, horizon, t0):
    """(report entry, points below the horizon); no points when the
    enumeration fails."""
    entry = {"name": f"{name}_schedule", "passed": True, "details": {}}
    try:
        pts = schedule.points_below(horizon)
    except Exception as exc:  # enumeration failure is a hard failure
        entry["passed"] = False
        entry["details"]["error"] = str(exc)
        if isinstance(exc, _ScheduleOrderError):
            entry["details"]["non_monotone_at_index"] = exc.index
        return entry, np.zeros(0)
    entry["details"]["count_below_horizon"] = int(pts.size)
    skipped = pts[pts <= t0]
    if skipped.size:
        entry["details"]["points_at_or_below_t0"] = [float(p) for p in skipped]
    return entry, pts


def validate_problem(p: ImpulsiveCoupledBVP, horizon: float, seed: int = 0,
                     samples: int = 200) -> ValidationReport:
    """Static checks: schedule monotonicity below the horizon, finiteness of
    f and h on sampled working-domain states, and continuity sampling of the
    impulse maps.

    Non-finite right-hand-side samples become report entries with the
    offending location; a non-monotone schedule is a hard failure, and its
    impulse maps are not sampled.  Each schedule is enumerated once.  The
    report is deterministic for a fixed seed.
    """
    _require_domain(p.t0, horizon)
    rng = np.random.default_rng(seed)
    checks = []

    entry_u, pts_u = _check_schedule("u", p.u_schedule, horizon, p.t0)
    entry_v, pts_v = _check_schedule("v", p.v_schedule, horizon, p.t0)
    checks += [entry_u, entry_v]

    lo = max(p.t0, 1e-6) if p.t0 > 0 else 0.0
    t = rng.uniform(lo, horizon, size=samples)
    x = rng.uniform(-2.0, 2.0, size=samples) * (1.0 + t)
    y = rng.uniform(-2.0, 2.0, size=samples) * (1.0 + t)
    z = rng.uniform(-2.0, 2.0, size=samples)
    w = rng.uniform(-2.0, 2.0, size=samples)
    for name, fn in (("f", p.f), ("h", p.h)):
        entry = {"name": f"{name}_finite", "passed": True, "details": {}}
        try:
            i = _first_nonfinite(fn(t, x, y, z, w))
            if i is not None:
                entry["passed"] = False
                entry["details"]["first_nonfinite"] = {
                    k: float(a[i]) for k, a in zip("txyzw", (t, x, y, z, w))}
        except Exception as exc:
            entry["passed"] = False
            entry["details"]["error"] = str(exc)
        checks.append(entry)

    eps = 1e-6
    for name, m, sched_pts in (("I0", p.I0, pts_u), ("I1", p.I1, pts_u),
                               ("J0", p.J0, pts_v), ("J1", p.J1, pts_v)):
        entry = {"name": f"{name}_continuity", "passed": True, "details": {}}
        pts = sched_pts[:20]
        if pts.size:
            a = rng.uniform(-2.0, 2.0, size=pts.size) * (1.0 + pts)
            b = rng.uniform(-2.0, 2.0, size=pts.size)
            try:
                base = m(pts, a, b)
                wiggle = np.maximum(
                    np.abs(m(pts, a + eps, b) - base),
                    np.abs(m(pts, a, b + eps) - base),
                )
                scale = 1.0 + np.abs(base)
                bad = wiggle > 0.1 * scale
                if np.any(bad):
                    i = int(np.nonzero(bad)[0][0])
                    entry["passed"] = False
                    entry["details"]["discontinuity_near"] = {
                        "p": float(pts[i]), "a": float(a[i]), "b": float(b[i]),
                        "wiggle": float(wiggle[i]),
                    }
            except Exception as exc:
                entry["passed"] = False
                entry["details"]["error"] = str(exc)
        checks.append(entry)

    return ValidationReport(checks=checks, passed=all(c["passed"] for c in checks))
