"""Problem statement for the impulsive coupled system on the half-line.

The data here describes the equations ``u'' = f(t,u,v,u',v')``,
``v'' = h(t,u,v,u',v')``, the boundary values ``u(0)=A1``, ``v(0)=A2``,
``u'(+inf)=B1``, ``v'(+inf)=B2``, and jump conditions at two strictly
increasing unbounded schedules of impulse times, with jump sizes produced
by maps of the left limits.  The theorem's remaining hypotheses are
problem data too: ``CaratheodoryBounds`` holds the dominators of f and h,
the summable impulse-bound sequences and their closed-form tails.  Nothing
in this module knows about meshes or solution methods.

Everything is immutable after construction; the callables are expected to
be pure and get read-only arguments, so concurrent evaluation is safe.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .fnspace import _require_domain

__all__ = [
    "CaratheodoryBounds",
    "RhsFunction",
    "BoundaryData",
    "ImpulseSchedule",
    "ImpulseMap",
    "ImpulsiveCoupledBVP",
    "ValidationReport",
    "staged",
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


def _read_only(a):
    """A read-only view of the array a."""
    a = a.view()
    a.flags.writeable = False
    return a


def _pointwise(fn, lead, *rest):
    """fn(lead, *rest) on read-only float arrays of lead's shape; a callable
    that cannot take arrays, or that writes into them, runs point by point."""
    shape = np.shape(lead)
    args = [np.asarray(a, dtype=float) for a in (lead, *rest)]
    # a broadcast view is read-only already
    args = [_read_only(a) if a.shape == shape else np.broadcast_to(a, shape) for a in args]
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


def staged(at):
    """The right-hand side fn(t, x, y, z, w) = at(t)(x, y, z, w), which keeps
    ``at`` as ``fn.at``.

    ``at(t)`` does the work that depends on the times alone and returns
    g(x, y, z, w), which takes arrays of t's shape.  Through ``fn.at`` the
    operator plan stages ``fn`` once at its fixed Gauss points and calls
    only g per application; a full call does both steps, so both give the
    same bits.  For example, e^{-t} sin(u) as a staged right-hand side::

        def at(t):
            e = np.exp(-t)
            return lambda x, y, z, w: e * np.sin(x)

        f = RhsFunction(staged(at), name="decaying-sin")
    """
    def fn(t, x, y, z, w):
        return at(t)(x, y, z, w)

    fn.at = at
    return fn


@dataclass(frozen=True)
class RhsFunction:
    """Right-hand side g(t, x, y, z, w) with (x,y,z,w) = (u, v, u', v').

    ``fn`` gets five read-only float arrays of one shape; one that cannot
    take arrays, or that writes into them, is looped over point by point.
    The points arrive in no particular time order (the operator passes its
    quadrature points Gauss-major), so ``fn`` must be pointwise: its value
    at a point depends only on that point's arguments.  ``name``
    identifies it in error messages, and names the registry entry of a
    problem file.

    The operator evaluates ``fn`` through :meth:`at`, once per block of
    quadrature panels per application, at times fixed by its plan.  A
    ``fn`` written with :func:`staged` computes its time-only factors (a
    1/t^3 weight, an e^{-rate t} decay) once per plan; any other ``fn`` is
    called in full on every block, as above.
    """

    fn: Callable
    name: str = "custom"

    def __call__(self, t, x, y, z, w):
        return _pointwise(self.fn, t, x, y, z, w)

    def at(self, t):
        """g(x, y, z, w) = self(t, x, y, z, w) at the fixed times ``t``, for
        x, y, z, w of t's shape; a :func:`staged` ``fn`` does its
        time-only work here, once, on read-only times."""
        stage = getattr(self.fn, "at", None)
        if stage is None:
            return lambda x, y, z, w: self(t, x, y, z, w)
        g = stage(_read_only(np.asarray(t, dtype=float)))
        return lambda x, y, z, w: _pointwise(g, x, y, z, w)


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

    Exactly one of an explicit finite tuple ``points`` and a ``rule`` mapping the
    1-based index k to the k-th time.  Infinite schedules are enumerated
    lazily, below a finite horizon or up to a count.  The enumeration stops
    with a ValueError naming the index and value at the first rule value
    that does not exceed its predecessor, or at the ``_ENUM_CAP``-th time
    below the horizon (a bounded rule).
    """

    points: Optional[Sequence[float]] = None
    rule: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        if (self.points is None) == (self.rule is None):
            raise ValueError("an impulse schedule takes exactly one of points and rule")
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

    def _rule_times(self):
        """(k, rule(k)) for k = 1, 2, ..., checked to increase strictly."""
        prev = -np.inf
        for k in itertools.count(1):
            p = float(self.rule(k))
            if not p > prev:  # also catches NaN
                raise _ScheduleOrderError(k, p, prev)
            prev = p
            yield k, p

    def first(self, K: int) -> np.ndarray:
        """The first K schedule times (all of a shorter explicit list), in order."""
        if self.points is not None:
            return np.asarray(self.points[:K], dtype=float)
        return np.asarray([p for _, p in itertools.islice(self._rule_times(), K)],
                          dtype=float)

    def points_below(self, horizon: float) -> np.ndarray:
        """All schedule times in (0, horizon), in order."""
        if self.points is not None:
            return np.asarray([p for p in self.points if p < horizon], dtype=float)
        out = []
        for k, p in self._rule_times():
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

    def __call__(self, p, a, b):
        return _pointwise(self.fn, p, a, b)

    @staticmethod
    def zero():
        return ImpulseMap(fn=lambda p, a, b: np.zeros_like(p), name="zero")


# each dominator field of CaratheodoryBounds, with the field of its tail
_BOUND_TAILS = {"Phi": "tail_integral_f", "Psi": "tail_integral_h",
                "phi_seq": "seq_tail_phi", "psi_seq": "seq_tail_psi",
                "phij_seq": "seq_tail_phij", "thetaj_seq": "seq_tail_theta"}


@dataclass(frozen=True)
class CaratheodoryBounds:
    """User-supplied dominating functions and sequences.

    ``Phi``/``Psi`` map (rho, t) to the dominators of |f| and |h| on the
    rho-ball; the four ``*_seq`` callables map (rho, k) to the summable
    impulse-bound sequences.  Optional closed-form tails sharpen the
    truncation accounting: ``tail_integral_*`` bound the integral past t,
    ``seq_tail_*`` bound the sequence sums past K.  ``u_floor`` restricts
    the admissible first state component from below (the pendulum's Psi
    presumes the spring length stays above its minimum), and is honored by
    the domination sampler and the ball sampler.
    """

    Phi: Callable[[float, np.ndarray], np.ndarray]
    Psi: Callable[[float, np.ndarray], np.ndarray]
    phi_seq: Callable[[float, np.ndarray], np.ndarray]
    psi_seq: Callable[[float, np.ndarray], np.ndarray]
    phij_seq: Callable[[float, np.ndarray], np.ndarray]
    thetaj_seq: Callable[[float, np.ndarray], np.ndarray]
    tail_integral_f: Optional[Callable[[float, float], float]] = None
    tail_integral_h: Optional[Callable[[float, float], float]] = None
    seq_tail_phi: Optional[Callable[[float, int], float]] = None
    seq_tail_psi: Optional[Callable[[float, int], float]] = None
    seq_tail_phij: Optional[Callable[[float, int], float]] = None
    seq_tail_theta: Optional[Callable[[float, int], float]] = None
    u_floor: Optional[float] = None

    @staticmethod
    def from_pairs(pairs, u_floor=None):
        """Bounds from ``pairs``: each dominator field of ``_BOUND_TAILS`` to
        (dominator, tail or None)."""
        fields = {}
        for dom, tail in _BOUND_TAILS.items():
            fields[dom], fields[tail] = pairs[dom]
        return CaratheodoryBounds(**fields, u_floor=u_floor)

    @staticmethod
    def zero():
        z2 = lambda rho, t: np.zeros_like(np.asarray(t, dtype=float))
        return CaratheodoryBounds.from_pairs(
            {dom: (z2, lambda rho, t: 0.0) for dom in _BOUND_TAILS})


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
    bounds: Optional[CaratheodoryBounds] = None

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


def _entry(name, check, *args):
    """Report entry ``name`` of ``check(details, *args)``, which fills
    ``details`` and returns whether it passed.  A check that raises fails
    with the error, and with the index of a non-monotone schedule."""
    details = {}
    try:
        passed = check(details, *args)
    except Exception as exc:
        passed = False
        details["error"] = str(exc)
        if isinstance(exc, _ScheduleOrderError):
            details["non_monotone_at_index"] = exc.index
    return {"name": name, "passed": passed, "details": details}


def validate_problem(p: ImpulsiveCoupledBVP, horizon: float, seed: int = 0,
                     samples: int = 200) -> ValidationReport:
    """Static checks: schedule monotonicity below the horizon, finiteness of
    f and h on sampled working-domain states, and continuity sampling of the
    impulse maps.

    Non-finite right-hand-side samples become report entries with the
    offending location, and a non-finite impulse-map value or wiggle fails
    its continuity entry; a non-monotone schedule is a hard failure, and its
    impulse maps are not sampled.  Each schedule is enumerated once.  The
    report is deterministic for a fixed seed.
    """
    _require_domain(p.t0, horizon)
    rng = np.random.default_rng(seed)
    pts = {"u": np.zeros(0), "v": np.zeros(0)}  # stay empty if enumeration fails

    def schedule(details, side, sched):
        pts[side] = sched.points_below(horizon)
        details["count_below_horizon"] = int(pts[side].size)
        skipped = pts[side][pts[side] <= p.t0]
        if skipped.size:
            details["points_at_or_below_t0"] = [float(s) for s in skipped]
        return True

    checks = [_entry(f"{side}_schedule", schedule, side, sched)
              for side, sched in (("u", p.u_schedule), ("v", p.v_schedule))]

    lo = max(p.t0, 1e-6) if p.t0 > 0 else 0.0
    t = rng.uniform(lo, horizon, size=samples)
    x = rng.uniform(-2.0, 2.0, size=samples) * (1.0 + t)
    y = rng.uniform(-2.0, 2.0, size=samples) * (1.0 + t)
    z = rng.uniform(-2.0, 2.0, size=samples)
    w = rng.uniform(-2.0, 2.0, size=samples)

    def finite(details, fn):
        i = _first_nonfinite(fn(t, x, y, z, w))
        if i is None:
            return True
        details["first_nonfinite"] = {k: float(a[i]) for k, a in zip("txyzw", (t, x, y, z, w))}
        return False

    checks += [_entry(f"{name}_finite", finite, fn) for name, fn in (("f", p.f), ("h", p.h))]

    def continuity(details, m, side, eps=1e-6):
        at = pts[side][:20]
        if not at.size:
            return True
        a = rng.uniform(-2.0, 2.0, size=at.size) * (1.0 + at)
        b = rng.uniform(-2.0, 2.0, size=at.size)
        base = m(at, a, b)
        wiggle = np.maximum(np.abs(m(at, a + eps, b) - base), np.abs(m(at, a, b + eps) - base))
        scale = 1.0 + np.abs(base)
        bad = ~(wiggle <= 0.1 * scale)  # a non-finite value or wiggle fails too
        if not np.any(bad):
            return True
        i = int(np.nonzero(bad)[0][0])
        details["discontinuity_near"] = {"p": float(at[i]), "a": float(a[i]), "b": float(b[i]),
                                         "wiggle": float(wiggle[i])}
        return False

    checks += [_entry(f"{name}_continuity", continuity, m, side)
               for name, m, side in (("I0", p.I0, "u"), ("I1", p.I1, "u"),
                                     ("J0", p.J0, "v"), ("J1", p.J1, "v"))]
    return ValidationReport(checks=checks, passed=all(c["passed"] for c in checks))
