"""The fixed-point operator T = (T1, T2): kernel integrals plus impulse sums.

For the first component,

    T1(u,v)(t) = A1 + B1*t
               + sum_{t0 < t_k < t} [ I0k + I1k * (t - t_k) ]
               - t * sum_k I1k
               + integral_{t0}^{H} G(t, s) f(s, u, v, u', v') ds,

with the derivative (obtained by differentiating the representation)

    T1(u,v)'(t) = B1 + sum_{t0 < t_k < t} I1k - sum_k I1k
                - integral_t^{H} f(s, ...) ds.

The infinite impulse sum and the semi-infinite integral are truncated at the
horizon H; a :class:`TruncationReport` carries bounds or estimates of the
discarded tails.  Impulse-map arguments use left limits, matching the
left-continuity convention, and jumps are inserted algebraically (the right
slot is literally left slot + jump), never through quadrature.  Impulse
times at or below the working-domain start t0 have no representable left
side and are excluded from all sums.

Everything that depends only on the problem, the quadrature config and the
two meshes lives in an :class:`OperatorPlan`: the panel boundaries, Gauss
points and weights, per mesh and panel the two slots whose Hermite data
the panel interpolates, the cubic Hermite weights at every Gauss point,
and the slot bookkeeping of the assembly.  ``solve`` and the
ball-invariance audit build one plan and pass it to every :func:`apply_T`
call; without a plan, ``apply_T`` builds one for the call.  Per call, one
pass per mesh (four per-panel gathers and two weighted sums) gives u, v,
u', v' at the Gauss points for both f and h.

Evaluation at distinct output nodes is independent; the implementation is
vectorized with a fixed summation order, so results are deterministic for a
fixed configuration, with or without a plan.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fnspace import (Mesh, PiecewiseC1Function, SolutionPair, build_mesh,
                      norm_X)
from .model import ImpulsiveCoupledBVP

__all__ = [
    "QuadratureConfig",
    "TruncationReport",
    "EvaluationError",
    "OperatorPlan",
    "apply_T",
    "semiinfinite_integral",
    "impulse_sums",
    "problem_meshes",
]


class EvaluationError(RuntimeError):
    """A right-hand side returned a non-finite value; carries the location."""

    def __init__(self, name, s, args):
        self.location = {"rhs": name, "s": float(s),
                         "args": tuple(float(a) for a in args)}
        super().__init__(
            f"{name} returned a non-finite value at s={s:.6g} with "
            f"(x,y,z,w)={tuple(round(float(a), 6) for a in args)}"
        )


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation, mesh, and quadrature parameters.

    ``tail_bound_fn`` (and ``tail_bound_fn_h``) map t to an upper bound of
    the integrable dominator's tail integral past t; alternatively, set
    ``bound_rho`` to pull tail bounds out of the problem's attached
    Caratheodory bounds at that radius.  Without either, tails are
    estimated by geometric extrapolation of the observed decay and flagged
    when the estimate exceeds ``abs_tol``.
    """

    horizon: float = 40.0
    mesh_spacing: float = 0.01
    panels_per_piece: int = 16
    gauss_order: int = 8
    abs_tol: float = 1e-8
    tail_bound_fn: Optional[Callable[[float], float]] = None
    tail_bound_fn_h: Optional[Callable[[float], float]] = None
    bound_rho: Optional[float] = None

    def __post_init__(self):
        if self.horizon <= 0 or self.mesh_spacing <= 0:
            raise ValueError("horizon and mesh_spacing must be positive")
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")


@dataclass(frozen=True)
class TruncationReport:
    """Estimates of the mass discarded by truncating at the horizon."""

    integral_tail_estimate: float
    impulse_tail_estimate: float
    K_used: int
    tails_are_bounds: bool = False
    warn_integral_tail: bool = False

    def merged(self, other: "TruncationReport") -> "TruncationReport":
        return TruncationReport(
            integral_tail_estimate=max(self.integral_tail_estimate,
                                       other.integral_tail_estimate),
            impulse_tail_estimate=max(self.impulse_tail_estimate,
                                      other.impulse_tail_estimate),
            K_used=max(self.K_used, other.K_used),
            tails_are_bounds=self.tails_are_bounds and other.tails_are_bounds,
            warn_integral_tail=self.warn_integral_tail or other.warn_integral_tail,
        )

    def to_dict(self):
        return {
            "integral_tail_estimate": self.integral_tail_estimate,
            "impulse_tail_estimate": self.impulse_tail_estimate,
            "K_used": self.K_used,
            "tails_are_bounds": self.tails_are_bounds,
            "warn_integral_tail": self.warn_integral_tail,
        }


def problem_meshes(p: ImpulsiveCoupledBVP, q: QuadratureConfig):
    """The (u, v) meshes the operator works on: doubled at each component's
    schedule points inside (t0, horizon)."""
    mu = build_mesh(p.t0, q.horizon, p.u_schedule.points_between(p.t0, q.horizon),
                    q.mesh_spacing)
    mv = build_mesh(p.t0, q.horizon, p.v_schedule.points_between(p.t0, q.horizon),
                    q.mesh_spacing)
    return mu, mv


def _gauss_panels(breaks, order):
    """Gauss-Legendre points/weights per panel: arrays (npanels, order)."""
    xg, wg = leggauss(order)
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    half = 0.5 * np.diff(breaks)
    return mid[:, None] + half[:, None] * xg[None, :], half[:, None] * wg[None, :]


def _refined_boundaries(grid, hard, panels_per_piece):
    """Panel boundaries: the given grid, with every piece between hard
    breakpoints holding at least ``panels_per_piece`` panels."""
    pieces = np.unique(np.concatenate(([grid[0]], hard, [grid[-1]])))
    a, b = pieces[:-1], pieces[1:]
    inside = (np.searchsorted(grid, b, side="left")
              - np.searchsorted(grid, a, side="right"))
    short = inside + 1 < panels_per_piece
    extra = np.linspace(a[short], b[short], panels_per_piece + 1)
    return np.union1d(grid, extra.ravel())


def _geometric_tail(chunks):
    """Extrapolate a tail from the last two mass chunks; inf if not decaying."""
    prev, last = chunks
    if last == 0.0:
        return 0.0
    if prev <= last:
        return math.inf
    r = last / prev
    return last * r / (1.0 - r)


def _integral_tail(q, rhs_side, bounds, moments, boundaries, horizon, in_ball):
    """(estimate, is_bound, warn) for the integral tail past the horizon.

    ``in_ball`` says whether the iterate lies in the ``bound_rho``-ball, the
    only place where the problem's Caratheodory tails bound anything."""
    fn = q.tail_bound_fn if rhs_side == "f" else q.tail_bound_fn_h
    if fn is not None:
        return float(fn(horizon)), True, False
    if q.bound_rho is not None and bounds is not None:
        tail = bounds.tail_integral_f if rhs_side == "f" else bounds.tail_integral_h
        if tail is not None:
            return float(tail(q.bound_rho, horizon)), in_ball, False
    # decay heuristic on |panel mass| over the last two quarters of the range
    t0 = boundaries[0]
    mids = 0.5 * (boundaries[1:] + boundaries[:-1])
    absmass = np.abs(moments)
    q3 = t0 + 0.75 * (horizon - t0)
    q2 = t0 + 0.50 * (horizon - t0)
    last = float(absmass[mids >= q3].sum())
    prev = float(absmass[(mids >= q2) & (mids < q3)].sum())
    est = _geometric_tail((prev, last))
    return est, False, bool(est > q.abs_tol)


def _impulse_tail(q, bounds, schedule, seq_names, c_abs, horizon, in_ball):
    """(estimate, is_bound) for the impulse sums cut at the horizon."""
    if schedule.points is not None:
        pts = np.asarray(schedule.points, dtype=float)
        if pts.size == 0 or pts.max() < horizon:
            return 0.0, True  # finite schedule fully inside: nothing discarded
    if q.bound_rho is not None and bounds is not None:
        tail0 = getattr(bounds, seq_names[0])
        tail1 = getattr(bounds, seq_names[1])
        if tail0 is not None and tail1 is not None:
            K = c_abs[0].size
            return (float(tail0(q.bound_rho, K))
                    + 2.0 * float(tail1(q.bound_rho, K))), in_ball
    # decay heuristic on the evaluated jump magnitudes
    est = 0.0
    for c, weight in zip(c_abs, (1.0, 2.0)):
        if c.size >= 2:
            est += weight * _geometric_tail((float(c[-2]), float(c[-1])))
        elif c.size == 1:
            est += weight * float(c[-1])
    return est, False


def _check_mesh_matches(mesh, sched, p, q, which):
    pts = sched.points_between(p.t0, q.horizon)
    if not np.array_equal(mesh.impulse_times, pts):
        raise ValueError(
            f"{which}-mesh impulse nodes do not match the schedule inside "
            f"(t0, horizon); rebuild the iterate with problem_meshes()")
    return pts


@dataclass(frozen=True, eq=False)
class _MeshPlan:
    """What one component's mesh contributes to the operator, per problem.

    Every quadrature panel lies inside one grid interval of the mesh (the
    panel boundaries contain the grid), so the Hermite data of panel i is
    read from the two slots ``s_lo[i]`` (right slot of grid node j) and
    ``s_hi[i]`` (left slot of grid node j+1), with interval length ``h[i]``.
    The cubic Hermite weights at the panel's Gauss points are fixed by the
    plan: ``w00``, ``w10``, ``w01``, ``w11`` (``h`` folded into the two
    that multiply slot derivatives) give the value, ``da``, ``db``, ``dc``
    the derivative.  The few Gauss points that coincide with a grid node are
    listed in ``on_node`` (flat indices) and read ``node_slot`` (the left
    slot, by the left-continuity convention).  ``lo``/``hi`` are the left
    and right slots of the impulse nodes, in schedule order.
    """

    mesh: Mesh
    sched_pts: np.ndarray
    s_lo: np.ndarray
    s_hi: np.ndarray
    h: np.ndarray
    w00: np.ndarray
    w10: np.ndarray
    w01: np.ndarray
    w11: np.ndarray
    da: np.ndarray
    db: np.ndarray
    dc: np.ndarray
    on_node: np.ndarray
    node_slot: np.ndarray
    gidx: np.ndarray
    slot_to_grid: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    cnt: np.ndarray

    @staticmethod
    def build(mesh, sched_pts, boundaries, spts):
        grid = mesh.grid
        flat = spts.ravel()
        pos = np.searchsorted(grid, flat, side="left")
        on_node = np.flatnonzero(grid[np.minimum(pos, grid.size - 1)] == flat)
        # the same expressions as PiecewiseC1Function._eval, per panel
        j = np.minimum(np.searchsorted(grid, boundaries[:-1], side="right") - 1,
                       grid.size - 2)[:, None]
        x0 = grid[j]
        h = grid[j + 1] - x0
        u = (spts - x0) / h
        u2 = u * u
        u3 = u2 * u
        gr = np.arange(grid.size)
        slot_to_grid = np.empty(mesh.n_slots, dtype=int)
        slot_to_grid[mesh.left_slot] = gr
        slot_to_grid[mesh.right_slot] = gr
        knot = np.searchsorted(grid, sched_pts)
        lo = mesh.left_slot[knot]
        hi = mesh.right_slot[knot]
        cnt = np.searchsorted(sched_pts, mesh.nodes, side="left")
        cnt[hi] += 1
        return _MeshPlan(
            mesh=mesh, sched_pts=sched_pts,
            s_lo=mesh.right_slot[j], s_hi=mesh.left_slot[j + 1], h=h,
            w00=2.0 * u3 - 3.0 * u2 + 1.0, w10=h * (u3 - 2.0 * u2 + u),
            w01=-2.0 * u3 + 3.0 * u2, w11=h * (u3 - u2),
            da=6.0 * u2 - 6.0 * u, db=3.0 * u2 - 4.0 * u + 1.0, dc=3.0 * u2 - 2.0 * u,
            on_node=on_node, node_slot=mesh.left_slot[pos[on_node]],
            gidx=np.searchsorted(boundaries, grid), slot_to_grid=slot_to_grid,
            lo=lo, hi=hi, cnt=cnt)

    def interpolate(self, x: PiecewiseC1Function):
        """x and x' at the plan's Gauss points (flattened), bit for bit as
        ``x(flat)`` and ``x.deriv(flat)`` compute them."""
        v0, v1 = x.values[self.s_lo], x.values[self.s_hi]
        d0, d1 = x.derivs[self.s_lo], x.derivs[self.s_hi]
        val = (self.w00 * v0 + self.w10 * d0 + self.w01 * v1 + self.w11 * d1).ravel()
        # dividing by h after the product, not folding 1/h into da, keeps
        # the last bit equal to _eval's
        der = (self.da * (v0 - v1) / self.h + self.db * d0 + self.dc * d1).ravel()
        val[self.on_node] = x.values[self.node_slot]
        der[self.on_node] = x.derivs[self.node_slot]
        return val, der


@dataclass(frozen=True, eq=False)
class OperatorPlan:
    """Everything :func:`apply_T` needs that depends only on the problem,
    the quadrature config and the two meshes, built once and reused for
    every iterate on those meshes.

    Holds the panel boundaries (the union of both grids, refined so every
    piece between impulse times has ``panels_per_piece`` panels), the
    Gauss points and weights, and per component a :class:`_MeshPlan` with
    the schedule points, the Hermite gathers and weights at the Gauss
    points and the slot bookkeeping of the assembly.
    """

    problem: ImpulsiveCoupledBVP
    config: QuadratureConfig
    boundaries: np.ndarray
    spts: np.ndarray
    wts: np.ndarray
    u: _MeshPlan
    v: _MeshPlan

    @staticmethod
    def build(p: ImpulsiveCoupledBVP, q: QuadratureConfig, u_mesh: Mesh,
              v_mesh: Mesh) -> "OperatorPlan":
        """Plan for iterates on (u_mesh, v_mesh); the meshes must carry the
        schedules' nodes inside (t0, horizon), as problem_meshes() builds."""
        pts_u = _check_mesh_matches(u_mesh, p.u_schedule, p, q, "u")
        pts_v = _check_mesh_matches(v_mesh, p.v_schedule, p, q, "v")
        if u_mesh.horizon != q.horizon:
            raise ValueError("iterate horizon does not match the quadrature config")
        hard = np.union1d(u_mesh.impulse_times, v_mesh.impulse_times)
        boundaries = _refined_boundaries(np.union1d(u_mesh.grid, v_mesh.grid),
                                         hard, q.panels_per_piece)
        spts, wts = _gauss_panels(boundaries, q.gauss_order)
        return OperatorPlan(
            problem=p, config=q, boundaries=boundaries, spts=spts, wts=wts,
            u=_MeshPlan.build(u_mesh, pts_u, boundaries, spts),
            v=_MeshPlan.build(v_mesh, pts_v, boundaries, spts))

    def check(self, p, q, s: SolutionPair):
        """Raise ValueError unless the plan fits (p, q) and s's meshes."""
        if self.problem is not p or self.config != q:
            raise ValueError("operator plan was built for another problem or config")
        if not (s.u.mesh.same_layout(self.u.mesh)
                and s.v.mesh.same_layout(self.v.mesh)):
            raise ValueError("iterate meshes differ from the operator plan's; "
                             "rebuild the iterate with problem_meshes()")


def _rhs_values(rhs, spts, U, V, dU, dV):
    flat = spts.ravel()
    vals = rhs(flat, U, V, dU, dV)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise EvaluationError(rhs.name, flat[i], (U[i], V[i], dU[i], dV[i]))
    return vals.reshape(spts.shape)


def _moments(spts, wts, rvals):
    m0 = (wts * rvals).sum(axis=1)
    m1 = (wts * spts * rvals).sum(axis=1)
    C0 = np.concatenate(([0.0], np.cumsum(m0)))
    C1 = np.concatenate(([0.0], np.cumsum(m1)))
    return m0, C0, C1


def _component_apply(A, B, m0_map, m1_map, x_self, mp: _MeshPlan, C0, C1):
    """Assemble one operator component on its output mesh."""
    nodes = mp.mesh.nodes
    sched_pts = mp.sched_pts
    if sched_pts.size:
        a_left, b_left = x_self.values[mp.lo], x_self.derivs[mp.lo]
        c0 = np.atleast_1d(m0_map(sched_pts, a_left, b_left)).astype(float)
        c1 = np.atleast_1d(m1_map(sched_pts, a_left, b_left)).astype(float)
        bad = ~(np.isfinite(c0) & np.isfinite(c1))
        if np.any(bad):
            i = int(np.nonzero(bad)[0][0])
            raise EvaluationError("impulse map", sched_pts[i],
                                  (a_left[i], b_left[i], c0[i], c1[i]))
    else:
        c0 = np.zeros(0)
        c1 = np.zeros(0)
    prefix0 = np.concatenate(([0.0], np.cumsum(c0)))
    prefix1 = np.concatenate(([0.0], np.cumsum(c1)))
    prefix1p = np.concatenate(([0.0], np.cumsum(c1 * sched_pts)))
    S1 = prefix1[-1]
    total0 = C0[-1]

    grid = mp.mesh.grid
    gidx = mp.gidx
    ival_grid = -(C1[gidx] + grid * (total0 - C0[gidx]))
    ider_grid = -(total0 - C0[gidx])

    cnt = mp.cnt
    pulse_val = prefix0[cnt] + nodes * prefix1[cnt] - prefix1p[cnt]
    pulse_der = prefix1[cnt]

    values = A + B * nodes + pulse_val - nodes * S1 + ival_grid[mp.slot_to_grid]
    derivs = B + pulse_der - S1 + ider_grid[mp.slot_to_grid]

    # insert the jumps algebraically: right slot = left slot + jump, exactly
    values[mp.hi] = values[mp.lo] + c0
    derivs[mp.hi] = derivs[mp.lo] + c1

    out = PiecewiseC1Function(mesh=mp.mesh, values=values, derivs=derivs,
                              tail_slope=float(B))
    return out, c0, c1


def apply_T(p: ImpulsiveCoupledBVP, s: SolutionPair, q: QuadratureConfig,
            plan: Optional[OperatorPlan] = None):
    """Both components on shared quadrature panels; reports are merged.

    ``plan`` is an :class:`OperatorPlan` built for (p, q) and s's meshes;
    without one, a plan is built from s's meshes for this call alone.
    """
    if plan is None:
        plan = OperatorPlan.build(p, q, s.u.mesh, s.v.mesh)
    else:
        plan.check(p, q, s)
    boundaries, spts, wts = plan.boundaries, plan.spts, plan.wts
    U, dU = plan.u.interpolate(s.u)
    V, dV = plan.v.interpolate(s.v)

    fvals = _rhs_values(p.f, spts, U, V, dU, dV)
    m0f, C0f, C1f = _moments(spts, wts, fvals)
    out_u, c0u, c1u = _component_apply(p.boundary.A1, p.boundary.B1, p.I0, p.I1,
                                       s.u, plan.u, C0f, C1f)

    hvals = _rhs_values(p.h, spts, U, V, dU, dV)
    m0h, C0h, C1h = _moments(spts, wts, hvals)
    out_v, c0v, c1v = _component_apply(p.boundary.A2, p.boundary.B2, p.J0, p.J1,
                                       s.v, plan.v, C0h, C1h)

    in_ball = q.bound_rho is None or norm_X(s) <= q.bound_rho
    tf, bf, wf = _integral_tail(q, "f", p.bounds, m0f, boundaries, q.horizon, in_ball)
    th, bh, wh = _integral_tail(q, "h", p.bounds, m0h, boundaries, q.horizon, in_ball)
    iu, ibu = _impulse_tail(q, p.bounds, p.u_schedule,
                            ("seq_tail_phi", "seq_tail_psi"),
                            (np.abs(c0u), np.abs(c1u)), q.horizon, in_ball)
    iv, ibv = _impulse_tail(q, p.bounds, p.v_schedule,
                            ("seq_tail_phij", "seq_tail_theta"),
                            (np.abs(c0v), np.abs(c1v)), q.horizon, in_ball)
    report_u = TruncationReport(integral_tail_estimate=tf,
                                impulse_tail_estimate=iu,
                                K_used=int(plan.u.sched_pts.size),
                                tails_are_bounds=bf and ibu,
                                warn_integral_tail=wf)
    report_v = TruncationReport(integral_tail_estimate=th,
                                impulse_tail_estimate=iv,
                                K_used=int(plan.v.sched_pts.size),
                                tails_are_bounds=bh and ibv,
                                warn_integral_tail=wh)
    return SolutionPair(u=out_u, v=out_v), report_u.merged(report_v)


def semiinfinite_integral(g, t, q: QuadratureConfig, t0=0.0, breakpoints=()):
    """integral_{t0}^{H} G(t, s) g(s) ds by composite Gauss-Legendre.

    Panels never straddle the kernel kink at s = t or any of the supplied
    breakpoints (impulse times of the integrand's arguments).  The tail
    past the horizon is NOT added; it is the caller's to account for.
    """
    H = q.horizon
    if not 0.0 <= t0 < H:
        raise ValueError("need 0 <= t0 < horizon")
    hard = [float(b) for b in breakpoints if t0 < b < H]
    if t0 < t < H:
        hard.append(float(t))
    hard = np.asarray(sorted(set(hard)), dtype=float)
    pieces = np.concatenate(([t0], hard, [H]))
    boundaries = np.unique(pieces)
    for a, b in zip(pieces[:-1], pieces[1:]):
        n = max(q.panels_per_piece, int(math.ceil((b - a) / max(q.mesh_spacing, 1e-12))))
        boundaries = np.union1d(boundaries, np.linspace(a, b, n + 1))
    spts, wts = _gauss_panels(boundaries, q.gauss_order)
    flat = spts.ravel()
    gv = np.asarray(g(flat), dtype=float)
    if gv.shape != flat.shape:
        gv = np.array([float(g(ss)) for ss in flat])
    bad = ~np.isfinite(gv)
    if np.any(bad):
        i = int(np.nonzero(bad)[0][0])
        raise EvaluationError("integrand", flat[i], (0.0, 0.0, 0.0, 0.0))
    kern = -np.minimum(float(t), flat)
    return float((wts.ravel() * kern * gv).sum())


def impulse_sums(schedule, m0, m1, x: PiecewiseC1Function, t, horizon):
    """Truncated impulse sums at time t.

    Returns ``(partial_sum_at_t, full_sum_deriv)`` where the first is
    sum_{p_k < t} [m0(p_k,.) + m1(p_k,.)(t - p_k)] and the second is
    sum_{p_k < horizon} m1(p_k,.), with arguments (p_k, x(p_k-), x'(p_k-)).
    Points at or below x's domain start are skipped (no left limit exists).
    """
    pts = schedule.points_between(x.mesh.t0, horizon)
    if pts.size == 0:
        return 0.0, 0.0
    a = np.atleast_1d(x(pts))  # left-continuous evaluation = left limits
    b = np.atleast_1d(x.deriv(pts))
    c0 = np.atleast_1d(m0(pts, a, b)).astype(float)
    c1 = np.atleast_1d(m1(pts, a, b)).astype(float)
    before = pts < t
    partial = float(np.sum(c0[before] + c1[before] * (t - pts[before])))
    return partial, float(np.sum(c1))
