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

Everything that depends only on the problem and the quadrature config
lives in an :class:`OperatorPlan`: the meshes of ``problem_meshes``, the
panel boundaries, Gauss points and weights, per mesh and panel the two
slots whose Hermite data the panel interpolates, the cubic Hermite
weights at every Gauss point, and the slot bookkeeping of the assembly.
``solve`` and the ball-invariance audit build one plan and pass it to
every :func:`apply_T` call; without a plan, ``apply_T`` builds one for the
call.  The cubic Hermite kernel itself lives in :mod:`fnspace`
(``_hermite_weights`` and ``_hermite_combine``): the plan stores the
weights, point evaluation recomputes them, and both combine them in one
function, so the two paths agree bit for bit by construction.

Gauss points and weights have one layout, that of ``_gauss_panels``:
Gauss-major, C-contiguous (GAUSS_ORDER, npanels), one row per Gauss node,
while the plan's per-panel data (slots, interval lengths) is 1-D.  So
every elementwise step runs over rows of npanels points, and the
right-hand sides see the points in ``spts.ravel()`` order, which is not
time order.  The per-panel sums add the rows pairwise,
((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)), the order numpy's ``sum`` uses on a
contiguous row of 8, so they equal a panel-major ``sum(axis=1)`` bit for
bit.  A non-finite right-hand side value is still reported at its first
point in time order.  The integrators that sum over all points at once
(``semiinfinite_integral``, the audit's rho2 integrals and the
verifier's rhs integrals) read ``.T.ravel()``: the points in time order.

Per call, ``apply_T`` walks the panels in blocks of at most
``BLOCK_PANELS`` (as few blocks as that allows, of equal size give or
take one panel), in time order.  Per block, one pass per mesh (four
per-panel gathers and two weighted sums) gives u, v, u', v' at the
block's Gauss points for both f and h; f is called on them and its
values are summed per panel and dropped, then h likewise, so one
right-hand-side value array is alive at a time.  The per-panel sums go
into full-length rows, and the cumulative sums, the assembly and the
tails run once on those rows.  Every step is elementwise per point or
per panel, so the outputs do not depend on the block size.  The size
keeps every per-point temporary at 256 KiB or less.  A whole-plan pass
over the 93 296 points of a 400 + 160 impulse problem pushes several MB
of temporaries through the C heap per call, which hands them back to the
system and faults them in again (about 800 page faults per call); blocks
of 4 096 panels avoid that, while much smaller blocks (256 panels) cost
more in per-block overhead than they save.

Evaluation at distinct output nodes is independent; the implementation is
vectorized with a fixed summation order, so results are deterministic for a
fixed configuration, with or without a plan.
"""

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fnspace import (Mesh, PiecewiseC1Function, SolutionPair, _hermite_combine,
                      _hermite_weights, _require_positive, build_mesh, norm_X)
from .kernel import green
from .model import ImpulsiveCoupledBVP, _first_nonfinite

GAUSS_ORDER = 8        # Gauss-Legendre points per panel; _panel_sums adds 8 rows
PANELS_PER_PIECE = 16  # least panels between consecutive impulse times
BLOCK_PANELS = 4096    # most panels per block of apply_T's Gauss-point pass

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
    """A right-hand side returned a non-finite value; carries the location.

    ``solve`` adds the failing iteration to ``location`` after the error is
    raised, and the message names it from then on."""

    def __init__(self, name, s, args):
        self.location = {"rhs": name, "s": float(s),
                         "args": tuple(float(a) for a in args)}
        super().__init__(
            f"{name} returned a non-finite value at s={s:.6g} with "
            f"(x,y,z,w)={tuple(round(float(a), 6) for a in args)}"
        )

    def __str__(self):
        msg = super().__str__()
        it = self.location.get("iteration")
        return msg if it is None else f"{msg} in iteration {it}"


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation and mesh parameters.

    The quadrature rule is fixed: ``GAUSS_ORDER``-point Gauss-Legendre on
    panels that contain the mesh grid, with at least ``PANELS_PER_PIECE``
    panels between consecutive impulse times.  Tail bounds come only from
    the problem's Caratheodory bounds at radius ``bound_rho`` (and bound
    only on that ball); without ``bound_rho`` or bounds, tails are
    estimated by geometric extrapolation of the observed decay and flagged
    when the estimate exceeds ``abs_tol``.
    """

    horizon: float = 40.0
    mesh_spacing: float = 0.01
    abs_tol: float = 1e-8
    bound_rho: Optional[float] = None

    def __post_init__(self):
        _require_positive(horizon=self.horizon, mesh_spacing=self.mesh_spacing,
                          abs_tol=self.abs_tol)
        if self.bound_rho is not None:
            _require_positive(bound_rho=self.bound_rho)


@dataclass(frozen=True)
class TruncationReport:
    """Estimates of the mass discarded by truncating at the horizon."""

    integral_tail_estimate: float
    impulse_tail_estimate: float
    K_used: int
    tails_are_bounds: bool = False
    warn_integral_tail: bool = False

    def to_dict(self):
        return asdict(self)


def problem_meshes(p: ImpulsiveCoupledBVP, q: QuadratureConfig):
    """The (u, v) meshes the operator works on: doubled at each component's
    schedule points inside (t0, horizon)."""
    mu = build_mesh(p.t0, q.horizon, p.u_schedule.points_between(p.t0, q.horizon),
                    q.mesh_spacing)
    mv = build_mesh(p.t0, q.horizon, p.v_schedule.points_between(p.t0, q.horizon),
                    q.mesh_spacing)
    return mu, mv


def _gauss_panels(breaks):
    """Gauss-Legendre points and weights on the panels between ``breaks``:
    Gauss-major, C-contiguous (GAUSS_ORDER, npanels) arrays.  Their
    ``.T.ravel()`` lists the points in time order, panel by panel."""
    xg, wg = leggauss(GAUSS_ORDER)
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    half = 0.5 * np.diff(breaks)
    return mid + half * xg[:, None], half * wg[:, None]


def _refined_boundaries(grid, hard):
    """Panel boundaries: the given grid, with every piece between hard
    breakpoints holding at least ``PANELS_PER_PIECE`` panels."""
    pieces = np.unique(np.concatenate(([grid[0]], hard, [grid[-1]])))
    a, b = pieces[:-1], pieces[1:]
    inside = (np.searchsorted(grid, b, side="left")
              - np.searchsorted(grid, a, side="right"))
    short = inside + 1 < PANELS_PER_PIECE
    extra = np.linspace(a[short], b[short], PANELS_PER_PIECE + 1)
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


def _integral_tail(q, tail, moments, boundaries, in_ball):
    """(estimate, is_bound, warn) for the integral tail past the horizon.

    ``tail`` is the problem's closed-form tail (rho, t) -> bound, or None;
    ``in_ball`` says whether the iterate lies in the ``bound_rho``-ball, the
    only place where that tail bounds anything."""
    horizon = q.horizon
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


def _impulse_tail(q, schedule, tail0, tail1, c_abs, in_ball):
    """(estimate, is_bound) for the impulse sums cut at the horizon;
    ``tail0``/``tail1`` are the problem's sequence tails (rho, K) -> bound
    of the value and derivative jumps, or None."""
    if schedule.points is not None:
        pts = np.asarray(schedule.points, dtype=float)
        if pts.size == 0 or pts.max() < q.horizon:
            return 0.0, True  # finite schedule fully inside: nothing discarded
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


@dataclass(frozen=True, eq=False)
class _MeshPlan:
    """What one component's mesh contributes to the operator, per problem.

    Every quadrature panel lies inside one grid interval of the mesh (the
    panel boundaries contain the grid), so the Hermite data of panel i is
    read from the two slots ``s_lo[i]`` (right slot of grid node j) and
    ``s_hi[i]`` (left slot of grid node j+1), with interval length ``h[i]``.
    The cubic Hermite weights at the panel's Gauss points are fixed by the
    plan: ``weights`` holds the seven arrays of
    :func:`fnspace._hermite_weights`, Gauss-major (GAUSS_ORDER, npanels)
    like the plan's Gauss points, and ``interpolate`` combines them with
    :func:`fnspace._hermite_combine`, the kernel point evaluation uses.
    The few Gauss points that coincide with a grid node (the ends of panels
    a rounding error wide) are listed in ``on_node`` (flat indices) and read
    ``node_slot`` (the left slot, by the left-continuity convention).
    Per slot, ``panel`` indexes its time in the panel boundaries (the
    moments up to it are ``C0[panel]``, ``C1[panel]``) and ``cnt`` counts
    the impulse times before it.  ``lo``/``hi`` are the left and right
    slots of the mesh's doubled nodes, its impulse times in ascending order.
    """

    mesh: Mesh
    s_lo: np.ndarray
    s_hi: np.ndarray
    h: np.ndarray
    weights: tuple
    on_node: np.ndarray
    node_slot: np.ndarray
    panel: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    cnt: np.ndarray

    @staticmethod
    def build(mesh, boundaries, spts):
        grid = mesh.grid
        j = np.minimum(np.searchsorted(grid, boundaries[:-1], side="right") - 1,
                       grid.size - 2)
        x0, x1 = grid[j], grid[j + 1]
        h = x1 - x0
        # a Gauss point lies in its panel's grid interval [x0, x1], so it can
        # only sit on one of those two nodes
        at_hi = spts == x1
        on_node = np.flatnonzero(at_hi | (spts == x0))
        node = j[on_node % j.size] + at_hi.ravel()[on_node]
        knot = mesh.doubled_nodes()
        return _MeshPlan(
            mesh=mesh, s_lo=mesh.right_slot[j], s_hi=mesh.left_slot[j + 1], h=h,
            weights=tuple(_hermite_weights((spts - x0) / h, h)),
            on_node=on_node, node_slot=mesh.left_slot[node],
            panel=np.searchsorted(boundaries, mesh.nodes),
            lo=mesh.left_slot[knot], hi=mesh.right_slot[knot],
            cnt=np.searchsorted(mesh.impulse_times, mesh.nodes, side="left"))

    def interpolate(self, x: PiecewiseC1Function, a=0, b=None):
        """x and x' at the Gauss points of panels a..b-1 (default: all), in
        ``spts[:, a:b].ravel()`` order, bit for bit as ``x(flat)`` and
        ``x.deriv(flat)`` compute them."""
        npanels = self.h.size
        b = npanels if b is None else b
        cols = slice(a, b)
        s_lo, s_hi = self.s_lo[cols], self.s_hi[cols]
        val, der = _hermite_combine((w[:, cols] for w in self.weights), self.h[cols],
                                    x.values[s_lo], x.values[s_hi],
                                    x.derivs[s_lo], x.derivs[s_hi])
        val, der = val.ravel(), der.ravel()
        row, col = np.divmod(self.on_node, npanels)
        inside = (col >= a) & (col < b)
        at = row[inside] * (b - a) + (col[inside] - a)
        val[at] = x.values[self.node_slot[inside]]
        der[at] = x.derivs[self.node_slot[inside]]
        return val, der


@dataclass(frozen=True, eq=False)
class OperatorPlan:
    """Everything :func:`apply_T` needs that depends only on the problem
    and the quadrature config, built once and reused for every iterate.

    Holds the two meshes of ``problem_meshes`` (as ``u.mesh``, ``v.mesh``),
    the panel boundaries (the union of both grids, refined so every
    piece between impulse times has ``PANELS_PER_PIECE`` panels), the
    Gauss points and weights, and per component a :class:`_MeshPlan` with
    the Hermite gathers and weights at the Gauss points and the per-slot
    bookkeeping of the assembly (panel index, impulse count, and the
    impulse slots, read off the mesh's doubled nodes).  When both meshes
    have the same layout, ``u`` and ``v`` are one object.
    """

    problem: ImpulsiveCoupledBVP
    config: QuadratureConfig
    boundaries: np.ndarray
    spts: np.ndarray
    wts: np.ndarray
    u: _MeshPlan
    v: _MeshPlan

    @staticmethod
    def build(p: ImpulsiveCoupledBVP, q: QuadratureConfig) -> "OperatorPlan":
        """Plan for (p, q) on the meshes of ``problem_meshes(p, q)``, built
        here, so each schedule is enumerated once per plan."""
        u_mesh, v_mesh = problem_meshes(p, q)
        hard = np.union1d(u_mesh.impulse_times, v_mesh.impulse_times)
        boundaries = _refined_boundaries(np.union1d(u_mesh.grid, v_mesh.grid), hard)
        spts, wts = _gauss_panels(boundaries)
        u = _MeshPlan.build(u_mesh, boundaries, spts)
        v = u if v_mesh.same_layout(u_mesh) else _MeshPlan.build(v_mesh, boundaries, spts)
        return OperatorPlan(problem=p, config=q, boundaries=boundaries, spts=spts,
                            wts=wts, u=u, v=v)

    def check(self, p, q, s: SolutionPair):
        """Raise ValueError unless the plan fits (p, q) and s's meshes."""
        if self.problem is not p or self.config != q:
            raise ValueError("operator plan was built for another problem or config")
        if not (s.u.mesh.same_layout(self.u.mesh)
                and s.v.mesh.same_layout(self.v.mesh)):
            raise ValueError("iterate meshes differ from the operator plan's; "
                             "rebuild the iterate with problem_meshes()")


def _blocks(npanels):
    """(start, stop) panel ranges of ``apply_T``'s blocks, in time order:
    as few as hold at most ``BLOCK_PANELS`` panels each, of equal size
    give or take one, so no tiny last block is left."""
    n = -(-npanels // BLOCK_PANELS)
    edges = [i * npanels // n for i in range(n + 1)]
    return zip(edges[:-1], edges[1:])


def _rhs_values(rhs, shape, args):
    """rhs at a block's Gauss points: ``args`` is (t, u, v, u', v') flat in
    Gauss-major order, the result has the block's ``shape``."""
    vals = rhs(*args)
    # report the first bad point in time order: panel-major, not flat order
    i = _first_nonfinite(vals, rank=lambda j: j % shape[1] * GAUSS_ORDER + j // shape[1])
    if i is not None:
        raise EvaluationError(rhs.name, args[0][i], tuple(a[i] for a in args[1:]))
    return vals.reshape(shape)


def _panel_sums(a):
    """Per-panel sums of a Gauss-major (8, npanels) array, formed in place as
    ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)): the pairwise order numpy's sum
    uses on a contiguous row of 8, so the bits equal a panel-major
    ``sum(axis=1)``."""
    # row by row: strided halves would make numpy copy the operand
    for i, j in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        a[i] += a[j]
    return a[0].copy()  # a copy, so the caller does not keep all of a alive


def _moments(spts, wts, rvals):
    """Per-panel sums of w r and w s r over a Gauss-major block."""
    return _panel_sums(wts * rvals), _panel_sums(wts * spts * rvals)


def _prefix_sums(x):
    """0 followed by the running sums of x."""
    return np.concatenate(([0.0], np.cumsum(x)))


def _component_apply(A, B, m0_map, m1_map, x_self, mp: _MeshPlan, C0, C1):
    """Assemble one operator component on the iterate's mesh."""
    mesh = x_self.mesh
    nodes = mesh.nodes
    pts = mesh.impulse_times
    if pts.size:
        a_left, b_left = x_self.values[mp.lo], x_self.derivs[mp.lo]
        c0 = np.atleast_1d(m0_map(pts, a_left, b_left)).astype(float)
        c1 = np.atleast_1d(m1_map(pts, a_left, b_left)).astype(float)
        i = _first_nonfinite(c0, c1)
        if i is not None:
            raise EvaluationError("impulse map", pts[i],
                                  (a_left[i], b_left[i], c0[i], c1[i]))
    else:
        c0 = c1 = np.zeros(0)
    prefix0 = _prefix_sums(c0)
    prefix1 = _prefix_sums(c1)
    prefix1p = _prefix_sums(c1 * pts)
    S1 = prefix1[-1]
    total0 = C0[-1]

    panel, cnt = mp.panel, mp.cnt
    ival = -(C1[panel] + nodes * (total0 - C0[panel]))
    ider = -(total0 - C0[panel])
    pulse_val = prefix0[cnt] + nodes * prefix1[cnt] - prefix1p[cnt]
    pulse_der = prefix1[cnt]

    values = A + B * nodes + pulse_val - nodes * S1 + ival
    derivs = B + pulse_der - S1 + ider

    # insert the jumps algebraically: right slot = left slot + jump, exactly;
    # this overwrites every right slot, so cnt need not count its own impulse
    values[mp.hi] = values[mp.lo] + c0
    derivs[mp.hi] = derivs[mp.lo] + c1

    out = PiecewiseC1Function(mesh=mesh, values=values, derivs=derivs,
                              tail_slope=float(B))
    return out, c0, c1


def apply_T(p: ImpulsiveCoupledBVP, s: SolutionPair, q: QuadratureConfig,
            plan: Optional[OperatorPlan] = None):
    """Both components on shared quadrature panels, with one truncation
    report for both: the larger tails, and bounds only if all four are.

    ``plan`` is ``OperatorPlan.build(p, q)``, else built for this call
    alone.  Either way s must live on ``problem_meshes(p, q)``: an iterate
    on another mesh spacing or impulse layout raises ValueError.

    The Gauss points are visited in blocks of panels (see the module
    docstring), so f and h are each called once per block.  Errors keep
    the precedence of a single pass: a non-finite f value first (at its
    first point in time order), then the u impulse maps, then h, then the
    v impulse maps.
    """
    if plan is None:
        plan = OperatorPlan.build(p, q)
    plan.check(p, q, s)
    boundaries = plan.boundaries
    npanels = boundaries.size - 1
    m0f, m1f, m0h, m1h = np.empty((4, npanels))
    h_error = None
    for a, b in _blocks(npanels):
        spts, wts = plan.spts[:, a:b], plan.wts[:, a:b]
        U, dU = plan.u.interpolate(s.u, a, b)
        V, dV = plan.v.interpolate(s.v, a, b)
        args = (spts.ravel(), U, V, dU, dV)
        # the rhs values are dropped once summed: one such array alive at a time
        m0f[a:b], m1f[a:b] = _moments(spts, wts, _rhs_values(p.f, spts.shape, args))
        if h_error is None:
            try:
                m0h[a:b], m1h[a:b] = _moments(spts, wts,
                                              _rhs_values(p.h, spts.shape, args))
            except EvaluationError as exc:
                h_error = exc  # raised once f has been checked on every block

    out_u, c0u, c1u = _component_apply(p.boundary.A1, p.boundary.B1, p.I0, p.I1,
                                       s.u, plan.u, _prefix_sums(m0f), _prefix_sums(m1f))
    if h_error is not None:
        raise h_error
    out_v, c0v, c1v = _component_apply(p.boundary.A2, p.boundary.B2, p.J0, p.J1,
                                       s.v, plan.v, _prefix_sums(m0h), _prefix_sums(m1h))

    # the problem's Caratheodory tails at bound_rho are the only tail bounds
    b = p.bounds if q.bound_rho is not None else None
    in_ball = b is not None and norm_X(s) <= q.bound_rho
    tf, bf, wf = _integral_tail(q, b and b.tail_integral_f, m0f, boundaries, in_ball)
    th, bh, wh = _integral_tail(q, b and b.tail_integral_h, m0h, boundaries, in_ball)
    iu, ibu = _impulse_tail(q, p.u_schedule, b and b.seq_tail_phi, b and b.seq_tail_psi,
                            (np.abs(c0u), np.abs(c1u)), in_ball)
    iv, ibv = _impulse_tail(q, p.v_schedule, b and b.seq_tail_phij, b and b.seq_tail_theta,
                            (np.abs(c0v), np.abs(c1v)), in_ball)
    report = TruncationReport(
        integral_tail_estimate=max(tf, th),
        impulse_tail_estimate=max(iu, iv),
        K_used=max(plan.u.mesh.impulse_times.size, plan.v.mesh.impulse_times.size),
        tails_are_bounds=bf and ibu and bh and ibv,
        warn_integral_tail=wf or wh)
    return SolutionPair(u=out_u, v=out_v), report


def semiinfinite_integral(g, t, q: QuadratureConfig, t0=0.0, breakpoints=()):
    """integral_{t0}^{H} G(t, s) g(s) ds by composite Gauss-Legendre.

    The panels are the operator's: a ``mesh_spacing`` grid split at the
    kernel kink s = t and at the supplied breakpoints (impulse times of the
    integrand's arguments), refined to ``PANELS_PER_PIECE`` panels per
    piece, so no panel straddles a jump.  ``g`` is vectorized over s.  The
    tail past the horizon is NOT added; it is the caller's to account for.
    """
    H = q.horizon
    # build_mesh checks 0 <= t0 < H and keeps the breaks inside (t0, H),
    # sorted, as impulse_times
    mesh = build_mesh(t0, H, np.union1d(breakpoints, [t]), q.mesh_spacing)
    spts, wts = _gauss_panels(_refined_boundaries(mesh.grid, mesh.impulse_times))
    flat = spts.T.ravel()  # time order
    gv = np.broadcast_to(np.asarray(g(flat), dtype=float), flat.shape)
    i = _first_nonfinite(gv)
    if i is not None:
        raise EvaluationError("integrand", flat[i], (0.0, 0.0, 0.0, 0.0))
    return float((wts.T.ravel() * green(t, flat) * gv).sum())


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
    a, b = x.value_and_deriv(pts)  # left-continuous evaluation = left limits
    c0 = np.atleast_1d(m0(pts, a, b)).astype(float)
    c1 = np.atleast_1d(m1(pts, a, b)).astype(float)
    before = pts < t
    partial = float(np.sum(c0[before] + c1[before] * (t - pts[before])))
    return partial, float(np.sum(c1))
