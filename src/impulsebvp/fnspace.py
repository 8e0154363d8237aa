"""Piecewise-C1 functions on a truncated half-line mesh with registered jumps.

A function lives on [t0, horizon] as per-slot (value, derivative) data with
cubic Hermite interpolation inside each smooth piece, plus an affine
extension of slope ``tail_slope`` beyond the horizon.  Impulse times appear
as doubled nodes (a left-limit slot followed by a right-limit slot), so
discontinuities in value and derivative are first class and interpolation
never crosses them.  Evaluation at an impulse time returns the left slot
(left-continuity convention).

The weighted norms are the computational stand-ins for the function-space
norms: ``norm_weighted_sup`` is sup |x(t)|/(1+t), ``norm_deriv_sup`` is
sup |x'(t)|, both taken over node slots and combined with the limit terms
induced by the affine tail, and NaN if any part is.  All objects are
immutable; operations return new instances.
"""

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Mesh",
    "PiecewiseC1Function",
    "SolutionPair",
    "build_mesh",
    "norm_weighted_sup",
    "norm_deriv_sup",
    "norm_X",
    "apply_jump",
    "fn_lincomb",
    "pair_lincomb",
    "difference_norm",
    "slot_sides",
]


@dataclass(frozen=True, eq=False)
class Mesh:
    """Node slots on [t0, horizon] with doubled slots at impulse times.

    ``nodes`` holds one time per slot; an impulse time occurs twice
    (left slot then right slot).  ``grid`` is the deduplicated strictly
    increasing time axis; ``left_slot``/``right_slot`` map each grid index
    to the slot representing the one-sided limit there.
    """

    nodes: np.ndarray
    grid: np.ndarray
    left_slot: np.ndarray
    right_slot: np.ndarray
    impulse_times: np.ndarray

    @property
    def t0(self) -> float:
        return float(self.grid[0])

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    @property
    def n_slots(self) -> int:
        return self.nodes.size

    def doubled_nodes(self):
        """Grid indices of the doubled nodes, ascending: the grid positions
        whose ``left_slot`` (left limit) and ``right_slot`` (right limit)
        differ."""
        return np.flatnonzero(self.left_slot != self.right_slot)

    def impulse_slots(self, p):
        """Return (left_slot, right_slot) of the doubled node at time p."""
        idx = np.searchsorted(self.grid, p)
        if (idx >= self.grid.size or self.grid[idx] != p
                or self.left_slot[idx] == self.right_slot[idx]):
            raise ValueError(f"{p} is not an impulse node of this mesh")
        return int(self.left_slot[idx]), int(self.right_slot[idx])

    def same_layout(self, other) -> bool:
        return self is other or (
            self.nodes.size == other.nodes.size and np.array_equal(self.nodes, other.nodes)
        )


def _require_positive(**values):
    """Raise ValueError naming the first value that is not finite and > 0."""
    for name, value in values.items():
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _require_domain(t0, horizon):
    """Raise ValueError unless the working domain [t0, horizon) is finite
    and 0 <= t0 < horizon."""
    t0, horizon = float(t0), float(horizon)
    if not (np.isfinite(horizon) and 0.0 <= t0 < horizon):
        raise ValueError(f"t0 must be finite with 0 <= t0 < horizon, got t0 = {t0!r}, "
                         f"horizon = {horizon!r}")


def build_mesh(t0, horizon, impulse_times=(), spacing=0.01):
    """Build a mesh on [t0, horizon] doubled at every interior impulse time.

    Impulse times outside the open interval (t0, horizon) are dropped: a
    jump at or before t0 has no representable left side, and one at or
    beyond the horizon falls outside the truncated domain.  Each smooth
    piece is subdivided uniformly so the node distance stays <= spacing.
    """
    _require_domain(t0, horizon)
    _require_positive(spacing=spacing)
    t0, horizon = float(t0), float(horizon)
    pts = np.atleast_1d(np.asarray(impulse_times, dtype=float))
    pts = np.sort(pts[(pts > t0) & (pts < horizon)])
    if pts.size != np.unique(pts).size:
        raise ValueError("impulse times must be distinct")

    # piece j spans grid[first[j]:first[j] + n[j] + 1], the np.linspace(a, b,
    # n + 1) points with both ends exact: it starts at its own a and ends at
    # the next piece's, and the last one at the appended horizon
    bounds = np.concatenate(([t0], pts, [horizon]))
    a, b = bounds[:-1], bounds[1:]
    n = np.maximum(1, np.ceil((b - a) / spacing - 1e-12).astype(int))
    first = np.concatenate(([0], np.cumsum(n)[:-1]))
    k = np.arange(first[-1] + n[-1]) - np.repeat(first, n)
    grid = np.append(k * np.repeat((b - a) / n, n) + np.repeat(a, n), horizon)
    return _mesh_on_grid(grid, first[1:])


def _mesh_on_grid(grid, knots) -> Mesh:
    """The mesh on ``grid`` doubled at the grid indices ``knots`` (ascending):
    the one place a :class:`Mesh` is laid out."""
    times = grid[knots]
    hi = knots + np.arange(1, knots.size + 1)  # the right slots
    keep = np.ones(grid.size + knots.size, dtype=bool)
    keep[hi] = False
    left_slot = np.flatnonzero(keep)
    right_slot = left_slot.copy()
    right_slot[knots] = hi
    nodes = np.empty(keep.size)
    nodes[left_slot] = grid
    nodes[hi] = times
    return Mesh(nodes=nodes, grid=grid, left_slot=left_slot, right_slot=right_slot,
                impulse_times=times)


def _hermite_weights(u, h):
    """Yield the cubic Hermite weights at relative positions u in intervals
    of length h, one array at a time: w00, h*h10, w01, h*h11 of the value,
    then da, db, dc of the derivative (see :func:`_hermite_combine`)."""
    u2 = u * u
    u3 = u2 * u
    yield 2.0 * u3 - 3.0 * u2 + 1.0
    yield h * (u3 - 2.0 * u2 + u)
    yield -2.0 * u3 + 3.0 * u2
    yield h * (u3 - u2)
    yield 6.0 * u2 - 6.0 * u
    yield 3.0 * u2 - 4.0 * u + 1.0
    yield 3.0 * u2 - 2.0 * u


def _hermite_combine(w, h, v0, v1, d0, d1):
    """(value, derivative) of the cubic Hermite interpolant of the end data
    (v0, d0), (v1, d1), from the weights ``w`` of :func:`_hermite_weights`
    (a generator or the stored tuple, read in order):

        value = w00 v0 + h h10 d0 + w01 v1 + h h11 d1
        deriv = da (v0 - v1) / h + db d0 + dc d1

    summed left to right with one temporary.  The module's single copy of
    the formula: point evaluation and the operator plan both use it."""
    w = iter(w)
    val = next(w) * v0
    tmp = next(w) * d0
    val += tmp
    val += np.multiply(next(w), v1, out=tmp)
    val += np.multiply(next(w), d1, out=tmp)
    # dividing by h after the product, not folding 1/h into da, keeps the
    # last bit of the formula as written
    der = next(w) * (v0 - v1)
    der /= h
    der += np.multiply(next(w), d0, out=tmp)
    der += np.multiply(next(w), d1, out=tmp)
    return val, der


@dataclass(frozen=True, eq=False)
class PiecewiseC1Function:
    """Function data on a :class:`Mesh`: per-slot values and derivatives.

    ``tail_slope`` is the slope of the affine extension beyond the horizon:
    it equals both the t -> inf limit of x(t)/(1+t) and of x'(t), so the
    function belongs to the weighted space by construction.
    """

    mesh: Mesh
    values: np.ndarray
    derivs: np.ndarray
    tail_slope: float

    def __post_init__(self):
        if self.values.shape != self.mesh.nodes.shape or self.derivs.shape != self.mesh.nodes.shape:
            raise ValueError("values/derivs must have one entry per mesh slot")

    @property
    def jump_registry(self):
        """Jumps (p, dvalue, dderiv) at each doubled node, derived from slots."""
        d = self.mesh.doubled_nodes()
        lo, hi = self.mesh.left_slot[d], self.mesh.right_slot[d]
        return tuple(zip(self.mesh.grid[d].tolist(),
                         (self.values[hi] - self.values[lo]).tolist(),
                         (self.derivs[hi] - self.derivs[lo]).tolist()))

    def __call__(self, t):
        """Evaluate values at times t (left-continuous at impulse points)."""
        return self.value_and_deriv(t)[0]

    def deriv(self, t):
        """Evaluate the tracked first derivative at times t."""
        return self.value_and_deriv(t)[1]

    def value_and_deriv(self, t):
        """``(x(t), x'(t))`` from one locate-and-gather pass: exact grid
        nodes read the left slot (left-continuity), other times up to the
        horizon the cubic Hermite interpolant of their grid interval, times
        past the horizon the affine tail."""
        t_in = np.asarray(t, dtype=float)
        t = np.atleast_1d(t_in)
        mesh = self.mesh
        grid = mesh.grid
        bad = ~np.isfinite(t)
        if np.any(bad):
            first = np.argwhere(bad)[0]
            where = int(first[0]) if first.size == 1 else tuple(first.tolist())
            raise ValueError(f"non-finite query time {t[tuple(first)]} at index {where}")
        if np.any(t < grid[0]):
            raise ValueError(f"evaluation below the working domain start t0={grid[0]}")

        # times past the horizon read the last node, so they never enter the
        # Hermite arithmetic; the affine tail overwrites them below
        beyond = t > grid[-1]
        pos = np.minimum(np.searchsorted(grid, t, side="left"), grid.size - 1)
        exact = grid[pos] == t
        exact |= beyond
        strict = ~exact
        j = pos[strict] - 1  # grid[j] < t < grid[j+1]
        s_lo, s_hi = mesh.right_slot[j], mesh.left_slot[j + 1]
        x0 = grid[j]
        h = grid[j + 1] - x0
        val_s, der_s = _hermite_combine(
            _hermite_weights((t[strict] - x0) / h, h), h,
            self.values[s_lo], self.values[s_hi], self.derivs[s_lo], self.derivs[s_hi])
        # the outputs are allocated once the kernel's temporaries are gone
        val = np.empty(t.shape, dtype=float)
        der = np.empty(t.shape, dtype=float)
        val[strict], der[strict] = val_s, der_s
        node = mesh.left_slot[pos[exact]]
        val[exact], der[exact] = self.values[node], self.derivs[node]
        if np.any(beyond):
            val[beyond] = self.values[-1] + self.tail_slope * (t[beyond] - grid[-1])
            der[beyond] = self.tail_slope
        if t_in.ndim == 0:
            return float(val[0]), float(der[0])
        return val, der

    def left_limits_at(self, times):
        """(values, derivs) of the left limits at the given node times."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        pos = np.searchsorted(self.mesh.grid, times)
        if np.any(pos >= self.mesh.grid.size) or np.any(self.mesh.grid[pos] != times):
            raise ValueError("left limits requested at non-node times")
        slots = self.mesh.left_slot[pos]
        return self.values[slots], self.derivs[slots]


@dataclass(frozen=True)
class SolutionPair:
    """The pair (u, v) on one grid, each component doubled only at its own
    impulse times: the meshes of ``operator.problem_meshes``."""

    u: PiecewiseC1Function
    v: PiecewiseC1Function

    def __post_init__(self):
        gu, gv = self.u.mesh.grid, self.v.mesh.grid
        if not (gu is gv or np.array_equal(gu, gv)):
            raise ValueError("u and v must share one grid; build them on problem_meshes()")


def norm_weighted_sup(x: PiecewiseC1Function) -> float:
    """sup |x(t)| / (1 + t) over node slots, combined with the tail limit."""
    w = np.abs(x.values) / (1.0 + x.mesh.nodes)
    return float(np.maximum(w.max(), abs(x.tail_slope)))


def norm_deriv_sup(x: PiecewiseC1Function) -> float:
    """sup |x'(t)| over node slots, combined with the tail limit."""
    return float(np.maximum(np.abs(x.derivs).max(), abs(x.tail_slope)))


def norm_X(s: SolutionPair) -> float:
    """max of the four component norms; the iteration's stopping metric."""
    return float(np.max([norm_weighted_sup(s.u), norm_deriv_sup(s.u),
                         norm_weighted_sup(s.v), norm_deriv_sup(s.v)]))


def apply_jump(x: PiecewiseC1Function, p, dv, dd) -> PiecewiseC1Function:
    """Return a copy whose jump at the doubled node p is exactly (dv, dd).

    Slots at and after the right slot of p are shifted by the affine
    correction ``(dv - cur_dv) + (dd - cur_dd) * (t - p)`` so the smooth
    pieces keep their value/derivative consistency; the tail slope absorbs
    the derivative shift.
    """
    lo, hi = x.mesh.impulse_slots(p)
    cur_dv = x.values[hi] - x.values[lo]
    cur_dd = x.derivs[hi] - x.derivs[lo]
    sv = dv - cur_dv
    sd = dd - cur_dd
    values = x.values.copy()
    derivs = x.derivs.copy()
    t_after = x.mesh.nodes[hi:]
    values[hi:] += sv + sd * (t_after - p)
    derivs[hi:] += sd
    return replace(x, values=values, derivs=derivs, tail_slope=x.tail_slope + sd)


def fn_lincomb(a, x: PiecewiseC1Function, b, y: PiecewiseC1Function) -> PiecewiseC1Function:
    """a*x + b*y for functions on the same mesh layout."""
    if not x.mesh.same_layout(y.mesh):
        raise ValueError("lincomb requires identical mesh layouts")
    return PiecewiseC1Function(
        mesh=x.mesh,
        values=a * x.values + b * y.values,
        derivs=a * x.derivs + b * y.derivs,
        tail_slope=a * x.tail_slope + b * y.tail_slope,
    )


def pair_lincomb(a, s1: SolutionPair, b, s2: SolutionPair) -> SolutionPair:
    return SolutionPair(u=fn_lincomb(a, s1.u, b, s2.u), v=fn_lincomb(a, s1.v, b, s2.v))


def _eval_on_slots(fn: PiecewiseC1Function, mesh: Mesh):
    """Evaluate fn at another mesh's slots, honoring left/right sides."""
    vals, ders = fn.value_and_deriv(mesh.nodes)
    d, fd = mesh.doubled_nodes(), fn.mesh.doubled_nodes()
    _, i, fi = np.intersect1d(mesh.grid[d], fn.mesh.grid[fd], assume_unique=True,
                              return_indices=True)
    hi, fhi = mesh.right_slot[d[i]], fn.mesh.right_slot[fd[fi]]
    vals[hi] = fn.values[fhi]
    ders[hi] = fn.derivs[fhi]
    return vals, ders


def difference_norm(sa: SolutionPair, sb: SolutionPair) -> float:
    """||sa - sb||_X over sa's domain, evaluating sb at sa's node slots.

    Meant for refinement studies: sa is the coarser or shorter-domain
    solution and sb must cover its domain.  The tail term compares sa's
    tail slope with sb's derivative at sa's horizon.
    """
    diffs = []
    for a, b in ((sa.u, sb.u), (sa.v, sb.v)):
        if b.mesh.horizon < a.mesh.horizon or b.mesh.t0 > a.mesh.t0:
            raise ValueError("second pair must cover the first pair's domain")
        bv, bd = _eval_on_slots(b, a.mesh)
        diffs.append(PiecewiseC1Function(
            mesh=a.mesh, values=a.values - bv, derivs=a.derivs - bd,
            tail_slope=a.tail_slope - float(b.deriv(a.mesh.horizon))))
    return norm_X(SolutionPair(*diffs))


def constant_fn(mesh: Mesh, value=0.0, slope=0.0) -> PiecewiseC1Function:
    """value + slope * t on the given mesh (affine, zero jumps)."""
    return PiecewiseC1Function(
        mesh=mesh,
        values=value + slope * mesh.nodes,
        derivs=np.full(mesh.n_slots, float(slope)),
        tail_slope=float(slope),
    )


def slot_sides(mesh: Mesh):
    """Per-slot side labels: '-' on the left slot and '+' on the right slot
    of each doubled node, '' elsewhere."""
    d = mesh.doubled_nodes()
    sides = np.full(mesh.n_slots, "", dtype="<U1")
    sides[mesh.left_slot[d]] = "-"
    sides[mesh.right_slot[d]] = "+"
    return sides

