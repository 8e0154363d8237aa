"""Property tests of point evaluation, the operator plan's interpolation,
jumps, linear combinations and the operator assembly, on drawn meshes,
impulse times, slot data and problems.

They run where hypothesis is installed (the ``test`` extra); the runtime
dependency stays numpy only.  The settings are derandomized and keep no
example database, so every run draws the same examples and writes no files.
"""

import atexit
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import configuration, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from impulsebvp.fnspace import (PiecewiseC1Function, SolutionPair,  # noqa: E402
                                apply_jump, build_mesh, fn_lincomb)
from impulsebvp.operator import (OperatorPlan, QuadratureConfig,  # noqa: E402
                                 _gauss_panels, _Intervals, _merge_close, _MeshPlan,
                                 _node_mask, _refined_boundaries,
                                 apply_T, impulse_sums, problem_meshes)
from impulsebvp.problemfile import load_problem  # noqa: E402
from test_fnspace import _eval_reference  # noqa: E402


# hypothesis caches the constants it reads from local modules in its home
# directory (./.hypothesis) while pytest collects, whatever the database
# setting; a temporary home, removed at exit, keeps the checkout clean
# (explicitly, so the interpreter does not warn that it cleans it up)
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
atexit.register(_HOME.cleanup)
configuration.set_hypothesis_home_dir(_HOME.name)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
# a panel a rounding wide needs nodes of two unrelated grids that nearly
# meet, which about one draw in 20 makes
PROPERTY_WIDE = settings(PROPERTY, max_examples=200)

FRACTION = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
REAL = st.floats(-1e3, 1e3, allow_subnormal=False)
# multiples of 2**-10 below 2**10: their sums and differences are exact
DYADIC = st.integers(-2**20, 2**20).map(lambda k: k / 1024.0)


@st.composite
def meshes(draw, t0=None, length=None):
    """A mesh on [t0, t0 + length] with up to 6 impulse times."""
    t0 = draw(st.floats(0.0, 5.0)) if t0 is None else t0
    length = draw(st.floats(0.1, 10.0)) if length is None else length
    times = t0 + length * np.array(draw(st.lists(FRACTION, max_size=6)))
    spacing = draw(st.floats(0.05, 2.0))
    return build_mesh(t0, t0 + length, np.unique(times), spacing)


def _union_grid(a, b):
    """(grid, doubled): the union of two unrelated meshes' grids and the
    mask of its nodes that are an impulse time of either.  Two nodes one
    rounding apart are one node: of such a pair the impulse time is kept
    (and the domain end), else the left one; two impulse times both stay."""
    grid = np.union1d(a.grid, b.grid)
    doubled = _node_mask(grid, np.union1d(a.impulse_times, b.impulse_times))
    fixed = doubled.copy()
    fixed[[0, -1]] = True
    keep = _merge_close(grid, fixed)
    return grid[keep], doubled[keep]


@st.composite
def functions(draw, mesh, data=REAL):
    n = mesh.n_slots
    return PiecewiseC1Function(mesh=mesh, values=draw(arrays(float, n, elements=data)),
                               derivs=draw(arrays(float, n, elements=data)),
                               tail_slope=draw(data))


@st.composite
def function_and_times(draw):
    """A drawn function and query times: its grid nodes, its impulse times,
    times drawn in [t0, t0 + 1.5 (horizon - t0)] and two far past the
    horizon."""
    x = draw(functions(draw(meshes())))
    grid = x.mesh.grid
    inside = grid[0] + (grid[-1] - grid[0]) * np.array(
        draw(st.lists(st.floats(0.0, 1.5), max_size=40)))
    return x, np.concatenate((grid, x.mesh.impulse_times, inside, [1e6, 1e300]))


@PROPERTY
@given(function_and_times())
def test_value_and_deriv_is_the_reference_evaluation(case):
    x, t = case
    val, der = x.value_and_deriv(t)
    assert np.array_equal(val, _eval_reference(x, t, False))
    assert np.array_equal(der, _eval_reference(x, t, True))
    assert np.array_equal(x(t), val) and np.array_equal(x.deriv(t), der)


@PROPERTY
@given(st.data())
def test_plan_interpolation_is_point_evaluation(data):
    # panels that cut each grid interval at another mesh's grid and impulse
    # times: the union of two unrelated grids
    mesh = data.draw(meshes())
    other = data.draw(meshes(t0=mesh.t0, length=mesh.horizon - mesh.t0))
    grid, doubled = _union_grid(mesh, other)
    boundaries = _refined_boundaries(grid, grid[doubled])
    spts, _ = _gauss_panels(boundaries)
    mp = _MeshPlan.build(mesh, _Intervals.build(mesh.grid, boundaries, spts))
    x = data.draw(functions(mesh))
    val, der = mp.interpolate(x)
    flat = spts.ravel()
    # the union merges grid nodes one rounding apart, but the Gauss points of
    # a panel a few roundings wide (between two impulse times or cut by the
    # refinement) can round onto or past its ends, where point evaluation
    # reads a slot; at every other Gauss point the bits are the same
    lo, hi = (np.broadcast_to(b, spts.shape).ravel()
              for b in (boundaries[:-1], boundaries[1:]))
    off = (flat > lo) & (flat < hi) & ~np.isin(flat, mesh.grid)
    val, der, flat = val[off], der[off], flat[off]
    assert np.array_equal(val, x(flat)) and np.array_equal(der, x.deriv(flat))


def _narrow_panels(boundaries):
    """(left ends, right ends) of the panels at most one rounding wide."""
    narrow = np.diff(boundaries) <= np.spacing(boundaries[1:])
    return boundaries[:-1][narrow], boundaries[1:][narrow]


@PROPERTY_WIDE
@given(st.data())
def test_refinement_points_a_rounding_from_a_node_merge_into_it(data):
    # on the union of two unrelated grids: every grid node stays a panel
    # boundary, and only two impulse times (or one and a domain end) one
    # rounding apart make a panel that narrow
    mesh = data.draw(meshes())
    other = data.draw(meshes(t0=mesh.t0, length=mesh.horizon - mesh.t0))
    grid, doubled = _union_grid(mesh, other)
    boundaries = _refined_boundaries(grid, grid[doubled])
    assert np.isin(grid, boundaries).all()
    for ends in _narrow_panels(boundaries):
        assert np.isin(ends, np.append(grid[doubled], grid[[0, -1]])).all()


@PROPERTY
@given(st.data())
def test_evaluation_is_left_continuous_and_the_jump_exact(data):
    mesh = data.draw(meshes().filter(lambda m: m.impulse_times.size > 0))
    x = data.draw(functions(mesh, DYADIC))
    p = data.draw(st.sampled_from(mesh.impulse_times.tolist()))
    dv, dd = data.draw(DYADIC), data.draw(DYADIC)
    lo, _ = mesh.impulse_slots(p)
    assert x.value_and_deriv(p) == (x.values[lo], x.derivs[lo])
    a, b = x.left_limits_at(p)
    assert (a[0], b[0]) == (x.values[lo], x.derivs[lo])

    y = apply_jump(x, p, dv, dd)
    assert (p, dv, dd) in y.jump_registry
    # nothing at or before p moves: interpolation never crosses the jump
    before = np.concatenate((mesh.grid[mesh.grid <= p],
                             mesh.t0 + (p - mesh.t0) * np.linspace(0.0, 1.0, 41)))
    for got, want in zip(y.value_and_deriv(before), x.value_and_deriv(before)):
        assert np.array_equal(got, want)


@PROPERTY
@given(st.data())
def test_fn_lincomb_is_linear(data):
    mesh = data.draw(meshes())
    x, y = data.draw(functions(mesh)), data.draw(functions(mesh))
    a, b = data.draw(REAL), data.draw(REAL)
    z = fn_lincomb(a, x, b, y)
    assert np.array_equal(z.values, a * x.values + b * y.values)
    assert np.array_equal(z.derivs, a * x.derivs + b * y.derivs)
    assert z.tail_slope == a * x.tail_slope + b * y.tail_slope
    w = fn_lincomb(b, y, a, x)
    assert np.array_equal(w.values, z.values) and np.array_equal(w.derivs, z.derivs)

    # evaluation is linear up to rounding: the derivative divides slot
    # differences by the interval length, so the scale carries 1/h
    t = mesh.t0 + (mesh.horizon - mesh.t0) * np.linspace(0.0, 1.2, 97)
    scale = (abs(a) + abs(b)) * 1e3 * (1.0 + 1.0 / np.diff(mesh.grid).min())
    for got, xs, ys in zip(z.value_and_deriv(t), x.value_and_deriv(t),
                           y.value_and_deriv(t)):
        assert np.max(np.abs(got - (a * xs + b * ys)), initial=0.0) <= 1e-12 * scale


# multiples of 2**-6 in [-1, 1]: small enough that the operator's prefix sums
# and impulse_sums' direct sums agree far below the tolerance used below
COEF = st.integers(-64, 64).map(lambda k: k / 64.0)


@st.composite
def problems(draw, zero_rhs=False):
    """(problem, config, iterate): explicit schedules in (0, H) on multiples
    of 1/64 (u has at least one point; v sometimes shares u's), `linear`
    impulse maps and, unless ``zero_rhs``, `linear_state_decay` right-hand
    sides, all with dyadic coefficients; the iterate has dyadic slot data."""
    horizon = float(draw(st.integers(2, 10)))
    ticks = st.integers(1, 64 * int(horizon) - 1)

    def points(min_size):
        ks = draw(st.lists(ticks, min_size=min_size, max_size=6, unique=True))
        return sorted(k / 64.0 for k in ks)

    def linear():
        return {"name": "linear", "params": {c: draw(COEF) for c in ("c0", "ca", "cb")}}

    def rhs():
        if zero_rhs:
            return {"name": "zero"}
        params = {c: draw(COEF) for c in ("c0", "cx", "cy", "cz", "cw")}
        return {"name": "linear_state_decay", "params": {**params, "rate": 1.0}}

    u_pts = points(1)
    v_pts = u_pts if draw(st.booleans()) else points(0)
    p = load_problem({
        "boundary": {k: draw(COEF) for k in ("A1", "A2", "B1", "B2")},
        "rhs": {"f": rhs(), "h": rhs()},
        "impulses": {"u": {"schedule": {"points": u_pts}, "I0": linear(), "I1": linear()},
                     "v": {"schedule": {"points": v_pts}, "J0": linear(), "J1": linear()}},
    })
    q = QuadratureConfig(horizon=horizon,
                         mesh_spacing=draw(st.sampled_from((0.125, 0.25, 0.5))))
    data = st.integers(-128, 128).map(lambda k: k / 64.0)
    mu, mv = problem_meshes(p, q)
    s = SolutionPair(u=draw(functions(mu, data)), v=draw(functions(mv, data)))
    return p, q, s


def _components(p, s, image):
    """(iterate component, image component, value map, derivative map, A, B)."""
    b = p.boundary
    return ((s.u, image.u, p.I0, p.I1, b.A1, b.B1),
            (s.v, image.v, p.J0, p.J1, b.A2, b.B2))


@PROPERTY
@given(problems())
def test_operator_jump_is_the_map_at_the_left_limits(case):
    p, q, s = case
    image, _ = apply_T(p, s, q)
    for x, y, m0, m1, _, _ in _components(p, s, image):
        mesh = x.mesh
        d = mesh.doubled_nodes()
        lo, hi = mesh.left_slot[d], mesh.right_slot[d]
        a, b = x.left_limits_at(mesh.impulse_times)
        assert np.array_equal(y.values[hi], y.values[lo] + m0(mesh.impulse_times, a, b))
        assert np.array_equal(y.derivs[hi], y.derivs[lo] + m1(mesh.impulse_times, a, b))


@PROPERTY
@given(problems(zero_rhs=True))
def test_zero_rhs_operator_is_the_affine_part_plus_impulse_sums(case):
    # with f = h = 0, T1 = A1 + B1 t + sum_{t_k < t}[I0k + I1k (t - t_k)] - t sum_k I1k
    p, q, s = case
    image, _ = apply_T(p, s, q)
    for x, y, m0, m1, A, B in _components(p, s, image):
        sched = p.u_schedule if x is s.u else p.v_schedule
        grid = x.mesh.grid
        for t, got in zip(grid, y(grid)):
            partial, full = impulse_sums(sched, m0, m1, x, t, q.horizon)
            want = A + B * t + partial - t * full
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


@PROPERTY
@given(problems())
def test_operator_is_bitwise_repeatable_with_and_without_a_plan(case):
    p, q, s = case
    plan = OperatorPlan.build(p, q)
    first, r1 = apply_T(p, s, q, plan)
    again, r2 = apply_T(p, s, q, plan)
    planless, r3 = apply_T(p, s, q)
    assert r1 == r2 == r3
    for other in (again, planless):
        for a, b in ((first.u, other.u), (first.v, other.v)):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.derivs, b.derivs)
            assert a.tail_slope == b.tail_slope


@st.composite
def plans(draw):
    """Operator plans of problems whose u and v impulse times lie anywhere
    in (0, H), so that the two schedules cut the time axis at unrelated
    points; a mesh spacing up to 2 leaves many pieces below the panel floor."""
    horizon = draw(st.floats(0.5, 10.0))

    def points():
        pts = np.unique(horizon * np.array(draw(st.lists(FRACTION, max_size=6))))
        return pts[pts > 0].tolist()

    p = load_problem({"boundary": {k: 0.0 for k in ("A1", "A2", "B1", "B2")},
                      "impulses": {"u": {"schedule": {"points": points()}},
                                   "v": {"schedule": {"points": points()}}}})
    q = QuadratureConfig(horizon=horizon, mesh_spacing=draw(st.floats(0.05, 2.0)))
    return OperatorPlan.build(p, q)


@PROPERTY_WIDE
@given(plans())
def test_no_plan_panel_is_a_rounding_wide(plan):
    # except between two impulse times (or one and a domain end) one
    # rounding apart, kept on purpose
    kept = np.concatenate((plan.u.mesh.impulse_times, plan.v.mesh.impulse_times,
                           plan.boundaries[[0, -1]]))
    for ends in _narrow_panels(plan.boundaries):
        assert np.isin(ends, kept).all()
