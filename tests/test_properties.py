"""Property tests of point evaluation, the operator plan's interpolation,
jumps and linear combinations, on drawn meshes, impulse times and slot data.

They run where hypothesis is installed (the ``test`` extra); the runtime
dependency stays numpy only.  The settings are derandomized and keep no
example database, so every run draws the same examples and writes no files.
"""

import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import configuration, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from impulsebvp.fnspace import (PiecewiseC1Function, apply_jump,  # noqa: E402
                                build_mesh, fn_lincomb)
from impulsebvp.operator import (_gauss_panels, _MeshPlan,  # noqa: E402
                                 _refined_boundaries)
from test_fnspace import _eval_reference  # noqa: E402


# hypothesis caches the constants it reads from local modules in its home
# directory (./.hypothesis) while pytest collects, whatever the database
# setting; a temporary home, removed at exit, keeps the checkout clean
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HOME.name)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

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
    # the plan's panels cut each grid interval at the other mesh's grid and
    # impulse times, as OperatorPlan.build does for the u and v meshes
    mesh = data.draw(meshes())
    other = data.draw(meshes(t0=mesh.t0, length=mesh.horizon - mesh.t0))
    boundaries = _refined_boundaries(np.union1d(mesh.grid, other.grid),
                                     np.union1d(mesh.impulse_times, other.impulse_times))
    spts, _ = _gauss_panels(boundaries, gauss_major=True)
    mp = _MeshPlan.build(mesh, mesh.impulse_times, boundaries, spts)
    x = data.draw(functions(mesh))
    val, der = mp.interpolate(x)
    flat = spts.ravel()
    assert np.array_equal(val, x(flat)) and np.array_equal(der, x.deriv(flat))


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
