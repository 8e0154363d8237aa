import math
from dataclasses import replace

import numpy as np
import pytest

from impulsebvp.fnspace import (PiecewiseC1Function, _eval_on_slots, apply_jump,
                                build_mesh, constant_fn, difference_norm, fn_lincomb,
                                norm_X, norm_deriv_sup, norm_weighted_sup, pair_lincomb,
                                SolutionPair)


def from_callable(mesh, fn, dfn, tail=0.0):
    t = mesh.nodes
    return PiecewiseC1Function(mesh=mesh, values=fn(t), derivs=dfn(t),
                               tail_slope=tail)


def test_mesh_doubles_impulse_nodes():
    m = build_mesh(0.0, 10.0, [1.0, 4.5], spacing=0.5)
    assert m.grid[0] == 0.0 and m.grid[-1] == 10.0
    assert np.all(np.diff(m.grid) > 0)
    # doubled nodes: two slots at each impulse time, ordered left then right
    for p in (1.0, 4.5):
        lo, hi = m.impulse_slots(p)
        assert hi == lo + 1
        assert m.nodes[lo] == p == m.nodes[hi]
    assert m.n_slots == m.grid.size + 2


def test_mesh_drops_impulses_outside_open_interval():
    m = build_mesh(1.0, 10.0, [0.5, 1.0, 3.0, 10.0, 12.0], spacing=0.5)
    assert list(m.impulse_times) == [3.0]


def test_mesh_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_mesh(5.0, 5.0, [], spacing=0.1)
    with pytest.raises(ValueError):
        build_mesh(0.0, 1.0, [], spacing=-1.0)


@pytest.mark.parametrize("t0,horizon", [(5.0, 5.0), (6.0, 5.0), (math.nan, 5.0),
                                        (-1.0, 5.0), (0.0, math.inf)])
def test_mesh_needs_a_finite_working_domain(t0, horizon):
    with pytest.raises(ValueError, match=r"^t0 must be finite with 0 <= t0 < horizon, "
                                         rf"got t0 = {t0!r}, horizon = {horizon!r}$"):
        build_mesh(t0, horizon, [], spacing=0.1)


def test_evaluation_left_continuous_at_impulse():
    m = build_mesh(0.0, 5.0, [2.0], spacing=0.25)
    x = constant_fn(m, 0.0, 0.0)
    x = apply_jump(x, 2.0, 1.0, 0.0)
    assert x(2.0) == 0.0           # value AT the impulse is the left limit
    assert x(2.0 + 1e-9) == pytest.approx(1.0, abs=1e-8)
    assert x(5.0) == 1.0
    assert x(1.0) == 0.0


def test_derivative_also_left_continuous_at_impulse():
    m = build_mesh(0.0, 5.0, [2.0], spacing=0.25)
    x = apply_jump(constant_fn(m, 0.0, 1.0), 2.0, 0.0, 0.5)
    assert x.deriv(2.0) == 1.0
    assert x.deriv(2.0 + 1e-9) == pytest.approx(1.5, abs=1e-7)
    # mixed array query: exact node, interior point, tail
    out = x.deriv(np.array([2.0, 2.5, 10.0]))
    assert out[0] == 1.0 and out[1] == pytest.approx(1.5, abs=1e-9)
    assert out[2] == 1.5


def test_evaluation_matches_hermite_data_between_nodes():
    m = build_mesh(0.0, 8.0, [], spacing=0.05)
    x = from_callable(m, np.sin, np.cos)
    t = np.linspace(0.0, 8.0, 1777)
    # cubic Hermite on exact data: O(h^4) interpolation error
    assert np.max(np.abs(x(t) - np.sin(t))) < 1e-6
    assert np.max(np.abs(x.deriv(t) - np.cos(t))) < 1e-4


def test_affine_tail_extension():
    m = build_mesh(0.0, 10.0, [], spacing=0.5)
    x = constant_fn(m, 1.0, 2.0)
    assert x(15.0) == 1.0 + 2.0 * 15.0
    assert x.deriv(200.0) == 2.0
    with pytest.raises(ValueError):
        x(-0.5)


def test_norm_weighted_sup_examples():
    m = build_mesh(0.0, 40.0, [], spacing=0.1)
    # constant c: |c|/(1+t) maximal at t0 = 0
    assert norm_weighted_sup(constant_fn(m, -3.0, 0.0)) == 3.0
    # x(t) = t with tail slope 1: grid sup approaches 1, the limit term is 1
    assert norm_weighted_sup(constant_fn(m, 0.0, 1.0)) == 1.0
    # x(t) = 1 + t: ratio is 1 everywhere
    assert norm_weighted_sup(constant_fn(m, 1.0, 1.0)) == 1.0


def test_norm_deriv_sup_examples():
    m = build_mesh(0.0, 4.0 * np.pi, [], spacing=0.01)
    assert norm_deriv_sup(constant_fn(m, 5.0, 0.0)) == 0.0
    assert norm_deriv_sup(constant_fn(m, 0.0, 1.0)) == 1.0
    x = from_callable(m, lambda t: -np.cos(t), lambda t: np.sin(t))
    # dense-grid maximum of |sin| is 1 within the mesh resolution
    assert norm_deriv_sup(x) == pytest.approx(1.0, abs=1e-4)


def test_norm_X_componentwise_and_symmetry():
    m = build_mesh(0.0, 40.0, [], spacing=0.1)
    u = constant_fn(m, 2.0, 0.0)           # ||u||_0 = 2
    v = constant_fn(m, 0.0, 1.0)           # ||v||_0 -> 1, ||v'||_1 = 1
    s = SolutionPair(u=u, v=v)
    assert norm_X(s) == 2.0
    assert norm_X(SolutionPair(u=v, v=u)) == 2.0
    z = SolutionPair(u=constant_fn(m), v=constant_fn(m))
    assert norm_X(z) == 0.0


def test_norm_scaling_and_triangle_inequality():
    rng = np.random.default_rng(3)
    m = build_mesh(0.0, 10.0, [2.0], spacing=0.2)
    for _ in range(20):
        def rand_fn():
            return PiecewiseC1Function(
                mesh=m, values=rng.normal(size=m.n_slots),
                derivs=rng.normal(size=m.n_slots),
                tail_slope=float(rng.normal()))
        a = SolutionPair(u=rand_fn(), v=rand_fn())
        b = SolutionPair(u=rand_fn(), v=rand_fn())
        lam = float(rng.normal())
        scaled = pair_lincomb(lam, a, 0.0, a)
        assert norm_X(scaled) == pytest.approx(abs(lam) * norm_X(a), rel=1e-12)
        total = pair_lincomb(1.0, a, 1.0, b)
        assert norm_X(total) <= norm_X(a) + norm_X(b) + 1e-12


def test_apply_jump_identity_and_step():
    m = build_mesh(0.0, 5.0, [1.0], spacing=0.25)
    x = constant_fn(m, 0.7, -0.3)
    same = apply_jump(x, 1.0, 0.0, 0.0)
    assert np.array_equal(same.values, x.values)
    assert np.array_equal(same.derivs, x.derivs)

    step = apply_jump(constant_fn(m, 0.0, 0.0), 1.0, 1.0, 0.0)
    assert step(0.5) == 0.0 and step(1.0) == 0.0
    assert step(1.5) == 1.0 and step(5.0) == 1.0
    assert step.jump_registry == ((1.0, 1.0, 0.0),)


def test_apply_jump_sets_exact_jump_and_updates_tail():
    m = build_mesh(0.0, 5.0, [1.0, 3.0], spacing=0.25)
    x = constant_fn(m, 0.0, 1.0)
    x = apply_jump(x, 1.0, 0.5, -0.25)
    x = apply_jump(x, 3.0, 0.0, 0.5)
    reg = dict((p, (dv, dd)) for p, dv, dd in x.jump_registry)
    assert reg[1.0] == (0.5, -0.25)
    assert reg[3.0] == (0.0, 0.5)
    assert x.tail_slope == 1.0 - 0.25 + 0.5
    # re-applying replaces, not accumulates
    x = apply_jump(x, 1.0, 0.1, 0.0)
    dv, dd = dict((p, v) for p, *v in x.jump_registry)[1.0]
    assert dv == pytest.approx(0.1, abs=1e-12) and dd == 0.0


def test_two_jumps_compose_additively_on_far_tail():
    m = build_mesh(0.0, 6.0, [1.0, 2.0], spacing=0.2)
    both = apply_jump(apply_jump(constant_fn(m), 1.0, 0.3, 0.0), 2.0, 0.4, 0.0)
    assert both(5.0) == pytest.approx(0.7, abs=1e-15)


def test_apply_jump_rejects_non_impulse_time():
    m = build_mesh(0.0, 5.0, [1.0], spacing=0.25)
    with pytest.raises(ValueError):
        apply_jump(constant_fn(m), 2.0, 1.0, 0.0)


def test_piece_consistency_trapezoid():
    # within each smooth piece the trapezoid rule on derivs reproduces values
    m = build_mesh(0.0, 6.0, [2.5], spacing=0.01)
    x = from_callable(m, lambda t: t ** 2 * np.exp(-t),
                      lambda t: (2 * t - t ** 2) * np.exp(-t))
    t = m.nodes
    for lo, hi in ((0, m.impulse_slots(2.5)[0]), (m.impulse_slots(2.5)[1], m.n_slots - 1)):
        tt = t[lo:hi + 1]
        dd = x.derivs[lo:hi + 1]
        trap = np.concatenate(([0.0], np.cumsum(0.5 * (dd[1:] + dd[:-1]) * np.diff(tt))))
        # accumulated trapezoid error ~ span * h^2 * max|x'''| / 12
        tol = (tt[-1] - tt[0]) * 0.01 ** 2 * 6.0 / 12.0 + 1e-9
        assert np.max(np.abs((x.values[lo:hi + 1] - x.values[lo]) - trap)) < tol


def test_lincomb_requires_matching_layout():
    m1 = build_mesh(0.0, 5.0, [1.0], spacing=0.25)
    m2 = build_mesh(0.0, 5.0, [2.0], spacing=0.25)
    with pytest.raises(ValueError):
        fn_lincomb(1.0, constant_fn(m1), 1.0, constant_fn(m2))


def test_solution_pair_requires_one_grid():
    # u jumps at 1.3 and v never: two meshes whose grids differ there
    u = constant_fn(build_mesh(0.0, 5.0, [1.3], 0.25))
    v = constant_fn(build_mesh(0.0, 5.0, [], 0.25))
    with pytest.raises(ValueError, match="problem_meshes"):
        SolutionPair(u=u, v=v)


def test_difference_norm_restricts_to_common_domain():
    m_short = build_mesh(0.0, 10.0, [1.0], spacing=0.1)
    m_long = build_mesh(0.0, 20.0, [1.0], spacing=0.1)
    a = SolutionPair(u=constant_fn(m_short, 1.0, 2.0), v=constant_fn(m_short))
    b = SolutionPair(u=constant_fn(m_long, 1.0, 2.0), v=constant_fn(m_long))
    assert difference_norm(a, b) == pytest.approx(0.0, abs=1e-12)
    c = SolutionPair(u=constant_fn(m_long, 1.5, 2.0), v=constant_fn(m_long))
    assert difference_norm(a, c) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("comp", ["u", "v"])
@pytest.mark.parametrize("where", ["values", "derivs", "tail_slope"])
def test_a_nan_anywhere_makes_the_norms_nan(comp, where):
    # the other component is 1 everywhere, so a dropped NaN would read 1.0
    m = build_mesh(0.0, 10.0, [1.0, 4.5], spacing=0.5)
    clean = SolutionPair(u=constant_fn(m, 1.0), v=constant_fn(m, 1.0))
    x = getattr(clean, comp)
    if where == "tail_slope":
        bad = replace(x, tail_slope=math.nan)
    else:
        data = getattr(x, where).copy()
        data[7] = math.nan
        bad = replace(x, **{where: data})
    s = replace(clean, **{comp: bad})
    assert math.isnan(norm_X(s))
    assert math.isnan(difference_norm(s, clean))


def _build_mesh_loop(t0, horizon, impulse_times=(), spacing=0.01):
    """Reference: the node-by-node mesh construction."""
    pts = np.asarray(sorted(p for p in np.atleast_1d(np.asarray(impulse_times, dtype=float))
                            if t0 < p < horizon), dtype=float)
    bounds = np.concatenate(([t0], pts, [horizon]))
    nodes, grid, left_slot, right_slot = [], [], [], []
    slot = 0
    for j in range(bounds.size - 1):
        a, b = bounds[j], bounds[j + 1]
        n = max(1, int(math.ceil((b - a) / spacing - 1e-12)))
        seg = np.linspace(a, b, n + 1)
        seg[0], seg[-1] = a, b
        if j > 0:
            nodes.append(seg[0])
            right_slot[-1] = slot
            slot += 1
            seg = seg[1:]
        for tt in seg:
            nodes.append(tt)
            grid.append(tt)
            left_slot.append(slot)
            right_slot.append(slot)
            slot += 1
    return nodes, grid, left_slot, right_slot, pts


def test_build_mesh_matches_the_node_loop():
    cases = (
        (0.0, 40.0, [1.0, 2.5, 4.0], 0.02),               # criterion 04
        (0.0, 40.0, 0.07 + 0.1 * np.arange(400), 0.01),   # 400-impulse rule
        (0.0, 40.0, 0.02 * np.arange(1, 2000), 0.01),     # K = 1999
        (1.0, 10.0, [0.5, 1.0, 3.0, 3.004, 10.0, 12.0], 0.5),
        (0.0, 5.0, [], 0.3),
        (0.0, 2.0, [1.0, np.nextafter(1.0, 2.0)], 1.0),     # a piece one rounding long
    )
    for t0, horizon, pts, spacing in cases:
        m = build_mesh(t0, horizon, pts, spacing)
        want = _build_mesh_loop(t0, horizon, pts, spacing)
        for got, ref in zip((m.nodes, m.grid, m.left_slot, m.right_slot, m.impulse_times),
                            want):
            assert np.array_equal(got, np.asarray(ref))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_evaluation_rejects_non_finite_times(bad):
    x = constant_fn(build_mesh(0.0, 5.0, [2.0], spacing=0.25), 1.0, 0.5)
    with pytest.raises(ValueError, match="at index 0"):
        x(bad)
    with pytest.raises(ValueError, match="at index 2"):
        x.deriv(np.array([0.5, 1.0, bad, 4.0, bad]))


def _eval_on_slots_loop(fn, mesh):
    """Reference: right slots patched one impulse at a time."""
    vals = np.atleast_1d(fn(mesh.nodes)).copy()
    ders = np.atleast_1d(fn.deriv(mesh.nodes)).copy()
    for p in mesh.impulse_times:
        _, hi = mesh.impulse_slots(p)
        if np.isin(p, fn.mesh.impulse_times):
            _, fhi = fn.mesh.impulse_slots(p)
            vals[hi] = fn.values[fhi]
            ders[hi] = fn.derivs[fhi]
    return vals, ders


def test_eval_on_slots_matches_the_impulse_loop():
    coarse = build_mesh(0.0, 10.0, [1.0, 2.0, 4.5, 7.0], spacing=0.1)
    fine = build_mesh(0.0, 20.0, [1.0, 3.0, 4.5, 8.25], spacing=0.03)
    x = from_callable(fine, lambda t: np.sin(t) + 0.1 * (t > 1.0) - 0.2 * (t > 4.5),
                      lambda t: np.cos(t) + 0.3 * (t > 3.0), tail=0.5)
    x = apply_jump(apply_jump(x, 1.0, 0.1, 0.05), 4.5, -0.2, 0.3)
    got = _eval_on_slots(x, coarse)
    want = _eval_on_slots_loop(x, coarse)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _eval_reference(x, t, derivative):
    """Reference: the two-pass evaluation, value or derivative per call."""
    t_in = np.asarray(t, dtype=float)
    t = np.atleast_1d(t_in)
    mesh = x.mesh
    grid = mesh.grid
    bad = ~np.isfinite(t)
    if np.any(bad):
        first = np.argwhere(bad)[0]
        where = int(first[0]) if first.size == 1 else tuple(first.tolist())
        raise ValueError(f"non-finite query time {t[tuple(first)]} at index {where}")
    if np.any(t < grid[0]):
        raise ValueError(f"evaluation below the working domain start t0={grid[0]}")
    out = np.empty(t.shape, dtype=float)
    beyond = t > grid[-1]
    if np.any(beyond):
        if derivative:
            out[beyond] = x.tail_slope
        else:
            out[beyond] = x.values[-1] + x.tail_slope * (t[beyond] - grid[-1])
    inside = ~beyond
    ti = t[inside]
    pos = np.searchsorted(grid, ti, side="left")
    ok = pos < grid.size
    exact = np.zeros(ti.shape, dtype=bool)
    exact[ok] = grid[np.minimum(pos[ok], grid.size - 1)] == ti[ok]
    res = np.empty(ti.shape, dtype=float)
    if np.any(exact):
        slots = mesh.left_slot[pos[exact]]
        res[exact] = x.derivs[slots] if derivative else x.values[slots]
    strict = ~exact
    if np.any(strict):
        j = pos[strict] - 1
        s_lo, s_hi = mesh.right_slot[j], mesh.left_slot[j + 1]
        x0 = grid[j]
        h = grid[j + 1] - x0
        u = (ti[strict] - x0) / h
        v0, v1 = x.values[s_lo], x.values[s_hi]
        d0, d1 = x.derivs[s_lo], x.derivs[s_hi]
        u2 = u * u
        u3 = u2 * u
        if derivative:
            res[strict] = ((6.0 * u2 - 6.0 * u) * (v0 - v1) / h
                           + (3.0 * u2 - 4.0 * u + 1.0) * d0
                           + (3.0 * u2 - 2.0 * u) * d1)
        else:
            h00 = 2.0 * u3 - 3.0 * u2 + 1.0
            h10 = u3 - 2.0 * u2 + u
            h01 = -2.0 * u3 + 3.0 * u2
            h11 = u3 - u2
            res[strict] = h00 * v0 + h * h10 * d0 + h01 * v1 + h * h11 * d1
    out[inside] = res
    if t_in.ndim == 0:
        return float(out[0])
    return out


def test_value_and_deriv_is_bitwise_the_two_pass_evaluation():
    import warnings
    m = build_mesh(0.5, 12.0, [1.0, 2.5, 2.51, 7.3], spacing=0.07)
    x = from_callable(m, lambda t: np.sin(t) + 0.3 * (t > 2.5),
                      lambda t: np.cos(t) - 0.2 * (t > 7.3), tail=0.75)
    x = apply_jump(apply_jump(x, 1.0, 0.25, -0.5), 2.51, 0.1, 0.0)
    rng = np.random.default_rng(3)
    queries = {
        "grid nodes": m.grid,
        "doubled nodes": m.impulse_times,
        "slots": m.nodes,
        "between nodes": np.sort(rng.uniform(0.5, 12.0, 5000)),
        "past the horizon": np.array([12.0, np.nextafter(12.0, 13.0), 13.5, 1e6, 1e300]),
        "mixed, unsorted": rng.permutation(np.concatenate(
            (m.grid[::3], rng.uniform(0.5, 20.0, 700), [0.5, 12.0, 1e300]))),
        "two-dimensional": rng.uniform(0.5, 14.0, (7, 9)),
        "empty": np.zeros(0),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 1e300 must stay out of the Hermite arithmetic
        for name, t in queries.items():
            val, der = x.value_and_deriv(t)
            want_val, want_der = _eval_reference(x, t, False), _eval_reference(x, t, True)
            for got, want in ((val, want_val), (der, want_der),
                              (x(t), want_val), (x.deriv(t), want_der)):
                assert got.shape == want.shape, name
                assert np.array_equal(got, want), name
        for t in (0.5, 1.0, 2.51, 3.3, 12.0, 40.0, 1e300):
            val, der = x.value_and_deriv(t)
            assert type(val) is float and type(der) is float
            assert val == _eval_reference(x, t, False) == x(t)
            assert der == _eval_reference(x, t, True) == x.deriv(t)
    for bad, message in ((np.array([1.0, 2.0, np.nan]), "at index 2"),
                         (np.array([[1.0, np.inf]]), r"at index \(0, 1\)"),
                         (0.4, "below the working domain start"),
                         (np.array([3.0, 0.2]), "below the working domain start")):
        with pytest.raises(ValueError, match=message) as ref:
            _eval_reference(x, bad, False)
        with pytest.raises(ValueError, match=message) as got:
            x.value_and_deriv(bad)
        assert str(got.value) == str(ref.value)
