import dataclasses

import numpy as np
import pytest

from impulsebvp.fnspace import constant_fn, norm_X
from impulsebvp.model import (BoundaryData, ImpulseMap, ImpulseSchedule,
                              ImpulsiveCoupledBVP, RhsFunction)
from impulsebvp.operator import (EvaluationError, QuadratureConfig, apply_T,
                                 impulse_sums, problem_meshes,
                                 semiinfinite_integral)
from impulsebvp.solver import initial_pair


def rhs(fn, name="custom"):
    return RhsFunction(fn, name=name)


ZERO = rhs(lambda t, x, y, z, w: np.zeros_like(t), "zero")


def make_problem(f=ZERO, h=ZERO, boundary=(0, 0, 0, 0), u_points=(),
                 v_points=(), I0=None, I1=None, J0=None, J1=None, t0=0.0):
    return ImpulsiveCoupledBVP(
        f=f, h=h, boundary=BoundaryData(*boundary),
        u_schedule=ImpulseSchedule(points=tuple(u_points)),
        v_schedule=ImpulseSchedule(points=tuple(v_points)),
        I0=I0 or ImpulseMap.zero(), I1=I1 or ImpulseMap.zero(),
        J0=J0 or ImpulseMap.zero(), J1=J1 or ImpulseMap.zero(), t0=t0)


QC = QuadratureConfig(horizon=40.0, mesh_spacing=0.01)


def test_affine_case_no_rhs_no_impulses():
    p = make_problem(boundary=(1.0, 0.0, 2.0, 0.0))
    s = initial_pair(p, QC, "zero")
    image, rep = apply_T(p, s, QC)
    out = image.u
    t = out.mesh.nodes
    assert np.allclose(out.values, 1.0 + 2.0 * t, atol=1e-14)
    assert np.allclose(out.derivs, 2.0, atol=1e-14)
    assert out.tail_slope == 2.0


def test_exponential_rhs_matches_analytic_integration():
    # f(s,.) = e^{-s}: T1(t) = -1 + e^{-t}, (T1)'(t) = -e^{-t} (up to e^{-H})
    p = make_problem(f=rhs(lambda t, x, y, z, w: np.exp(-t), "exp_decay"))
    s = initial_pair(p, QC, "zero")
    image, rep = apply_T(p, s, QC)
    out = image.u
    t = out.mesh.nodes
    assert np.max(np.abs(out.values - (-1.0 + np.exp(-t)))) < 10 * QC.abs_tol
    assert np.max(np.abs(out.derivs + (np.exp(-t) - np.exp(-40.0)))) < 10 * QC.abs_tol


def test_single_value_impulse_step_function():
    p = make_problem(u_points=(1.0,),
                     I0=ImpulseMap(lambda pp, a, b: np.ones_like(pp), "one"))
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.05)
    s = initial_pair(p, qc, "zero")
    out = apply_T(p, s, qc)[0].u
    assert out(0.5) == 0.0 and out(1.0) == 0.0
    assert out(1.5) == 1.0 and out(10.0) == 1.0
    assert out.jump_registry == ((1.0, 1.0, 0.0),)


def test_single_derivative_impulse_two_sums():
    d = 0.7
    p = make_problem(u_points=(1.0,),
                     I1=ImpulseMap(lambda pp, a, b: np.full_like(pp, d), "const"))
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.05)
    s = initial_pair(p, qc, "zero")
    out = apply_T(p, s, qc)[0].u
    assert out(0.5) == pytest.approx(-0.5 * d, abs=1e-14)
    assert out(3.0) == pytest.approx(-d, abs=1e-14)
    assert out.deriv(0.5) == pytest.approx(-d, abs=1e-14)
    assert out.deriv(3.0) == pytest.approx(0.0, abs=1e-14)
    lo, hi = out.mesh.impulse_slots(1.0)
    assert out.derivs[hi] - out.derivs[lo] == d


def test_boundary_identities_exact():
    p = make_problem(f=rhs(lambda t, x, y, z, w: np.exp(-t) * np.cos(x)),
                     boundary=(1.5, 0.0, -0.5, 0.0),
                     u_points=(1.0, 3.0),
                     I0=ImpulseMap(lambda pp, a, b: 0.1 * a, "lin"),
                     I1=ImpulseMap(lambda pp, a, b: 0.05 * b, "lin"))
    qc = QuadratureConfig(horizon=20.0, mesh_spacing=0.02)
    s = initial_pair(p, qc, "affine_boundary")
    image, rep = apply_T(p, s, qc)
    out = image.u
    assert out.values[0] == 1.5                       # T1(0) = A1 exactly
    # derivative at the horizon returns to B1 within the reported tails
    assert abs(out.derivs[-1] - (-0.5)) <= (rep.integral_tail_estimate
                                            + rep.impulse_tail_estimate + 1e-15)


def test_jump_reproduction_machine_precision():
    rng = np.random.default_rng(12)
    pts = np.sort(rng.uniform(0.5, 18.0, size=7))
    p = make_problem(
        f=rhs(lambda t, x, y, z, w: np.exp(-0.5 * t) * np.sin(x + y)),
        boundary=(0.3, -0.2, 0.1, 0.4),
        u_points=pts,
        I0=ImpulseMap(lambda pp, a, b: 0.2 * a + 0.1 * b, "lin"),
        I1=ImpulseMap(lambda pp, a, b: -0.1 * a + 0.3 * b, "lin"))
    qc = QuadratureConfig(horizon=20.0, mesh_spacing=0.02)
    s = initial_pair(p, qc, "affine_boundary")
    out = apply_T(p, s, qc)[0].u
    a, b = s.u.left_limits_at(pts)
    want0 = 0.2 * a + 0.1 * b
    want1 = -0.1 * a + 0.3 * b
    got = out.jump_registry
    assert np.max(np.abs([g[1] for g in got] - want0)) < 1e-12
    assert np.max(np.abs([g[2] for g in got] - want1)) < 1e-12


def test_apply_T_zero_problem_and_decoupled_structure():
    p = make_problem(boundary=(0.0, 0.0, 0.0, 0.0))
    s = initial_pair(p, QC, "zero")
    out, _ = apply_T(p, s, QC)
    assert norm_X(out) == 0.0

    # decoupled: f reads only (t, x, z), h only (t, y, w); components equal
    # two independent single-equation evaluations
    fu = rhs(lambda t, x, y, z, w: np.exp(-t) * (x + z), "fu")
    hv = rhs(lambda t, x, y, z, w: np.exp(-2 * t) * (y - w), "hv")
    p2 = make_problem(f=fu, h=hv, boundary=(1.0, -1.0, 0.5, 0.25))
    s2 = initial_pair(p2, QC, "affine_boundary")
    both, _ = apply_T(p2, s2, QC)
    first = apply_T(dataclasses.replace(p2, h=ZERO), s2, QC)[0].u
    assert np.array_equal(both.u.values, first.values)
    assert np.array_equal(both.u.derivs, first.derivs)
    # swap the components into a mirrored problem to evaluate T2 alone
    p2m = make_problem(f=rhs(lambda t, x, y, z, w: np.exp(-2 * t) * (x - z)),
                       h=ZERO, boundary=(-1.0, 1.0, 0.25, 0.5))
    s2m = initial_pair(p2m, QC, "affine_boundary")
    second = apply_T(p2m, s2m, QC)[0].u
    assert np.allclose(both.v.values, second.values, atol=1e-12)


def test_apply_T_pendulum_iterate_populates_integer_jumps():
    from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
    p = build_pendulum_problem(PendulumParams())
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.05)
    s = initial_pair(p, qc, "affine_boundary")
    out, rep = apply_T(p, s, qc)
    assert np.all(np.isfinite(out.u.values)) and np.all(np.isfinite(out.v.values))
    # impulse times at or below t0 = 1 are excluded; the rest are integers
    assert list(out.u.mesh.impulse_times) == [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    assert all(j[0] == float(int(j[0])) for j in out.u.jump_registry)
    assert rep.K_used == 8


def test_semiinfinite_integral_oracles():
    qc = QuadratureConfig(horizon=40.0, mesh_spacing=0.02)
    assert semiinfinite_integral(lambda s: np.zeros_like(s), 3.0, qc) == 0.0
    val = semiinfinite_integral(lambda s: np.exp(-s), 2.0, qc)
    assert val == pytest.approx(-(1.0 - np.exp(-2.0)), abs=1e-8)


def test_semiinfinite_integral_with_interior_jump():
    # integrand with a jump at s = 1: panel boundary forced there makes the
    # composite rule equal the sum of the two smooth-piece integrals
    qc = QuadratureConfig(horizon=5.0, mesh_spacing=0.05)
    g = lambda s: np.where(s < 1.0, 1.0, 2.0)
    t = 3.0
    got = semiinfinite_integral(g, t, qc, breakpoints=(1.0,))
    # exact: int_0^1 -min(3,s) ds + int_1^5 -min(3,s)*2 ds
    exact = -0.5 + 2.0 * (-(0.5 * 3 ** 2 - 0.5) - 3.0 * 2.0)
    assert got == pytest.approx(exact, abs=1e-10)


def test_semiinfinite_integral_reports_nonfinite_location():
    qc = QuadratureConfig(horizon=5.0, mesh_spacing=0.1)
    with pytest.raises(EvaluationError):
        semiinfinite_integral(lambda s: np.where(s > 2.0, np.nan, 1.0), 1.0, qc)


def test_impulse_sums_examples():
    from impulsebvp.fnspace import build_mesh
    mesh = build_mesh(0.0, 10.0, [1.0], spacing=0.1)
    x = constant_fn(mesh, 0.0, 0.0)
    empty = ImpulseSchedule.empty()
    assert impulse_sums(empty, ImpulseMap.zero(), ImpulseMap.zero(), x, 3.0, 10.0) == (0.0, 0.0)

    c, d = 0.4, -0.3
    sched = ImpulseSchedule(points=(1.0,))
    m0 = ImpulseMap(lambda pp, a, b: np.full_like(pp, c), "const")
    m1 = ImpulseMap(lambda pp, a, b: np.full_like(pp, d), "const")
    partial, full = impulse_sums(sched, m0, m1, x, 3.0, 10.0)
    assert partial == pytest.approx(c + 2 * d, abs=1e-15)
    assert full == pytest.approx(d, abs=1e-15)


def test_impulse_sums_pendulum_bounded_by_partial_sums_plus_tail():
    # derivative-jump sum of the pendulum family, iterate inside the rho-box:
    # |full_sum_deriv| <= truncated bound-sequence sum + integral-test tail
    from impulsebvp.fnspace import build_mesh
    from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
    pp = PendulumParams(alpha=(0, 0, 3.0, 1.0, 0, 0, 0, 0))
    p = build_pendulum_problem(pp)
    horizon = 50.0
    mesh = build_mesh(pp.t0, horizon,
                      p.u_schedule.points_between(pp.t0, horizon), spacing=0.1)
    rho = 1.0
    x = constant_fn(mesh, 0.5, 0.0)  # |x| < rho (1+t), |x'| < rho
    _, full = impulse_sums(p.u_schedule, p.I0, p.I1, x, 5.0, horizon)
    K = mesh.impulse_times.size
    k = np.arange(1.0, K + 1)
    cap = float(np.sum(p.bounds.psi_seq(rho, k))) + p.bounds.seq_tail_psi(rho, K)
    assert abs(full) <= cap


def test_bound_rho_pulls_tails_from_problem_bounds():
    from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
    p = build_pendulum_problem(PendulumParams())
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.05, bound_rho=1.0)
    s = initial_pair(p, qc, "affine_boundary")
    _, rep = apply_T(p, s, qc)
    assert rep.tails_are_bounds
    b = p.bounds
    K = 8  # integer impulse times in (1, 10)
    want_int = max(b.tail_integral_f(1.0, 10.0), b.tail_integral_h(1.0, 10.0))
    assert rep.integral_tail_estimate == pytest.approx(want_int)
    want_imp = b.seq_tail_phi(1.0, K) + 2.0 * b.seq_tail_psi(1.0, K)
    assert rep.impulse_tail_estimate == pytest.approx(want_imp)


def test_impulses_clustered_below_horizon():
    # tight cluster just under H: each inter-impulse piece still gets its
    # own (tiny) subdivision and jumps stay exact
    pts = (9.80, 9.85, 9.90, 9.95)
    p = make_problem(u_points=pts,
                     I0=ImpulseMap(lambda pp, a, b: 0.1 * np.ones_like(pp), "c"),
                     I1=ImpulseMap(lambda pp, a, b: -0.2 * np.ones_like(pp), "c"))
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.5)
    s = initial_pair(p, qc, "zero")
    image, rep = apply_T(p, s, qc)
    out = image.u
    assert rep.K_used == 4
    for j in out.jump_registry:
        assert j[1] == pytest.approx(0.1, abs=1e-13)
        assert j[2] == pytest.approx(-0.2, abs=1e-13)
    # after the last impulse the derivative has returned to B1 = 0
    assert out.deriv(9.99) == pytest.approx(0.0, abs=1e-13)
    assert np.all(np.isfinite(out.values))


def test_coarse_mesh_still_integrates_accurately():
    # panels_per_piece keeps the quadrature sharp even on a crude mesh
    p = make_problem(f=rhs(lambda t, x, y, z, w: np.exp(-t), "exp_decay"))
    qc = QuadratureConfig(horizon=40.0, mesh_spacing=5.0, panels_per_piece=16)
    s = initial_pair(p, qc, "zero")
    out = apply_T(p, s, qc)[0].u
    t = out.mesh.nodes
    assert np.max(np.abs(out.values - (-1.0 + np.exp(-t)))) < 1e-6


def test_integral_tail_bound_fn_is_used_verbatim():
    p = make_problem(f=rhs(lambda t, x, y, z, w: np.exp(-t), "exp_decay"))
    # h = 0: its tail is exactly zero, so the merged report is f's
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.1,
                          tail_bound_fn=lambda t: float(np.exp(-t)),
                          tail_bound_fn_h=lambda t: 0.0)
    s = initial_pair(p, qc, "zero")
    _, rep = apply_T(p, s, qc)
    assert rep.integral_tail_estimate == pytest.approx(np.exp(-10.0))
    assert rep.tails_are_bounds
    assert not rep.warn_integral_tail


def test_impulse_sums_skips_points_outside_working_domain():
    from impulsebvp.fnspace import build_mesh
    mesh = build_mesh(1.0, 10.0, [2.0], spacing=0.1)
    x = constant_fn(mesh, 1.0, 0.0)
    sched = ImpulseSchedule(points=(0.5, 1.0, 2.0))
    m = ImpulseMap(lambda pp, a, b: np.ones_like(pp), "one")
    partial, full = impulse_sums(sched, m, m, x, 5.0, 10.0)
    assert partial == pytest.approx(1.0 + (5.0 - 2.0), abs=1e-15)  # only p = 2
    assert full == 1.0


def test_evaluation_error_carries_location_and_iteration_context():
    p = make_problem(f=rhs(lambda t, x, y, z, w: np.where(t > 5.0, np.nan, 1.0), "bad"))
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.1)
    s = initial_pair(p, qc, "zero")
    with pytest.raises(EvaluationError) as exc:
        apply_T(p, s, qc)
    assert exc.value.location["s"] > 5.0
    assert exc.value.location["rhs"] == "bad"


def test_mesh_mismatch_rejected():
    p = make_problem(u_points=(1.0,),
                     I0=ImpulseMap(lambda pp, a, b: np.ones_like(pp), "one"))
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.1)
    p_other = dataclasses.replace(p, u_schedule=ImpulseSchedule.empty())
    s = initial_pair(p_other, qc, "zero")  # mesh without the doubled node
    with pytest.raises(ValueError):
        apply_T(p, s, qc)


def test_fundamental_theorem_consistency():
    # on each smooth piece, differencing T1's values matches its derivatives
    p = make_problem(f=rhs(lambda t, x, y, z, w: np.exp(-t) * (1 + 0.5 * np.sin(x))),
                     boundary=(1.0, 0.0, 0.5, 0.0), u_points=(2.0,),
                     I0=ImpulseMap(lambda pp, a, b: 0.3 * np.ones_like(pp), "c"))
    qc = QuadratureConfig(horizon=15.0, mesh_spacing=0.01)
    s = initial_pair(p, qc, "affine_boundary")
    out = apply_T(p, s, qc)[0].u
    t = out.mesh.nodes
    lo, hi = out.mesh.impulse_slots(2.0)
    for a, b in ((0, lo), (hi, out.mesh.n_slots - 1)):
        tt, vv, dd = t[a:b + 1], out.values[a:b + 1], out.derivs[a:b + 1]
        mid_slope = np.diff(vv) / np.diff(tt)
        mid_deriv = 0.5 * (dd[1:] + dd[:-1])
        assert np.max(np.abs(mid_slope - mid_deriv)) < 5e-5


def test_deterministic_for_fixed_config():
    p = make_problem(f=rhs(lambda t, x, y, z, w: np.exp(-t) * np.sin(x)),
                     boundary=(1.0, 0.0, 0.0, 0.0), u_points=(1.5,),
                     I0=ImpulseMap(lambda pp, a, b: 0.1 * a, "lin"))
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.05)
    s = initial_pair(p, qc, "affine_boundary")
    out1 = apply_T(p, s, qc)[0].u
    out2 = apply_T(p, s, qc)[0].u
    assert np.array_equal(out1.values, out2.values)
    assert np.array_equal(out1.derivs, out2.derivs)


def test_bound_rho_tails_are_bounds_only_inside_the_ball():
    # the problem's tails bound the discarded mass on the bound_rho-ball only
    from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
    p = build_pendulum_problem(PendulumParams())
    qc = QuadratureConfig(bound_rho=1.0)
    s = initial_pair(p, qc, "affine_boundary")
    second, rep = apply_T(p, s, qc)
    assert norm_X(s) == pytest.approx(0.5)
    assert rep.tails_are_bounds
    _, rep = apply_T(p, second, qc)
    assert norm_X(second) == pytest.approx(4.894, abs=1e-3)
    assert not rep.tails_are_bounds


def _refined_boundaries_loop(grid, hard, panels_per_piece):
    """Reference: one union per piece short of panels."""
    pieces = np.unique(np.concatenate(([grid[0]], hard, [grid[-1]])))
    out = grid
    for a, b in zip(pieces[:-1], pieces[1:]):
        inside = np.count_nonzero((out > a) & (out < b))
        if inside + 1 < panels_per_piece:
            out = np.union1d(out, np.linspace(a, b, panels_per_piece + 1))
    return out


def _dense_impulse_problem(seed):
    """The problem the benchmark's dense-impulse workload generates."""
    import importlib.util
    from pathlib import Path
    from impulsebvp.problemfile import load_problem
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return load_problem(workloads.dense_impulse_problem(seed))


def test_refined_boundaries_match_the_per_piece_loop():
    from impulsebvp.operator import _refined_boundaries
    from impulsebvp.problemfile import load_problem
    lin = {"name": "linear", "params": {"c0": 1e-3, "ca": 1e-5, "cb": 1e-4}}
    k2000 = {"t0": 0.0, "boundary": {"A1": 1.0, "A2": 0.5, "B1": 0.5, "B2": 0.25},
             "rhs": {"f": {"name": "zero"}, "h": {"name": "zero"}},
             "impulses": {side: {"schedule": {"rule": "integers", "step": 0.02},
                                 m0: lin, m1: lin}
                          for side, m0, m1 in (("u", "I0", "I1"), ("v", "J0", "J1"))}}
    cases = (
        (make_problem(u_points=(1.0, 2.5, 4.0)),
         QuadratureConfig(horizon=40.0, mesh_spacing=0.02)),
        (_dense_impulse_problem(1), QuadratureConfig(horizon=40.0, mesh_spacing=0.01)),
        (load_problem(k2000), QuadratureConfig(horizon=40.0, mesh_spacing=0.01)),
    )
    for p, qc in cases:
        mu, mv = problem_meshes(p, qc)
        grid = np.union1d(mu.grid, mv.grid)
        hard = np.union1d(mu.impulse_times, mv.impulse_times)
        want = _refined_boundaries_loop(grid, hard, qc.panels_per_piece)
        got = _refined_boundaries(grid, hard, qc.panels_per_piece)
        assert np.array_equal(got, want)


def test_plan_interpolation_is_bitwise_the_function_evaluation():
    from impulsebvp.audit import sample_ball_pair
    from impulsebvp.operator import OperatorPlan
    from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
    crit04 = make_problem(
        f=rhs(lambda t, x, y, z, w: np.exp(-t) * (1 + 0.2 * np.cos(x))),
        boundary=(1.25, 0.0, -0.75, 0.0), u_points=(1.0, 2.5, 4.0),
        I0=ImpulseMap(lambda pp, a, b: 0.1 * a, "lin"),
        I1=ImpulseMap(lambda pp, a, b: 0.05 * b, "lin"))
    pend = build_pendulum_problem(PendulumParams())
    dense = _dense_impulse_problem(1)
    on_node = []
    shared = []
    for p, spacing, radius in ((crit04, 0.02, 1.5), (pend, 0.01, 0.5), (dense, 0.01, 0.5)):
        qc = QuadratureConfig(horizon=40.0, mesh_spacing=spacing)
        s = sample_ball_pair(p, qc, radius, np.random.default_rng(7))
        plan = OperatorPlan.build(p, qc, s.u.mesh, s.v.mesh)
        flat = plan.spts.ravel()
        for mp, x in ((plan.u, s.u), (plan.v, s.v)):
            val, der = mp.interpolate(x)
            assert np.array_equal(val, x(flat))
            assert np.array_equal(der, x.deriv(flat))
            on_node.append(mp.on_node.size)
            # the per-panel gathers read the grid interval of every Gauss
            # point off the grid node: j_p = searchsorted(grid, flat) - 1
            # (left_slot and right_slot are injective, so equal slots mean
            # equal intervals)
            grid = x.mesh.grid
            off = np.ones(flat.size, dtype=bool)
            off[mp.on_node] = False
            j = np.searchsorted(grid, flat[off]) - 1
            per_point = np.broadcast_to(mp.s_lo, plan.spts.shape).ravel()[off]
            assert np.array_equal(per_point, x.mesh.right_slot[j])
            per_point = np.broadcast_to(mp.s_hi, plan.spts.shape).ravel()[off]
            assert np.array_equal(per_point, x.mesh.left_slot[j + 1])
            shared.append(int(np.sum(mp.s_lo[1:] == mp.s_lo[:-1])))
        with_plan, _ = apply_T(p, s, qc, plan)
        without, _ = apply_T(p, s, qc)
        for a, b in ((with_plan.u, without.u), (with_plan.v, without.v)):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.derivs, b.derivs)
    # the criterion-04 panels put Gauss points exactly on grid nodes
    assert on_node[0] > 0
    # the dense-impulse panels are refined: several per grid interval
    assert shared[4] > 0 and shared[5] > 0


def test_foreign_meshes_rejected_with_and_without_plan():
    from impulsebvp.operator import OperatorPlan
    p = make_problem(u_points=(1.0,),
                     I0=ImpulseMap(lambda pp, a, b: np.ones_like(pp), "one"))
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.1)
    foreign = initial_pair(dataclasses.replace(p, u_schedule=ImpulseSchedule.empty()),
                           qc, "zero")
    with pytest.raises(ValueError, match=r"rebuild the iterate with problem_meshes\(\)"):
        apply_T(p, foreign, qc)
    plan = OperatorPlan.build(p, qc, *problem_meshes(p, qc))
    with pytest.raises(ValueError, match=r"rebuild the iterate with problem_meshes\(\)"):
        apply_T(p, foreign, qc, plan)


def test_build_mesh_runs_twice_per_solve_and_per_ball_audit(monkeypatch):
    import impulsebvp.operator as operator_module
    from impulsebvp.audit import check_ball_invariance
    from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
    from impulsebvp.solver import SolverConfig, solve
    calls = []
    real = operator_module.build_mesh

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(operator_module, "build_mesh", counting)
    p = build_pendulum_problem(PendulumParams())
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.05)
    solve(p, SolverConfig(max_iter=4), qc)
    assert len(calls) == 2
    calls.clear()
    tested, _ = check_ball_invariance(p, p.bounds, 1.0, qc, samples=4, seed=0,
                                      sample_radius=0.5)
    assert tested == 4
    assert len(calls) == 2
