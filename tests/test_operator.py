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


def test_semiinfinite_integral_splits_panels_at_the_kernel_kink():
    # g = 1: the integrand -min(t, s) is piecewise linear, exact on panels
    # split at s = t, also when t is not a grid node
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=1.0)
    for t in (0.0, 2.013, 7.77, 10.0):
        exact = -(0.5 * t * t + t * (10.0 - t))
        got = semiinfinite_integral(lambda s: np.ones_like(s), t, qc)
        assert got == pytest.approx(exact, abs=1e-12)


def test_semiinfinite_integral_reports_nonfinite_location():
    qc = QuadratureConfig(horizon=5.0, mesh_spacing=0.1)
    with pytest.raises(EvaluationError):
        semiinfinite_integral(lambda s: np.where(s > 2.0, np.nan, 1.0), 1.0, qc)


@pytest.mark.parametrize("t0", [5.0, 7.5])
def test_semiinfinite_integral_needs_t0_below_the_horizon(t0):
    qc = QuadratureConfig(horizon=5.0, mesh_spacing=0.1)
    with pytest.raises(ValueError, match="^t0 must be finite with 0 <= t0 < horizon, "
                                         f"got t0 = {t0!r}, horizon = 5.0$"):
        semiinfinite_integral(lambda s: np.ones_like(s), 1.0, qc, t0=t0)


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
    # 8-point Gauss on the crude mesh's own 8 panels (the PANELS_PER_PIECE
    # floor does not fire) still integrates exp(-t) to about 2e-11
    p = make_problem(f=rhs(lambda t, x, y, z, w: np.exp(-t), "exp_decay"))
    qc = QuadratureConfig(horizon=40.0, mesh_spacing=5.0)
    s = initial_pair(p, qc, "zero")
    out = apply_T(p, s, qc)[0].u
    t = out.mesh.nodes
    assert np.max(np.abs(out.values - (-1.0 + np.exp(-t)))) < 1e-6


def test_integral_tail_bound_fn_is_used_verbatim():
    from impulsebvp.audit import CaratheodoryBounds
    # the problem's closed-form f tail at bound_rho is reported as is; h = 0
    # with a zero tail, so the merged report is f's
    bounds = dataclasses.replace(CaratheodoryBounds.zero(),
                                 tail_integral_f=lambda rho, t: float(np.exp(-t)))
    p = make_problem(f=rhs(lambda t, x, y, z, w: np.exp(-t), "exp_decay"))
    p = dataclasses.replace(p, bounds=bounds)
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.1, bound_rho=1.0)
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


@pytest.mark.parametrize("field", ["horizon", "mesh_spacing", "abs_tol", "bound_rho"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_quadrature_config_needs_finite_positive_values(field, value):
    from impulsebvp.fnspace import build_mesh
    with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
        QuadratureConfig(**{field: value})
    with pytest.raises(ValueError, match="^spacing must be finite and positive"):
        build_mesh(0.0, 10.0, spacing=value)


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


def _k2000_problem():
    """The K2000 point of the benchmark's sweep: both components jump every
    0.02 on H = 40."""
    from impulsebvp.problemfile import load_problem
    lin = {"name": "linear", "params": {"c0": 1e-3, "ca": 1e-5, "cb": 1e-4}}
    k2000 = {"t0": 0.0, "boundary": {"A1": 1.0, "A2": 0.5, "B1": 0.5, "B2": 0.25},
             "rhs": {"f": {"name": "zero"}, "h": {"name": "zero"}},
             "impulses": {side: {"schedule": {"rule": "integers", "step": 0.02},
                                 m0: lin, m1: lin}
                          for side, m0, m1 in (("u", "I0", "I1"), ("v", "J0", "J1"))}}
    return load_problem(k2000)


def test_refined_boundaries_match_the_per_piece_loop():
    from impulsebvp.operator import PANELS_PER_PIECE, _refined_boundaries
    cases = (
        (make_problem(u_points=(1.0, 2.5, 4.0)),
         QuadratureConfig(horizon=40.0, mesh_spacing=0.02)),
        (_dense_impulse_problem(1), QuadratureConfig(horizon=40.0, mesh_spacing=0.01)),
        (_k2000_problem(), QuadratureConfig(horizon=40.0, mesh_spacing=0.01)),
    )
    for p, qc in cases:
        mu, mv = problem_meshes(p, qc)
        grid = np.union1d(mu.grid, mv.grid)
        hard = np.union1d(mu.impulse_times, mv.impulse_times)
        want = _refined_boundaries_loop(grid, hard, PANELS_PER_PIECE)
        got = _refined_boundaries(grid, hard)
        assert np.array_equal(got, want)


def _criterion04_problem():
    """The problem of acceptance criterion 04 (run there at spacing 0.02)."""
    return make_problem(
        f=rhs(lambda t, x, y, z, w: np.exp(-t) * (1 + 0.2 * np.cos(x))),
        boundary=(1.25, 0.0, -0.75, 0.0), u_points=(1.0, 2.5, 4.0),
        I0=ImpulseMap(lambda pp, a, b: 0.1 * a, "lin"),
        I1=ImpulseMap(lambda pp, a, b: 0.05 * b, "lin"))


def test_plan_interpolation_is_bitwise_the_function_evaluation():
    from impulsebvp.audit import sample_ball_pair
    from impulsebvp.operator import OperatorPlan
    from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
    crit04 = _criterion04_problem()
    pend = build_pendulum_problem(PendulumParams())
    dense = _dense_impulse_problem(1)
    shared = []
    for p, spacing, radius in ((crit04, 0.02, 1.5), (pend, 0.01, 0.5), (dense, 0.01, 0.5)):
        qc = QuadratureConfig(horizon=40.0, mesh_spacing=spacing)
        s = sample_ball_pair(p, qc, radius, np.random.default_rng(7))
        plan = OperatorPlan.build(p, qc)
        flat = plan.spts.ravel()
        for mp, x in ((plan.u, s.u), (plan.v, s.v)):
            val, der = mp.interpolate(x)
            assert np.array_equal(val, x(flat))
            assert np.array_equal(der, x.deriv(flat))
            # the per-panel gathers read the grid interval of every Gauss
            # point: j_p = searchsorted(grid, flat) - 1 (left_slot and
            # right_slot are injective, so equal slots mean equal intervals)
            grid = x.mesh.grid
            j = np.searchsorted(grid, flat) - 1
            per_point = np.broadcast_to(mp.s_lo, plan.spts.shape).ravel()
            assert np.array_equal(per_point, x.mesh.right_slot[j])
            per_point = np.broadcast_to(mp.s_hi, plan.spts.shape).ravel()
            assert np.array_equal(per_point, x.mesh.left_slot[j + 1])
            shared.append(int(np.sum(mp.s_lo[1:] == mp.s_lo[:-1])))
        with_plan, _ = apply_T(p, s, qc, plan)
        without, _ = apply_T(p, s, qc)
        for a, b in ((with_plan.u, without.u), (with_plan.v, without.v)):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.derivs, b.derivs)
    # the dense-impulse panels are refined: several per grid interval
    assert shared[4] > 0 and shared[5] > 0


def _registry_schedule_problems():
    """Problems whose u and v schedules are each pair of schedule registry
    entries, u first."""
    import itertools
    from impulsebvp.problemfile import SCHEDULE_REGISTRY, load_problem
    params = {"integers": {}, "arithmetic": {"start": 0.35, "step": 1.3}}
    assert sorted(params) == sorted(SCHEDULE_REGISTRY)
    for u_rule, v_rule in itertools.product(sorted(params), repeat=2):
        yield load_problem({
            "boundary": {"A1": 1.0, "A2": 0.5, "B1": 0.5, "B2": 0.25},
            "impulses": {x: {"schedule": {"rule": rule, **params[rule]}}
                         for x, rule in (("u", u_rule), ("v", v_rule))}})


def test_problem_meshes_share_one_grid():
    # one grid, split at both schedules; each mesh doubled at its own times
    from pathlib import Path
    from impulsebvp.fnspace import _union_grid
    from impulsebvp.problemfile import load_problem_file
    demos = sorted((Path(__file__).resolve().parents[1] / "demos" / "problems").glob("*.json"))
    problems = [load_problem_file(path) for path in demos]
    problems += [_dense_impulse_problem(1), *_registry_schedule_problems()]
    assert len(problems) == 8
    qc = QuadratureConfig(horizon=40.0, mesh_spacing=0.01)
    for p in problems:
        mu, mv = problem_meshes(p, qc)
        assert np.array_equal(mu.grid, mv.grid)
        for mesh, schedule in ((mu, p.u_schedule), (mv, p.v_schedule)):
            want = schedule.points_between(p.t0, qc.horizon)
            assert np.array_equal(mesh.impulse_times, want)
            assert np.array_equal(mesh.grid[mesh.doubled_nodes()], want)
        # the union of the two meshes is their grid, unchanged
        grid, doubled = _union_grid(mu, mv)
        assert np.array_equal(grid, mu.grid)
        assert np.array_equal(grid[doubled], np.union1d(mu.impulse_times, mv.impulse_times))


def test_dense_impulse_plan_has_one_grid_of_panels():
    # 400 u-only and 160 v-only impulse times: one grid, not two offset ones
    from impulsebvp.operator import OperatorPlan
    plan = OperatorPlan.build(_dense_impulse_problem(1),
                              QuadratureConfig(horizon=40.0, mesh_spacing=0.01))
    assert plan.boundaries.size - 1 <= 4500


def test_u_deriv_at_v_impulse_times_matches_a_refined_solve():
    # v's impulse times are nodes of u's mesh, so u' there is not read off a
    # Hermite interpolant spanning the kink of u'' that v's jump makes
    from impulsebvp.solver import SolverConfig, solve
    p = _dense_impulse_problem(1)
    derivs = []
    for spacing in (0.01, 0.005):
        pair, diag = solve(p, SolverConfig(tol=1e-12),
                           QuadratureConfig(horizon=40.0, mesh_spacing=spacing))
        assert diag.converged
        v_times = pair.v.mesh.impulse_times
        assert np.setdiff1d(v_times, pair.u.mesh.impulse_times).size == 160
        derivs.append(pair.u.deriv(v_times))
    assert np.max(np.abs(derivs[0] - derivs[1])) <= 1e-10


def test_no_gauss_point_lies_on_a_grid_node():
    # the panels refine the one grid of both meshes, and none is a rounding
    # wide, so every Gauss point lies off both meshes' grids
    from impulsebvp.manufactured import manufactured_problem
    from impulsebvp.operator import OperatorPlan
    from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
    cases = ((_criterion04_problem(), 0.02, 2000),
             (build_pendulum_problem(PendulumParams()), 0.01, None),
             (_dense_impulse_problem(1), 0.01, None),
             (_k2000_problem(), 0.01, None),
             (manufactured_problem(), 0.01, 4000))
    for p, spacing, npanels in cases:
        plan = OperatorPlan.build(p, QuadratureConfig(horizon=40.0, mesh_spacing=spacing))
        flat = plan.spts.ravel()
        for mp in (plan.u, plan.v):
            assert not np.isin(flat, mp.mesh.grid).any()
        if npanels is not None:
            assert plan.boundaries.size - 1 == npanels


def test_foreign_meshes_rejected_with_and_without_plan():
    from impulsebvp.operator import OperatorPlan
    p = make_problem(u_points=(1.0,),
                     I0=ImpulseMap(lambda pp, a, b: np.ones_like(pp), "one"))
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.1)
    foreign = initial_pair(dataclasses.replace(p, u_schedule=ImpulseSchedule.empty()),
                           qc, "zero")
    with pytest.raises(ValueError, match=r"rebuild the iterate with problem_meshes\(\)"):
        apply_T(p, foreign, qc)
    plan = OperatorPlan.build(p, qc)
    with pytest.raises(ValueError, match=r"rebuild the iterate with problem_meshes\(\)"):
        apply_T(p, foreign, qc, plan)
    # without a plan, apply_T works on problem_meshes(p, q) only
    coarse = initial_pair(p, QuadratureConfig(horizon=10.0, mesh_spacing=0.2), "zero")
    with pytest.raises(ValueError, match=r"rebuild the iterate with problem_meshes\(\)"):
        apply_T(p, coarse, qc)


def test_schedules_are_enumerated_once_per_solve_and_per_ball_audit(monkeypatch):
    from impulsebvp.audit import check_ball_invariance
    from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
    from impulsebvp.solver import SolverConfig, solve
    calls = []
    real = ImpulseSchedule.points_below

    def counting(self, horizon):
        calls.append(self)
        return real(self, horizon)

    monkeypatch.setattr(ImpulseSchedule, "points_below", counting)
    p = dataclasses.replace(build_pendulum_problem(PendulumParams()),
                            v_schedule=ImpulseSchedule(rule=lambda k: 1.5 * k))
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.05)
    solve(p, SolverConfig(max_iter=4), qc)
    assert calls == [p.u_schedule, p.v_schedule]
    calls.clear()
    tested, _ = check_ball_invariance(p, p.bounds, 1.0, qc, samples=4, seed=0,
                                      sample_radius=0.5)
    assert tested == 4
    assert calls == [p.u_schedule, p.v_schedule]


def test_meshes_are_built_once_per_solve_and_per_ball_audit(monkeypatch):
    # problem_meshes builds the one grid of both meshes with one build_mesh
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
    assert len(calls) == 1
    calls.clear()
    tested, _ = check_ball_invariance(p, p.bounds, 1.0, qc, samples=4, seed=0,
                                      sample_radius=0.5)
    assert tested == 4
    assert len(calls) == 1


def test_operator_matches_the_pointwise_representation():
    # T1(u,v)(t) = A1 + B1 t + sum_{t_k < t} [I0k + I1k (t - t_k)]
    #              - t sum_k I1k + int_{t0}^{H} G(t, s) f(s, u, v, u', v') ds
    from impulsebvp.audit import sample_ball_pair
    for p, spacing in ((_criterion04_problem(), 0.02), (_dense_impulse_problem(1), 0.01)):
        qc = QuadratureConfig(horizon=40.0, mesh_spacing=spacing)
        s = sample_ball_pair(p, qc, 0.5, np.random.default_rng(11))
        out = apply_T(p, s, qc)[0].u
        breaks = np.union1d(s.u.mesh.impulse_times, s.v.mesh.impulse_times)
        f_of_s = lambda ss: p.f(ss, s.u(ss), s.v(ss), s.u.deriv(ss), s.v.deriv(ss))
        grid = out.mesh.grid
        for t in grid[np.linspace(0, grid.size - 1, 7).astype(int)]:
            partial, full = impulse_sums(p.u_schedule, p.I0, p.I1, s.u, t, qc.horizon)
            want = (p.boundary.A1 + p.boundary.B1 * t + partial - t * full
                    + semiinfinite_integral(f_of_s, t, qc, t0=p.t0, breakpoints=breaks))
            assert abs(out(t) - want) <= 1e-11


def test_plan_shares_the_panel_intervals_between_components():
    from impulsebvp.audit import sample_ball_pair
    from impulsebvp.operator import OperatorPlan, _Intervals, _MeshPlan
    from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
    pend = build_pendulum_problem(PendulumParams())
    for p in (pend, _criterion04_problem()):
        qc = QuadratureConfig(horizon=20.0, mesh_spacing=0.02)
        s = sample_ball_pair(p, qc, 0.5, np.random.default_rng(5),
                             u_floor=p.bounds.u_floor if p.bounds else None)
        plan = OperatorPlan.build(p, qc)
        assert plan.v.intervals is plan.u.intervals
        image, _ = apply_T(p, s, qc, plan)
        # outputs live on the iterate's own meshes
        assert image.u.mesh is s.u.mesh and image.v.mesh is s.v.mesh
        separate = dataclasses.replace(plan, v=_MeshPlan.build(
            s.v.mesh, _Intervals.build(s.v.mesh.grid, plan.boundaries, plan.spts)))
        again, _ = apply_T(p, s, qc, separate)
        for a, b in ((image.u, again.u), (image.v, again.v)):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.derivs, b.derivs)


def test_plan_arrays_have_one_row_per_gauss_node():
    from numpy.polynomial.legendre import leggauss
    from impulsebvp.operator import GAUSS_ORDER, OperatorPlan
    p = _criterion04_problem()
    qc = QuadratureConfig(horizon=40.0, mesh_spacing=0.02)
    plan = OperatorPlan.build(p, qc)
    npanels = plan.boundaries.size - 1
    # the panel-major arrays, built here: the plan's .T must equal them
    xg, wg = leggauss(GAUSS_ORDER)
    mid = 0.5 * (plan.boundaries[1:] + plan.boundaries[:-1])
    half = 0.5 * np.diff(plan.boundaries)
    spts, wts = mid[:, None] + half[:, None] * xg[None, :], half[:, None] * wg[None, :]
    assert np.array_equal(plan.spts, spts.T) and np.array_equal(plan.wts, wts.T)
    for mp in (plan.u, plan.v):
        for a in (plan.spts, plan.wts, *mp.intervals.weights):
            assert a.shape == (GAUSS_ORDER, npanels) and a.flags.c_contiguous
        for a in (mp.s_lo, mp.s_hi, mp.intervals.h):
            assert a.shape == (npanels,)


def test_panel_sums_are_numpy_row_sums():
    # _moments adds the Gauss-major rows pairwise, block by block as
    # apply_T calls it; numpy's sum over a contiguous panel-major row of 8
    # must give the same bits
    from impulsebvp.audit import sample_ball_pair
    from impulsebvp.operator import (GAUSS_ORDER, OperatorPlan, _blocks, _moments,
                                     _panel_sums, _prefix_sums)
    from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
    rng = np.random.default_rng(17)
    a = (rng.standard_normal((GAUSS_ORDER, 20_000))
         * np.exp(rng.uniform(-30.0, 30.0, (GAUSS_ORDER, 20_000))))
    want = np.ascontiguousarray(a.T).sum(axis=1)
    assert np.array_equal(_panel_sums(a.copy()), want)
    sequential = a[0] + a[1] + a[2] + a[3] + a[4] + a[5] + a[6] + a[7]
    assert not np.array_equal(sequential, want)  # the data tells the orders apart

    panel_major = np.ascontiguousarray
    pend = build_pendulum_problem(PendulumParams())
    for p, spacing in ((_criterion04_problem(), 0.02), (pend, 0.01),
                       (_dense_impulse_problem(1), 0.01)):
        qc = QuadratureConfig(horizon=40.0, mesh_spacing=spacing)
        s = sample_ball_pair(p, qc, 0.5, np.random.default_rng(7),
                             u_floor=p.bounds.u_floor if p.bounds else None)
        plan = OperatorPlan.build(p, qc)
        U, dU = plan.u.interpolate(s.u)
        V, dV = plan.v.interpolate(s.v)
        flat = plan.spts.ravel()
        for r in (p.f(flat, U, V, dU, dV), p.h(flat, U, V, dU, dV),
                  rng.standard_normal(flat.size)):
            r = r.reshape(plan.spts.shape)
            m0, m1 = np.empty((2, plan.spts.shape[1]))
            for a, b in _blocks(m0.size):
                m0[a:b], m1[a:b] = _moments(plan.spts[:, a:b], plan.wts[:, a:b],
                                            r[:, a:b])
            C0, C1 = _prefix_sums(m0), _prefix_sums(m1)
            want0 = (panel_major(plan.wts.T) * panel_major(r.T)).sum(axis=1)
            want1 = (panel_major(plan.wts.T) * panel_major(plan.spts.T)
                     * panel_major(r.T)).sum(axis=1)
            assert np.array_equal(m0, want0)
            assert np.array_equal(C0, np.concatenate(([0.0], np.cumsum(want0))))
            assert np.array_equal(C1, np.concatenate(([0.0], np.cumsum(want1))))


def test_apply_T_is_bitwise_independent_of_the_block_size(monkeypatch):
    # small blocks split both plans at every possible panel offset; the plan
    # fixes its blocks, so each size gets its own plan
    import impulsebvp.operator as operator_module
    from impulsebvp.audit import sample_ball_pair
    from impulsebvp.operator import BLOCK_PANELS, OperatorPlan, _blocks
    for p, spacing in ((_criterion04_problem(), 0.02), (_dense_impulse_problem(1), 0.01)):
        qc = QuadratureConfig(horizon=40.0, mesh_spacing=spacing)
        s = sample_ball_pair(p, qc, 0.5, np.random.default_rng(13))
        results = []
        for size in (BLOCK_PANELS, 1, 3, 7):
            monkeypatch.setattr(operator_module, "BLOCK_PANELS", size)
            plan = OperatorPlan.build(p, qc)
            assert [blk[:2] for blk in plan.blocks] == list(_blocks(plan.boundaries.size - 1))
            results.append(apply_T(p, s, qc, plan))
        (ref, ref_report), *others = results
        for out, report in others:
            for a, b in ((ref.u, out.u), (ref.v, out.v)):
                assert np.array_equal(a.values, b.values)
                assert np.array_equal(a.derivs, b.derivs)
            assert report == ref_report
    # blocks of 2 048 panels split the dense-impulse plan into three
    npanels = plan.boundaries.size - 1
    monkeypatch.setattr(operator_module, "BLOCK_PANELS", 2048)
    sizes = [b - a for a, b in _blocks(npanels)]
    assert len(sizes) == 3 and sum(sizes) == npanels
    assert max(sizes) - min(sizes) <= 1


def test_staged_rhs_is_staged_once_per_block_per_plan(monkeypatch):
    # a staged rhs computes its time-only part once per block when the
    # plan is built, not once per application
    import impulsebvp.operator as operator_module
    from impulsebvp.audit import check_ball_invariance
    from impulsebvp.model import staged
    from impulsebvp.operator import OperatorPlan
    from impulsebvp.solver import SolverConfig, solve
    monkeypatch.setattr(operator_module, "BLOCK_PANELS", 40)
    sizes = []

    def at(t):
        sizes.append(t.size)
        e = np.exp(-t)
        return lambda x, y, z, w: 0.1 * e * x

    counted = rhs(staged(at), "counted")
    p = make_problem(f=counted, h=counted, boundary=(1.0, 0.5, 0.5, 0.25),
                     u_points=(1.0, 2.5), v_points=(1.5,))
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.1)
    plan = OperatorPlan.build(p, qc)
    assert len(plan.blocks) > 2
    assert len(sizes) == 2 * len(plan.blocks) and sum(sizes) == 2 * plan.spts.size
    sizes.clear()
    _, diag = solve(p, SolverConfig(tol=1e-14), qc)
    assert diag.iterations > 3 and len(sizes) == 2 * len(plan.blocks)
    sizes.clear()
    check_ball_invariance(p, None, 10.0, qc, samples=4, seed=0)
    assert len(sizes) == 2 * len(plan.blocks)


def test_plan_shares_one_mesh_plan_when_both_schedules_agree():
    from impulsebvp.operator import OperatorPlan
    from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
    qc = QuadratureConfig(horizon=20.0, mesh_spacing=0.02)
    pend = build_pendulum_problem(PendulumParams())
    mu, mv = problem_meshes(pend, qc)
    assert mv is mu
    plan = OperatorPlan.build(pend, qc)
    assert plan.v is plan.u
    # points at or below t0 and past the horizon do not count
    same = make_problem(u_points=(0.5, 1.0, 2.0, 30.0), v_points=(1.0, 2.0), t0=0.5)
    mu, mv = problem_meshes(same, qc)
    assert mv is mu
    plan = OperatorPlan.build(same, qc)
    assert plan.v is plan.u
    for p in (_criterion04_problem(), make_problem(u_points=(1.0, 2.0), v_points=(1.0,))):
        mu, mv = problem_meshes(p, qc)
        assert mv is not mu and np.array_equal(mu.grid, mv.grid)
        plan = OperatorPlan.build(p, qc)
        assert plan.v is not plan.u and plan.v.intervals is plan.u.intervals


def _nan_past(start, name):
    return rhs(lambda t, x, y, z, w: np.where(t > start, np.nan, 0.1 * np.exp(-t) * x),
               name)


def _first_bad_time(plan, start):
    """The first Gauss point past ``start`` in time order."""
    from impulsebvp.operator import _gauss_panels
    flat = _gauss_panels(plan.boundaries)[0].T.ravel()  # panel-major: time order
    return flat[np.flatnonzero(flat > start)[0]]


def test_rhs_errors_keep_their_precedence_across_blocks(monkeypatch):
    import impulsebvp.operator as operator_module
    from impulsebvp.operator import OperatorPlan, _blocks
    monkeypatch.setattr(operator_module, "BLOCK_PANELS", 40)
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.1)
    # f fails only in a late block, h already in the first one
    p = make_problem(f=_nan_past(9.0, "f"), h=_nan_past(1.05, "h"),
                     boundary=(1.0, 0.0, 0.5, 0.0), u_points=(1.0, 2.5, 4.0))
    plan = OperatorPlan.build(p, qc)
    blocks = list(_blocks(plan.boundaries.size - 1))
    assert len(blocks) > 2
    assert plan.boundaries[blocks[0][1]] > 1.05 and plan.boundaries[blocks[-1][0]] < 9.0
    s = initial_pair(p, qc)
    with pytest.raises(EvaluationError) as exc:
        apply_T(p, s, qc, plan)
    assert exc.value.location["rhs"] == "f"
    assert exc.value.location["s"] == _first_bad_time(plan, 9.0)
    # h alone fails at its first bad point in time order
    p = dataclasses.replace(p, f=_nan_past(np.inf, "f"))
    plan = OperatorPlan.build(p, qc)
    with pytest.raises(EvaluationError) as exc:
        apply_T(p, s, qc, plan)
    assert exc.value.location["rhs"] == "h"
    assert exc.value.location["s"] == _first_bad_time(plan, 1.05)


def _scale_t(t, x, y, z, w):
    t *= 1.001  # writes into its argument
    return np.exp(-t) + 0.1 * x


def _shift_p(p, a, b):
    p += 1e-3  # writes into its argument
    return 0.1 + 0.0 * a


def test_rhs_writing_into_t_leaves_the_plan_unchanged():
    from impulsebvp.operator import BLOCK_PANELS, OperatorPlan
    qc = QuadratureConfig(horizon=5.0, mesh_spacing=0.1)
    p = make_problem(f=rhs(_scale_t), boundary=(1.0, 0.0, 0.5, 0.0), u_points=(1.0, 2.0))
    plan = OperatorPlan.build(p, qc)
    assert plan.boundaries.size - 1 <= BLOCK_PANELS  # one block: t is a view of spts
    spts = plan.spts.copy()
    s = initial_pair(p, qc)
    first, _ = apply_T(p, s, qc, plan)
    second, _ = apply_T(p, s, qc, plan)
    assert np.array_equal(plan.spts, spts)
    assert np.array_equal(first.u.values, second.u.values)
    assert np.array_equal(first.u.derivs, second.u.derivs)


def test_impulse_map_writing_into_p_leaves_the_impulse_times_unchanged():
    from impulsebvp.solver import verify_residuals
    qc = QuadratureConfig(horizon=5.0, mesh_spacing=0.1)
    p = make_problem(boundary=(1.0, 0.0, 0.5, 0.0), u_points=(1.0, 2.0),
                     I0=ImpulseMap(_shift_p), I1=ImpulseMap(_shift_p))
    s = initial_pair(p, qc)
    out, _ = apply_T(p, s, qc)
    assert s.u.mesh.impulse_times.tolist() == [1.0, 2.0]
    assert out.u.mesh.impulse_times.tolist() == [1.0, 2.0]
    assert np.allclose(out.u.values[out.u.mesh.right_slot[out.u.mesh.doubled_nodes()]]
                       - out.u.values[out.u.mesh.left_slot[out.u.mesh.doubled_nodes()]], 0.1)
    verify_residuals(p, out)
    assert out.u.mesh.impulse_times.tolist() == [1.0, 2.0]


def test_operator_passes_read_only_arguments():
    from impulsebvp.solver import verify_residuals
    seen = []

    def probe(*args):
        seen.append(all(not a.flags.writeable for a in args))
        return np.zeros_like(args[0])

    qc = QuadratureConfig(horizon=5.0, mesh_spacing=0.1)
    p = make_problem(f=rhs(probe), h=rhs(probe), u_points=(1.0,), v_points=(2.0,),
                     I0=ImpulseMap(probe), I1=ImpulseMap(probe),
                     J0=ImpulseMap(probe), J1=ImpulseMap(probe))
    s, _ = apply_T(p, initial_pair(p, qc), qc)
    verify_residuals(p, s)
    assert len(seen) >= 12 and all(seen)


def test_nonfinite_impulse_map_value_names_the_map_and_its_time():
    from impulsebvp.solver import SolverConfig, solve
    qc = QuadratureConfig(horizon=5.0, mesh_spacing=0.1)
    p = make_problem(boundary=(1.0, 0.0, 0.5, 0.0), v_points=(1.0, 2.0, 3.0),
                     J1=ImpulseMap(lambda pp, a, b: np.where(pp == 2.0, np.nan, 0.0)))
    with pytest.raises(EvaluationError, match=r"^impulse map returned a non-finite "
                                              r"value at s=2 ") as exc:
        apply_T(p, initial_pair(p, qc), qc)
    assert exc.value.location["rhs"] == "impulse map"
    assert exc.value.location["s"] == 2.0
    with pytest.raises(EvaluationError, match=r"at s=2 .* in iteration 1$"):
        solve(p, SolverConfig(), qc)


def test_semiinfinite_integral_rejects_a_nan_time():
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.1)
    with pytest.raises(ValueError):
        semiinfinite_integral(lambda s: np.exp(-s), np.nan, qc)


@pytest.mark.parametrize("bad,named", [(("I0",), "I0"), (("I1",), "I1"), (("J0",), "J0"),
                                       (("J1",), "J1"), (("J0", "J1"), "J0")],
                         ids=["I0", "I1", "J0", "J1", "J0-and-J1"])
def test_nonfinite_impulse_map_error_names_the_map(bad, named):
    nan_at_2 = ImpulseMap(lambda pp, a, b: np.where(pp == 2.0, np.nan, 0.0))
    qc = QuadratureConfig(horizon=5.0, mesh_spacing=0.1)
    p = make_problem(boundary=(1.0, 0.0, 0.5, 0.0), u_points=(1.0, 2.0, 3.0),
                     v_points=(1.0, 2.0, 3.0), **{m: nan_at_2 for m in bad})
    x = "u" if named.startswith("I") else "v"
    maps = "I0,I1" if x == "u" else "J0,J1"
    with pytest.raises(EvaluationError, match=rf"^impulse map returned a non-finite value at "
                                              rf"s=2 from {named} with \({x}\(s-\),"
                                              rf"{x}'\(s-\),{maps}\)=") as exc:
        apply_T(p, initial_pair(p, qc), qc)
    assert exc.value.location["map"] == named
