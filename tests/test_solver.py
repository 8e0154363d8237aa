import dataclasses
import math

import numpy as np
import pytest

from impulsebvp.fnspace import apply_jump, norm_X, pair_lincomb
from impulsebvp.manufactured import (manufactured_problem, u_exact,
                                     u_exact_deriv, v_exact, v_exact_deriv)
from impulsebvp.model import (BoundaryData, ImpulseMap, ImpulseSchedule,
                              ImpulsiveCoupledBVP, RhsFunction)
from impulsebvp.operator import QuadratureConfig, apply_T
from impulsebvp.problemfile import RHS_REGISTRY
from impulsebvp.solver import (SolverConfig, initial_pair, solve,
                               verify_residuals)

ZERO = RhsFunction(lambda t, x, y, z, w: np.zeros_like(t), name="zero")


def simple_problem(f=ZERO, h=ZERO, boundary=(0, 0, 0, 0), **kw):
    return ImpulsiveCoupledBVP(
        f=f, h=h, boundary=BoundaryData(*boundary),
        u_schedule=kw.pop("u_schedule", ImpulseSchedule.empty()),
        v_schedule=kw.pop("v_schedule", ImpulseSchedule.empty()),
        I0=kw.pop("I0", ImpulseMap.zero()), I1=kw.pop("I1", ImpulseMap.zero()),
        J0=kw.pop("J0", ImpulseMap.zero()), J1=kw.pop("J1", ImpulseMap.zero()),
        **kw)


def test_zero_rhs_converges_in_one_iteration_to_affine_pair():
    p = simple_problem(boundary=(1.0, -2.0, 0.5, 0.25))
    qc = QuadratureConfig(horizon=20.0, mesh_spacing=0.05)
    pair, diag = solve(p, SolverConfig(), qc)
    assert diag.converged and diag.iterations == 1
    t = pair.u.mesh.nodes
    assert np.allclose(pair.u.values, 1.0 + 0.5 * t, atol=1e-14)
    assert np.allclose(pair.v.values, -2.0 + 0.25 * t, atol=1e-14)


def test_small_lipschitz_rhs_contracts_geometrically():
    f = RhsFunction(RHS_REGISTRY["decaying_sin_state"](amplitude=0.25, rate=1.0),
                    name="decaying_sin_state")
    p = simple_problem(f=f, boundary=(1.0, 0.0, 0.0, 0.0))
    qc = QuadratureConfig(horizon=40.0, mesh_spacing=0.01)
    pair, diag = solve(p, SolverConfig(max_iter=60, tol=1e-12), qc)
    assert diag.converged
    h = diag.residual_history
    ratios = [b / a for a, b in zip(h, h[1:])]
    # geometric decay with ratio stabilized below the Lipschitz bound 0.25
    assert all(r < 0.25 for r in ratios[2:])
    assert diag.contraction_estimate < 0.25


def test_fixed_point_property_reevaluates_within_tol():
    p = manufactured_problem()
    qc = QuadratureConfig(horizon=40.0, mesh_spacing=0.01)
    sc = SolverConfig(tol=1e-8)
    pair, diag = solve(p, sc, qc)
    assert diag.converged
    Ts, _ = apply_T(p, pair, qc)
    assert norm_X(pair_lincomb(1.0, Ts, -1.0, pair)) <= sc.tol


def test_pure_picard_reproduces_operator_composition_bitwise():
    f = RhsFunction(RHS_REGISTRY["decaying_sin_state"](amplitude=0.25, rate=1.0),
                    name="decaying_sin_state")
    p = simple_problem(f=f, boundary=(1.0, 0.0, 0.0, 0.0))
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.05)
    pair, diag = solve(p, SolverConfig(max_iter=4, tol=1e-30), qc)
    s = initial_pair(p, qc, "affine_boundary")
    for _ in range(3):  # solve returns the lowest-residual iterate: s_3
        s, _ = apply_T(p, s, qc)
    assert np.array_equal(pair.u.values, s.u.values)
    assert np.array_equal(pair.u.derivs, s.u.derivs)


def test_affine_operator_contraction_matches_analytic_factor():
    # f = c(t) x/(1+t) with c a narrow bump of mass m at s0: the operator is
    # affine and its dominant eigenvalue approaches -m Q(s0), which equals
    # the bound integral Q(s) c(s) ds; observed ratio within 20 percent
    mass, center, width = 0.6, 2.0, 0.05
    f = RhsFunction(RHS_REGISTRY["bump_weighted_state"](mass=mass, center=center,
                                                        width=width),
                    name="bump_weighted_state")
    p = simple_problem(f=f, boundary=(1.0, 0.0, 0.0, 0.0))
    qc = QuadratureConfig(horizon=40.0, mesh_spacing=0.01)
    pair, diag = solve(p, SolverConfig(max_iter=60, tol=1e-13), qc)
    assert diag.converged
    # analytic factor by quadrature oracle
    from impulsebvp.operator import _gauss_panels
    bnd = np.linspace(0.0, 40.0, 4001)
    spts, wts = _gauss_panels(bnd)
    c = (mass / (width * math.sqrt(2 * math.pi))) * np.exp(
        -0.5 * ((spts - center) / width) ** 2)
    analytic = float((wts * (spts / (1 + spts)) * c).sum())
    assert abs(diag.contraction_estimate - analytic) <= 0.2 * analytic


def test_nonconvergence_is_reported_not_raised():
    # strongly expanding affine operator: bump with |eigenvalue| > 1
    f = RhsFunction(RHS_REGISTRY["bump_weighted_state"](mass=3.0, center=2.0,
                                                        width=0.05),
                    name="bump_weighted_state")
    p = simple_problem(f=f, boundary=(1.0, 0.0, 0.0, 0.0))
    qc = QuadratureConfig(horizon=20.0, mesh_spacing=0.02)
    pair, diag = solve(p, SolverConfig(max_iter=15, tol=1e-10), qc)
    assert not diag.converged
    assert len(diag.residual_history) == 15
    # the returned iterate is the lowest-residual one
    Ts, _ = apply_T(p, pair, qc)
    assert norm_X(pair_lincomb(1.0, Ts, -1.0, pair)) == pytest.approx(
        min(diag.residual_history), rel=1e-9)


def test_anderson_accelerates_slow_contraction():
    f = RhsFunction(RHS_REGISTRY["bump_weighted_state"](mass=1.2, center=3.0,
                                                        width=0.05),
                    name="bump_weighted_state")
    # eigenvalue ~ -1.2 * 0.75 = -0.9: slow pure Picard, fast with mixing
    p = simple_problem(f=f, boundary=(1.0, 0.0, 0.0, 0.0))
    qc = QuadratureConfig(horizon=20.0, mesh_spacing=0.02)
    _, plain = solve(p, SolverConfig(max_iter=40, tol=1e-10), qc)
    _, mixed = solve(p, SolverConfig(max_iter=40, tol=1e-10, anderson_depth=4), qc)
    assert mixed.converged
    assert mixed.iterations < plain.iterations or not plain.converged


def test_damping_path_converges():
    f = RhsFunction(RHS_REGISTRY["decaying_sin_state"](amplitude=0.25, rate=1.0),
                    name="decaying_sin_state")
    p = simple_problem(f=f, boundary=(1.0, 0.0, 0.0, 0.0))
    qc = QuadratureConfig(horizon=20.0, mesh_spacing=0.05)
    pair, diag = solve(p, SolverConfig(max_iter=80, tol=1e-10, damping=0.5), qc)
    assert diag.converged


def test_manufactured_solution_recovery():
    p = manufactured_problem()
    # the ODE residual floor is the central-difference error h^2/6 * u'''';
    # spacing 0.002 puts it near 7e-7
    qc = QuadratureConfig(horizon=40.0, mesh_spacing=0.002)
    pair, diag = solve(p, SolverConfig(max_iter=50, tol=1e-8), qc)
    assert diag.converged
    t = pair.u.mesh.nodes
    ue, de = u_exact(t), u_exact_deriv(t)
    for pp in pair.u.mesh.impulse_times:  # right slots carry the right limits
        lo, hi = pair.u.mesh.impulse_slots(pp)
        if pp == 1.0:
            ue[hi] += 0.5
        if pp == 2.0:
            de[hi] += -0.2
    err = max(np.max(np.abs(pair.u.values - ue) / (1 + t)),
              np.max(np.abs(pair.u.derivs - de)),
              np.max(np.abs(pair.v.values - v_exact(pair.v.mesh.nodes))
                     / (1 + pair.v.mesh.nodes)),
              np.max(np.abs(pair.v.derivs - v_exact_deriv(pair.v.mesh.nodes))))
    assert err < 1e-5
    rr = verify_residuals(p, pair)
    assert rr.max_ode_residual < 1e-6
    assert rr.max_jump_residual < 1e-10


def test_verify_residuals_affine_zero_rhs():
    p = simple_problem(boundary=(1.0, 0.0, 0.5, 0.0))
    qc = QuadratureConfig(horizon=20.0, mesh_spacing=0.05)
    pair, _ = solve(p, SolverConfig(), qc)
    rr = verify_residuals(p, pair)
    assert rr.ode_residual_sup == (0.0, 0.0)
    assert rr.boundary_residuals == (0.0, 0.0, 0.0, 0.0)


def test_verify_residuals_left_anchor_uses_the_derivative_jumps():
    # with t0 > 0 the left anchor is A + B t0 - t0 (sum I1 + int f); value
    # and derivative jumps differ, so swapping them would show
    const = lambda c: ImpulseMap(lambda pp, a, b: np.full_like(pp, c), "const")
    p = simple_problem(boundary=(1.0, 0.0, 0.5, 0.0), t0=0.5,
                       u_schedule=ImpulseSchedule(points=(1.0, 2.0)),
                       I0=const(0.3), I1=const(-0.2))
    qc = QuadratureConfig(horizon=20.0, mesh_spacing=0.05)
    pair, diag = solve(p, SolverConfig(), qc)
    assert diag.converged
    rr = verify_residuals(p, pair)
    assert rr.boundary_residuals[0] < 1e-14
    assert pair.u(0.5) == pytest.approx(1.0 + 0.5 * 0.5 - 0.5 * 2 * -0.2, abs=1e-14)


def test_verify_residuals_detects_corrupted_jump():
    p = manufactured_problem()
    qc = QuadratureConfig(horizon=20.0, mesh_spacing=0.01)
    pair, _ = solve(p, SolverConfig(), qc)
    bad_u = apply_jump(pair.u, 1.0, 0.5 + 0.1, 0.0)
    corrupted = dataclasses.replace(pair, u=bad_u)
    rr = verify_residuals(p, corrupted)
    assert rr.jump_residual_sup[0] == pytest.approx(0.1, abs=1e-12)


def test_verify_residuals_exact_injected_solution():
    # inject the exact manufactured solution without running the solver
    from impulsebvp.fnspace import PiecewiseC1Function, SolutionPair
    from impulsebvp.operator import problem_meshes
    p = manufactured_problem()
    qc = QuadratureConfig(horizon=30.0, mesh_spacing=0.005)
    mu, mv = problem_meshes(p, qc)
    uv, ud = u_exact(mu.nodes), u_exact_deriv(mu.nodes)
    for pp, shift_v, shift_d in ((1.0, 0.5, 0.0), (2.0, 0.0, -0.2)):
        lo, hi = mu.impulse_slots(pp)
        uv[hi] += shift_v
        ud[hi] += shift_d
    s = SolutionPair(
        u=PiecewiseC1Function(mesh=mu, values=uv, derivs=ud, tail_slope=0.8),
        v=PiecewiseC1Function(mesh=mv, values=v_exact(mv.nodes),
                              derivs=v_exact_deriv(mv.nodes), tail_slope=1.0))
    rr = verify_residuals(p, s)
    assert rr.max_ode_residual < 5e-6          # mesh-consistency tolerance
    assert rr.max_jump_residual < 1e-15
    assert rr.boundary_residuals[0] < 1e-15
    assert rr.boundary_residuals[2] == pytest.approx(abs(-np.exp(-30.0) - 0.2 + 0.2), abs=1e-12)


def test_user_supplied_initial_guess():
    p = manufactured_problem()
    qc = QuadratureConfig(horizon=20.0, mesh_spacing=0.02)
    start = initial_pair(p, qc, "affine_boundary")
    pair, diag = solve(p, SolverConfig(initial_guess=start), qc)
    assert diag.converged
    # a guess on foreign meshes is rejected
    other = initial_pair(p, QuadratureConfig(horizon=10.0, mesh_spacing=0.02),
                         "zero")
    with pytest.raises(ValueError):
        solve(p, SolverConfig(initial_guess=other), qc)


def test_bounded_rule_fails_solve_fast():
    from test_model import counted_bounded_rule
    sched, calls = counted_bounded_rule()
    p = simple_problem(u_schedule=sched)
    with pytest.raises(ValueError, match=r"rule\(100000\) = 1\.99999"):
        solve(p, SolverConfig(), QuadratureConfig(horizon=40.0, mesh_spacing=0.01))
    assert len(calls) <= 100_000  # one enumeration in solve


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(damping=0.0)
    with pytest.raises(ValueError):
        SolverConfig(damping=1.5)
    with pytest.raises(ValueError):
        SolverConfig(anderson_depth=-1)


def test_evaluation_error_gets_iteration_index():
    from impulsebvp.operator import EvaluationError
    calls = {"n": 0}

    def flaky(t, x, y, z, w):
        calls["n"] += 1
        if calls["n"] > 2:  # fail at the third operator application
            return np.full_like(t, np.nan)
        return 0.1 * x

    p = simple_problem(f=RhsFunction(flaky, name="flaky"),
                       boundary=(1.0, 0.0, 1.0, 0.0))
    qc = QuadratureConfig(horizon=5.0, mesh_spacing=0.1)
    with pytest.raises(EvaluationError) as exc:
        solve(p, SolverConfig(max_iter=10, tol=1e-30), qc)
    assert exc.value.location["iteration"] == 3


def _ode_residual_loop(fn, x, s):
    """Reference: one smooth piece at a time, pieces of fewer than three
    slots skipped."""
    starts, ends = [0], []
    for pp in x.mesh.impulse_times:
        lo, hi = x.mesh.impulse_slots(pp)
        ends.append(lo)
        starts.append(hi)
    ends.append(x.mesh.n_slots - 1)
    worst = 0.0
    for lo, hi in zip(starts, ends):
        if hi - lo < 2:
            continue
        t = x.mesh.nodes[lo:hi + 1]
        d = x.derivs[lo:hi + 1]
        second = (d[2:] - d[:-2]) / (t[2:] - t[:-2])
        ti = t[1:-1]
        rhs = fn(ti, s.u(ti), s.v(ti), s.u.deriv(ti), s.v.deriv(ti))
        worst = max(worst, float(np.max(np.abs(second - rhs))))
    return worst


def test_ode_residual_matches_the_per_piece_loop():
    from impulsebvp.audit import sample_ball_pair
    from impulsebvp.solver import _ode_residual
    # u has a two-slot piece [1.0, 1.004] with no interior node
    p = simple_problem(f=RHS_REGISTRY["decaying_sin_state"](),
                       h=RHS_REGISTRY["linear_state_decay"](c0=0.2, cx=0.1, cz=-0.3),
                       u_schedule=ImpulseSchedule(points=(1.0, 1.004, 2.5, 3.0)),
                       v_schedule=ImpulseSchedule(points=(1.0, 1.7, 4.25)))
    qc = QuadratureConfig(horizon=8.0, mesh_spacing=0.05)
    pairs = [sample_ball_pair(p, qc, 1.0, np.random.default_rng(seed)) for seed in (0, 1)]
    m = manufactured_problem()
    pairs.append(solve(m, SolverConfig(), QuadratureConfig(horizon=20.0, mesh_spacing=0.01))[0])
    for prob, s in ((p, pairs[0]), (p, pairs[1]), (m, pairs[2])):
        for fn, x in ((prob.f, s.u), (prob.h, s.v)):
            assert _ode_residual(fn, x, s) == _ode_residual_loop(fn, x, s)


def _plain_rhs_integral_two_pass(rhs, s):
    """Reference: one integral per right-hand side, each with its own
    panels and its own evaluation of u, v, u', v'."""
    from impulsebvp.operator import _gauss_panels
    boundaries = np.union1d(s.u.mesh.grid, s.v.mesh.grid)
    spts, wts = _gauss_panels(boundaries)
    flat = spts.ravel()
    vals = rhs(flat, s.u(flat), s.v(flat), s.u.deriv(flat), s.v.deriv(flat))
    return float((wts.ravel() * vals).sum())


def test_shared_verifier_pass_matches_the_two_pass_integrals():
    from impulsebvp.audit import sample_ball_pair
    from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
    from impulsebvp.solver import _plain_rhs_integrals
    p = simple_problem(f=RHS_REGISTRY["decaying_sin_state"](),
                       h=RHS_REGISTRY["linear_state_decay"](c0=0.2, cx=0.1, cz=-0.3),
                       u_schedule=ImpulseSchedule(points=(1.0, 1.004, 2.5, 3.0)),
                       v_schedule=ImpulseSchedule(points=(1.0, 1.7, 4.25)))
    qc = QuadratureConfig(horizon=8.0, mesh_spacing=0.05)
    m = manufactured_problem()
    pend = build_pendulum_problem(PendulumParams())
    cases = [(p, sample_ball_pair(p, qc, 1.0, np.random.default_rng(0))),
             (m, solve(m, SolverConfig(), QuadratureConfig(horizon=20.0,
                                                           mesh_spacing=0.01))[0]),
             (pend, sample_ball_pair(pend, QuadratureConfig(horizon=20.0), 0.5,
                                     np.random.default_rng(3), u_floor=1.0))]
    for prob, s in cases:
        int_f, int_h = _plain_rhs_integrals(prob, s)
        assert int_f == _plain_rhs_integral_two_pass(prob.f, s)
        assert int_h == _plain_rhs_integral_two_pass(prob.h, s)
