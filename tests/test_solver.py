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
    spts, wts = (a.T for a in _gauss_panels(bnd))
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


def _mixing_reference(p, sc, qc):
    """solve's damped Anderson loop, written out plainly in its update
    order: histories trimmed with pop(0), F from differences of residuals,
    flat vectors cut with slices.  Returns (best pair, residual history)."""
    from impulsebvp.operator import OperatorPlan

    def flat(s):
        return np.concatenate([s.u.values, s.u.derivs, [s.u.tail_slope],
                               s.v.values, s.v.derivs, [s.v.tail_slope]])

    def unflat(z, s):
        nu, nv = s.u.values.size, s.v.values.size
        off = 2 * nu + 1
        return dataclasses.replace(
            s, u=dataclasses.replace(s.u, values=z[:nu].copy(), derivs=z[nu:2 * nu].copy(),
                                     tail_slope=float(z[2 * nu])),
            v=dataclasses.replace(s.v, values=z[off:off + nv].copy(),
                                  derivs=z[off + nv:off + 2 * nv].copy(),
                                  tail_slope=float(z[off + 2 * nv])))

    plan = OperatorPlan.build(p, qc)
    s = initial_pair(p, qc)
    history, zs, gs = [], [], []
    best, best_res = None, math.inf
    lam = sc.damping
    for _ in range(sc.max_iter):
        Ts, _ = apply_T(p, s, qc, plan)
        res = norm_X(pair_lincomb(1.0, Ts, -1.0, s))
        history.append(res)
        if res < best_res:
            best, best_res = s, res
        if res <= sc.tol:
            break
        m = 0
        if sc.anderson_depth > 0:
            zs.append(flat(s))
            gs.append(flat(Ts))
            if len(zs) > sc.anderson_depth + 1:
                zs.pop(0)
                gs.pop(0)
            m = len(zs) - 1
        if m == 0:
            s = Ts if lam == 1.0 else pair_lincomb(1.0 - lam, s, lam, Ts)
            continue
        r = [g - z for z, g in zip(zs, gs)]
        F = np.stack([r[-i] - r[-i - 1] for i in range(1, m + 1)], axis=1)
        dZ = np.stack([zs[-i] - zs[-i - 1] for i in range(1, m + 1)], axis=1)
        dG = np.stack([gs[-i] - gs[-i - 1] for i in range(1, m + 1)], axis=1)
        gamma, *_ = np.linalg.lstsq(F, r[-1], rcond=None)
        z_next = (1.0 - lam) * (zs[-1] - dZ @ gamma) + lam * (gs[-1] - dG @ gamma)
        s = unflat(z_next, s)
    return best, history


@pytest.mark.parametrize("damping", [0.5, 1.0])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_mixing_steps_match_a_plain_reference_bitwise(depth, damping):
    f = RhsFunction(RHS_REGISTRY["bump_weighted_state"](mass=1.2, center=3.0,
                                                        width=0.05),
                    name="bump_weighted_state")
    h = RHS_REGISTRY["linear_state_decay"](c0=0.2, cx=0.1, cz=-0.3)
    p = simple_problem(f=f, h=h, boundary=(1.0, 0.5, 0.0, 0.25),
                       v_schedule=ImpulseSchedule(points=(1.5, 4.0)),
                       J1=ImpulseMap(lambda t, a, b: 0.05 * b, name="j1"))
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.05)
    # a run that stops on tol and one that runs out of iterations
    for tol, max_iter in ((1e-10, 30), (1e-30, 8)):
        sc = SolverConfig(max_iter=max_iter, tol=tol, damping=damping,
                          anderson_depth=depth)
        pair, diag = solve(p, sc, qc)
        want, history = _mixing_reference(p, sc, qc)
        assert diag.residual_history == history
        assert diag.iterations == len(history)
        assert diag.converged == (min(history) <= tol)
        for a, b in ((pair.u, want.u), (pair.v, want.v)):
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.derivs, b.derivs)
            assert a.tail_slope == b.tail_slope


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


def test_verifier_integrates_the_rhs_only_when_t0_is_positive(monkeypatch):
    # the integrals enter the left anchors as t0 * (...), so at t0 = 0 the
    # verifier skips them
    import impulsebvp.solver as solver_module
    calls = []
    real = solver_module._plain_rhs_integrals

    def counting(p, s):
        calls.append(p)
        return real(p, s)

    monkeypatch.setattr(solver_module, "_plain_rhs_integrals", counting)
    f = RhsFunction(RHS_REGISTRY["decaying_sin_state"](), name="decaying_sin_state")
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.05)
    for t0, n in ((0.0, 0), (0.5, 1)):
        p = simple_problem(f=f, boundary=(1.0, 0.0, 0.5, 0.0), t0=t0)
        pair, diag = solve(p, SolverConfig(), qc)
        assert diag.converged
        calls.clear()
        rr = verify_residuals(p, pair)
        assert len(calls) == n
        assert rr.boundary_residuals[0] < 1e-8
    # a rhs that is non-finite off the mesh nodes, so only at the
    # integrals' Gauss points, leaves the t0 = 0 anchors finite
    p = simple_problem(boundary=(1.0, 0.0, 0.5, 0.0))
    pair, _ = solve(p, SolverConfig(), qc)
    nodes = pair.u.mesh.nodes
    off_nodes = RhsFunction(lambda t, x, y, z, w: np.where(np.isin(t, nodes), 0.0, np.nan))
    rr = verify_residuals(dataclasses.replace(p, f=off_nodes), pair)
    assert rr.boundary_residuals == (0.0, 0.0, 0.0, 0.0)
    assert rr.ode_residual_sup == (0.0, 0.0)


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
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^tol must be finite and positive"):
            SolverConfig(tol=tol)
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
    slots skipped, and so is every node whose stencil holds an impulse
    time of the other component."""
    other = (s.v if x is s.u else s.u).mesh.impulse_times
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
        k = np.array([k for k in range(1, t.size - 1)
                      if not any(t[k - 1] < pp < t[k + 1] for pp in other)], dtype=int)
        if k.size == 0:
            continue
        second = (d[k + 1] - d[k - 1]) / (t[k + 1] - t[k - 1])
        ti = t[k]
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
    # u jumps, so the solved v'' jumps at u's impulse times, which v's stencils skip
    jumps = dataclasses.replace(p, I0=ImpulseMap(lambda pp, a, b: 0.1 + 0.0 * a),
                                I1=ImpulseMap(lambda pp, a, b: -0.2 + 0.0 * a))
    pairs.append(solve(jumps, SolverConfig(), qc)[0])
    for prob, s in ((p, pairs[0]), (p, pairs[1]), (m, pairs[2]), (jumps, pairs[3])):
        for fn, x in ((prob.f, s.u), (prob.h, s.v)):
            assert _ode_residual(fn, x, s) == _ode_residual_loop(fn, x, s)


def test_ode_residual_is_second_order_with_two_impulse_schedules():
    # x'' jumps at the other component's impulse times; with those stencils
    # skipped the central-difference estimate halves twice per halved h
    from test_operator import _dense_impulse_problem
    p = _dense_impulse_problem(1)
    sups = []
    for h in (0.02, 0.01, 0.005):
        s, diag = solve(p, SolverConfig(tol=1e-12), QuadratureConfig(horizon=40.0,
                                                                      mesh_spacing=h))
        assert diag.converged
        sups.append(verify_residuals(p, s).ode_residual_sup)
    for coarse, fine in zip(sups, sups[1:]):
        for a, b in zip(coarse, fine):
            assert 1.9 < math.log2(a / b) < 2.1


def _plain_rhs_integral_two_pass(rhs, s):
    """Reference: one integral per right-hand side, each with its own
    panels and its own evaluation of u, v, u', v'."""
    from impulsebvp.operator import _gauss_panels
    boundaries = s.u.mesh.grid
    spts, wts = _gauss_panels(boundaries)
    flat = spts.T.ravel()
    vals = rhs(flat, s.u(flat), s.v(flat), s.u.deriv(flat), s.v.deriv(flat))
    return float((wts.T.ravel() * vals).sum())


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


@pytest.mark.parametrize("horizon", [10.0, 40.0, 160.0])
def test_truncated_solution_matches_its_closed_form(horizon):
    # x'' = 2/(1+t)^3, x(0) = A, x'(H) = B: x = A + (B + (1+H)^-2) t + 1/(1+t) - 1
    g = RhsFunction(lambda t, x, y, z, w: 2.0 / (1.0 + t) ** 3, name="cubic-decay")
    p = simple_problem(f=g, h=g, boundary=(1.0, 0.0, 0.5, 1.0))
    pair, diag = solve(p, SolverConfig(tol=1e-13), QuadratureConfig(horizon=horizon))
    assert diag.converged
    t = np.array([0.5, 3.0, 9.5])
    for x, A, B in ((pair.u, 1.0, 0.5), (pair.v, 0.0, 1.0)):
        slope = B + (1.0 + horizon) ** -2
        assert np.max(np.abs(x(t) - (A + slope * t + 1.0 / (1.0 + t) - 1.0))) <= 1e-12
        assert np.max(np.abs(x.deriv(t) - (slope - (1.0 + t) ** -2))) <= 1e-12


@pytest.mark.parametrize("mesh_spacing", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("horizon", [10.0, 40.0])
def test_truncated_impulsive_solution_matches_its_closed_form(horizon, mesh_spacing):
    # the same rhs with v' += k^-3 at every integer k < H: one union-grid
    # panel per piece at h >= 1, so the panel floor keeps the quadrature at
    # round-off; x(0) = A, x'(H) = B, both components checked at every slot
    g = RhsFunction(lambda t, x, y, z, w: 2.0 / (1.0 + t) ** 3, name="cubic-decay")
    p = simple_problem(f=g, h=g, boundary=(1.0, 0.0, 0.5, 1.0),
                       v_schedule=ImpulseSchedule(rule=lambda k: float(k)),
                       J1=ImpulseMap(lambda pp, a, b: pp ** -3.0, name="cube"))
    pair, diag = solve(p, SolverConfig(tol=1e-13),
                       QuadratureConfig(horizon=horizon, mesh_spacing=mesh_spacing))
    assert diag.converged
    k = np.arange(1.0, horizon)
    for x, A, B, jumps in ((pair.u, 1.0, 0.5, np.zeros_like(k)),
                           (pair.v, 0.0, 1.0, k ** -3.0)):
        slope = B + (1.0 + horizon) ** -2 - jumps.sum()
        t = x.mesh.grid
        col = t[:, None]
        for slot, past in ((x.mesh.left_slot, k < col), (x.mesh.right_slot, k <= col)):
            value = (A + slope * t + 1.0 / (1.0 + t) - 1.0
                     + (past * jumps * (col - k)).sum(axis=1))
            deriv = slope - (1.0 + t) ** -2 + (past * jumps).sum(axis=1)
            assert np.max(np.abs(x.values[slot] - value)) <= 1e-12
            assert np.max(np.abs(x.derivs[slot] - deriv)) <= 1e-12


def _one_rounding_problem():
    """(problem, config, later): u jumps at 1, v one rounding later."""
    later = np.nextafter(1.0, 2.0)
    p = simple_problem(f=RHS_REGISTRY["decaying_sin_state"](),
                       h=RHS_REGISTRY["linear_state_decay"](c0=0.2, cx=0.1, cz=-0.3),
                       boundary=(1.0, 0.0, 0.5, 0.25),
                       u_schedule=ImpulseSchedule(points=(1.0,)),
                       v_schedule=ImpulseSchedule(points=(later,)),
                       I0=ImpulseMap(lambda pp, a, b: 0.1 + 0.0 * a, name="tenth"),
                       J1=ImpulseMap(lambda pp, a, b: 0.05 + 0.0 * b, name="twentieth"))
    return p, QuadratureConfig(horizon=10.0, mesh_spacing=0.1), later


def test_impulse_times_one_rounding_apart_both_stay():
    # u jumps at 1, v one rounding later: the one grid keeps both impulse
    # times as nodes
    from impulsebvp.operator import problem_meshes
    p, qc, later = _one_rounding_problem()
    mu, mv = problem_meshes(p, qc)
    grid = mu.grid
    doubled = np.isin(grid, np.union1d(mu.impulse_times, mv.impulse_times))
    assert grid[doubled].tolist() == [1.0, later]
    pair, diag = solve(p, SolverConfig(), qc)
    assert diag.converged
    assert max(verify_residuals(p, pair).jump_residual_sup) <= 1e-15


def test_impulse_times_one_rounding_apart_are_the_only_close_nodes():
    # on one grid the two impulse times are the only nodes closer than
    # 1e-12, in the meshes, the times the writer prints and the plan's panels
    from impulsebvp.cli import _side_rows
    from impulsebvp.fnspace import SolutionPair, constant_fn
    from impulsebvp.operator import OperatorPlan, problem_meshes
    p, qc, later = _one_rounding_problem()
    mu, mv = problem_meshes(p, qc)
    printed = np.unique(_side_rows(SolutionPair(constant_fn(mu), constant_fn(mv)))[0])
    for grid in (mu.grid, mv.grid, printed,
                 OperatorPlan.build(p, qc).boundaries):
        gap = np.flatnonzero(np.diff(grid) < 1e-12)
        assert grid[gap].tolist() == [1.0] and grid[gap + 1].tolist() == [later]
