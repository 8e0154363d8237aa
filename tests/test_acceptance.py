"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints an ``ACCEPTANCE nn <name>: PASS`` line after its
assertions; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import impulsebvp as ib
from impulsebvp.manufactured import (manufactured_problem, u_exact,
                                     u_exact_deriv, v_exact, v_exact_deriv)
from impulsebvp.model import (BoundaryData, ImpulseMap, ImpulseSchedule,
                              ImpulsiveCoupledBVP, RhsFunction)
from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
from impulsebvp.problemfile import RHS_REGISTRY

ZERO = RhsFunction(lambda t, x, y, z, w: np.zeros_like(t), name="zero")

PENDULUM_DOC = {
    "model": "spring-pendulum",
    "params": {"m": 1.0, "k": 1.0, "g": 9.8, "l0": 1.0,
               "alpha": [0.1] * 8, "beta": 3.0, "gamma": 3.0,
               "B1": 0.5, "B2": 0.5, "t0": 1.0},
}


def bare_problem(f=ZERO, h=ZERO, boundary=(0, 0, 0, 0), u_points=(),
                 I0=None, I1=None, t0=0.0):
    return ImpulsiveCoupledBVP(
        f=f, h=h, boundary=BoundaryData(*boundary),
        u_schedule=ImpulseSchedule(points=tuple(u_points)),
        v_schedule=ImpulseSchedule.empty(),
        I0=I0 or ImpulseMap.zero(), I1=I1 or ImpulseMap.zero(),
        J0=ImpulseMap.zero(), J1=ImpulseMap.zero(), t0=t0)


def test_criterion_01_kernel_oracle():
    t = np.linspace(0.0, 40.0, 200)
    s = np.linspace(0.0, 40.0, 200)
    T, S = np.meshgrid(t, s)
    assert np.array_equal(ib.green(T, S), -np.minimum(T, S))

    tgrid = np.linspace(0.0, 80.0, 100001)
    svals = tgrid[1000:51000:1000]  # 50 values, on-grid so the scan is exact
    assert svals.size == 50
    for sv in svals:
        brute = float(np.max(np.minimum(tgrid, sv) / (1.0 + tgrid)))
        assert abs(ib.kernel_weight_sup(sv) - brute) <= 1e-6
    print("\nACCEPTANCE 01 kernel-oracle: PASS")


def test_criterion_02_representation_oracle():
    p = bare_problem(f=RhsFunction(lambda t, x, y, z, w: np.exp(-t),
                                   name="exp_decay"))
    qc = ib.QuadratureConfig()  # default horizon 40, abs_tol 1e-8
    s0 = ib.initial_pair(p, qc, "zero")
    out = ib.apply_T(p, s0, qc)[0].u
    t = out.mesh.nodes
    sup_err = float(np.max(np.abs(out.values - (-1.0 + np.exp(-t)))))
    assert sup_err <= 1e-6
    print("\nACCEPTANCE 02 representation-oracle: PASS "
          f"(sup error {sup_err:.2e})")


def test_criterion_03_jump_exactness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(5):
        n = int(rng.integers(1, 11))
        pts = np.sort(rng.uniform(0.5, 18.0, size=n))
        while np.any(np.diff(pts) < 1e-3):
            pts = np.sort(rng.uniform(0.5, 18.0, size=n))
        c = rng.uniform(-0.5, 0.5, size=6)
        p = bare_problem(
            f=RhsFunction(lambda t, x, y, z, w, c=c: np.exp(-0.3 * t)
                          * (c[0] + c[1] * np.sin(x) + c[2] * y), "rand"),
            boundary=tuple(rng.uniform(-2, 2, size=4)),
            u_points=pts,
            I0=ib.ImpulseMap(lambda pp, a, b, c=c: c[3] * a + c[4] * b, "lin"),
            I1=ib.ImpulseMap(lambda pp, a, b, c=c: c[5] * b + 0.1, "lin"))
        qc = ib.QuadratureConfig(horizon=20.0, mesh_spacing=0.02)
        s = ib.sample_ball_pair(p, qc, radius=2.0,
                                rng=np.random.default_rng(trial))
        out, _ = ib.apply_T(p, s, qc)
        a, b = s.u.left_limits_at(pts)
        want0 = np.atleast_1d(p.I0(pts, a, b))
        want1 = np.atleast_1d(p.I1(pts, a, b))
        got0 = np.asarray([j[1] for j in out.u.jump_registry])
        got1 = np.asarray([j[2] for j in out.u.jump_registry])
        worst = max(worst, float(np.max(np.abs(got0 - want0))),
                    float(np.max(np.abs(got1 - want1))))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 03 jump-exactness: PASS (worst {worst:.2e})")


def test_criterion_04_boundary_identities():
    A1, B1 = 1.25, -0.75
    p = bare_problem(
        f=RhsFunction(lambda t, x, y, z, w: np.exp(-t) * (1 + 0.2 * np.cos(x)),
                      "rhs"),
        boundary=(A1, 0.0, B1, 0.0), u_points=(1.0, 2.5, 4.0),
        I0=ib.ImpulseMap(lambda pp, a, b: 0.1 * a, "lin"),
        I1=ib.ImpulseMap(lambda pp, a, b: 0.05 * b, "lin"))
    qc = ib.QuadratureConfig(horizon=40.0, mesh_spacing=0.02)
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = ib.sample_ball_pair(p, qc, radius=1.5, rng=rng)
        image, rep = ib.apply_T(p, s, qc)
        out = image.u
        assert out.values[0] == A1  # exact
        tail_budget = rep.integral_tail_estimate + rep.impulse_tail_estimate
        assert abs(out.derivs[-1] - B1) <= tail_budget + 1e-15
    print("\nACCEPTANCE 04 boundary-identities: PASS")


def test_criterion_05_manufactured_impulsive_solution():
    p = manufactured_problem()
    qc = ib.QuadratureConfig(horizon=40.0, mesh_spacing=0.005)
    pair, diag = ib.solve(p, ib.SolverConfig(max_iter=50, tol=1e-8), qc)
    assert diag.converged and diag.iterations <= 50

    t = pair.u.mesh.nodes
    ue, de = u_exact(t), u_exact_deriv(t)
    for pp in pair.u.mesh.impulse_times:  # right slots carry right limits
        _, hi = pair.u.mesh.impulse_slots(pp)
        if pp == 1.0:
            ue[hi] += 0.5
        if pp == 2.0:
            de[hi] += -0.2
    tv = pair.v.mesh.nodes
    err = max(float(np.max(np.abs(pair.u.values - ue) / (1 + t))),
              float(np.max(np.abs(pair.u.derivs - de))),
              float(np.max(np.abs(pair.v.values - v_exact(tv)) / (1 + tv))),
              float(np.max(np.abs(pair.v.derivs - v_exact_deriv(tv)))))
    assert err <= 1e-5

    rr = ib.verify_residuals(p, pair)
    assert rr.max_ode_residual < 1e-5
    assert rr.max_jump_residual < 1e-10
    print(f"\nACCEPTANCE 05 manufactured-solution: PASS (recovery {err:.2e}, "
          f"ode {rr.max_ode_residual:.2e}, jumps {rr.max_jump_residual:.2e})")


def test_criterion_06_contraction_rate():
    c = 0.25
    f = RhsFunction(RHS_REGISTRY["decaying_sin_state"](amplitude=c, rate=1.0),
                    name="decaying_sin_state")
    p = bare_problem(f=f, boundary=(1.0, 0.0, 0.0, 0.0))
    qc = ib.QuadratureConfig(horizon=40.0, mesh_spacing=0.01)
    pair, diag = ib.solve(p, ib.SolverConfig(max_iter=60, tol=1e-12), qc)
    assert diag.converged
    h = diag.residual_history
    ratios = [b / a for a, b in zip(h, h[1:])]
    # stabilized: the last ratios agree to a few percent
    assert abs(ratios[-1] - ratios[-2]) <= 0.05 * ratios[-1]
    bound = c * 1.0  # c * integral_0^inf e^{-s} ds
    assert diag.contraction_estimate <= bound * 1.2
    print(f"\nACCEPTANCE 06 contraction-rate: PASS "
          f"(estimate {diag.contraction_estimate:.4f} vs bound {bound})")


def test_criterion_07_rho2_closed_forms():
    qc = ib.QuadratureConfig(horizon=40.0, mesh_spacing=0.01)
    zero_b = ib.CaratheodoryBounds.zero()

    pa = bare_problem(boundary=(0.0, 0.0, 2.0, 0.0))
    import dataclasses
    pa = dataclasses.replace(pa, boundary=BoundaryData(0.0, 0.0, 2.0, 2.0))
    va = ib.compute_rho2(pa, zero_b, rho1=1.0, rho=1.0, K=10, q=qc)
    assert abs(va - 2.0) <= 1e-6

    pb = bare_problem()
    vb = ib.compute_rho2(pb, zero_b, rho1=0.0, rho=1.0, K=10, q=qc)
    assert abs(vb - 0.0) <= 1e-6

    z = lambda rho, t: np.zeros_like(np.asarray(t, dtype=float))
    exp_b = ib.CaratheodoryBounds(
        Phi=lambda rho, t: np.exp(-np.asarray(t, dtype=float)), Psi=z,
        phi_seq=z, psi_seq=z, phij_seq=z, thetaj_seq=z,
        tail_integral_f=lambda rho, t: float(np.exp(-t)),
        tail_integral_h=lambda rho, t: 0.0,
        seq_tail_phi=lambda r, K: 0.0, seq_tail_psi=lambda r, K: 0.0,
        seq_tail_phij=lambda r, K: 0.0, seq_tail_theta=lambda r, K: 0.0)
    vc = ib.compute_rho2(pb, exp_b, rho1=0.0, rho=1.0, K=10, q=qc)
    assert abs(vc - 1.0) <= 1e-6
    print(f"\nACCEPTANCE 07 rho2-closed-forms: PASS ({va:.6f}, {vb}, {vc:.8f})")


def test_criterion_08_summability_audit():
    p = build_pendulum_problem(PendulumParams())
    b = p.bounds
    viol, sums_1e3, tails_1e3 = ib.check_impulse_bounds(p, b, rho=1.0, K=1000,
                                                        samples_per_point=2)
    assert viol == []
    _, sums_1e4, _ = ib.check_impulse_bounds(p, b, rho=1.0, K=10000,
                                             samples_per_point=1)
    gap = sums_1e4["psi"] - sums_1e3["psi"]
    assert 0.0 < gap < tails_1e3["psi"]
    print(f"\nACCEPTANCE 08 summability-audit: PASS "
          f"(gap {gap:.3e} < tail {tails_1e3['psi']:.3e})")


def test_criterion_09_ball_invariance():
    qc = ib.QuadratureConfig(horizon=40.0, mesh_spacing=0.05)
    # zero-RHS problem with nonzero boundary data: closed-form T
    pz = bare_problem(boundary=(1.0, -0.5, 2.0, 0.25))
    bz = ib.CaratheodoryBounds.zero()
    rho2 = ib.compute_rho2(pz, bz, rho1=1.0, rho=1.0, K=10, q=qc)
    tested, inside = ib.check_ball_invariance(pz, bz, rho2, qc,
                                              samples=100, seed=1)
    assert (tested, inside) == (100, 100)

    # pendulum at t0=1, H=40: sample at the domination radius rho
    pp = build_pendulum_problem(PendulumParams())
    rho = 1.0
    rho2p = ib.compute_rho2(pp, pp.bounds, rho1=rho, rho=rho, K=2000, q=qc)
    tested_p, inside_p = ib.check_ball_invariance(pp, pp.bounds, rho2p,
                                                  qc, samples=100, seed=2,
                                                  sample_radius=rho)
    assert tested_p >= 100 and inside_p == tested_p
    print(f"\nACCEPTANCE 09 ball-invariance: PASS "
          f"(zero {inside}/{tested}, pendulum {inside_p}/{tested_p}, "
          f"rho2 {rho2p:.3f})")


def test_criterion_10_pendulum_end_to_end(tmp_path):
    prob = tmp_path / "pendulum.json"
    prob.write_text(json.dumps(PENDULUM_DOC))
    flags = ["--mesh-spacing", "0.02", "--max-iter", "40", "--damping", "0.5",
             "--tol", "1e-8", "--horizon", "40.0"]
    codes, blobs = [], []
    for name in ("run1", "run2"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "impulsebvp.cli", "solve", str(prob),
             "--out-dir", str(out), *flags],
            capture_output=True, text=True)
        codes.append(res.returncode)
        blobs.append((out / "solution.csv").read_bytes()
                     + (out / "diagnostics.json").read_bytes())
    assert codes[0] == codes[1] and codes[0] in (0, 2)
    assert blobs[0] == blobs[1]  # bit-for-bit reproducible under the manifest
    if codes[0] == 0:
        diag = json.loads((tmp_path / "run1" / "diagnostics.json").read_text())
        assert max(diag["residuals"]["jump_residual_sup"].values()) < 1e-8
    print(f"\nACCEPTANCE 10 pendulum-end-to-end: PASS "
          f"(exit {codes[0]}, deterministic)")


def test_criterion_11_equiconvergence_truncation_study():
    p = manufactured_problem()
    sc = ib.SolverConfig(max_iter=50, tol=1e-8)
    sols = []
    for H in (20.0, 40.0, 80.0):
        qc = ib.QuadratureConfig(horizon=H, mesh_spacing=0.005)
        pair, diag = ib.solve(p, sc, qc)
        assert diag.converged
        sols.append(pair)
    d1 = ib.difference_norm(sols[0], sols[1])
    d2 = ib.difference_norm(sols[1], sols[2])
    assert d1 > d2
    assert d2 <= 1e-5
    print(f"\nACCEPTANCE 11 equiconvergence-study: PASS "
          f"(20->40 {d1:.3e}, 40->80 {d2:.3e})")
