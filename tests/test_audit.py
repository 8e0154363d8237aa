import dataclasses

import numpy as np
import pytest

from impulsebvp.audit import (CaratheodoryBounds, check_ball_invariance,
                              check_domination, check_impulse_bounds,
                              compute_rho2, compute_rho2_entries, run_audit,
                              sample_ball_pair)
from impulsebvp.fnspace import norm_X
from impulsebvp.model import (BoundaryData, ImpulseMap, ImpulseSchedule,
                              ImpulsiveCoupledBVP, RhsFunction, validate_problem)
from impulsebvp.operator import QuadratureConfig
from impulsebvp.pendulum import PendulumParams, build_pendulum_problem

ZERO = RhsFunction(lambda t, x, y, z, w: np.zeros_like(t), name="zero")
QC = QuadratureConfig(horizon=40.0, mesh_spacing=0.05)


def zero_problem(boundary=(0, 0, 0, 0), **kw):
    return ImpulsiveCoupledBVP(
        f=kw.pop("f", ZERO), h=kw.pop("h", ZERO),
        boundary=BoundaryData(*boundary),
        u_schedule=kw.pop("u_schedule", ImpulseSchedule.empty()),
        v_schedule=kw.pop("v_schedule", ImpulseSchedule.empty()),
        I0=kw.pop("I0", ImpulseMap.zero()), I1=kw.pop("I1", ImpulseMap.zero()),
        J0=kw.pop("J0", ImpulseMap.zero()), J1=kw.pop("J1", ImpulseMap.zero()),
        **kw)


def const_bounds(phi=1.0, psi=1.0):
    mk = lambda c: (lambda rho, t: np.full_like(np.asarray(t, dtype=float), c))
    z = lambda rho, t: np.zeros_like(np.asarray(t, dtype=float))
    return CaratheodoryBounds(Phi=mk(phi), Psi=mk(psi), phi_seq=z, psi_seq=z,
                              phij_seq=z, thetaj_seq=z)


def test_domination_zero_rhs_passes():
    out = check_domination(zero_problem(), const_bounds(), rho=1.0,
                           samples=2000, seed=0)
    assert out == []


def test_domination_constant_counterexample():
    p = zero_problem(f=RhsFunction(lambda t, x, y, z, w: np.full_like(t, 2.0),
                                   name="two"))
    out = check_domination(p, const_bounds(phi=1.0), rho=1.0, samples=500, seed=0)
    assert len(out) == 500
    assert all(v["rhs"] == "f" and v["abs_value"] == 2.0 for v in out)


def test_domination_pendulum_passes_ten_thousand_samples():
    p = build_pendulum_problem(PendulumParams())
    out = check_domination(p, p.bounds, rho=1.0, samples=10000, seed=42,
                           horizon=40.0)
    assert out == []


def test_domination_needs_an_admissible_sampled_time():
    # rho (1 + t) <= 0.01 * 41 < u_floor = l_min on all of [t0, 40]: no
    # state can be drawn, so the audit has nothing to pass on
    p = build_pendulum_problem(PendulumParams())
    assert 0.01 * (1.0 + 40.0) <= p.bounds.u_floor
    with pytest.raises(ValueError, match="^u_floor must lie below rho"):
        check_domination(p, p.bounds, rho=0.01, samples=2000, seed=0)


def test_domination_needs_t0_below_the_horizon():
    p = build_pendulum_problem(PendulumParams())
    with pytest.raises(ValueError, match="^t0 must be finite with 0 <= t0 < horizon"):
        check_domination(p, p.bounds, rho=1.0, samples=100, seed=0, horizon=p.t0)


def test_domination_reproducible_for_fixed_seed():
    p = zero_problem(f=RhsFunction(lambda t, x, y, z, w: x * 0.9, name="x"))
    b = const_bounds(phi=0.5)
    a1 = check_domination(p, b, rho=1.0, samples=300, seed=9)
    a2 = check_domination(p, b, rho=1.0, samples=300, seed=9)
    assert a1 == a2 and len(a1) > 0


def test_nan_rhs_and_map_values_are_violations():
    # a comparison with NaN is false, so "value > cap" let NaN pass as dominated
    pend = build_pendulum_problem(PendulumParams())
    f = pend.f
    p = dataclasses.replace(pend, f=RhsFunction(
        lambda t, x, y, z, w: np.where(z > 0.5, np.nan, f(t, x, y, z, w)), name="nan-f"))
    out = check_domination(p, p.bounds, rho=1.0, samples=2000, seed=0)
    assert out and all(v["rhs"] == "f" and np.isnan(v["abs_value"]) for v in out)
    assert all(v["z"] > 0.5 for v in out)
    nan_map = ImpulseMap(lambda pp, a, b: np.full_like(pp, np.nan), name="nan")
    viol, _, _ = check_impulse_bounds(dataclasses.replace(pend, I0=nan_map),
                                      pend.bounds, rho=1.0, K=50)
    assert len(viol) == 50 * 8 and {v["family"] for v in viol} == {"I0"}


def test_impulse_bounds_enumerate_rules_with_the_order_check():
    # the rule turns back at k = 50, past the horizon: validation cannot see
    # it, the audit's first K points must
    pend = build_pendulum_problem(PendulumParams())
    p = dataclasses.replace(
        pend, u_schedule=ImpulseSchedule(rule=lambda k: float(k) if k < 50 else 1.0))
    assert validate_problem(p, 40.0).passed
    with pytest.raises(ValueError, match=r"^schedule rule is not strictly increasing: "
                                         r"rule\(50\) = 1\.0"):
        check_impulse_bounds(p, p.bounds, rho=1.0, K=1000)


def test_impulse_bounds_zero_maps_pass():
    p = zero_problem()
    viol, sums, tails = check_impulse_bounds(p, CaratheodoryBounds.zero(),
                                             rho=1.0, K=50)
    assert viol == []
    assert set(sums) == {"phi", "psi", "phij", "theta"}
    assert all(v == 0.0 for v in sums.values())


def test_impulse_bounds_pointwise_violation():
    # I0 = 1 against phi_k = 1/k^2: violated for every k >= 2
    p = zero_problem(
        u_schedule=ImpulseSchedule(rule=lambda k: float(k)),
        I0=ImpulseMap(lambda pp, a, b: np.ones_like(pp), name="one"))
    k2 = lambda rho, k: 1.0 / np.asarray(k, dtype=float) ** 2
    z = lambda rho, k: np.zeros_like(np.asarray(k, dtype=float))
    b = CaratheodoryBounds(Phi=z, Psi=z, phi_seq=k2, psi_seq=z,
                           phij_seq=z, thetaj_seq=z)
    viol, sums, tails = check_impulse_bounds(p, b, rho=1.0, K=10,
                                             samples_per_point=1)
    ks = sorted({v["k"] for v in viol if v["family"] == "I0"})
    assert ks == list(range(2, 11))
    assert sums["phi"] == pytest.approx(float(np.sum(1.0 / np.arange(1, 11.0) ** 2)))


def test_pendulum_psi_partial_sums_respect_integral_test_tail():
    p = build_pendulum_problem(PendulumParams())
    b = p.bounds
    _, sums_small, tails_small = check_impulse_bounds(p, b, rho=1.0, K=1000,
                                                      samples_per_point=1)
    _, sums_big, _ = check_impulse_bounds(p, b, rho=1.0, K=10000,
                                          samples_per_point=1)
    gap = sums_big["psi"] - sums_small["psi"]
    assert 0.0 < gap < tails_small["psi"]


def test_compute_rho2_boundary_only_case():
    p = zero_problem(boundary=(0.0, 0.0, 2.0, 2.0))
    assert compute_rho2(p, CaratheodoryBounds.zero(), rho1=1.0, rho=1.0,
                        K=10, q=QC) == pytest.approx(2.0, abs=1e-12)


def test_compute_rho2_all_zero():
    p = zero_problem()
    assert compute_rho2(p, CaratheodoryBounds.zero(), rho1=0.0, rho=1.0,
                        K=10, q=QC) == 0.0


def test_compute_rho2_exponential_dominator():
    z = lambda rho, t: np.zeros_like(np.asarray(t, dtype=float))
    b = CaratheodoryBounds(
        Phi=lambda rho, t: np.exp(-np.asarray(t, dtype=float)), Psi=z,
        phi_seq=z, psi_seq=z, phij_seq=z, thetaj_seq=z,
        tail_integral_f=lambda rho, t: float(np.exp(-t)),
        tail_integral_h=lambda rho, t: 0.0,
        seq_tail_phi=lambda r, K: 0.0, seq_tail_psi=lambda r, K: 0.0,
        seq_tail_phij=lambda r, K: 0.0, seq_tail_theta=lambda r, K: 0.0)
    p = zero_problem()
    qc = QuadratureConfig(horizon=40.0, mesh_spacing=0.01)
    entries, lower = compute_rho2_entries(p, b, rho1=0.0, rho=1.0, K=10, q=qc)
    assert not lower
    # int_0^inf e^{-s} ds = 1 dominates; int Q(s) e^{-s} ds = 1 - e E1(1)
    assert max(entries.values()) == pytest.approx(1.0, abs=1e-6)
    assert entries["u_weighted"] == pytest.approx(0.4036526, abs=1e-6)


def test_compute_rho2_monotone_in_bounds():
    p = zero_problem(boundary=(1.0, 0.0, 0.5, 0.0))
    small = const_bounds(phi=0.5, psi=0.1)
    big = const_bounds(phi=1.0, psi=0.2)
    qc = QuadratureConfig(horizon=10.0, mesh_spacing=0.05)
    r_small = compute_rho2(p, small, rho1=0.2, rho=1.0, K=5, q=qc)
    r_big = compute_rho2(p, big, rho1=0.2, rho=1.0, K=5, q=qc)
    assert r_big >= r_small
    entries, lower = compute_rho2_entries(p, small, rho1=0.2, rho=1.0, K=5, q=qc)
    assert max(entries.values()) >= max(entries["rho1"], entries["u_deriv"])
    assert lower  # constant dominators carry no tail bound


def test_ball_sampler_respects_radius_and_floor():
    p = build_pendulum_problem(PendulumParams())
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = sample_ball_pair(p, QC, radius=1.0, rng=rng, u_floor=1.0)
        assert norm_X(s) <= 1.0 + 1e-12
        assert np.all(s.u.values >= 1.0 - 1e-12)
    p0 = zero_problem()
    for _ in range(10):
        s = sample_ball_pair(p0, QC, radius=2.5, rng=rng)
        assert norm_X(s) <= 2.5 + 1e-12


def test_ball_invariance_zero_problem_closed_form():
    p = zero_problem(boundary=(1.0, -0.5, 2.0, 0.25))
    b = CaratheodoryBounds.zero()
    rho2 = compute_rho2(p, b, rho1=1.0, rho=1.0, K=10, q=QC)
    assert rho2 == 2.0  # max(rho1, K1, K2, |B1|, |B2|)
    tested, inside = check_ball_invariance(p, b, rho2, QC,
                                           samples=50, seed=1)
    assert (tested, inside) == (50, 50)


def test_ball_invariance_pendulum_at_domination_radius():
    p = build_pendulum_problem(PendulumParams())
    rho = 1.0
    rho2 = compute_rho2(p, p.bounds, rho1=rho, rho=rho, K=2000, q=QC)
    tested, inside = check_ball_invariance(p, p.bounds, rho2, QC,
                                           samples=30, seed=2,
                                           sample_radius=rho)
    assert (tested, inside) == (30, 30)


def test_ball_invariance_failures_counted_not_raised():
    # rhs too large for the claimed rho2: images land outside
    p = zero_problem(f=RhsFunction(lambda t, x, y, z, w: np.exp(-t) * 50.0,
                                   name="big"),
                     boundary=(0.0, 0.0, 0.0, 0.0))
    b = CaratheodoryBounds.zero()
    tested, inside = check_ball_invariance(p, b, rho2=0.5, qc=QC,
                                           samples=10, seed=3)
    assert tested == 10 and inside < tested


def test_ball_invariance_failures_vanish_across_truncation_levels():
    # a problem passing all checks keeps zero failures as horizon and K grow
    p = build_pendulum_problem(PendulumParams())
    for H, K in ((20.0, 500), (40.0, 2000)):
        qc = QuadratureConfig(horizon=H, mesh_spacing=0.05)
        rho2 = compute_rho2(p, p.bounds, rho1=1.0, rho=1.0, K=K, q=qc)
        tested, inside = check_ball_invariance(p, p.bounds, rho2, qc,
                                               samples=15, seed=4,
                                               sample_radius=1.0)
        assert inside == tested


def test_run_audit_pendulum_report():
    p = build_pendulum_problem(PendulumParams())
    rep = run_audit(p, p.bounds, rho=1.0, rho1=1.0, K=1000, qc=QC,
                    samples=2000, seed=0, ball_samples=10)
    assert rep.all_pass
    assert rep.rho2 == pytest.approx(19.0098, abs=1e-3)
    assert rep.rho2 >= rep.rho1
    text = rep.summary()
    assert "pass" in text and "rho2" in text
    doc = rep.to_dict()
    assert doc["ball_inside"] == doc["ball_tested"] == 10


def test_run_audit_json_roundtrip(tmp_path):
    import json
    p = zero_problem(boundary=(0.0, 0.0, 1.0, 0.0))
    rep = run_audit(p, CaratheodoryBounds.zero(), rho=1.0, rho1=0.5, K=10,
                    qc=QC, samples=100, seed=0, ball_samples=5)
    path = tmp_path / "report.json"
    rep.to_json(path)
    doc = json.loads(path.read_text())
    assert doc["all_pass"] is True
    assert doc["rho2"] == 1.0


def _weighted_integral_four_pass(fn, rho, t0, horizon, q, weight=None):
    """Reference: integral_{t0}^{H} weight(s) fn(rho, s) ds, with its own
    panels and its own evaluation of the dominator per integral."""
    import math
    from impulsebvp.operator import _gauss_panels
    n = max(64, int(math.ceil((horizon - t0) / q.mesh_spacing)))
    boundaries = np.linspace(t0, horizon, n + 1)
    spts, wts = _gauss_panels(boundaries)
    flat = spts.T.ravel()
    vals = np.asarray(fn(rho, flat), dtype=float)
    if weight is not None:
        vals = vals * weight(flat)
    return float((wts.T.ravel() * vals).sum())


def _rho2_entries_four_pass(p, b, rho1, rho, K, q):
    """Reference for compute_rho2_entries: one panel build and one
    dominator evaluation per integral."""
    from impulsebvp.kernel import boundary_weight_sup, kernel_weight_sup
    k = np.arange(1, K + 1, dtype=float)

    def seq_sum(seq, tail):
        total = float(np.sum(np.asarray(seq(rho, k), dtype=float)))
        return total if tail is None else total + float(tail(rho, K))

    def integral(dom, tail, weight):
        total = _weighted_integral_four_pass(dom, rho, p.t0, q.horizon, q, weight)
        return total if tail is None else total + float(tail(rho, q.horizon))

    s_psi = seq_sum(b.psi_seq, b.seq_tail_psi)
    s_theta = seq_sum(b.thetaj_seq, b.seq_tail_theta)
    return {
        "rho1": float(rho1),
        "u_weighted": (boundary_weight_sup(p.boundary.A1, p.boundary.B1)
                       + seq_sum(b.phi_seq, b.seq_tail_phi) + 2.0 * s_psi
                       + integral(b.Phi, b.tail_integral_f, kernel_weight_sup)),
        "v_weighted": (boundary_weight_sup(p.boundary.A2, p.boundary.B2)
                       + seq_sum(b.phij_seq, b.seq_tail_phij) + 2.0 * s_theta
                       + integral(b.Psi, b.tail_integral_h, kernel_weight_sup)),
        "u_deriv": (abs(p.boundary.B1) + 2.0 * s_psi
                    + integral(b.Phi, b.tail_integral_f, None)),
        "v_deriv": (abs(p.boundary.B2) + 2.0 * s_theta
                    + integral(b.Psi, b.tail_integral_h, None)),
    }


def test_rho2_entries_match_the_four_pass_integrals():
    from impulsebvp.problemfile import load_problem
    pend = build_pendulum_problem(PendulumParams())
    doc = {"t0": 0.5, "boundary": {"A1": 1.0, "A2": -0.5, "B1": 0.25, "B2": 0.75},
           "bounds": {"Phi": {"name": "constant", "params": {"value": 0.3,
                                                             "rho_power": 1.0}},
                      "Psi": {"name": "exp_decay", "params": {"amplitude": 2.0,
                                                              "rate": 0.5}},
                      "phi_seq": {"name": "power", "params": {"c": 0.5, "power": 3.0}},
                      "psi_seq": {"name": "zero"},
                      "phij_seq": {"name": "zero"},
                      "thetaj_seq": {"name": "power", "params": {"c": 0.1,
                                                                 "power": 2.0}}}}
    filed = load_problem(doc)
    cases = ((pend, QuadratureConfig(horizon=40.0, mesh_spacing=0.01), False),
             (filed, QuadratureConfig(horizon=12.0, mesh_spacing=0.05), True))
    for p, qc, want_lower in cases:
        entries, lower = compute_rho2_entries(p, p.bounds, rho1=0.5, rho=1.5, K=30, q=qc)
        assert entries == _rho2_entries_four_pass(p, p.bounds, 0.5, 1.5, 30, qc)
        assert lower == want_lower
