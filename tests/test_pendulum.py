import numpy as np
import pytest

from impulsebvp.model import validate_problem
from impulsebvp.pendulum import (PendulumParams, build_pendulum_problem,
                                 pendulum_bound_Phi, pendulum_bound_Psi)


def test_params_validation():
    with pytest.raises(ValueError):
        PendulumParams(m=0.0)
    with pytest.raises(ValueError):
        PendulumParams(beta=2.0)
    with pytest.raises(ValueError):
        PendulumParams(B1=4.0)
    with pytest.raises(ValueError):
        PendulumParams(alpha=(0.1,) * 7)
    with pytest.raises(ValueError):
        PendulumParams(l_min=0.0)


def test_t0_zero_rejected():
    with pytest.raises(ValueError):
        build_pendulum_problem(PendulumParams(t0=0.0))


def test_rhs_at_rest_point():
    # spring at natural length hanging vertically at t = 1: f = -g
    pp = PendulumParams()
    p = build_pendulum_problem(pp)
    val = p.f(np.array([1.0]), pp.l0, 0.0, 0.0, 0.0)
    assert val[0] == pytest.approx(-pp.g, abs=1e-14)


def test_impulse_maps_zero_when_alpha_zero():
    p = build_pendulum_problem(PendulumParams(alpha=(0.0,) * 8))
    k = np.arange(1.0, 10.0)
    assert np.all(p.I0(k, 3.0, -1.0) == 0.0)
    assert np.all(p.J1(k, 3.0, -1.0) == 0.0)
    assert np.all(p.bounds.psi_seq(1.0, k) == 0.0)


def test_derivative_jump_bound_direct_substitution():
    # beta=3, rho=1, alpha3=1, alpha4=0, k=2: bound = (1+2)/2^3
    p = build_pendulum_problem(PendulumParams(alpha=(0, 0, 1.0, 0, 0, 0, 0, 0)))
    assert p.bounds.psi_seq(1.0, np.array([2.0]))[0] == pytest.approx(0.375)


def test_bound_Phi_values_and_domain():
    pp = PendulumParams()
    assert pendulum_bound_Phi(pp, 0.0, 1.0) == pytest.approx(
        pp.g + pp.k / pp.m * pp.l0)
    assert pendulum_bound_Phi(pp, 2.0, 2.0) > 0.0
    with pytest.raises(ValueError):
        pendulum_bound_Phi(pp, 1.0, 0.5)  # below t0


def test_bound_Phi_integrable_tail():
    # rho=1: Phi ~ (1 + k/m)/t^2 for large t, integrable; the closed-form
    # tail dominates quadrature of the tail segment
    pp = PendulumParams()
    t = np.linspace(100.0, 200.0, 10001)
    y = pendulum_bound_Phi(pp, 1.0, t)
    seg = float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(t)))  # trapezoid rule
    b = build_pendulum_problem(pp).bounds
    assert seg < b.tail_integral_f(1.0, 100.0)
    assert b.tail_integral_f(1.0, 1e6) < 1e-5


def test_bound_Psi_values():
    pp = PendulumParams(g=9.8)
    assert pendulum_bound_Psi(pp, 0.0, 2.0) == 0.0
    assert pendulum_bound_Psi(pp, 1.0, 1.0, l_min=1.0) == pytest.approx(23.6)
    quarter = pendulum_bound_Psi(pp, 1.0, 1.0, l_min=2.0)
    assert quarter == pytest.approx(23.6 / 4.0)
    with pytest.raises(ValueError):
        pendulum_bound_Psi(pp, 1.0, 1.0, l_min=0.0)


def test_sampled_rhs_below_bounds_in_admissible_box():
    pp = PendulumParams()
    p = build_pendulum_problem(pp)
    rng = np.random.default_rng(17)
    rho = 1.5
    t = rng.uniform(pp.t0, 50.0, 20000)
    x = rng.uniform(pp.l_min, rho * (1.0 + t))
    y = rng.uniform(-rho * (1.0 + t), rho * (1.0 + t))
    z = rng.uniform(-rho, rho, t.size)
    w = rng.uniform(-rho, rho, t.size)
    assert np.all(np.abs(p.f(t, x, y, z, w)) <= pendulum_bound_Phi(pp, rho, t) + 1e-12)
    assert np.all(np.abs(p.h(t, x, y, z, w)) <= pendulum_bound_Psi(pp, rho, t) + 1e-12)


def test_bound_sequences_summable_two_truncation_levels():
    p = build_pendulum_problem(PendulumParams())
    b = p.bounds
    k1 = np.arange(1.0, 1001.0)
    k2 = np.arange(1.0, 100001.0)
    s1 = float(np.sum(b.psi_seq(1.0, k1)))
    s2 = float(np.sum(b.psi_seq(1.0, k2)))
    assert s2 - s1 < b.seq_tail_psi(1.0, 1000)
    assert b.seq_tail_psi(1.0, 100000) < 1e-4


def test_built_problem_passes_validation():
    p = build_pendulum_problem(PendulumParams())
    assert validate_problem(p, 20.0).passed


def test_negative_alpha_still_dominated():
    pp = PendulumParams(alpha=(-0.2, 0.1, -0.1, 0.2, 0.1, -0.3, 0.2, -0.1))
    p = build_pendulum_problem(pp)
    rng = np.random.default_rng(23)
    k = np.arange(1.0, 51.0)
    rho = 2.0
    for m, seq in ((p.I0, p.bounds.phi_seq), (p.I1, p.bounds.psi_seq),
                   (p.J0, p.bounds.phij_seq), (p.J1, p.bounds.thetaj_seq)):
        a = rng.uniform(-rho * (1 + k), rho * (1 + k))
        bb = rng.uniform(-rho, rho, k.size)
        assert np.all(np.abs(m(k, a, bb)) <= seq(rho, k) + 1e-12)


@pytest.mark.parametrize("field", ["m", "l0", "k", "g", "beta", "gamma", "l_min", "t0",
                                   "alpha"])
def test_nan_params_are_rejected(field):
    value = (0.1,) * 7 + (np.nan,) if field == "alpha" else np.nan
    with pytest.raises(ValueError):
        PendulumParams(**{field: value})


def test_nan_l_min_in_a_problem_file_names_l_min():
    from impulsebvp.problemfile import load_problem
    with pytest.raises(ValueError, match=r"^model 'spring-pendulum': l_min must be "):
        load_problem({"model": "spring-pendulum", "params": {"l_min": np.nan}})
