import math

import numpy as np
import pytest

from impulsebvp.model import (BoundaryData, ImpulseMap, ImpulseSchedule,
                              ImpulsiveCoupledBVP, RhsFunction,
                              validate_problem)
from impulsebvp.pendulum import PendulumParams, build_pendulum_problem


def zero_rhs():
    return RhsFunction(lambda t, x, y, z, w: np.zeros_like(t), name="zero")


def empty_problem(boundary=None, **kw):
    return ImpulsiveCoupledBVP(
        f=zero_rhs(), h=zero_rhs(),
        boundary=boundary or BoundaryData(0.0, 0.0, 0.0, 0.0),
        u_schedule=ImpulseSchedule.empty(),
        v_schedule=ImpulseSchedule.empty(),
        I0=ImpulseMap.zero(), I1=ImpulseMap.zero(),
        J0=ImpulseMap.zero(), J1=ImpulseMap.zero(), **kw)


@pytest.mark.parametrize("t0", [math.nan, math.inf, -1.0])
def test_problem_t0_must_be_finite_and_nonnegative(t0):
    with pytest.raises(ValueError, match=f"^t0 must be finite and >= 0, got {t0!r}$"):
        empty_problem(t0=t0)


@pytest.mark.parametrize("t0,horizon", [(10.0, 10.0), (30.0, 20.0), (0.0, math.inf),
                                        (0.0, math.nan)])
def test_validation_needs_t0_below_the_horizon(t0, horizon):
    with pytest.raises(ValueError, match=r"^t0 must be finite with 0 <= t0 < horizon, "
                                         rf"got t0 = {t0!r}, horizon = {horizon!r}$"):
        validate_problem(empty_problem(t0=t0), horizon)


def test_boundary_data_must_be_finite():
    with pytest.raises(ValueError):
        BoundaryData(np.inf, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        BoundaryData(0.0, np.nan, 0.0, 0.0)


def test_schedule_explicit_points_validation():
    with pytest.raises(ValueError):
        ImpulseSchedule(points=(1.0, 1.0))
    with pytest.raises(ValueError):
        ImpulseSchedule(points=(-1.0, 2.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"points\[1\]"):
            ImpulseSchedule(points=(1.0, bad))
    s = ImpulseSchedule(points=(0.5, 1.5, 9.0))
    assert list(s.points_below(2.0)) == [0.5, 1.5]
    assert s.count_below(100.0) == 3


def test_schedule_rule_enumeration_terminates():
    s = ImpulseSchedule(rule=lambda k: float(k))
    pts = s.points_below(20.0)
    assert pts.size == 19 and pts[0] == 1.0 and pts[-1] == 19.0
    assert np.all(np.diff(pts) > 0)
    assert list(s.points_between(1.0, 4.0)) == [2.0, 3.0]


@pytest.mark.parametrize("horizon", [3.0, 17.5, 100.0])
def test_schedule_enumeration_is_finite_below_any_horizon(horizon):
    s = ImpulseSchedule(rule=lambda k: 0.3 * k)
    pts = s.points_below(horizon)
    assert np.all(pts < horizon)
    assert pts.size == int(np.ceil(horizon / 0.3)) - 1 + (horizon % 0.3 == 0)


def test_validate_pendulum_counts_points_below_horizon():
    p = build_pendulum_problem(PendulumParams())
    report = validate_problem(p, 20.0)
    assert report.passed
    entry = report.entries("u_schedule")[0]
    assert entry["details"]["count_below_horizon"] == 19
    # t_1 = 1 equals t0: reported as outside the working domain
    assert entry["details"]["points_at_or_below_t0"] == [1.0]


def test_validate_zero_problem_passes():
    report = validate_problem(empty_problem(), 10.0)
    assert report.passed


def test_validate_flags_nonfinite_rhs_as_entry_not_exception():
    bad = RhsFunction(lambda t, x, y, z, w: np.full_like(t, np.nan), name="bad")
    p = empty_problem()
    import dataclasses
    p = dataclasses.replace(p, f=bad)
    report = validate_problem(p, 10.0)
    assert not report.passed
    entry = report.entries("f_finite")[0]
    assert not entry["passed"]
    assert "first_nonfinite" in entry["details"] or "error" in entry["details"]


def test_validate_flags_discontinuous_impulse_map():
    # oscillation far below the probe scale: a small input perturbation
    # produces an O(1) output change at every sampled point
    import dataclasses
    p = empty_problem()
    p = dataclasses.replace(
        p,
        u_schedule=ImpulseSchedule(points=(1.0, 2.0, 3.0, 4.0, 5.0)),
        I0=ImpulseMap(lambda p_, a, b: np.sin(a * 1e9), name="rough"))
    report = validate_problem(p, 10.0)
    assert not report.passed
    assert not report.entries("I0_continuity")[0]["passed"]


def test_validate_flags_nonfinite_impulse_map():
    # a comparison with NaN is false: a map that is NaN everywhere must fail
    # the continuity entry, not slip past "wiggle > 0.1 * scale"
    import dataclasses
    from impulsebvp.manufactured import manufactured_problem
    p = dataclasses.replace(manufactured_problem(),
                            I0=ImpulseMap(lambda p_, a, b: np.full_like(p_, np.nan), name="nan"))
    report = validate_problem(p, 40.0)
    assert not report.passed
    assert not report.entries("I0_continuity")[0]["passed"]
    assert all(c["passed"] for c in report.checks if c["name"] != "I0_continuity")


def test_first_k_times_of_a_schedule():
    assert list(ImpulseSchedule(points=(0.5, 1.5)).first(5)) == [0.5, 1.5]
    assert list(ImpulseSchedule(points=(0.5, 1.5)).first(1)) == [0.5]
    assert list(ImpulseSchedule(rule=lambda k: 2.0 * k).first(3)) == [2.0, 4.0, 6.0]
    # the order check of points_below, past any horizon
    late = ImpulseSchedule(rule=lambda k: float(k) if k < 50 else 1.0)
    assert late.first(49)[-1] == 49.0
    with pytest.raises(ValueError, match=r"rule\(50\) = 1\.0 does not exceed rule\(49\)"):
        late.first(50)


def test_validate_monotonicity_failure_index():
    # schedule (1.0, 1.0) is rejected at construction; use a rule to smuggle
    # a non-monotone sequence to the validator
    import dataclasses
    p = empty_problem()
    p = dataclasses.replace(
        p, u_schedule=ImpulseSchedule(rule=lambda k: 1.0 if k <= 2 else 100.0))
    report = validate_problem(p, 10.0)
    assert not report.passed
    entry = report.entries("u_schedule")[0]
    assert entry["details"]["non_monotone_at_index"] == 2


def test_non_increasing_rule_fails_fast_with_its_index():
    calls = []

    def constant(k):
        calls.append(k)
        return 1.0

    s = ImpulseSchedule(rule=constant)
    with pytest.raises(ValueError, match=r"rule\(2\) = 1\.0 does not exceed rule\(1\)"):
        s.points_below(10.0)
    assert len(calls) <= 2
    nan_rule = ImpulseSchedule(rule=lambda k: float(k) if k < 3 else float("nan"))
    with pytest.raises(ValueError, match=r"rule\(3\) = nan"):
        nan_rule.points_below(10.0)
    import dataclasses
    report = validate_problem(dataclasses.replace(empty_problem(), u_schedule=s), 10.0)
    entry = report.entries("u_schedule")[0]
    assert not report.passed and entry["details"]["non_monotone_at_index"] == 2
    assert len(calls) <= 4  # one enumeration per schedule in validate_problem


def counted_bounded_rule():
    """(schedule with rule k -> 2 - 1/k, list of the k it was called with)."""
    calls = []

    def bounded(k):
        calls.append(k)
        return 2.0 - 1.0 / k

    return ImpulseSchedule(rule=bounded), calls


def test_bounded_rule_fails_fast_with_its_last_index_and_value():
    s, calls = counted_bounded_rule()
    with pytest.raises(ValueError, match=r"rule\(100000\) = 1\.99999"):
        s.points_below(40.0)
    assert len(calls) <= 100_000
    calls.clear()
    import dataclasses
    report = validate_problem(dataclasses.replace(empty_problem(), u_schedule=s), 40.0)
    entry = report.entries("u_schedule")[0]
    assert not report.passed
    assert "rule(100000) = 1.99999" in entry["details"]["error"]
    assert len(calls) <= 100_000  # one enumeration in validate_problem


def test_validate_is_deterministic_for_fixed_seed():
    p = build_pendulum_problem(PendulumParams())
    r1 = validate_problem(p, 15.0, seed=5)
    r2 = validate_problem(p, 15.0, seed=5)
    assert r1.checks == r2.checks


def test_rhs_scalar_fallback():
    # a callable that cannot take arrays still evaluates through the wrapper
    f = RhsFunction(lambda t, x, y, z, w: float(t) + float(x) * 2.0, name="scalar")
    t = np.array([0.0, 1.0, 2.0])
    out = f(t, np.ones(3), 0, 0, 0)
    assert np.allclose(out, t + 2.0)


def test_impulse_map_broadcasts_scalars():
    m = ImpulseMap(lambda p, a, b: a + b / p, name="lin")
    out = m(np.array([1.0, 2.0]), 1.0, 4.0)
    assert np.allclose(out, [5.0, 3.0])


def test_problem_rejects_negative_t0():
    with pytest.raises(ValueError):
        empty_problem(t0=-1.0)


def _raise_boom(*args):
    raise RuntimeError("boom")


def test_validation_reports_a_problem_function_that_raises():
    import dataclasses
    report = validate_problem(dataclasses.replace(empty_problem(), f=RhsFunction(_raise_boom)),
                              10.0)
    assert not report.passed
    entry = report.entries("f_finite")[0]
    assert not entry["passed"] and entry["details"]["error"] == "boom"

    p = dataclasses.replace(empty_problem(), u_schedule=ImpulseSchedule(points=(1.0, 2.0)),
                            I0=ImpulseMap(_raise_boom))
    report = validate_problem(p, 10.0)
    assert not report.passed
    entry = report.entries("I0_continuity")[0]
    assert not entry["passed"] and entry["details"]["error"] == "boom"


def test_problem_functions_get_read_only_arguments():
    seen = []

    def probe(*args):
        seen.append([a.flags.writeable for a in args])
        return np.zeros_like(args[0])

    t = np.linspace(0.0, 1.0, 5)
    RhsFunction(probe)(t, t.copy(), 0.0, np.ones(5), 1.0)
    ImpulseMap(probe)(t, t.copy(), 2.0)
    assert seen == [[False] * 5, [False] * 3]
    assert t.flags.writeable  # the caller's array is untouched


def test_functions_that_write_into_arguments_run_point_by_point():
    def scale_t(t, x, y, z, w):
        t *= 2.0
        return t + x

    t, x = np.array([1.0, 2.0]), np.array([10.0, 20.0])
    assert RhsFunction(scale_t)(t, x, 0.0, 0.0, 0.0).tolist() == [12.0, 24.0]
    assert t.tolist() == [1.0, 2.0] and x.tolist() == [10.0, 20.0]


@pytest.mark.parametrize("kw", [{}, {"points": (1.0,), "rule": lambda k: float(k)}],
                         ids=["neither", "both"])
def test_schedule_takes_exactly_one_of_points_and_rule(kw):
    with pytest.raises(ValueError, match="exactly one of points and rule"):
        ImpulseSchedule(**kw)


def test_bounds_are_problem_data_reexported_by_the_audit():
    from impulsebvp import CaratheodoryBounds as exported
    from impulsebvp import audit, model
    assert audit.CaratheodoryBounds is model.CaratheodoryBounds is exported
    b = model.CaratheodoryBounds.zero()
    for dom, tail in model._BOUND_TAILS.items():
        assert np.array_equal(getattr(b, dom)(2.0, np.arange(3.0)), np.zeros(3))
        assert getattr(b, tail)(2.0, 5.0) == 0.0
    assert b.u_floor is None
