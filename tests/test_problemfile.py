import json
import subprocess
import sys

import numpy as np
import pytest

from impulsebvp.problemfile import (IMPULSE_REGISTRY, MODEL_REGISTRY,
                                    RHS_REGISTRY, load_problem,
                                    load_problem_file)


def test_zero_problem_document():
    p = load_problem({"boundary": {"A1": 1, "A2": 0, "B1": 2, "B2": 0}})
    assert p.boundary.A1 == 1.0 and p.boundary.B1 == 2.0
    assert p.u_schedule.count_below(100.0) == 0
    t = np.array([0.0, 1.0])
    assert np.all(p.f(t, 0, 0, 0, 0) == 0.0)


def test_full_explicit_document(tmp_path):
    doc = {
        "t0": 0.0,
        "boundary": {"A1": 2.0, "A2": 0.0, "B1": 0.8, "B2": 1.0},
        "rhs": {"f": {"name": "exp_decay", "params": {"amplitude": 1.0, "rate": 1.0}},
                "h": {"name": "exp_decay"}},
        "impulses": {
            "u": {"schedule": {"points": [1.0, 2.0]},
                  "I0": {"name": "point_values",
                         "params": {"points": [1.0], "values": [0.5]}},
                  "I1": {"name": "point_values",
                         "params": {"points": [2.0], "values": [-0.2]}}},
            "v": {"schedule": {"rule": "integers", "step": 3.0},
                  "J0": {"name": "power_decay",
                         "params": {"ca": 0.1, "power": 3.0}}}},
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    p = load_problem_file(path)
    assert list(p.u_schedule.points_below(10.0)) == [1.0, 2.0]
    assert list(p.v_schedule.points_below(10.0)) == [3.0, 6.0, 9.0]
    assert p.I0(np.array([1.0]), 0.0, 0.0)[0] == 0.5
    assert p.I0(np.array([2.0]), 0.0, 0.0)[0] == 0.0
    assert p.J0(np.array([2.0]), 1.0, 0.0)[0] == pytest.approx(0.1 / 8.0)
    assert p.f.name == "exp_decay"


def test_named_model_pendulum():
    p = load_problem({"model": "spring-pendulum",
                      "params": {"g": 9.8, "B1": 0.5, "B2": 0.5,
                                 "alpha": [0.1] * 8}})
    assert p.t0 == 1.0
    assert p.bounds is not None
    assert p.boundary.B1 == 0.5


def test_named_model_manufactured():
    p = load_problem({"model": "manufactured-exp"})
    assert p.boundary.A1 == 2.0
    assert list(p.u_schedule.points_below(10.0)) == [1.0, 2.0]


def test_unknown_names_rejected():
    with pytest.raises(KeyError):
        load_problem({"model": "no-such-model"})
    with pytest.raises(KeyError):
        load_problem({"boundary": {"A1": 0, "A2": 0, "B1": 0, "B2": 0},
                      "rhs": {"f": {"name": "no-such-rhs"}}})
    with pytest.raises(KeyError):
        load_problem({"boundary": {"A1": 0, "A2": 0, "B1": 0, "B2": 0},
                      "impulses": {"u": {"schedule": {"rule": "fibonacci"}}}})
    with pytest.raises(KeyError, match="unknown impulse map 'no-such-map'"):
        load_problem({"boundary": {"A1": 0, "A2": 0, "B1": 0, "B2": 0},
                      "impulses": {"v": {"J1": {"name": "no-such-map"}}}})
    with pytest.raises(KeyError, match="unknown bound family 'no-such-bound' for psi_seq"):
        load_problem({"boundary": {"A1": 0, "A2": 0, "B1": 0, "B2": 0},
                      "bounds": {"psi_seq": {"name": "no-such-bound"}}})
    with pytest.raises(KeyError):
        load_problem({})  # boundary is mandatory


_BOUNDARY = {"A1": 0, "A2": 0, "B1": 0, "B2": 0}
MISTYPED_PARAMS = [
    ({"boundary": _BOUNDARY, "rhs": {"f": {"name": "exp_decay", "params": {"rat": 2.0}}}},
     r"rhs 'exp_decay': .*unexpected keyword argument 'rat'"),
    ({"boundary": _BOUNDARY, "bounds": {"Phi": {"name": "constant", "params": {"valu": 2.0}}}},
     r"bound family 'constant' for Phi: .*unexpected keyword argument 'valu'"),
    ({"boundary": _BOUNDARY, "impulses": {"u": {"I0": {"name": "linear", "params": [1]}}}},
     r"impulse map 'linear': .*must be a mapping"),
    ({"model": "spring-pendulum", "params": {"alpha": 3}}, r"model 'spring-pendulum': "),
    ({"model": "manufactured-exp", "params": {"rate": 2.0}},
     r"model 'manufactured-exp': .*unexpected keyword argument 'rate'"),
]


@pytest.mark.parametrize("doc,match", MISTYPED_PARAMS,
                         ids=["rhs", "bound", "params-list", "model", "model-no-params"])
def test_mistyped_registry_params_name_the_entry(doc, match):
    with pytest.raises(KeyError, match=match):
        load_problem(doc)


def test_mistyped_registry_params_fail_on_the_error_line(tmp_path):
    prob = tmp_path / "mistyped.json"
    prob.write_text(json.dumps(MISTYPED_PARAMS[0][0]))
    res = subprocess.run([sys.executable, "-m", "impulsebvp.cli", "solve", str(prob),
                          "--out-dir", str(tmp_path / "o")], capture_output=True, text=True)
    assert res.returncode == 1
    assert res.stderr.startswith("error: rhs 'exp_decay': "), res.stderr
    assert "Traceback" not in res.stderr


def test_registries_cover_documented_names():
    assert {"zero", "constant", "exp_decay", "decaying_sin_state",
            "bump_weighted_state", "linear_state_decay",
            "spring_pendulum_f", "spring_pendulum_h"} <= set(RHS_REGISTRY)
    assert {"zero", "constant", "linear", "power_decay",
            "point_values"} <= set(IMPULSE_REGISTRY)
    assert {"spring-pendulum", "manufactured-exp"} <= set(MODEL_REGISTRY)


def test_registry_functions_vectorize():
    f = RHS_REGISTRY["linear_state_decay"](cx=1.0, cz=2.0, rate=0.5)
    t = np.linspace(0, 5, 11)
    out = f(t, np.ones_like(t), 0.0, 3.0 * np.ones_like(t), 0.0)
    assert out.shape == t.shape
    assert np.allclose(out, np.exp(-0.5 * t) * 7.0)


def test_pendulum_rhs_registry_entries_are_the_pendulum_model():
    from impulsebvp.pendulum import (PendulumParams, build_pendulum_problem,
                                     spring_pendulum_f, spring_pendulum_h)
    assert RHS_REGISTRY["spring_pendulum_f"] is spring_pendulum_f
    assert RHS_REGISTRY["spring_pendulum_h"] is spring_pendulum_h
    params = {"m": 2.0, "k": 3.0, "g": 9.0, "l0": 1.5}
    model = build_pendulum_problem(PendulumParams(**params))
    t = np.linspace(1.0, 6.0, 11)
    args = (t, 1.0 + 0.1 * t, np.sin(t), 0.3 * t, np.cos(t))
    assert np.array_equal(RHS_REGISTRY["spring_pendulum_f"](**params)(*args),
                          model.f(*args))
    assert np.array_equal(RHS_REGISTRY["spring_pendulum_h"](**params)(*args),
                          model.h(*args))
