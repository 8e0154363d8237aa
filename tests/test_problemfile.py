import dataclasses
import inspect
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from impulsebvp.pendulum import PendulumParams
from impulsebvp.problemfile import (BOUND_REGISTRY, IMPULSE_REGISTRY, MODEL_REGISTRY,
                                    RHS_REGISTRY, SCHEDULE_REGISTRY, SEQ_BOUND_REGISTRY,
                                    load_problem, load_problem_file)


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


# each staged right-hand side: its params and its expression as one plain
# lambda of (t, x, y, z, w), as the registry wrote it before staging
_BUMP = 0.7 / (0.3 * math.sqrt(2.0 * math.pi))
_UNSTAGED = {
    "exp_decay": ({"amplitude": 1.3, "rate": 0.7},
                  lambda t, x, y, z, w: 1.3 * np.exp(-0.7 * t)),
    "decaying_sin_state": ({"amplitude": 0.25, "rate": 1.1},
                           lambda t, x, y, z, w: 0.25 * np.exp(-1.1 * t) * np.sin(x)),
    "bump_weighted_state": ({"mass": 0.7, "center": 2.5, "width": 0.3},
                            lambda t, x, y, z, w: (_BUMP * np.exp(-0.5 * ((t - 2.5) / 0.3) ** 2)
                                                   * x / (1.0 + t))),
    "linear_state_decay": ({"cx": 0.1, "cy": -0.2, "cz": 0.3, "cw": -0.4, "c0": 0.5,
                            "rate": 0.9},
                           lambda t, x, y, z, w: np.exp(-0.9 * t) * (
                               0.5 + 0.1 * x + -0.2 * y + 0.3 * z + -0.4 * w)),
    "spring_pendulum_f": ({"m": 1.5, "k": 2.0, "g": 9.8, "l0": 1.2},
                          lambda t, x, y, z, w: (x * w - 9.8 * np.cos(y)
                                                 - (2.0 / 1.5) * (x - 1.2)) / t ** 3),
    "spring_pendulum_h": ({"m": 1.5, "k": 2.0, "g": 9.8, "l0": 1.2},
                          lambda t, x, y, z, w: ((-9.8 * x * np.sin(y) - 2.0 * x * z * w)
                                                 / (t ** 3 * x * x))),
}


def _staged_cases():
    """(name, staged fn, unstaged lambda) for every staged right-hand side."""
    from impulsebvp.manufactured import manufactured_problem
    cases = [(name, RHS_REGISTRY[name](**params), old)
             for name, (params, old) in _UNSTAGED.items()]
    m = manufactured_problem()
    return cases + [("manufactured", m.f.fn, lambda t, x, y, z, w: np.exp(-t))]


def test_staged_rhs_give_the_bits_of_their_unstaged_form():
    from impulsebvp.model import RhsFunction
    from impulsebvp.operator import OperatorPlan, QuadratureConfig
    from impulsebvp.pendulum import PendulumParams, build_pendulum_problem
    rng = np.random.default_rng(23)
    same = lambda a, b: a.shape == b.shape and a.tobytes() == b.tobytes()
    pend = build_pendulum_problem(PendulumParams())
    qc = QuadratureConfig(horizon=40.0, mesh_spacing=0.005)
    for name, fn, old in _staged_cases():
        assert callable(fn.at), name
        g = RhsFunction(fn, name=name)
        plan = OperatorPlan.build(dataclasses.replace(pend, f=g, h=g), qc)
        assert len(plan.blocks) > 1
        # random times, then the plan's Gauss points with its staged closures
        cases = [(rng.uniform(1.0, 40.0, 1000), None, None)]
        cases += [(plan.spts[:, a:b].ravel(), f, h) for a, b, f, h in plan.blocks]
        for t, f, h in cases:
            x, y, z, w = (rng.uniform(0.5, 3.0, t.size) for _ in range(4))
            want = old(t, x, y, z, w)
            assert same(g.at(t)(x, y, z, w), want), name
            assert same(g(t, x, y, z, w), want), name
            assert same(np.asarray(fn(t, x, y, z, w)), want), name
            if f is not None:
                assert same(f(x, y, z, w), want) and same(h(x, y, z, w), want), name


def test_schedule_rules_are_registry_entries():
    assert set(SCHEDULE_REGISTRY) == {"integers", "arithmetic"}
    p = load_problem({"boundary": _BOUNDARY, "impulses": {
        "u": {"schedule": {"rule": "arithmetic", "start": 0.5, "step": 2}},
        "v": {"schedule": {"rule": "integers"}}}})
    assert list(p.u_schedule.points_below(5.0)) == [0.5, 2.5, 4.5]
    assert list(p.v_schedule.points_below(3.5)) == [1.0, 2.0, 3.0]


_B = {"A1": 1.0, "A2": 0.0, "B1": 0.5, "B2": 0.0}
# each document breaks the format in one place; the pattern is its one error line
MALFORMED = {
    "top-key": ({"boundary": _B, "rsh": {}}, r"top level: unknown key 'rsh'; expected one of "),
    "entry-key": ({"boundary": _B, "rhs": {"f": {"name": "constant", "parms": {"value": 5}}}},
                  r"rhs\.f: unknown key 'parms'; expected one of \['name', 'params'\]$"),
    "impulses-key": ({"boundary": _B, "impulses": {"w": {}}},
                     r"impulses: unknown key 'w'; expected one of \['u', 'v'\]$"),
    "model-key": ({"model": "spring-pendulum", "parms": {"t0": 4}},
                  r"top level: unknown key 'parms'; expected one of \['model', 'params'\]$"),
    "bounds-key": ({"boundary": _B, "bounds": {"Phii": {"name": "zero"}}},
                   r"bounds: unknown key 'Phii'; expected one of "),
    "missing-A2": ({"boundary": {"A1": 1.0, "B1": 0.5, "B2": 0.0}},
                   r"boundary: missing key 'A2'$"),
    "missing-name": ({"boundary": _B, "rhs": {"f": {"params": {}}}},
                     r"rhs\.f: missing key 'name'$"),
    "t0-string": ({"boundary": _B, "t0": "x"}, r"t0: expected a number, got 'x'$"),
    "entry-string": ({"boundary": _B, "rhs": {"f": "exp_decay"}},
                     r"rhs\.f: expected a JSON object, got 'exp_decay'$"),
    "boundary-list": ({"boundary": [1, 0, 0.5, 0]}, r"boundary: expected a JSON object, "),
    "points-number": ({"boundary": _B, "impulses": {"u": {"schedule": {"points": 5}}}},
                      r"impulses\.u\.schedule\.points: expected a list of numbers, got 5$"),
    "point-string": ({"boundary": _B, "impulses": {"u": {"schedule": {"points": [1, "x"]}}}},
                     r"impulses\.u\.schedule\.points\[1\]: expected a number, got 'x'$"),
    "points-and-rule": ({"boundary": _B, "impulses": {"u": {"schedule": {
        "points": [1.0], "rule": "integers"}}}},
        r"impulses\.u\.schedule: takes exactly one of 'points' and 'rule'$"),
    "rule-param": ({"boundary": _B, "impulses": {"v": {"schedule": {
        "rule": "integers", "stepp": 2}}}},
        r"schedule rule 'integers' for impulses\.v\.schedule: .*unexpected keyword "
        r"argument 'stepp'$"),
    "rule-missing-param": ({"boundary": _B, "impulses": {"u": {"schedule": {
        "rule": "arithmetic", "step": 1}}}},
        r"schedule rule 'arithmetic' for impulses\.u\.schedule: .*'start'$"),
    "rule-bad-param": ({"boundary": _B, "impulses": {"u": {"schedule": {
        "rule": "integers", "step": "x"}}}},
        r"schedule rule 'integers' for impulses\.u\.schedule: could not convert "),
    "rule-unknown": ({"boundary": _B, "impulses": {"u": {"schedule": {"rule": "nope"}}}},
                     r"unknown schedule rule 'nope' for impulses\.u\.schedule; "
                     r"registry: \['arithmetic', 'integers'\]$"),
    "rhs-width-zero": ({"boundary": _B, "rhs": {
        "f": {"name": "bump_weighted_state", "params": {"width": 0}}}},
        r"rhs 'bump_weighted_state': float division by zero$"),
    "point-values-unmatched": ({"boundary": _B, "impulses": {"u": {
        "schedule": {"points": [1.0, 2.0]},
        "I0": {"name": "point_values", "params": {"points": [1.0, 2.0], "values": [0.5]}}}}},
        r"impulse map 'point_values': zip\(\) argument 2 is shorter than argument 1$"),
    "boundary-int-overflow": ({"boundary": {**_B, "A1": 10 ** 400}},
                              r"boundary\.A1: expected a number, got 10{400}$"),
    "point-int-overflow": ({"boundary": _B, "impulses": {"u": {"schedule": {
        "points": [1, 10 ** 400]}}}},
        r"impulses\.u\.schedule\.points\[1\]: expected a number, got 10{400}$"),
    "param-int-overflow": ({"boundary": _B, "rhs": {"f": {
        "name": "constant", "params": {"value": 10 ** 400}}}},
        r"rhs 'constant': int too large to convert to float$"),
}


@pytest.mark.parametrize("doc,pattern", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_documents_fail_on_one_error_line_naming_the_path(doc, pattern, tmp_path,
                                                                    capsys):
    from impulsebvp import cli
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", str(prob), "--horizon", "5", "--mesh-spacing", "0.1",
                  "--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.match("error: " + pattern, err[0]), err


def test_the_documented_examples_load():
    doc = (Path(__file__).resolve().parents[1] / "docs" / "problem-format.md").read_text()
    examples = re.findall(r"```json\n(.*?)```", doc, flags=re.S)
    assert len(examples) == 2
    named, explicit = (load_problem(json.loads(e)) for e in examples)
    assert named.bounds is not None and named.t0 == 1.0
    assert list(explicit.v_schedule.points_below(3.5)) == [1.0, 2.0, 3.0]
    assert explicit.bounds.u_floor is None


def _registry_cases():
    """(what, entry name, document), one per parameter of every registry
    entry: that parameter is "x", and the other parameters without a default
    are 1; the spring pendulum's parameters are the PendulumParams fields."""
    docs = [
        ("rhs", RHS_REGISTRY, lambda n, ps: {"boundary": _B, "rhs": {"f": {
            "name": n, "params": ps}}}),
        ("impulse map", IMPULSE_REGISTRY, lambda n, ps: {"boundary": _B, "impulses": {
            "u": {"I0": {"name": n, "params": ps}}}}),
        ("bound family", BOUND_REGISTRY, lambda n, ps: {"boundary": _B, "bounds": {
            "Phi": {"name": n, "params": ps}}}),
        ("bound family", SEQ_BOUND_REGISTRY, lambda n, ps: {"boundary": _B, "bounds": {
            "phi_seq": {"name": n, "params": ps}}}),
        ("schedule rule", SCHEDULE_REGISTRY, lambda n, ps: {"boundary": _B, "impulses": {
            "u": {"schedule": {"rule": n, **ps}}}}),
        ("model", MODEL_REGISTRY, lambda n, ps: {"model": n, "params": ps}),
    ]
    cases = []
    for what, registry, doc in docs:
        for name, factory in registry.items():
            if name == "spring-pendulum":
                params = {f.name: f.default for f in dataclasses.fields(PendulumParams)}
            else:
                params = {k: v.default for k, v in inspect.signature(factory).parameters.items()}
            required = {k: 1.0 for k, d in params.items() if d is inspect.Parameter.empty}
            for param in params:
                cases.append(pytest.param(what, name, doc(name, {**required, param: "x"}),
                                          id=f"{what}-{name}-{param}"))
    return cases


@pytest.mark.parametrize("what,name,doc", _registry_cases())
def test_every_registry_parameter_is_converted_at_load(what, name, doc):
    with pytest.raises((KeyError, ValueError)) as exc:
        load_problem(doc)
    assert f"{what} {name!r}" in exc.value.args[0]


@pytest.mark.parametrize("key,name,param", [("Phi", "exp_decay", "rate"),
                                            ("phi_seq", "power", "power")])
def test_nan_bound_params_are_rejected(key, name, param):
    with pytest.raises(ValueError, match=rf"^bound family '{name}' for {key}: "):
        load_problem({"boundary": _B, "bounds": {key: {"name": name,
                                                       "params": {param: math.nan}}}})


_EXP_DECAY_F = {"f": {"name": "exp_decay", "params": {"amplitude": 0.5, "rate": 0.05}}}
# check on documents with one bad registry value; the pattern is its one error line
CHECK_LOAD_ERRORS = {
    "bound-param-string": ({"boundary": _B, "bounds": {
        "Phi": {"name": "constant", "params": {"value": "x"}}}},
        r"bound family 'constant' for Phi: could not convert string to float: 'x'$"),
    "rhs-width-zero": ({"boundary": _B, "rhs": {
        "f": {"name": "bump_weighted_state", "params": {"width": 0}}}},
        r"rhs 'bump_weighted_state': float division by zero$"),
    "exp-decay-bound-grows": ({"boundary": _B, "rhs": _EXP_DECAY_F, "bounds": {
        "Phi": {"name": "exp_decay", "params": {"rate": -0.05}}}},
        r"bound family 'exp_decay' for Phi: .*rate > 0.*, got -0\.05$"),
    "exp-decay-bound-flat": ({"boundary": _B, "rhs": _EXP_DECAY_F, "bounds": {
        "Phi": {"name": "exp_decay", "params": {"rate": 0}}}},
        r"bound family 'exp_decay' for Phi: .*rate > 0.*, got 0\.0$"),
}


@pytest.mark.parametrize("doc,pattern", CHECK_LOAD_ERRORS.values(), ids=CHECK_LOAD_ERRORS.keys())
def test_check_fails_at_load_on_one_error_line(doc, pattern, tmp_path, capsys):
    from impulsebvp import cli
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(doc))
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", str(prob), "--horizon", "5", "--mesh-spacing", "0.1",
                  "--samples", "500", "--ball-samples", "5", "--K", "10", "--out-dir", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.match("error: " + pattern, err[0]), err
    assert not out.exists()
