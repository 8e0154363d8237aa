"""Fixed-point solver and solution verifier.

The existence theory behind the operator is non-constructive (compactness
plus a fixed-point theorem), so no iteration is guaranteed to converge.
Non-convergence is a first-class outcome: each step is one mixing step
(damped Picard, optionally Anderson-accelerated) on the flat iterate, the
residual is the X-norm of its flat difference to its image, and the
lowest-residual iterate is returned with diagnostics either way.  A
non-finite image raises EvaluationError naming T1/T2, time and iteration.

``verify_residuals`` is deliberately independent of the solver path: it
reconstructs second derivatives from the stored first derivatives (which
the operator provides analytically), compares them with the right-hand
sides, and checks jumps and boundary data using only the problem and the
candidate solution.
"""

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .fnspace import SolutionPair, _require_positive, constant_fn, norm_X, slot_sides
from .model import ImpulsiveCoupledBVP
from .operator import (EvaluationError, OperatorPlan, QuadratureConfig,
                       TruncationReport, _gauss_panels, apply_T, problem_meshes)

__all__ = ["SolverConfig", "SolveDiagnostics", "ResidualReport",
           "solve", "verify_residuals", "initial_pair"]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration parameters.

    ``damping`` mixes the update as (1 - damping) * s + damping * T(s);
    damping 1 with anderson_depth 0 is pure Picard and reproduces repeated
    operator composition bitwise.  ``initial_guess`` is one of
    "affine_boundary" (the impulse-free zero-RHS fixed point A + B t),
    "zero", or a user-supplied :class:`SolutionPair` on matching meshes.
    """

    max_iter: int = 50
    tol: float = 1e-8
    damping: float = 1.0
    anderson_depth: int = 0
    initial_guess: Union[str, SolutionPair] = "affine_boundary"

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        _require_positive(tol=self.tol)
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.anderson_depth < 0:
            raise ValueError("anderson_depth must be >= 0")


@dataclass
class SolveDiagnostics:
    iterations: int
    residual_history: list
    converged: bool
    truncation: TruncationReport
    contraction_estimate: float

    def to_dict(self):
        est = self.contraction_estimate
        return {
            "iterations": self.iterations,
            "residual_history": [float(r) for r in self.residual_history],
            "converged": self.converged,
            "truncation": self.truncation.to_dict(),
            "contraction_estimate": est if math.isfinite(est) else None,
        }


@dataclass
class ResidualReport:
    """How well a candidate pair satisfies the equations, jumps, and data.

    ``ode_residual_sup`` holds the per-equation sup of |x'' - rhs| over
    the interior smooth-piece nodes whose difference stencil holds no
    impulse time of the other component; ``jump_residual_sup`` the per-family sup
    of |registered jump - impulse-map value at the left limits|;
    ``boundary_residuals`` the anchors (u at t0, v at t0, u' at H, v' at H).
    The left anchors compare against the representation's value at t0,
    which reduces to |u(0) - A1| when t0 = 0.
    """

    ode_residual_sup: tuple
    jump_residual_sup: tuple
    boundary_residuals: tuple

    def to_dict(self):
        return {
            "ode_residual_sup": {"u": self.ode_residual_sup[0],
                                 "v": self.ode_residual_sup[1]},
            "jump_residual_sup": {"I0": self.jump_residual_sup[0],
                                  "I1": self.jump_residual_sup[1],
                                  "J0": self.jump_residual_sup[2],
                                  "J1": self.jump_residual_sup[3]},
            "boundary_residuals": {"u_at_t0": self.boundary_residuals[0],
                                   "v_at_t0": self.boundary_residuals[1],
                                   "u_deriv_at_H": self.boundary_residuals[2],
                                   "v_deriv_at_H": self.boundary_residuals[3]},
        }

    @property
    def max_jump_residual(self):
        return max(self.jump_residual_sup)

    @property
    def max_ode_residual(self):
        return max(self.ode_residual_sup)


def initial_pair(p: ImpulsiveCoupledBVP, qc: QuadratureConfig, kind="affine_boundary"):
    """Build the starting iterate on the problem meshes."""
    return _start_pair(p, *problem_meshes(p, qc), kind)


def _start_pair(p: ImpulsiveCoupledBVP, mu, mv, kind):
    """``initial_pair`` on the given u and v meshes.  A user-supplied pair
    is returned as it is; the operator plan checks its meshes."""
    if isinstance(kind, SolutionPair):
        return kind
    if kind == "affine_boundary":
        return SolutionPair(u=constant_fn(mu, p.boundary.A1, p.boundary.B1),
                            v=constant_fn(mv, p.boundary.A2, p.boundary.B2))
    if kind == "zero":
        return SolutionPair(u=constant_fn(mu, 0.0, 0.0),
                            v=constant_fn(mv, 0.0, 0.0))
    raise ValueError(f"unknown initial guess {kind!r}")


def _flatten(s: SolutionPair):
    return np.concatenate([s.u.values, s.u.derivs, [s.u.tail_slope],
                           s.v.values, s.v.derivs, [s.v.tail_slope]])


def _unflatten(z, template: SolutionPair):
    u, v = template.u, template.v
    nu, nv = u.values.size, v.values.size
    au, bu, tu, av, bv, tv = np.split(z, np.cumsum([nu, nu, 1, nv, nv]))
    return SolutionPair(u=replace(u, values=au, derivs=bu, tail_slope=float(tu[0])),
                        v=replace(v, values=av, derivs=bv, tail_slope=float(tv[0])))


def _contraction_estimate(history):
    ratios = [b / a for a, b in zip(history, history[1:]) if a > 0 and math.isfinite(b / a)]
    if not ratios:
        return math.nan
    tail = ratios[-3:]
    return float(np.median(tail))


def _mix(zs, gs, damping):
    """Next flat iterate from flat iterates ``zs`` and images ``gs``, newest last:
    (1 - damping) z + damping g (g for damping 1), Anderson-mixed over the history."""
    z, g = zs[-1], gs[-1]
    m = len(zs) - 1  # Anderson mixing depth of this step
    if m > 0:
        F = np.stack([(gs[-i] - zs[-i]) - (gs[-i - 1] - zs[-i - 1])
                      for i in range(1, m + 1)], axis=1)
        dZ = np.stack([zs[-i] - zs[-i - 1] for i in range(1, m + 1)], axis=1)
        dG = np.stack([gs[-i] - gs[-i - 1] for i in range(1, m + 1)], axis=1)
        gamma, *_ = np.linalg.lstsq(F, g - z, rcond=None)
        z, g = z - dZ @ gamma, g - dG @ gamma
    elif damping == 1.0:
        return g
    return (1.0 - damping) * z + damping * g


def solve(p: ImpulsiveCoupledBVP, sc: SolverConfig, qc: QuadratureConfig):
    """Iterate s <- (1 - damping) s + damping T(s) until ||T(s) - s||_X <= tol.

    Returns ``(pair, diagnostics)``: the lowest-residual iterate, whose
    residual was measured, so re-evaluating the operator on it reproduces
    that residual.  On convergence that is the last iterate.
    Non-convergence is reported, not raised.  Evaluation failures inside
    the operator propagate with the iteration index attached.
    """
    plan = OperatorPlan.build(p, qc)
    s = _start_pair(p, plan.u.mesh, plan.v.mesh, sc.initial_guess)
    z = _flatten(s)  # s flat; each later s is unflattened from its z
    history = []
    best, best_res, best_report = None, math.inf, None
    # flat iterates / operator images, newest last; depth 0 keeps one pair
    zs, gs = deque(maxlen=sc.anderson_depth + 1), deque(maxlen=sc.anderson_depth + 1)

    for it in range(1, sc.max_iter + 1):
        try:
            Ts, report = apply_T(p, s, qc, plan)
        except EvaluationError as exc:
            exc.location["iteration"] = it
            raise
        zs.append(z)
        gs.append(_flatten(Ts))
        del Ts  # copied into gs: free its arrays before the next application
        res = norm_X(_unflatten(gs[-1] - zs[-1], s))
        history.append(res)
        if res < best_res:
            best, best_res, best_report = s, res, report
        if res <= sc.tol:
            break
        z = _mix(zs, gs, sc.damping)
        s = _unflatten(z, s)

    return best, SolveDiagnostics(iterations=len(history), residual_history=history,
                                  converged=best_res <= sc.tol, truncation=best_report,
                                  contraction_estimate=_contraction_estimate(history))


def _plain_rhs_integrals(p: ImpulsiveCoupledBVP, s: SolutionPair):
    """(integral_{t0}^{H} f ds, integral_{t0}^{H} h ds) with the arguments
    (s, u, v, u', v') on the panels of the pair's one grid, from one
    evaluation of u, v, u', v' at the Gauss points."""
    spts, wts = _gauss_panels(s.u.mesh.grid)
    w = wts.T.ravel()
    args = _rhs_args(s, spts.T.ravel())  # time order
    return float((w * p.f(*args)).sum()), float((w * p.h(*args)).sum())


def _rhs_args(s: SolutionPair, t):
    """(t, u, v, u', v') at times t, one evaluation pass per component."""
    u, du = s.u.value_and_deriv(t)
    v, dv = s.v.value_and_deriv(t)
    return t, u, v, du, dv


def _ode_residual(fn, x, s: SolutionPair):
    """sup over interior smooth-piece nodes of |x'' - fn|, with x'' from
    central differences of the stored first derivatives.  A node whose
    stencil (t_{i-1}, t_{i+1}) holds an impulse time of the other component
    is skipped: x'' jumps there as soon as fn depends on that component."""
    # pieces end on the left slot of a doubled node and restart on its right slot
    interior = slot_sides(x.mesh) == ""
    interior[[0, -1]] = False
    i = np.flatnonzero(interior)
    t, dd = x.mesh.nodes, x.derivs
    # x's own impulse times never lie inside an interior node's stencil
    jumps = np.union1d(s.u.mesh.impulse_times, s.v.mesh.impulse_times)
    i = i[np.searchsorted(jumps, t[i - 1], side="right")
          == np.searchsorted(jumps, t[i + 1], side="left")]
    if i.size == 0:
        return 0.0
    second = (dd[i + 1] - dd[i - 1]) / (t[i + 1] - t[i - 1])
    rhs = fn(*_rhs_args(s, t[i]))
    return float(np.max(np.abs(second - rhs)))


def _jump_residuals(x, m0, m1):
    """(value-jump residual, derivative-jump residual, sum of the wanted
    derivative jumps) over x's impulse nodes."""
    pts = x.mesh.impulse_times
    if pts.size == 0:
        return 0.0, 0.0, 0.0
    a, b = x.left_limits_at(pts)
    want0, want1 = m0(pts, a, b), m1(pts, a, b)
    hi = x.mesh.right_slot[x.mesh.doubled_nodes()]
    dv = x.values[hi] - a
    dd = x.derivs[hi] - b
    return (float(np.max(np.abs(dv - want0))), float(np.max(np.abs(dd - want1))),
            float(np.sum(want1)))


def verify_residuals(p: ImpulsiveCoupledBVP, s: SolutionPair) -> ResidualReport:
    """Check a candidate pair against the equations, jumps, and boundary data.

    Uses only the problem and the pair; never solver state.  The pair lies
    on one grid (``SolutionPair`` requires it), whose intervals are the
    panels of the rhs integrals.  The left boundary anchors are
    |x(t0) - (A + B t0 - t0 (sum of derivative jumps + integral of the
    rhs))|, which is exactly |x(0) - A| when t0 = 0.
    At t0 = 0 the integrals, weighted by zero, are not evaluated, so a rhs
    that is non-finite only at their Gauss points does not turn those
    anchors into NaN; the ODE residual still evaluates f and h at every
    interior node.
    """
    res_u = _ode_residual(p.f, s.u, s)
    res_v = _ode_residual(p.h, s.v, s)

    j_i0, j_i1, s1u = _jump_residuals(s.u, p.I0, p.I1)
    j_j0, j_j1, s1v = _jump_residuals(s.v, p.J0, p.J1)

    t0 = s.u.mesh.t0
    int_f, int_h = _plain_rhs_integrals(p, s) if t0 != 0.0 else (0.0, 0.0)
    anchor_u = p.boundary.A1 + p.boundary.B1 * t0 - t0 * (s1u + int_f)
    anchor_v = p.boundary.A2 + p.boundary.B2 * t0 - t0 * (s1v + int_h)
    boundary = (
        abs(float(s.u.values[0]) - anchor_u),
        abs(float(s.v.values[0]) - anchor_v),
        abs(float(s.u.derivs[-1]) - p.boundary.B1),
        abs(float(s.v.derivs[-1]) - p.boundary.B2),
    )
    return ResidualReport(
        ode_residual_sup=(res_u, res_v),
        jump_residual_sup=(j_i0, j_i1, j_j0, j_j1),
        boundary_residuals=boundary,
    )
