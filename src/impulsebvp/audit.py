"""Numerical audit of the existence theorem's hypotheses.

The theorem needs (a) the right-hand sides dominated by integrable
functions Phi_rho, Psi_rho on every weighted state ball of radius rho,
(b) the impulse maps dominated by summable sequences, and (c) a radius
rho2 such that the operator maps a norm ball into the rho2-ball.  None of
these are decidable exactly for black-box callables, so this module audits
them by seeded random sampling plus truncated sums/integrals with explicit
tail accounting.  The bounds themselves are problem data
(``model.CaratheodoryBounds``, re-exported here).

On the rho/rho2 coupling: the bound chain proves that the image of the
rho-ball lies in the rho2-ball computed *from the bounds at rho*.  A
self-consistent invariant ball (rho2 evaluated at rho = rho2 staying below
rho2) need not exist when the dominators grow superlinearly in rho, as for
the spring pendulum.  ``check_ball_invariance`` therefore lets the caller
pick the sampling radius; sampling at the domination radius checks the
statement the bound chain actually supports, while the default (sampling
at rho2) probes the literal self-mapping.
"""

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .fnspace import (PiecewiseC1Function, SolutionPair, _require_domain, _require_positive,
                      norm_deriv_sup, norm_weighted_sup, norm_X)
from .kernel import boundary_weight_sup, kernel_weight_sup
from .model import CaratheodoryBounds, ImpulsiveCoupledBVP
from .operator import (OperatorPlan, QuadratureConfig, _gauss_panels, apply_T,
                       problem_meshes)

__all__ = [
    "CaratheodoryBounds",
    "HypothesisReport",
    "check_domination",
    "check_impulse_bounds",
    "compute_rho2",
    "compute_rho2_entries",
    "check_ball_invariance",
    "sample_ball_pair",
    "run_audit",
]


@dataclass
class HypothesisReport:
    """Everything the audit produced, serializable to JSON."""

    rho: float
    rho1: float
    rho2: float
    rho2_entries: dict
    domination_violations: list
    impulse_violations: list
    summability_partial_sums: dict
    summability_tails: dict
    ball_tested: int
    ball_inside: int
    verdicts: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self):
        return {**asdict(self), "all_pass": self.all_pass}

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def summary(self) -> str:
        lines = [
            "hypothesis audit",
            f"  rho (domination radius)     : {self.rho:g}",
            f"  rho1 (given ball radius)    : {self.rho1:g}",
            f"  rho2 (image ball radius)    : {self.rho2:.6g}",
        ]
        for name, ok in self.verdicts.items():
            lines.append(f"  {name:<28}: {'pass' if ok else 'FAIL'}")
        lines.append(f"  ball samples inside         : "
                     f"{self.ball_inside}/{self.ball_tested}")
        return "\n".join(lines)


_REL_SLACK = 1e-12  # forgive float noise in <= comparisons


def check_domination(p: ImpulsiveCoupledBVP, b: CaratheodoryBounds, rho,
                     samples, seed, horizon=QuadratureConfig.horizon):
    """Sample the rho-ball state box and check |f| <= Phi_rho, |h| <= Psi_rho.

    States are drawn with |x|, |y| < rho (1+t) and |z|, |w| < rho; when the
    bounds carry a ``u_floor``, x is drawn from [u_floor, rho (1+t)) so the
    h-dominator's domain assumption holds.  Returns the violation list
    (empty = pass on the sample set); non-finite dominator values and NaN
    right-hand-side values count as violations.  A ValueError names
    ``u_floor`` when no sampled time admits a state above it.
    """
    _require_positive(rho=rho, samples=samples)
    _require_domain(p.t0, horizon)
    rng = np.random.default_rng(seed)
    t = rng.uniform(p.t0, horizon, size=samples)
    amp = rho * (1.0 + t)
    if b.u_floor is not None:
        # restrict to the admissible slab [u_floor, rho(1+t)); drop times
        # where it is empty
        keep = amp > b.u_floor
        if not keep.any():
            raise ValueError(f"u_floor must lie below rho (1 + t) at some sampled t in "
                             f"[{p.t0:g}, {horizon:g}), got u_floor = {b.u_floor!r}, "
                             f"rho = {rho!r}")
        t, amp = t[keep], amp[keep]
        x = rng.uniform(b.u_floor, amp)
    else:
        x = rng.uniform(-amp, amp)
    y = rng.uniform(-amp, amp)
    z = rng.uniform(-rho, rho, size=t.size)
    w = rng.uniform(-rho, rho, size=t.size)

    out = []
    for name, fn, dom in (("f", p.f, b.Phi), ("h", p.h, b.Psi)):
        vals = np.abs(fn(t, x, y, z, w))
        cap = np.asarray(dom(rho, t), dtype=float)
        bad = ~np.isfinite(cap) | ~(vals <= cap * (1.0 + _REL_SLACK) + _REL_SLACK)
        for i in np.nonzero(bad)[0]:
            out.append({"rhs": name, "t": float(t[i]), "x": float(x[i]),
                        "y": float(y[i]), "z": float(z[i]), "w": float(w[i]),
                        "abs_value": float(vals[i]), "bound": float(cap[i])})
    return out


def _sequences(b: CaratheodoryBounds):
    """The four impulse-bound sequences with their closed-form tails (or
    None), by report key."""
    return {"phi": (b.phi_seq, b.seq_tail_phi), "psi": (b.psi_seq, b.seq_tail_psi),
            "phij": (b.phij_seq, b.seq_tail_phij), "theta": (b.thetaj_seq, b.seq_tail_theta)}


def _with_tails(rows, rho):
    """From rows key -> (truncated total, tail (rho, cut) -> bound or None,
    cut): each total plus its tail, and whether a tail was missing, which
    makes those totals lower estimates."""
    return ({key: total if tail is None else total + float(tail(rho, cut))
             for key, (total, tail, cut) in rows.items()},
            any(tail is None for _, tail, _ in rows.values()))


def check_impulse_bounds(p: ImpulsiveCoupledBVP, b: CaratheodoryBounds, rho,
                         K, seed=0, samples_per_point=8):
    """Check |I0k| <= phi_k, |I1k| <= psi_k (and the J analogues) for k <= K,
    and accumulate the bound sequences' partial sums with tail estimates.
    A NaN map value counts as a violation.

    Returns (violations, partial_sums, tails); ``partial_sums`` maps each
    sequence name to its K-term sum, ``tails`` to a bound on the rest (from
    the closed-form ``seq_tail_*`` when available, else None).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    rng = np.random.default_rng(seed)
    k = np.arange(1, K + 1, dtype=float)
    violations = []

    families = (("I0", p.u_schedule, p.I0, "phi"), ("I1", p.u_schedule, p.I1, "psi"),
                ("J0", p.v_schedule, p.J0, "phij"), ("J1", p.v_schedule, p.J1, "theta"))
    sequences = _sequences(b)
    partial_sums = {}
    tails = {}
    for name, sched, mp, key in families:
        seq, tail_fn = sequences[key]
        caps = np.asarray(seq(rho, k), dtype=float)
        partial_sums[key] = float(np.sum(caps))
        tails[key] = float(tail_fn(rho, K)) if tail_fn is not None else None

        # bound check by sampling the admissible (x, y) box at each point
        pts = sched.first(K)
        if pts.size == 0:
            continue
        kk = np.arange(1, pts.size + 1)
        for _ in range(samples_per_point):
            a = rng.uniform(-1.0, 1.0, size=pts.size) * rho * (1.0 + pts)
            bb = rng.uniform(-rho, rho, size=pts.size)
            vals = np.abs(mp(pts, a, bb))
            cap_k = caps[:pts.size]
            bad = ~(vals <= cap_k * (1.0 + _REL_SLACK) + _REL_SLACK)
            for i in np.nonzero(bad)[0]:
                violations.append({"family": name, "k": int(kk[i]),
                                   "point": float(pts[i]), "a": float(a[i]),
                                   "b": float(bb[i]), "abs_value": float(vals[i]),
                                   "bound": float(cap_k[i])})
    return violations, partial_sums, tails


def compute_rho2_entries(p: ImpulsiveCoupledBVP, b: CaratheodoryBounds, rho1,
                         rho, K, q: QuadratureConfig):
    """The five candidate radii whose max is rho2, plus tail-availability flags.

    Entries: rho1; K1 + sum(phi) + 2 sum(psi) + int Q Phi;
    K2 + sum(phij) + 2 sum(theta) + int Q Psi; |B1| + 2 sum(psi) + int Phi;
    |B2| + 2 sum(theta) + int Psi.  Sums are truncated at K and integrals at
    the horizon, each extended by its closed-form tail when available;
    ``lower_estimate`` is True when some tail was unavailable.  The four
    integrals share one set of uniform Gauss panels on [t0, H] (at least
    64, at most ``mesh_spacing`` wide) and one evaluation of each dominator.
    """
    K1 = boundary_weight_sup(p.boundary.A1, p.boundary.B1)
    K2 = boundary_weight_sup(p.boundary.A2, p.boundary.B2)
    k = np.arange(1, K + 1, dtype=float)
    rows = {key: (float(np.sum(np.asarray(seq(rho, k), dtype=float))), tail, K)
            for key, (seq, tail) in _sequences(b).items()}

    n = max(64, int(math.ceil((q.horizon - p.t0) / q.mesh_spacing)))
    spts, wts = _gauss_panels(np.linspace(p.t0, q.horizon, n + 1))
    flat, w = spts.T.ravel(), wts.T.ravel()  # time order
    phi = np.asarray(b.Phi(rho, flat), dtype=float)
    psi = np.asarray(b.Psi(rho, flat), dtype=float)
    weight = kernel_weight_sup(flat)
    for key, vals, tail in (("qphi", phi * weight, b.tail_integral_f),
                            ("qpsi", psi * weight, b.tail_integral_h),
                            ("Phi", phi, b.tail_integral_f), ("Psi", psi, b.tail_integral_h)):
        rows[key] = float((w * vals).sum()), tail, q.horizon
    s, lower_estimate = _with_tails(rows, rho)

    entries = {
        "rho1": float(rho1),
        "u_weighted": K1 + s["phi"] + 2.0 * s["psi"] + s["qphi"],
        "v_weighted": K2 + s["phij"] + 2.0 * s["theta"] + s["qpsi"],
        "u_deriv": abs(p.boundary.B1) + 2.0 * s["psi"] + s["Phi"],
        "v_deriv": abs(p.boundary.B2) + 2.0 * s["theta"] + s["Psi"],
    }
    return entries, lower_estimate


def compute_rho2(p: ImpulsiveCoupledBVP, b: CaratheodoryBounds, rho1, rho, K,
                 q: QuadratureConfig) -> float:
    """The image-ball radius: max of the five entries (monotone in every
    bound).  When tails are missing the result is a lower estimate; use
    :func:`compute_rho2_entries` to see the flag."""
    entries, _ = compute_rho2_entries(p, b, rho1, rho, K, q)
    return max(entries.values())


def _smooth_random(rng, t, n_modes=3, decay=8.0):
    """A smooth random function with analytic derivative and settling slope.

    x(t) = a0 + a1 t + sum c_m exp(-(t-t0)/decay) sin(w_m t + phase); the
    envelope makes x'(t) converge so the affine-tail representation is
    faithful.
    """
    t0 = t[0]
    a0 = rng.uniform(-1.0, 1.0)
    a1 = rng.uniform(-1.0, 1.0)
    vals = a0 + a1 * t
    ders = np.full_like(t, a1)
    env = np.exp(-(t - t0) / decay)
    for _ in range(n_modes):
        c = rng.uniform(-1.0, 1.0)
        w = rng.uniform(0.2, 3.0)
        ph = rng.uniform(0.0, 2.0 * np.pi)
        sine = np.sin(w * t + ph)
        vals = vals + c * env * sine
        ders = ders + c * env * (w * np.cos(w * t + ph) - sine / decay)
    return vals, ders, a1


def _rescale_to_ball(mesh, vals, ders, tail, target):
    x = PiecewiseC1Function(mesh=mesh, values=vals, derivs=ders, tail_slope=tail)
    norm = max(norm_weighted_sup(x), norm_deriv_sup(x))
    scale = 0.0 if norm == 0.0 else target / norm
    return PiecewiseC1Function(mesh=mesh, values=vals * scale,
                               derivs=ders * scale, tail_slope=tail * scale)


def _floored_component(mesh, rng, floor, radius):
    """Random function with x >= floor and ||x||_0, ||x'||_1 <= radius."""
    t = mesh.nodes
    if floor / (1.0 + mesh.t0) > radius:
        raise ValueError("u_floor is incompatible with the sampling radius")
    raw_v, raw_d, _ = _smooth_random(rng, t)
    sq_v = raw_v * raw_v
    sq_d = 2.0 * raw_v * raw_d
    # amplitude limits from the weighted value cap and the derivative cap
    head = radius * (1.0 + t) - floor
    with np.errstate(divide="ignore"):
        a_val = np.min(np.where(sq_v > 0, head / np.where(sq_v > 0, sq_v, 1.0), np.inf))
    d_max = float(np.max(np.abs(sq_d)))
    a_der = math.inf if d_max == 0.0 else radius / d_max
    amp = min(a_val, a_der)
    if not math.isfinite(amp):
        amp = 0.0
    amp *= rng.uniform(0.2, 0.9)
    return PiecewiseC1Function(mesh=mesh, values=floor + amp * sq_v,
                               derivs=amp * sq_d, tail_slope=0.0)


def sample_ball_pair(p: ImpulsiveCoupledBVP, qc: QuadratureConfig, radius,
                     rng, u_floor=None, meshes=None) -> SolutionPair:
    """Draw a random pair with ||(u,v)||_X <= radius on the problem meshes.

    Components are smooth random Hermite data rescaled into the ball; with
    ``u_floor`` the first component additionally stays >= u_floor.
    ``meshes`` is the (u, v) mesh pair of ``problem_meshes(p, qc)`` when
    the caller already has it.
    """
    mu, mv = problem_meshes(p, qc) if meshes is None else meshes
    if u_floor is not None:
        u = _floored_component(mu, rng, u_floor, radius)
    else:
        vals, ders, tail = _smooth_random(rng, mu.nodes)
        u = _rescale_to_ball(mu, vals, ders, tail, radius * rng.uniform(0.3, 0.95))
    vals, ders, tail = _smooth_random(rng, mv.nodes)
    v = _rescale_to_ball(mv, vals, ders, tail, radius * rng.uniform(0.3, 0.95))
    return SolutionPair(u=u, v=v)


def check_ball_invariance(p: ImpulsiveCoupledBVP, b: Optional[CaratheodoryBounds],
                          rho2, qc: QuadratureConfig, samples, seed,
                          sample_radius=None):
    """Apply T to random ball elements and count images inside the rho2-ball.

    ``sample_radius`` defaults to rho2 (the literal self-mapping probe);
    pass the domination radius rho instead to check the inclusion the bound
    chain guarantees.  Failures are reported through the counts, not
    raised: they indicate bounds too small or truncation too coarse rather
    than theorem failure.
    """
    if samples < 1:
        raise ValueError(f"ball-invariance samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    radius = rho2 if sample_radius is None else sample_radius
    floor = b.u_floor if b is not None else None
    plan = OperatorPlan.build(p, qc)
    meshes = plan.u.mesh, plan.v.mesh
    inside = 0
    tested = 0
    for _ in range(samples):
        s = sample_ball_pair(p, qc, radius, rng, u_floor=floor, meshes=meshes)
        image, _ = apply_T(p, s, qc, plan)
        tested += 1
        if norm_X(image) <= rho2 * (1.0 + _REL_SLACK):
            inside += 1
    return tested, inside


def run_audit(p: ImpulsiveCoupledBVP, b: CaratheodoryBounds, rho, rho1, K,
              qc: QuadratureConfig, samples=200, seed=0,
              ball_samples=None, sample_at_rho=True) -> HypothesisReport:
    """Run the full audit pipeline and assemble a :class:`HypothesisReport`.

    With ``sample_at_rho`` (default) the ball check draws from the rho-ball,
    matching the coupling the bound chain supports; otherwise it draws from
    the rho2-ball.  ``rho`` must be finite and positive, ``rho1`` finite
    and >= 0.
    """
    _require_positive(rho=rho)
    if not (math.isfinite(rho1) and rho1 >= 0):
        raise ValueError(f"rho1 must be finite and >= 0, got {rho1!r}")
    dom = check_domination(p, b, rho, samples, seed, horizon=qc.horizon)
    imp, partial, tails = check_impulse_bounds(p, b, rho, K, seed=seed + 1)
    entries, lower = compute_rho2_entries(p, b, rho1, rho, K, qc)
    rho2 = max(entries.values())
    nball = ball_samples if ball_samples is not None else max(20, samples // 10)
    tested, inside = check_ball_invariance(
        p, b, rho2, qc, nball, seed + 2,
        sample_radius=rho if sample_at_rho else None)
    verdicts = {
        "domination": len(dom) == 0,
        "impulse_bounds": len(imp) == 0,
        "summability_tails_known": all(v is not None for v in tails.values()),
        "rho2_is_upper_bound": not lower,
        "ball_invariance": inside == tested,
    }
    return HypothesisReport(
        rho=float(rho), rho1=float(rho1), rho2=float(rho2),
        rho2_entries={k: float(v) for k, v in entries.items()},
        domination_violations=dom,
        impulse_violations=imp,
        summability_partial_sums=partial,
        summability_tails=tails,
        ball_tested=tested, ball_inside=inside,
        verdicts=verdicts,
    )
