"""Dominant eigenpair synthesis by power iteration and power-policy iteration.

Power iteration repeatedly applies the killed semigroup over a fixed
horizon ``t`` and renormalizes in the sup norm:

    psi <- T psi / ||T psi||,      gamma = -log(||T psi||) / t.

Because the operator is positive, a nonnegative initial guess keeps every
iterate nonnegative, and the normalized iterates converge to the unique
nonnegative dominant eigenfunction (geometrically, at the spectral-gap
ratio).  The decay rate is horizon-invariant: eigenfunctions computed with
different horizons agree, and the eigenvalue exponentiates as exp(-gamma t).

Power-policy iteration folds a policy-improvement step into the same loop.
The default (accelerated) variant integrates the pointwise-max PDE, so each
inner time step already uses the instantaneous safest candidate input (the
quadratic regime's critical input is taken once per application and held
over its steps); the literal two-step variant (improve the policy against
the current iterate, then apply the fixed-policy operator) is kept for A/B
comparison.

Power iteration and the accelerated variant build their operator once
per call; the policy is the argmax against its last application.  The
two-step variant changes its policy, so it builds one per round, after the
zero-horizon build of :func:`~scbf.semigroup.argmax_policy` that improves
the policy, and one more such build for the final policy.  No synthesis
leaves an operator behind: every one is freed on return, none enters the
idle slot of :func:`~scbf.semigroup.propagate_optimal`, and the result
carries the step facts of the operator applied last.

Convergence is declared on the sup-norm difference of consecutive
normalized iterates.  A non-converged run is not an error: the result
carries its residual history and ``converged=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Collapse
from .grid import ScalarField, _index, interpolate, sup_norm
from .semigroup import (_NODE_BLOCK, PolicyTable, PropagationConfig, _check_specs,
                        _node_blocks, _Operator, argmax_policy, propagate)
from .systems import SystemModel

__all__ = [
    "IterationRecord",
    "EigenResult",
    "default_initial_field",
    "initial_field",
    "warm_start_field",
    "power_iteration",
    "power_policy_iteration",
    "eigen_residual",
]

_COLLAPSE_FLOOR = 1e-280


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    residual: float
    gamma_estimate: float


@dataclass
class EigenResult:
    """Converged (or partial) eigenpair with its backup policy and history.

    ``psi`` has unit sup norm, is nonnegative, and vanishes on killed
    boundary nodes; ``gamma = -log(||T_t psi||)/t`` for the reported pair.
    The last four fields describe the operator the synthesis applied last:
    candidate inputs scored per node and step (0 under a fixed policy), the
    step, the steps per application and the CFL load.  A result read back
    from files leaves them at their defaults.
    """

    gamma: float
    psi: ScalarField
    policy: PolicyTable
    history: list[IterationRecord]
    converged: bool
    horizon: float
    candidates: int = 0
    dt: float = math.nan
    steps_per_apply: int = 0
    cfl_load: float = math.nan

    @property
    def iterations(self) -> int:
        return len(self.history)


def default_initial_field(sys: SystemModel) -> ScalarField:
    """Product of per-dimension parabolic bumps, zeroed outside the interior."""
    return initial_field(sys, "bump")


def initial_field(sys: SystemModel, kind: str = "bump") -> ScalarField:
    """Named nonnegative initial guesses.

    bump     product of per-dimension bumps max(0, 1 - (2(x-c)/w)^2)
    gauss    off-center Gaussian bump (center shifted a quarter width)
    plateau  indicator of the interior node set
    """
    spec = sys.grid
    lo = np.asarray(spec.lower)
    hi = np.asarray(spec.upper)
    width = hi - lo
    center = 0.5 * (lo + hi)
    if kind == "bump":
        # One bump per axis, multiplied in in dimension order and broadcast
        # over the grid: the products an array of all node coordinates gives.
        vals = np.ones(spec.shape)
        for d in range(spec.dims):
            bump = np.maximum(0.0, 1.0 - (2.0 * (spec.coordinates(d) - center[d]) / width[d]) ** 2)
            vals *= bump.reshape((-1,) + (1,) * (spec.dims - 1 - d))
        vals = vals.ravel()
    elif kind == "gauss":
        # The exponent's terms per axis, added in dimension order and
        # broadcast over the grid: the sums an array of all node coordinates
        # gives.
        c = center + 0.25 * width
        square = np.zeros(spec.shape)
        for d in range(spec.dims):
            term = ((spec.coordinates(d) - c[d]) / width[d]) ** 2
            square += term.reshape((-1,) + (1,) * (spec.dims - 1 - d))
        vals = np.exp(-8.0 * square).ravel()
    elif kind == "plateau":
        vals = np.ones(spec.size)
    else:
        raise ValueError(f"unknown initial field kind {kind!r}")
    vals = np.where(sys.interior_mask(), vals, 0.0)
    m = np.max(np.abs(vals))
    if m == 0.0:
        raise ValueError("initial field vanished on the interior")
    return ScalarField(spec, vals / m)


def warm_start_field(field: ScalarField, sys: SystemModel) -> ScalarField:
    """Resample a field (e.g. a coarser converged barrier) onto a system's
    grid as an initial guess: interpolated, clipped nonnegative, zeroed
    outside the interior.  The nodes are interpolated in blocks of at most
    ``_NODE_BLOCK`` (:func:`~scbf.semigroup._node_blocks`), so no array of
    all node coordinates and no corner table of all nodes is formed; each
    node's value does not depend on its block."""
    if field.spec.dims != sys.grid.dims:
        raise ValueError(f"a {field.spec.dims}-dimensional field cannot start "
                         f"a {sys.grid.dims}-dimensional system")
    vals = np.empty(sys.grid.size)
    for x, at in _node_blocks(sys.grid, _NODE_BLOCK):
        vals[at] = interpolate(field, x)
    vals = np.where(sys.interior_mask(), np.maximum(vals, 0.0), 0.0)
    return ScalarField(sys.grid, vals)


def _normalized_start(sys: SystemModel, init: ScalarField) -> ScalarField:
    _check_specs(init, sys)
    vals = np.where(sys.interior_mask(), init.values, 0.0)
    if np.any(vals < 0.0):
        raise ValueError("initial field must be nonnegative")
    m = np.max(vals)
    if m <= _COLLAPSE_FLOOR:
        raise Collapse("initial field has no mass on the interior")
    return ScalarField(sys.grid, vals / m)


def _step_facts(op: _Operator) -> dict:
    """The fields of :class:`EigenResult` that describe ``op``."""
    return dict(candidates=op.candidates, dt=op.dt, steps_per_apply=op.steps, cfl_load=op.load)


def _iterate(sys, cfg, psi, apply, tol, max_iter):
    """Shared normalize-and-test loop; ``apply`` maps psi's values to T psi's."""
    history = []
    converged = False
    gamma = math.nan
    for it in range(1, max_iter + 1):
        out = ScalarField(sys.grid, apply(psi.values))
        r = sup_norm(out)
        if r <= _COLLAPSE_FLOOR:
            raise Collapse(
                f"operator annihilated the iterate at iteration {it}"
            )
        new = ScalarField(sys.grid, out.values / r)
        residual = sup_norm(ScalarField(sys.grid, new.values - psi.values))
        gamma = -math.log(r) / cfg.horizon
        history.append(IterationRecord(it, residual, gamma))
        psi = new
        if residual < tol:
            converged = True
            break
    return psi, gamma, history, converged


def _check_run(cfg: PropagationConfig, tol: float, max_iter: int, name: str):
    """The argument checks shared by the two iterations."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if _index(max_iter, "max_iter") < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if cfg.horizon <= 0:
        raise ValueError(f"{name} needs a positive horizon")


def power_iteration(sys: SystemModel, policy: PolicyTable,
                    cfg: PropagationConfig, init: ScalarField,
                    tol: float = 1e-4, max_iter: int = 500) -> EigenResult:
    """Dominant eigenpair of the fixed-policy semigroup operator."""
    _check_run(cfg, tol, max_iter, "power iteration")
    psi = _normalized_start(sys, init)
    op = _Operator(sys, cfg, policy)
    psi, gamma, history, converged = _iterate(sys, cfg, psi, op.apply, tol, max_iter)
    return EigenResult(gamma=gamma, psi=psi, policy=policy, history=history,
                       converged=converged, horizon=cfg.horizon, **_step_facts(op))


def power_policy_iteration(sys: SystemModel, cfg: PropagationConfig,
                           init_psi: ScalarField | None = None,
                           tol: float = 1e-4, max_iter: int = 500,
                           accelerated: bool = True) -> EigenResult:
    """Joint eigenpair and backup-policy synthesis.

    The accelerated variant integrates the pointwise-max PDE directly,
    scoring the box corners (or the input grid) at every step; in the
    quadratic regime the critical input is taken once per application,
    against the iterate it starts from, and held over its steps.  The
    two-step variant alternates an explicit policy improvement with a
    fixed-policy operator application.  The returned policy is the
    pointwise argmax of the generator against the final field, the
    critical input taken against it: for the accelerated variant, its last
    (unnormalized) application.
    """
    _check_run(cfg, tol, max_iter, "power-policy iteration")
    psi = _normalized_start(sys, init_psi if init_psi is not None
                            else default_initial_field(sys))
    if accelerated:
        op = _Operator(sys, cfg)
        psi, gamma, history, converged = _iterate(sys, cfg, psi, op.apply, tol, max_iter)
        policy, facts = op.policy(), _step_facts(op)
    else:
        facts = {}

        def apply(values):
            op = _Operator(sys, cfg, argmax_policy(ScalarField(sys.grid, values), sys, cfg))
            facts.update(_step_facts(op))
            return op.apply(values)

        psi, gamma, history, converged = _iterate(sys, cfg, psi, apply, tol, max_iter)
        # Against the final field, like the accelerated variant's.
        policy = argmax_policy(psi, sys, cfg)
    return EigenResult(gamma=gamma, psi=psi, policy=policy, history=history,
                       converged=converged, horizon=cfg.horizon, **facts)


def eigen_residual(result: EigenResult, sys: SystemModel,
                   cfg: PropagationConfig) -> float:
    """Independent convergence certificate: ||T_t psi - exp(-gamma t) psi||."""
    out = propagate(result.psi, sys, result.policy, cfg)
    decay = math.exp(-result.gamma * cfg.horizon)
    return sup_norm(ScalarField(sys.grid, out.values - decay * result.psi.values))
