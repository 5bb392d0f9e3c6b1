"""Monte Carlo, filter and interpolation outputs pinned bit-for-bit.

The values in ``data/pinned_sim.npz`` were recorded from the implementation
that drew each trial's whole noise block in one call and interpolated one
cell corner at a time; the ``affine*_u`` filter keys were re-recorded when
the filter became one batched path that projects the raw reference (rows
with a reference outside the box moved by at most 4.5e-16, the one-row
answers by at most 1.9e-15, to the batch values).  The ``*_a0`` keys and
the ``quadratic_*_u`` keys were re-recorded when both input-affine regimes
moved to one coefficient path with one summation order (``affine_a0`` 6 of
10 entries and ``affine_slack_a0`` 5 of 10 by at most 1.1e-16,
``quadratic_a0`` 4 of 10 by at most 4.4e-16, ``quadratic_scalar_u`` and
``quadratic_batch_u`` 3 of 60 each by at most 2.2e-16; every status and
``*_value`` key unchanged).  The ``quadratic_*_u``, ``quadratic_value``,
``quadratic_a0`` and ``quadratic_a_lin`` keys were re-recorded when the
synthesis came to take the critical input once per application, which
moved their barrier (by at most 2.5e-4, 1.1e-4, 1.1e-4 and 2.6e-5; the
statuses unchanged); on the old barrier the filter gives the old bytes.
Any rewrite of those hot paths must reproduce them exactly
(``np.array_equal``), not within a tolerance.

``PYTHONPATH=src python tests/test_pinned_sim.py KEY...`` re-records the named
keys from the current code and prints each one's max |delta|; it writes
nothing and exits 1 if a key not named would change (``rerecord.py``).  Do
that only for a deliberate change of outputs.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from scbf.grid import GridSpec, ScalarField, gradient_at, hessian_at, interpolate
from scbf.montecarlo import (
    FixedPolicyController,
    OpenLoopController,
    ScbfQpController,
    SimConfig,
    constant_reference,
    estimate_safety_curve,
    simulate,
)
from scbf.safety_filter import (
    CODE_BY_STATUS,
    FilterSpec,
    FilterStatus,
    filter_input,
    filter_input_batch,
    generator_coefficients,
    generator_value,
)
from scbf.semigroup import PolicyTable, PropagationConfig
from scbf.spectral import power_policy_iteration
from scbf.systems import make_benchmark

DATA = Path(__file__).parent / "data" / "pinned_sim.npz"
CFG = PropagationConfig(horizon=0.5)


def _states(sys, count, seed, margin=0.05):
    rng = np.random.default_rng(seed)
    lo = np.asarray(sys.grid.lower)
    hi = np.asarray(sys.grid.upper)
    out = []
    while len(out) < count:
        x = lo + (hi - lo) * (margin + (1 - 2 * margin) * rng.random(sys.n_x))
        if bool(sys.contains(x)[0]):
            out.append(x)
    return np.array(out), rng


def _bicycle_policy(bike):
    """A smooth node policy that varies across the heading seam."""
    nodes = bike.grid.nodes()
    steer = np.sin(nodes[:, 2]) * 0.8 + 0.1 * nodes[:, 0]
    accel = np.cos(nodes[:, 2] + 0.3 * nodes[:, 1]) * 0.5
    return PolicyTable(bike.grid, np.stack([steer, accel], axis=1),
                       bike.input_lower, bike.input_upper)


def _filter_specs():
    di = make_benchmark("di_omni", grid_counts=(41, 81))
    res_di = power_policy_iteration(di, CFG, tol=1e-4)
    noise = make_benchmark("di_input_noise", grid_counts=(21, 41))
    res_noise = power_policy_iteration(noise, CFG, tol=1e-4)
    wig = make_benchmark("wig_aircraft", grid_counts=(9, 9, 9))
    res_wig = power_policy_iteration(
        wig, PropagationConfig(horizon=0.5, candidate_points=5), max_iter=5)
    return di, res_di, {
        "affine": FilterSpec(di, res_di),
        "affine_slack": FilterSpec(di, res_di, gamma=1.25 * res_di.gamma),
        "quadratic": FilterSpec(noise, res_noise, gamma=1.3 * res_noise.gamma),
        "nonaffine": FilterSpec(wig, res_wig, gamma=1.2 * res_wig.gamma),
    }


def _curves(di, res_di, specs):
    x0 = di.grid.nodes()[int(np.argmax(res_di.psi.values))]
    out = {}
    sim = SimConfig(t_end=1.5, trials=700, seed=17,
                    controller=FixedPolicyController(res_di.policy))
    out["di_omni_fixed"] = estimate_safety_curve(di, sim, x0).alive_counts
    sim = SimConfig(t_end=0.6, trials=150, seed=18,
                    controller=ScbfQpController(specs["affine_slack"],
                                                constant_reference([0.5])))
    out["di_omni_qp"] = estimate_safety_curve(di, sim, x0).alive_counts
    brown = make_benchmark("brownian_1d")
    sim = SimConfig(t_end=1.0, trials=1500, seed=19,
                    controller=OpenLoopController([0.0]))
    out["brownian_open"] = estimate_safety_curve(brown, sim, [0.0]).alive_counts
    bike = make_benchmark("bicycle", grid_counts=(13, 13, 12, 7))
    sim = SimConfig(t_end=2.0, trials=300, seed=20, dt=2e-3,
                    controller=FixedPolicyController(_bicycle_policy(bike)))
    out["bicycle_fixed"] = estimate_safety_curve(
        bike, sim, np.array([1.5, 0.0, 3.0, 1.0])).alive_counts
    return out


def _trajectory(di, res_di):
    sim = SimConfig(t_end=1.0, trials=1, seed=23,
                    controller=FixedPolicyController(res_di.policy))
    traj = simulate(di, sim, np.array([0.5, 0.5]), trial=3)
    return {"traj_states": traj.states, "traj_inputs": traj.inputs,
            "traj_alive": traj.alive}


def _filters(specs):
    out = {}
    for name, spec in specs.items():
        sys = spec.sys
        X, rng = _states(sys, 60, seed=len(name))
        span = sys.input_upper - sys.input_lower
        R = sys.input_lower - 0.25 * span + 1.5 * span * rng.random((60, sys.n_u))
        scalar = [filter_input(spec, x, r) for x, r in zip(X, R)]
        out[f"{name}_scalar_u"] = np.array([u for u, _ in scalar])
        out[f"{name}_scalar_status"] = np.array([CODE_BY_STATUS[s] for _, s in scalar])
        U, codes = filter_input_batch(spec, X, R)
        out[f"{name}_batch_u"] = U
        out[f"{name}_batch_status"] = codes
        out[f"{name}_value"] = np.array(
            [generator_value(spec, x, np.stack([r, 0.5 * r]))[k]
             for x, r in zip(X[:10], R[:10]) for k in range(2)])
        if name != "nonaffine":
            coef = [generator_coefficients(spec, x) for x in X[:10]]
            out[f"{name}_a0"] = np.array([c[0] for c in coef])
            out[f"{name}_a_lin"] = np.array([c[1] for c in coef])
    return out


def _interpolation():
    spec = GridSpec([-1.0, 0.0, -2.0], [1.0, 2 * math.pi, 1.0], (7, 9, 5),
                    periodic=[False, True, False])
    rng = np.random.default_rng(29)
    field = ScalarField(spec, rng.normal(size=spec.size))
    lo = np.asarray(spec.lower)
    hi = np.asarray(spec.upper)
    X = lo + (hi - lo) * rng.random((50, 3))
    X[:5, 1] += 2 * math.pi * np.arange(-2, 3)   # wrapped periodic coordinates
    X[5] = lo                                    # box corners
    X[6] = [hi[0], 0.0, hi[2]]
    return {"interp": interpolate(field, X), "grad": gradient_at(field, X),
            "hess": hessian_at(field, X), "interp_single": interpolate(field, X[7])}


def _record():
    di, res_di, specs = _filter_specs()
    arrays = {}
    arrays.update(_curves(di, res_di, specs))
    arrays.update(_trajectory(di, res_di))
    arrays.update(_filters(specs))
    arrays.update(_interpolation())
    return arrays


@pytest.fixture(scope="module")
def pinned():
    with np.load(DATA) as data:
        return dict(data)


@pytest.fixture(scope="module")
def synthesized():
    return _filter_specs()


def _assert_pinned(pinned, fresh):
    for key, value in fresh.items():
        value = np.asarray(value)
        assert np.array_equal(value, pinned[key]), key
        # bit-for-bit, so the sign of a zero counts too
        assert value.dtype == pinned[key].dtype and value.tobytes() == pinned[key].tobytes(), key


def test_survival_counts(pinned, synthesized):
    _assert_pinned(pinned, _curves(*synthesized))


def test_trajectory(pinned, synthesized):
    di, res_di, _ = synthesized
    _assert_pinned(pinned, _trajectory(di, res_di))


def test_filter_outputs(pinned, synthesized):
    fresh = _filters(synthesized[2])
    _assert_pinned(pinned, fresh)
    # Each regime reaches the projection and the fallback ladder; rows that
    # end in ``infeasible_fallback`` evaluate the backup policy on the way.
    wanted = {CODE_BY_STATUS[s] for s in (FilterStatus.UNMODIFIED, FilterStatus.MODIFIED,
                                         FilterStatus.INFEASIBLE_FALLBACK)}
    for key, codes in fresh.items():
        if key.endswith("_status"):
            assert wanted <= set(np.unique(codes).tolist()), key


def test_interpolation(pinned):
    _assert_pinned(pinned, _interpolation())


if __name__ == "__main__":
    import sys

    from rerecord import main

    sys.exit(main(DATA, _record(), sys.argv[1:], np.savez))
