"""Stencil steps in 3 and 4 dimensions pinned bit-for-bit.

The values in ``data/pinned_optimal.npz`` were recorded from the stencil
that padded every dimension with a ghost layer.  They cover the three
candidate regimes of ``propagate_optimal`` (box corners on the 4-D
``bicycle`` with its periodic heading and sdf obstacle, the candidate grid
on ``wig_aircraft``, and the corners plus the critical input on
``di_input_noise``, and on a 3-D system whose noise Gram has an
input-dependent cross entry, so the critical input reads the cross stencil)
and one fixed-policy ``propagate`` on the ``bicycle`` grid.  The two box
corners of ``di_omni`` and ``di_velocity``, each one term at one shared
rate, pin the step that takes one maximum over the shifted field.  A rewrite of the stencil's layout or of its candidate scoring must
reproduce them exactly (``np.array_equal`` and equal bytes), not within a
tolerance.  Every case is also rerun with blocks of a step far shorter
than its span, so the blocked step is pinned on several blocks and a short
last one.  The critical input is also checked, on one and on several
blocks, against the vertex of the central-difference generator evaluated
from the model's callbacks, which is exactly quadratic in the input.

``PYTHONPATH=src python tests/test_pinned_optimal.py KEY...`` re-records the named
keys from the current code and prints each one's max |delta|; it writes
nothing and exits 1 if a key not named would change (``rerecord.py``).  Do
that only for a deliberate change of outputs.
"""

from pathlib import Path

import numpy as np
import pytest

from scbf import semigroup
from scbf.grid import GridSpec, ImplicitSet, ScalarField
from scbf.semigroup import PolicyTable, PropagationConfig, propagate, propagate_optimal
from scbf.spectral import initial_field
from scbf.systems import SystemModel, make_benchmark

DATA = Path(__file__).parent / "data" / "pinned_optimal.npz"

CASES = {
    "bicycle": ((13, 13, 12, 7), PropagationConfig(horizon=0.2)),
    "wig_aircraft": ((9, 9, 9), PropagationConfig(horizon=0.5, candidate_points=5)),
    "di_input_noise": ((21, 41), PropagationConfig(horizon=0.5)),
    "cross_input_noise": ((11, 13, 9), PropagationConfig(horizon=0.2)),
    "di_omni": ((21, 41), PropagationConfig(horizon=0.5)),
    "di_velocity": ((17, 33), PropagationConfig(horizon=0.5)),
}

# The cases whose candidates are the two corners of a scalar input box.
CORNER_CASES = ("di_omni", "di_velocity")


def _cross_input_noise(counts):
    """Double integrator plus a periodic third coordinate; the scalar input
    drives velocity and phase and shears the noise (``a_01 = 0.15 u``)."""

    def shape_of(x, u):
        return np.broadcast_shapes(np.asarray(x)[..., 0].shape, np.asarray(u)[..., 0].shape)

    def drift(x, u):
        x, shape = np.asarray(x, dtype=float), shape_of(x, u)
        u = np.broadcast_to(np.asarray(u, dtype=float)[..., 0], shape)
        return np.stack(np.broadcast_arrays(x[..., 1], u - 0.3 * x[..., 0], 0.5 * u), axis=-1)

    def diffusion(x, u):
        shape = shape_of(x, u)
        u = np.broadcast_to(np.asarray(u, dtype=float)[..., 0], shape)
        s = np.zeros(shape + (3, 3))
        s[..., 0, 0], s[..., 0, 1], s[..., 1, 1] = 1.0, 0.15 * u, 1.0 + 0.2 * u
        s[..., 2, 1], s[..., 2, 2] = 0.1 * u, 0.7
        return s

    grid = GridSpec([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], counts, periodic=[False, False, True])
    return SystemModel(name="cross_input_noise", n_x=3, n_u=1, n_w=3, drift=drift,
                       diffusion=diffusion, input_lower=[-1.0], input_upper=[1.0],
                       grid=grid, safe_set=ImplicitSet("box"))


def _varying_input_noise(counts=(21, 41)):
    """A double integrator whose input gain, drift and input noise vary over
    the state, so every coefficient of the critical input is a row of its
    own: ``f_v = (1 + 0.5 x) u - 0.2 v`` and ``a_vv = 0.5 + 0.2 x + 0.1 x u +
    (0.3 + 0.2 v^2) u^2``."""

    def drift(x, u):
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)[..., 0]
        return np.stack(np.broadcast_arrays(x[..., 1], (1.0 + 0.5 * x[..., 0]) * u
                                            - 0.2 * x[..., 1]), axis=-1)

    def diffusion(x, u):
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)[..., 0]
        p, v, u = np.broadcast_arrays(x[..., 0], x[..., 1], u)
        s = np.zeros(p.shape + (2, 2))
        s[..., 0, 0] = 0.3
        s[..., 1, 1] = np.sqrt(0.5 + 0.2 * p + 0.1 * p * u + (0.3 + 0.2 * v**2) * u**2)
        return s

    grid = GridSpec([-1.0, -2.0], [1.0, 2.0], counts)
    return SystemModel(name="varying_input_noise", n_x=2, n_u=1, n_w=2, drift=drift,
                       diffusion=diffusion, input_lower=[-1.0], input_upper=[1.0],
                       grid=grid, safe_set=ImplicitSet("box"))


def _linear_cross_noise(counts=(21, 41)):
    """A double integrator whose noise is sheared by the input, ``sigma =
    [[1, 0], [0.3 u, 1]]``: the cross entry ``a_01 = 0.3 u`` is exactly
    linear in ``u``, so its fitted ``u^2`` coefficient is zero."""

    def drift(x, u):
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)[..., 0]
        return np.stack(np.broadcast_arrays(x[..., 1], u), axis=-1)

    def diffusion(x, u):
        u = np.asarray(u, dtype=float)[..., 0]
        u = np.broadcast_to(u, np.broadcast_shapes(np.asarray(x)[..., 0].shape, u.shape))
        s = np.zeros(u.shape + (2, 2))
        s[..., 0, 0], s[..., 1, 0], s[..., 1, 1] = 1.0, 0.3 * u, 1.0
        return s

    grid = GridSpec([-1.0, -2.0], [1.0, 2.0], counts)
    return SystemModel(name="linear_cross_noise", n_x=2, n_u=1, n_w=2, drift=drift,
                       diffusion=diffusion, input_lower=[-1.0], input_upper=[1.0],
                       grid=grid, safe_set=ImplicitSet("box"))


def _system(name):
    counts = CASES[name][0]
    if name == "cross_input_noise":
        return _cross_input_noise(counts)
    return make_benchmark(name, grid_counts=counts)


def _start(sys):
    """The bump start, modulated by a smooth wave along the first and the
    last dimension (the heading and speed seam on ``bicycle``)."""
    nodes = sys.grid.nodes()
    wave = 1.0 + 0.4 * np.sin(2.0 * nodes[:, -1] + 0.7 * nodes[:, 0])
    return ScalarField(sys.grid, initial_field(sys, "bump").values * wave)


def _bicycle_policy(bike):
    nodes = bike.grid.nodes()
    steer = np.sin(nodes[:, 2] + 0.4 * nodes[:, 1]) * 0.9
    accel = np.cos(nodes[:, 2]) * 0.6 - 0.1 * nodes[:, 3]
    return PolicyTable(bike.grid, np.stack([steer, accel], axis=1),
                       bike.input_lower, bike.input_upper)


def _record():
    out = {}
    for name, (_, cfg) in CASES.items():
        sys = _system(name)
        field, policy = propagate_optimal(_start(sys), sys, cfg)
        out[f"{name}_field"] = field.values
        out[f"{name}_policy"] = policy.inputs
        if name == "bicycle":
            fixed = propagate(_start(sys), sys, _bicycle_policy(sys), cfg)
            out["bicycle_fixed_field"] = fixed.values
    return out


@pytest.fixture(scope="module")
def pinned():
    with np.load(DATA) as data:
        return dict(data)


@pytest.fixture(scope="module")
def fresh():
    return _record()


@pytest.mark.parametrize("key", ["bicycle_field", "bicycle_policy", "bicycle_fixed_field",
                                 "wig_aircraft_field", "wig_aircraft_policy",
                                 "di_input_noise_field", "di_input_noise_policy",
                                 "cross_input_noise_field", "cross_input_noise_policy",
                                 "di_omni_field", "di_omni_policy",
                                 "di_velocity_field", "di_velocity_policy"])
def test_pinned(pinned, fresh, key):
    value = np.asarray(fresh[key])
    assert np.array_equal(value, pinned[key]), key
    # bit-for-bit, so the sign of a zero counts too
    assert value.dtype == pinned[key].dtype and value.tobytes() == pinned[key].tobytes(), key


@pytest.mark.parametrize("block", [512, 1024])
def test_pinned_on_short_blocks(pinned, monkeypatch, block):
    # Blocks of 512 positions split every case (the 21x41 and 9^3 spans
    # too); blocks of 1024 split the bicycle into 16 full blocks and a
    # short one.  Both must give the pinned bytes, values and policies.
    monkeypatch.setattr(semigroup, "_SPAN_BLOCK", block)
    ranges, block_ranges = [], semigroup._block_ranges

    def recording(span):
        ranges.append(block_ranges(span))
        return ranges[-1]

    monkeypatch.setattr(semigroup, "_block_ranges", recording)
    semigroup._take_idle()
    try:
        fresh = _record()
    finally:
        semigroup._take_idle()
    assert len(ranges) == len(CASES) + 1  # every case built, none reused
    lengths = [[b - a for a, b in r] for r in ranges]
    assert all(set(n[:-1]) == {block} and n[-1] <= block for n in lengths if len(n) > 1)
    # Both bicycle builds (span 16548) end in a short block of 164 positions.
    bicycle = [n for n in lengths if sum(n) == 16548]
    assert len(bicycle) == 2
    assert all(len(n) == -(-16548 // block) and n[-1] == 164 for n in bicycle)
    if block == 512:
        assert all(len(n) >= 2 for n in lengths)
    for key, value in fresh.items():
        value = np.asarray(value)
        assert value.dtype == pinned[key].dtype and value.tobytes() == pinned[key].tobytes(), key


def test_policies_are_not_trivial(pinned):
    # Each pinned policy takes several values (both corners, each at many
    # nodes, where the corners are the only candidates), and the critical
    # input is taken at some nodes, so a regression in candidate scoring
    # cannot hide behind a constant policy.
    for name in CASES:
        values, counts = np.unique(pinned[f"{name}_policy"], axis=0, return_counts=True)
        if name in CORNER_CASES:
            assert values.ravel().tolist() == [-1.0, 1.0] and counts.min() > 10, name
        else:
            assert values.shape[0] > 2, name
    for name in ("di_input_noise", "cross_input_noise"):
        u = pinned[f"{name}_policy"][:, 0]
        assert np.count_nonzero((u > -1.0) & (u < 1.0)) > 10, name


def _central_generator(sys, values, u):
    """The central-difference generator ``grad_c P . f(x, u) + 1/2 tr(H_c
    a(x, u))`` at every node for the scalar input ``u``, from the model's
    drift and Gram, and the sum of the absolute values of its terms.  Values
    beyond the grid read zero in a non-periodic dimension and wrap around in
    a periodic one."""
    spec = sys.grid
    n, h, shape = spec.dims, spec.spacing, spec.shape
    padded = np.pad(values.reshape(shape), 1, mode="wrap")
    for d in range(n):
        if not spec.periodic[d]:
            padded[(slice(None),) * d + (0,)] = 0.0
            padded[(slice(None),) * d + (-1,)] = 0.0

    def at(*moves):
        step = dict(moves)
        return padded[tuple(slice(1 + step.get(d, 0), 1 + step.get(d, 0) + shape[d])
                            for d in range(n))].ravel()

    nodes = spec.nodes()
    U = np.full((spec.size, 1), u)
    f, a = sys.drift(nodes, U), sys.gram(nodes, U)
    terms = []
    for i in range(n):
        terms.append((at((i, 1)) - at((i, -1))) / (2.0 * h[i]) * f[:, i])
        terms.append(0.5 * (at((i, 1)) - 2.0 * at() + at((i, -1))) / h[i] ** 2 * a[:, i, i])
        for j in range(i + 1, n):
            cross = (at((i, 1), (j, 1)) + at((i, -1), (j, -1))
                     - at((i, 1), (j, -1)) - at((i, -1), (j, 1)))
            terms.append(cross / (4.0 * h[i] * h[j]) * a[:, i, j])
    return np.sum(terms, axis=0), np.sum(np.abs(terms), axis=0)


@pytest.mark.parametrize("block", [None, 512])
@pytest.mark.parametrize("name", ["di_input_noise", "cross_input_noise", "varying_input_noise",
                                  "linear_cross_noise"])
def test_critical_input_is_the_clamped_vertex(monkeypatch, name, block):
    # The central generator is exactly quadratic in a scalar input when the
    # drift is affine and the Gram quadratic in it; three inputs give its
    # coefficients, and the critical input is its vertex clamped to the box
    # (the lower bound where it is flat).  Compared wherever the curvature
    # exceeds 1e-6 of the terms, where roundoff moves the vertex by about
    # 1e-10 at most; blocks of 512 positions split both spans.
    if block is not None:
        monkeypatch.setattr(semigroup, "_SPAN_BLOCK", block)
    sys = {"varying_input_noise": _varying_input_noise,
           "linear_cross_noise": _linear_cross_noise}.get(name, lambda: _system(name))()
    assert sys.regime == "quadratic"
    rng = np.random.default_rng(41)
    values = np.where(sys.interior_mask(), rng.uniform(0.1, 1.0, sys.grid.size), 0.0)
    op = semigroup._Operator(sys, PropagationConfig(horizon=0.0))
    assert (len(semigroup._block_ranges(op.stencil.span)) > 1) == (block is not None)
    op.apply(values)
    op.stencil.argmax()
    ustar = op.stencil.dynamic.ustar[op.stencil.pos]

    lo, hi = sys.input_lower[0], sys.input_upper[0]
    (g_lo, t_lo), (g_mid, t_mid), (g_hi, t_hi) = (
        _central_generator(sys, values, u) for u in (lo, 0.5 * (lo + hi), hi))
    width = hi - lo
    c2 = (g_lo + g_hi - 2.0 * g_mid) * 2.0 / width**2
    c1 = (g_hi - g_lo) / width - c2 * (lo + hi)
    scale = np.maximum(np.maximum(t_lo, t_mid), t_hi)
    well = np.abs(c2) > 1e-6 * scale
    vertex = np.clip(-c1[well] / (2.0 * c2[well]), lo, hi)
    assert np.count_nonzero(well) > 0.8 * sys.grid.size
    np.testing.assert_allclose(ustar[well], vertex, rtol=0.0, atol=1e-9)
    assert np.count_nonzero((vertex > lo) & (vertex < hi)) > 10  # not all clamped


if __name__ == "__main__":
    import sys

    from rerecord import main

    sys.exit(main(DATA, _record(), sys.argv[1:], np.savez_compressed))
