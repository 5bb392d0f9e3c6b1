import math
import tracemalloc

import numpy as np
import pytest

from scbf import semigroup, spectral
from scbf.errors import Collapse
from scbf.grid import GridSpec, ImplicitSet, ScalarField, interpolate, sup_norm
from scbf.semigroup import PolicyTable, PropagationConfig, propagate
from scbf.spectral import (
    eigen_residual,
    initial_field,
    power_iteration,
    power_policy_iteration,
    warm_start_field,
)
from scbf.systems import BENCHMARKS, SystemModel, make_benchmark

LAMBDA_1 = math.pi**2 / 8.0  # Dirichlet rate of (1/2) d^2/dx^2 on [-1, 1]


@pytest.fixture(scope="module")
def brownian():
    return make_benchmark("brownian_1d")


@pytest.fixture(scope="module")
def brownian_result(brownian):
    cfg = PropagationConfig(horizon=0.5)
    return power_iteration(brownian, PolicyTable.zero(brownian), cfg,
                           initial_field(brownian, "bump"), tol=1e-6)


class TestPowerIteration:
    def test_analytic_spectrum(self, brownian, brownian_result):
        res = brownian_result
        assert res.converged
        assert abs(res.gamma - LAMBDA_1) / LAMBDA_1 < 0.02
        x = brownian.grid.nodes()[:, 0]
        mode = np.sin(np.pi * (x + 1.0) / 2.0)
        mode /= np.max(np.abs(mode))
        assert sup_norm(ScalarField(brownian.grid, res.psi.values - mode)) < 0.02

    def test_converged_init_one_iteration(self, brownian, brownian_result):
        cfg = PropagationConfig(horizon=0.5)
        res = power_iteration(brownian, PolicyTable.zero(brownian), cfg,
                              brownian_result.psi, tol=1e-4)
        assert res.converged
        assert res.iterations == 1

    def test_iterates_stay_nonnegative(self, brownian):
        cfg = PropagationConfig(horizon=0.5)
        res = power_iteration(brownian, PolicyTable.zero(brownian), cfg,
                              initial_field(brownian, "plateau"),
                              tol=1e-12, max_iter=4)
        assert not res.converged
        assert np.min(res.psi.values) >= 0.0

    def test_geometric_residual_decay(self, brownian):
        cfg = PropagationConfig(horizon=0.5)
        res = power_iteration(brownian, PolicyTable.zero(brownian), cfg,
                              initial_field(brownian, "plateau"), tol=1e-8)
        residuals = [rec.residual for rec in res.history]
        ratios = [b / a for a, b in zip(residuals, residuals[1:]) if a > 0]
        # after the transient the ratio stabilizes below one
        assert all(r < 1.0 for r in ratios[1:])

    def test_zero_policy_no_safer_than_backup(self):
        sys = make_benchmark("di_omni", grid_counts=(41, 81))
        cfg = PropagationConfig(horizon=0.5)
        best = power_policy_iteration(sys, cfg, tol=1e-5)
        fixed = power_iteration(sys, PolicyTable.zero(sys), cfg,
                                initial_field(sys, "bump"), tol=1e-5)
        assert fixed.gamma >= best.gamma - 1e-6

    def test_collapse(self):
        sys = make_benchmark("brownian_1d", {"sigma": 100.0, "a": 0.0, "b": 0.1},
                             grid_counts=(5,))
        cfg = PropagationConfig(horizon=1.3e-4)
        with pytest.raises(Collapse):
            power_iteration(sys, PolicyTable.zero(sys), cfg,
                            initial_field(sys, "bump"), tol=1e-8)


@pytest.mark.parametrize("algorithm", ["power", "power_policy"])
def test_non_integer_max_iter_rejected(brownian, algorithm):
    # max_iter = 3.0 used to fail in range() with a TypeError.
    cfg = PropagationConfig(horizon=0.5)
    with pytest.raises(ValueError, match="max_iter must be an integer, got 3.0"):
        if algorithm == "power":
            power_iteration(brownian, PolicyTable.zero(brownian), cfg,
                            initial_field(brownian, "bump"), max_iter=3.0)
        else:
            power_policy_iteration(brownian, cfg, max_iter=3.0)


@pytest.mark.parametrize("max_iter", [0, -3])
@pytest.mark.parametrize("algorithm", ["power", "power_policy"])
def test_max_iter_below_one_rejected(brownian, max_iter, algorithm):
    # Zero iterations used to return gamma = nan with no history.
    cfg = PropagationConfig(horizon=0.5)
    with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}"):
        if algorithm == "power":
            power_iteration(brownian, PolicyTable.zero(brownian), cfg,
                            initial_field(brownian, "bump"), max_iter=max_iter)
        else:
            power_policy_iteration(brownian, cfg, max_iter=max_iter)


@pytest.mark.parametrize("tol", [0.0, -1e-4, math.nan, math.inf])
@pytest.mark.parametrize("algorithm", ["power", "power_policy"])
def test_tol_not_finite_and_positive_rejected(brownian, tol, algorithm):
    # nan never converged: the run took every iteration and ended in exit 2.
    cfg = PropagationConfig(horizon=0.5)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        if algorithm == "power":
            power_iteration(brownian, PolicyTable.zero(brownian), cfg,
                            initial_field(brownian, "bump"), tol=tol)
        else:
            power_policy_iteration(brownian, cfg, tol=tol)


@pytest.mark.parametrize("algorithm", ["power", "power_policy", "power_policy_two_step"])
def test_init_on_other_grid_rejected(brownian, algorithm):
    # Same node count, other bounds: the values would be read as if they
    # sat on the system grid.
    spec = brownian.grid
    other = GridSpec([0.0], [2.0], spec.counts, spec.periodic)
    init = ScalarField(other, initial_field(brownian, "bump").values)
    cfg = PropagationConfig(horizon=0.5)
    with pytest.raises(ValueError, match="field grid does not match the system grid"):
        if algorithm == "power":
            power_iteration(brownian, PolicyTable.zero(brownian), cfg, init)
        else:
            power_policy_iteration(brownian, cfg, init_psi=init,
                                   accelerated=algorithm == "power_policy")


@pytest.mark.parametrize("algorithm", ["power", "power_policy"])
def test_one_stencil_per_synthesis(monkeypatch, algorithm):
    # The operator is built once per call and applied at every iteration.
    sys = make_benchmark("di_omni", grid_counts=(21, 41))
    cfg = PropagationConfig(horizon=0.1)
    real, calls = semigroup._split_stencil, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(semigroup, "_split_stencil", counted)
    if algorithm == "power":
        res = power_iteration(sys, PolicyTable.zero(sys), cfg, initial_field(sys, "bump"),
                              tol=1e-12, max_iter=4)
    else:
        res = power_policy_iteration(sys, cfg, tol=1e-12, max_iter=4)
    assert res.iterations == 4
    assert len(calls) == 1


class TestPowerPolicyIteration:
    def test_initialization_independence(self):
        sys = make_benchmark("di_omni", grid_counts=(41, 81))
        cfg = PropagationConfig(horizon=0.5)
        results = [
            power_policy_iteration(sys, cfg, init_psi=initial_field(sys, kind),
                                   tol=1e-6, max_iter=300)
            for kind in ("bump", "gauss", "plateau")
        ]
        gammas = [r.gamma for r in results]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(gammas[i] - gammas[j]) < 1e-3
                diff = sup_norm(ScalarField(sys.grid,
                                            results[i].psi.values - results[j].psi.values))
                assert diff < 1e-2

    def test_two_step_variant_agrees(self):
        sys = make_benchmark("di_omni", grid_counts=(21, 41))
        cfg = PropagationConfig(horizon=0.5)
        fast = power_policy_iteration(sys, cfg, tol=1e-5)
        slow = power_policy_iteration(sys, cfg, tol=1e-5, accelerated=False)
        assert abs(fast.gamma - slow.gamma) < 5e-3
        assert sup_norm(ScalarField(sys.grid, fast.psi.values - slow.psi.values)) < 2e-2

    def test_deterministic_viability_kernel(self):
        sys = make_benchmark("di_deterministic", grid_counts=(41, 81))
        cfg = PropagationConfig(horizon=0.5)
        res = power_policy_iteration(sys, cfg, tol=1e-4, max_iter=300)
        nodes = sys.grid.nodes()
        x, v = nodes[:, 0], nodes[:, 1]
        kernel = (((v <= 0) | (x <= 1 - v**2 / 2))
                  & ((v >= 0) | (x >= -1 + v**2 / 2))
                  & sys.interior_mask())
        est = res.psi.values >= 0.5
        assert hausdorff_cells(sys.grid.shape, kernel, est) <= 2.0

    def test_gamma_nonnegative_invariants(self, brownian_result):
        res = brownian_result
        assert res.gamma >= 0.0
        assert abs(sup_norm(res.psi) - 1.0) <= 1e-12
        assert np.min(res.psi.values) >= 0.0


def exact_optimal(sys, cfg):
    """The exact discrete optimum over the optimal operator's candidates:
    Howard policy iteration on the dense one-step matrices.  Each round
    forms the fixed policy's one-step matrix ``S`` on the interior nodes
    (one step of the optimal operator's ``dt``, one column per unit
    vector), takes its Perron pair with ``np.linalg.eig``, and moves a node
    to another candidate only where that candidate's one-step value beats
    the current one's by more than roundoff, so tied nodes cannot flip back
    and forth.  Returns ``gamma = -log(rho) / dt``, the Perron vector
    (nodes, sup 1, zero off the interior), the candidate index per node and
    the rounds taken."""
    optimal = semigroup._Operator(sys, cfg)
    inputs, dt = optimal.inputs, optimal.dt
    step = PropagationConfig(horizon=dt, dt=dt, cfl_safety=cfg.cfl_safety,
                             candidate_points=cfg.candidate_points)
    interior = np.nonzero(sys.interior_mask())[0]

    def one_step(policy_inputs):
        op = semigroup._Operator(sys, step, PolicyTable(sys.grid, policy_inputs,
                                                        sys.input_lower, sys.input_upper))
        assert op.steps == 1
        return op

    def matrix(op):
        S = np.empty((interior.size, interior.size))
        unit = np.zeros(sys.grid.size)
        for col, node in enumerate(interior):
            unit[node] = 1.0
            S[:, col] = op.apply(unit)[interior]
            unit[node] = 0.0
        return S

    singles = [one_step(np.tile(u, (sys.grid.size, 1))) for u in inputs]
    choice = np.zeros(sys.grid.size, dtype=np.int64)
    for rounds in range(1, 50):
        values, vectors = np.linalg.eig(matrix(one_step(inputs[choice])))
        k = int(np.argmax(values.real))
        assert abs(values[k].imag) <= 1e-12 and np.max(np.abs(vectors[:, k].imag)) <= 1e-12
        psi = np.zeros(sys.grid.size)
        psi[interior] = vectors[:, k].real
        psi /= psi[np.argmax(np.abs(psi))]
        scores = np.array([op.apply(psi) for op in singles])
        current = scores[choice, np.arange(sys.grid.size)]
        better = np.max(scores, axis=0) > current + 1e-12 * np.max(np.abs(scores))
        if not np.any(better[interior]):
            return -math.log(values[k].real) / dt, psi, choice, rounds
        choice = np.where(better, np.argmax(scores, axis=0), choice)
    raise AssertionError("Howard iteration did not stop")


def test_power_policy_iteration_matches_the_exact_optimum():
    # On di_omni 21x41 the spectral gap is wide, so power-policy iteration
    # at a tight tol reaches the exact discrete optimum over the box
    # corners: the Perron root of the optimal policy's one-step matrix.
    sys = make_benchmark("di_omni", grid_counts=(21, 41))
    cfg = PropagationConfig(horizon=0.5)
    gamma, psi, choice, rounds = exact_optimal(sys, cfg)
    res = power_policy_iteration(sys, cfg, tol=1e-11)
    assert res.converged and rounds > 1
    assert round(gamma, 6) == 1.360249
    assert abs(res.gamma - gamma) <= 1e-10 * gamma
    assert np.max(np.abs(res.psi.values - psi)) <= 1e-12


class TestEigenResidual:
    def test_brownian_certificate(self, brownian, brownian_result):
        cfg = PropagationConfig(horizon=0.5)
        assert eigen_residual(brownian_result, brownian, cfg) < 1e-3

    def test_horizon_invariance(self, brownian, brownian_result):
        res = brownian_result
        double = PropagationConfig(horizon=1.0)
        out = propagate(res.psi, brownian, res.policy, double)
        gamma2 = -math.log(sup_norm(out)) / double.horizon
        assert abs(gamma2 - res.gamma) / res.gamma < 0.02

    def test_gamma_additivity(self, brownian, brownian_result):
        res = brownian_result
        t = 0.5
        r1 = sup_norm(propagate(res.psi, brownian, res.policy,
                                PropagationConfig(horizon=t)))
        r2 = sup_norm(propagate(res.psi, brownian, res.policy,
                                PropagationConfig(horizon=2 * t)))
        assert abs(-math.log(r2) - 2.0 * (-math.log(r1))) < 0.02 * abs(2 * math.log(r1))


def hausdorff_cells(shape, mask_a, mask_b):
    """Symmetric Hausdorff distance between node sets, in index units."""
    ij = np.stack(np.unravel_index(np.arange(mask_a.size), shape), axis=1).astype(float)
    A, B = ij[mask_a], ij[mask_b]
    if len(A) == 0 or len(B) == 0:
        return np.inf

    def directed(P, Q):
        worst = 0.0
        for i in range(0, len(P), 256):
            d = np.sqrt(((P[i:i + 256, None, :] - Q[None, :, :]) ** 2).sum(-1))
            worst = max(worst, float(d.min(axis=1).max()))
        return worst

    return max(directed(A, B), directed(B, A))


@pytest.mark.parametrize("block", [64, 1])
def test_warm_start_on_short_node_blocks(monkeypatch, block):
    # The nodes are interpolated block by block; each node's value does not
    # depend on its block, so any block length gives the bytes of
    # interpolating at every node at once.
    coarse = make_benchmark("bicycle", grid_counts=(5, 5, 4, 3))
    fine = make_benchmark("bicycle", grid_counts=(9, 9, 8, 5))
    field = initial_field(coarse, "gauss")
    whole = interpolate(field, fine.grid.nodes())
    expected = np.where(fine.interior_mask(), np.maximum(whole, 0.0), 0.0)
    monkeypatch.setattr(spectral, "_NODE_BLOCK", block)
    assert warm_start_field(field, fine).values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_bump_is_the_product_of_axis_bumps_at_every_node(name):
    # The per-axis bumps, multiplied in dimension order and broadcast, give
    # the bytes of evaluating the product at an array of all node
    # coordinates.
    counts = (9, 9, 8, 5) if name == "bicycle" else (9, 9, 9) if name == "wig_aircraft" else None
    sys = make_benchmark(name, grid_counts=counts)
    spec, nodes = sys.grid, sys.grid.nodes()
    lo, hi = np.asarray(spec.lower), np.asarray(spec.upper)
    vals = np.ones(spec.size)
    for d in range(spec.dims):
        vals *= np.maximum(0.0, 1.0 - (2.0 * (nodes[:, d] - 0.5 * (lo[d] + hi[d]))
                                       / (hi[d] - lo[d])) ** 2)
    vals = np.where(sys.interior_mask(), vals, 0.0)
    expected = vals / np.max(np.abs(vals))
    assert initial_field(sys, "bump").values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name, counts", [
    ("bicycle", (31, 31, 24, 11)), ("wig_aircraft", (26, 26, 26)), ("di_omni", (41, 81)),
    ("brownian_1d", None),
])
def test_gauss_exponent_summed_per_axis_at_every_node(name, counts):
    # The exponent's per-axis terms, added in dimension order and broadcast,
    # give the bytes of summing them over an array of all node coordinates.
    sys = make_benchmark(name, grid_counts=counts)
    spec = sys.grid
    lo, hi = np.asarray(spec.lower), np.asarray(spec.upper)
    centre = 0.5 * (lo + hi) + 0.25 * (hi - lo)
    vals = np.exp(-8.0 * np.sum(((spec.nodes() - centre) / (hi - lo)) ** 2, axis=1))
    vals = np.where(sys.interior_mask(), vals, 0.0)
    expected = vals / np.max(np.abs(vals))
    assert initial_field(sys, "gauss").values.tobytes() == expected.tobytes()


def test_gauss_start_forms_no_array_of_all_node_coordinates():
    # On the 4-D bicycle (31x31x24x11) an array of all node coordinates
    # holds four values per node, and the exponent formed from it peaked at
    # eight; per axis it peaks at four (traced, in 8-byte values per node).
    sys = make_benchmark("bicycle")
    sys.node_classes()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        initial_field(sys, "gauss")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * sys.grid.size


def _periodic_start_system():
    """A box ``[-1, 1] x [0, 4)``, periodic in the second coordinate, whose
    sdf removes the nodes at coordinate 2: the interior nodes all sit at
    coordinate 0, the lower face of the periodic axis, where the bump is 0."""
    spec = GridSpec([-1.0, 0.0], [1.0, 4.0], (5, 4), periodic=[False, True])
    sdf = ScalarField(spec, np.where(spec.nodes()[:, 1] == 2.0, 1.0, -1.0))

    def zero(x, u):
        shape = np.broadcast_shapes(np.asarray(x)[..., 0].shape, np.asarray(u)[..., 0].shape)
        return np.zeros(shape + (2,))

    return SystemModel(name="periodic_start", n_x=2, n_u=1, n_w=1, drift=zero,
                       diffusion=lambda x, u: zero(x, u)[..., None],
                       input_lower=[0.0], input_upper=[0.0], grid=spec,
                       safe_set=ImplicitSet("sdf", sdf))


def test_start_inputs_rejected():
    di = make_benchmark("di_omni", grid_counts=(9, 17))
    cfg, zero = PropagationConfig(horizon=0.1), PolicyTable.zero(di)
    with pytest.raises(ValueError, match=r"^unknown initial field kind 'flat'$"):
        initial_field(di, "flat")
    start = _periodic_start_system()
    assert np.count_nonzero(start.interior_mask()) == 3
    with pytest.raises(ValueError, match=r"^initial field vanished on the interior$"):
        initial_field(start, "bump")
    negative = np.where(di.interior_mask(), -1.0, 0.0)
    with pytest.raises(ValueError, match=r"^initial field must be nonnegative$"):
        power_iteration(di, zero, cfg, ScalarField(di.grid, negative))
    with pytest.raises(Collapse, match=r"^initial field has no mass on the interior$"):
        power_iteration(di, zero, cfg, ScalarField(di.grid, np.zeros(di.grid.size)))
    with pytest.raises(ValueError, match=r"^power iteration needs a positive horizon$"):
        power_iteration(di, zero, PropagationConfig(horizon=0.0), initial_field(di))
