import itertools
import math
import re
import sys as sys_module
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scbf import semigroup
from scbf.errors import NotInterior, StabilityViolation
from scbf.grid import GridSpec, ImplicitSet, ScalarField, sup_norm
from scbf.semigroup import (
    PolicyTable,
    PropagationConfig,
    _aligned,
    _block_ranges,
    _node_entries,
    _Operator,
    _Stencil,
    apply_generator,
    argmax_policy,
    propagate,
    propagate_optimal,
)
from scbf.spectral import power_iteration, power_policy_iteration
from scbf.systems import SystemModel, make_benchmark


@pytest.fixture(scope="module")
def brownian():
    return make_benchmark("brownian_1d")


@pytest.fixture(scope="module")
def di_small():
    return make_benchmark("di_omni", grid_counts=(21, 41))


def interior_random_field(sys, seed, nonnegative=True):
    rng = np.random.default_rng(seed)
    vals = rng.random(sys.grid.size) if nonnegative else rng.normal(size=sys.grid.size)
    return ScalarField(sys.grid, np.where(sys.interior_mask(), vals, 0.0))


def sine_mode(sys):
    spec = sys.grid
    a, b = spec.lower[0], spec.upper[0]
    x = spec.nodes()[:, 0]
    vals = np.sin(np.pi * (x - a) / (b - a))
    return ScalarField(spec, np.where(sys.interior_mask(), vals, 0.0))


class TestApplyGenerator:
    def test_ito_by_hand(self, di_small):
        # [DERIVED] beta = x1^2 + x2^2, f = (x2, u), sigma = I, x = (0.5, 1), u = 0:
        # grad.f + Tr(hess)/2 = 2*0.5*1 + 0 + 2 = 3, up to O(h) upwind error.
        sys = make_benchmark("di_omni", grid_counts=(81, 161))
        nodes = sys.grid.nodes()
        beta = ScalarField(sys.grid, nodes[:, 0] ** 2 + nodes[:, 1] ** 2)
        node = int(np.argmin(np.sum((nodes - [0.5, 1.0]) ** 2, axis=1)))
        h = sys.grid.spacing
        val = apply_generator(beta, sys, np.array([0.0]), node)
        # one-sided error of the drift term: (h/2)|f1| * d2(beta)/dx1^2 = h/2 * 1 * 2
        assert val == pytest.approx(3.0, abs=2.0 * h[0] + 1e-9)

    def test_constant_field(self, di_small):
        c = np.where(di_small.interior_mask(), 0.7, 0.0)
        beta = ScalarField(di_small.grid, c)
        # pick an interior node away from the boundary so all neighbors are interior
        cls = di_small.node_classes().reshape(di_small.grid.shape)
        node = np.ravel_multi_index((10, 20), di_small.grid.shape)
        assert cls[10, 20] == 0
        assert apply_generator(beta, di_small, np.array([0.3]), node) == pytest.approx(0.0, abs=1e-12)

    def test_brownian_sine_mode(self, brownian):
        # [DERIVED] (sigma^2/2) d2/dx2 sin(pi (x-a)/l) at the midpoint = -(sigma^2/2)(pi/l)^2
        beta = sine_mode(brownian)
        spec = brownian.grid
        node = spec.size // 2
        h = spec.spacing[0]
        exact = -0.5 * (np.pi / 2.0) ** 2
        val = apply_generator(beta, brownian, np.array([0.0]), node)
        assert val == pytest.approx(exact, abs=exact * exact * h * h)

    def test_not_interior(self, brownian):
        beta = sine_mode(brownian)
        with pytest.raises(NotInterior):
            apply_generator(beta, brownian, np.array([0.0]), 0)


class TestPropagateFixed:
    def test_identity_at_zero_horizon(self, brownian):
        f = interior_random_field(brownian, 5)
        out = propagate(f, brownian, PolicyTable.zero(brownian),
                        PropagationConfig(horizon=0.0))
        assert np.array_equal(out.values, f.values)

    def test_heat_equation_eigen_decay(self, brownian):
        # [DERIVED] closed form: T_t sin = exp(-(pi^2/8) t) sin, 1% budget at 201 nodes
        mode = sine_mode(brownian)
        cfg = PropagationConfig(horizon=0.5)
        out = propagate(mode, brownian, PolicyTable.zero(brownian), cfg)
        exact = math.exp(-(np.pi**2 / 8.0) * 0.5) * mode.values
        assert sup_norm(ScalarField(brownian.grid, out.values - exact)) < 0.01 * sup_norm(mode)

    def test_positivity(self, di_small):
        cfg = PropagationConfig(horizon=0.1)
        pol = PolicyTable.constant(di_small, [0.4])
        for seed in range(10):
            f = interior_random_field(di_small, seed)
            out = propagate(f, di_small, pol, cfg)
            assert np.min(out.values) >= 0.0

    def test_stability_violation_large_dt(self, brownian):
        f = sine_mode(brownian)
        cfg = PropagationConfig(horizon=0.1, dt=1.0)  # far above the CFL bound
        with pytest.raises(StabilityViolation):
            propagate(f, brownian, PolicyTable.zero(brownian), cfg)

    def test_stability_violation_floor(self):
        # sigma = 1000 on 201 nodes: the stable step is 8.0e-11, below the
        # 1e-9 floor.
        noisy = make_benchmark("brownian_1d", {"sigma": 1000.0})
        with pytest.raises(StabilityViolation, match="below the floor 1.0e-09"):
            propagate(sine_mode(noisy), noisy, PolicyTable.zero(noisy),
                      PropagationConfig(horizon=0.1))


@pytest.fixture(scope="module")
def setup():
    sys = make_benchmark("di_omni", grid_counts=(21, 41))
    pol = PolicyTable.constant(sys, [0.3])
    cfg = PropagationConfig(horizon=0.05)
    return sys, pol, cfg


class TestOperatorProperties:
    """Acceptance criterion 5: 100 random cases per property."""

    CASES = 100

    def test_positivity_100(self, setup):
        sys, pol, cfg = setup
        for seed in range(self.CASES):
            out = propagate(interior_random_field(sys, seed), sys, pol, cfg)
            assert np.min(out.values) >= 0.0

    def test_nonexpansive_100(self, setup):
        sys, pol, cfg = setup
        for seed in range(self.CASES):
            f = interior_random_field(sys, seed, nonnegative=False)
            assert sup_norm(propagate(f, sys, pol, cfg)) <= sup_norm(f) + 1e-14

    def test_linearity_100(self, setup):
        sys, pol, cfg = setup
        rng = np.random.default_rng(99)
        for seed in range(self.CASES):
            f = interior_random_field(sys, 2 * seed, nonnegative=False)
            g = interior_random_field(sys, 2 * seed + 1, nonnegative=False)
            a, b = rng.normal(size=2)
            combo = ScalarField(sys.grid, a * f.values + b * g.values)
            lhs = propagate(combo, sys, pol, cfg).values
            rhs = a * propagate(f, sys, pol, cfg).values + b * propagate(g, sys, pol, cfg).values
            scale = max(sup_norm(ScalarField(sys.grid, rhs)), 1e-30)
            assert np.max(np.abs(lhs - rhs)) / scale < 1e-10

    def test_semigroup_defect_modal_oracle(self, brownian):
        # Diagonalize the identical scheme: the discrete Dirichlet Laplacian
        # has exact sine eigenvectors, so per-mode step factors are
        # (1 - lambda_k dt)^n with dt fixed by the spec'd CFL rule.  The
        # composed/direct defect is bounded by the modal expansion.
        sys = brownian
        spec = sys.grid
        n_int = spec.size - 2
        h = spec.spacing[0]
        x = spec.nodes()[1:-1, 0]
        k = np.arange(1, n_int + 1)
        modes = np.sin(np.pi * np.outer(k, (x + 1.0) / 2.0))          # (k, x)
        lam = 0.5 * (2.0 - 2.0 * np.cos(k * np.pi * h / 2.0)) / h**2  # sigma = 1

        def steps(T):
            bound = 0.8 / (1.0 / h**2)
            n = max(1, math.ceil(T / bound - 1e-12))
            return n, T / n

        def factor(T):
            n, dt = steps(T)
            return (1.0 - lam * dt) ** n

        s_h, t_h = 0.0313, 0.0217
        rng = np.random.default_rng(17)
        f = interior_random_field(sys, 7)
        coef = (2.0 / (n_int + 1)) * (modes @ f.values[1:-1])
        predicted = np.sum(np.abs(coef) * np.abs(factor(s_h) * factor(t_h)
                                                 - factor(s_h + t_h)))
        pol = PolicyTable.zero(sys)
        direct = propagate(f, sys, pol, PropagationConfig(horizon=s_h + t_h))
        composed = propagate(propagate(f, sys, pol, PropagationConfig(horizon=s_h)),
                             sys, pol, PropagationConfig(horizon=t_h))
        defect = sup_norm(ScalarField(spec, direct.values - composed.values))
        assert defect <= 5.0 * predicted + 1e-12

    def test_semigroup_exact_with_shared_dt(self, brownian):
        f = interior_random_field(brownian, 21)
        pol = PolicyTable.zero(brownian)
        dt = 2.5e-5
        direct = propagate(f, brownian, pol, PropagationConfig(horizon=0.05, dt=dt))
        half = propagate(f, brownian, pol, PropagationConfig(horizon=0.025, dt=dt))
        composed = propagate(half, brownian, pol, PropagationConfig(horizon=0.025, dt=dt))
        assert sup_norm(ScalarField(brownian.grid, direct.values - composed.values)) < 1e-12

    def test_generator_consistency(self, di_small):
        # One explicit Euler step of length delta reproduces the discrete
        # generator exactly: (T_delta b - b)/delta = A b at interior nodes.
        sys = di_small
        nodes = sys.grid.nodes()
        smooth = np.cos(nodes[:, 0]) * np.exp(-0.3 * nodes[:, 1] ** 2)
        f = ScalarField(sys.grid, np.where(sys.interior_mask(), smooth, 0.0))
        u = np.array([0.25])
        pol = PolicyTable.constant(sys, u)
        delta = 1e-5
        out = propagate(f, sys, pol, PropagationConfig(horizon=delta))
        quotient = (out.values - f.values) / delta
        cls = sys.node_classes()
        rng = np.random.default_rng(0)
        interior_nodes = np.nonzero(cls == 0)[0]
        for node in rng.choice(interior_nodes, size=40, replace=False):
            gen = apply_generator(f, sys, u, int(node))
            assert quotient[node] == pytest.approx(gen, rel=1e-9, abs=1e-9)


def constant_coefficient_system(drift, sigma, counts, periodic):
    """Box safe set on [-1, 1]^n with constant drift and diagonal noise."""
    n = len(counts)
    drift, sigma = np.asarray(drift, dtype=float), np.diag(sigma)

    def f(x, u):
        shape = np.broadcast_shapes(np.asarray(x)[..., 0].shape, np.asarray(u)[..., 0].shape)
        return np.broadcast_to(drift, shape + (n,)).copy()

    def s(x, u):
        shape = np.broadcast_shapes(np.asarray(x)[..., 0].shape, np.asarray(u)[..., 0].shape)
        return np.broadcast_to(sigma, shape + (n, n)).copy()

    return SystemModel(name="constant", n_x=n, n_u=1, n_w=n, drift=f, diffusion=s,
                       input_lower=[0.0], input_upper=[0.0],
                       grid=GridSpec([-1.0] * n, [1.0] * n, counts, periodic=periodic),
                       safe_set=ImplicitSet("box"))


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_step_matches_generator_on_every_layout(seed, dims):
    # Every stencil layout (1-4 dims, any periodic flags) against the
    # per-node oracle: one step of a pinned dt is field + dt * A field at
    # every interior node, and every other node stays zero.
    rng = np.random.default_rng(seed)
    counts = tuple(int(c) for c in rng.integers(3, 7 if dims < 4 else 5, size=dims))
    periodic = [bool(p) for p in rng.integers(0, 2, size=dims)]
    sys = constant_coefficient_system(rng.normal(size=dims),
                                      rng.uniform(0.0, 1.5, size=dims) * rng.integers(0, 2, size=dims),
                                      counts, periodic)
    f = interior_random_field(sys, seed, nonnegative=False)
    h = sys.grid.spacing
    load = np.sum(np.abs(sys.drift(np.zeros(dims), [0.0])) / h) + np.sum(
        np.diag(sys.gram(np.zeros(dims), [0.0])) / h**2)
    dt = 0.5 / max(load, 1.0)
    out = propagate(f, sys, PolicyTable.zero(sys), PropagationConfig(horizon=dt, dt=dt)).values
    interior = sys.interior_mask()
    assert np.all(out[~interior] == 0.0)
    u = np.array([0.0])
    for node in np.nonzero(interior)[0]:
        gen = apply_generator(f, sys, u, int(node))
        assert (out[node] - f.values[node]) / dt == pytest.approx(gen, rel=1e-9, abs=1e-9)


def _critical_arrays(c):
    """Every array one block of the critical input reads or writes: its
    slice of the input, its scratch, coefficients, rates and rows."""
    found = [c.u, c.lin, c.quad, c.tmp, c.safe]
    found += [x for terms in (c.lin_terms, c.quad_terms) for pair in terms for x in pair]
    found += [x for coefs, out in c.grams + c.drift for x in (*coefs, out)]
    found += [out for _, out in c.rates] + c.checked
    found += [x for row, drift, rate in c.rows for x in (row, *(drift or ())[:1], rate)]
    return [x for x in found if isinstance(x, np.ndarray)]


def _step_arrays(stencil):
    """Every array a step reads at its own start or writes: weights, candidate
    rows, scratch (the maximum chain runs in the two score rows), and the
    critical-input candidate's coefficients and buffers."""
    arrays = [stencil.W0, stencil.dt_mask, stencil._tmp, *stencil.W.values(),
              *stencil._diffs.values(), *(() if stencil._scores is None else stencil._scores),
              stencil._better,
              *stencil._rows.values(),
              *(() if stencil._dynamic_rows is None else stencil._dynamic_rows),
              *(views[stencil._centre] for views in stencil._views)]
    quad = stencil.dynamic
    if quad is not None:
        coefs = [c for _, c in quad._lin + quad._quad] + list(quad._fixed.values())
        coefs += [c for poly in [*quad._coefs.values(), *quad._drift.values()] if poly
                  for c in poly]
        arrays += [quad.ustar, *(c for c in coefs if isinstance(c, np.ndarray)),
                   *_critical_arrays(stencil._blocks[0][0].dynamic)]
    return arrays


def _assert_placement(stencil):
    """Every array and every block view a step reads at its own start or
    writes starts on a cache line, and the written centre sits half a page
    from the read one."""
    arrays = _step_arrays(stencil)
    assert len(arrays) > 8
    assert all(a.ctypes.data % 64 == 0 for a in arrays)
    centres = [views[stencil._centre].ctypes.data for views in stencil._views]
    assert (centres[1] - centres[0]) % 4096 == 2048
    # Every block view but the shifted sources, which start where a
    # neighbor's position does.
    blocks = [b for parity in stencil._blocks for b in parity]
    views = [v for b in blocks for v in (b.src, b.out, b.W0, b.dt_mask, b.tmp,
                                         *(() if b.scores is None else b.scores),
                                         *(w for w, _ in b.weights), *(d for d, _ in b.diffs),
                                         *(c for terms in b.plan for pair in terms for c in pair
                                           if isinstance(c, np.ndarray)),
                                         *(_critical_arrays(b.dynamic) if b.dynamic else ()))]
    assert all(v.ctypes.data % 64 == 0 for v in views)
    assert all((b.out.ctypes.data - b.src.ctypes.data) % 4096 == 2048 for b in blocks)
    return blocks


def _stepped_stencil(name, counts, optimal):
    sys = make_benchmark(name, grid_counts=counts)
    op = _Operator(sys, PropagationConfig(horizon=0.01),
                   None if optimal else PolicyTable.zero(sys))
    op.stencil.load(interior_random_field(sys, 3).values)
    op.stencil.step()
    op.stencil.step()
    return op.stencil


@pytest.mark.parametrize("name, counts, optimal", [
    ("di_omni", (81, 161), False),            # fixed policy
    ("di_omni", (81, 161), True),             # box corners
    ("wig_aircraft", (9, 9, 9), True),        # 9^3 candidate grid
    ("di_input_noise", (21, 41), True),       # corners + critical input
    ("bicycle", (13, 13, 12, 7), True),       # periodic heading ghosts
])
def test_step_arrays_start_on_cache_lines(name, counts, optimal):
    # Stores that split a cache line, and loads 4K-aliased with the step's
    # stores, make a step up to 1.5x slower; the layout rules them out.
    assert len(_assert_placement(_stepped_stencil(name, counts, optimal))) == 2


def test_block_views_start_on_cache_lines(monkeypatch):
    # Blocks start at whole pages of the span, so on several blocks, the
    # last one short, every view keeps the placement.
    monkeypatch.setattr(semigroup, "_SPAN_BLOCK", 1024)
    stencil = _stepped_stencil("bicycle", (13, 13, 12, 7), True)
    assert len(_assert_placement(stencil)) == 2 * 17


def test_a_span_within_one_block_is_one_block():
    # A span of at most _SPAN_BLOCK positions is one block, the whole span,
    # so the step makes the numpy calls of an unblocked one; a longer span
    # splits into equal blocks of whole pages and a last one no longer.
    size = semigroup._SPAN_BLOCK
    for span in (1, 511, 512, 4096, size):
        assert _block_ranges(span) == [(0, span)]
    for span, count in ((size + 1, 2), (132651, 5), (274824, 9)):  # wig 51^3, bicycle
        ranges = _block_ranges(span)
        lengths = {b - a for a, b in ranges[:-1]}
        assert len(ranges) == count and ranges[-1][1] == span and len(lengths) == 1
        assert lengths.pop() % 512 == 0 and ranges[-1][1] - ranges[-1][0] <= size
        assert all(b == c for (_, b), (c, _) in zip(ranges, ranges[1:]))
    sys = make_benchmark("di_omni", grid_counts=(81, 161))
    stencil = _Operator(sys, PropagationConfig(horizon=0.01)).stencil
    for blocks, views in zip(stencil._blocks, stencil._views):
        block, = blocks
        assert block.at == slice(0, stencil.span)
        assert np.shares_memory(block.src, views[stencil._centre])
        assert block.src.shape == views[stencil._centre].shape == (stencil.span,)
        assert block.tmp.shape == stencil._tmp.shape == (stencil.span,)


def _assert_distinct_rows(stencil):
    """The stencil stores one array per distinct array row of its fixed
    candidates' plans, and no other candidate row."""
    fixed = stencil._plan[:len(stencil._plan) - (stencil._dynamic_rows is not None)]
    used = {id(c) for terms in fixed for _, c in terms if isinstance(c, np.ndarray)}
    stored = list(stencil._rows.values())
    assert used == {id(row) for row in stored}
    assert len({row.tobytes() for row in stored}) == len(stored)


@pytest.mark.parametrize("name, counts, kw, array_terms, distinct", [
    ("bicycle", (13, 13, 12, 7), {}, 8, 2),               # corners, shared turn rates
    ("wig_aircraft", (9, 9, 9), {"candidate_points": 5}, None, None),
    ("di_input_noise", (21, 41), {}, None, None),          # plus the critical input
    ("di_omni", (21, 41), {}, 0, 0),                       # constant-rate corners
])
def test_stencil_stores_the_plans_distinct_rows(name, counts, kw, array_terms, distinct):
    # A zero row is dropped, a node-constant one is a float, and array rows
    # with equal bytes share one array: on the bicycle the steering corners
    # move the heading at +-v, so 8 array terms read 2 rows.
    sys = make_benchmark(name, grid_counts=counts)
    stencil = _Operator(sys, PropagationConfig(horizon=0.01, **kw)).stencil
    _assert_distinct_rows(stencil)
    dynamic = stencil._dynamic_rows
    fixed = stencil._plan[:len(stencil._plan) - (dynamic is not None)]
    terms = [c for plan in fixed for _, c in plan if isinstance(c, np.ndarray)]
    if array_terms is not None:
        assert (len(terms), len(stencil._rows)) == (array_terms, distinct)
    if dynamic is not None:
        # The critical input keeps its own row on every offset.
        assert [j for j, _ in stencil._plan[-1]] == list(range(len(stencil.offsets)))
        assert all(np.shares_memory(c, dynamic) for _, c in stencil._plan[-1])
        assert not any(np.shares_memory(row, dynamic) for row in stencil._rows.values())


@pytest.mark.parametrize("block", [1, 5, 30, 4096])
def test_node_blocks_cover_the_grid_in_order(block):
    # The build's one node-block evaluator hands out every node once, in
    # the order of spec.nodes(), in contiguous blocks of at most ``block``
    # nodes; blocks of 1 or 5 nodes cut some rows down to single nodes.
    for counts in [(7,), (5, 6), (3, 4, 5), (7, 7, 6, 5)]:
        spec = GridSpec([0.0] * len(counts), np.arange(1.0, len(counts) + 1), counts,
                        periodic=[False] * (len(counts) - 1) + [True])
        seen = []
        x, total = _node_entries(
            spec, lambda x, at: seen.append(at) or [x, x.sum(axis=1)], [()], block)
        np.testing.assert_array_equal(x[()], spec.nodes())
        np.testing.assert_array_equal(total[()], spec.nodes().sum(axis=1))
        assert [at.start for at in seen] == [0] + [at.stop for at in seen[:-1]]
        assert seen[-1].stop == spec.size and all(at.stop - at.start <= block for at in seen)


def _assert_build_peak_near_operator_size(sys, policy=None):
    """The traced peak of an operator build stays within 1.3 times what the
    operator keeps."""
    sys.node_classes()
    semigroup._take_idle()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        op = _Operator(sys, PropagationConfig(horizon=0.5), policy)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.steps > 0 and peak - before <= 1.3 * (held - before)


@pytest.mark.parametrize("name, counts", [
    ("bicycle", (13, 13, 12, 7)),
    ("wig_aircraft", (14, 14, 14)),
    ("bicycle", (31, 31, 24, 11)),
    ("di_input_noise", (41, 81)),                 # the critical input's fit
])
def test_build_peak_stays_near_the_operator_size(name, counts):
    # The build holds little beside the stencil: node coordinates, the Gram
    # and the drift are evaluated in node blocks, the drift one candidate at
    # a time, and each candidate's drift columns are dropped once its rows
    # are compiled.
    _assert_build_peak_near_operator_size(make_benchmark(name, grid_counts=counts))


def test_fixed_policy_build_peak_stays_near_the_operator_size():
    sys = make_benchmark("bicycle", grid_counts=(31, 31, 24, 11))
    _assert_build_peak_near_operator_size(sys, PolicyTable.zero(sys))


def test_aligned_allocation():
    rows = _aligned((3, 13))
    assert rows.shape == (3, 13) and rows.strides == (16 * 8, 8) and not rows.any()
    assert all(row.ctypes.data % 64 == 0 for row in rows)
    flags = _aligned(100, bool)
    assert flags.dtype == bool and flags.ctypes.data % 64 == 0 and flags.flags.c_contiguous
    buf = _aligned(1000, lead=7, phase=2048)
    assert buf.flags.c_contiguous and (buf.ctypes.data + 7 * 8) % 4096 == 2048


class _FieldRows:
    """A dynamic last candidate: rewrites its rows from the field on every
    block of every evaluation, as the critical input does; row ``j`` is
    ``a[j] + b[j] * P``, so a zero ``b[j]`` gives a node-constant row and a
    zero pair an all-zero one."""

    def __init__(self, rows, a, b):
        self.rows, self.a, self.b = rows, a, b

    def blocks(self, ranges, diffs):
        return [None] * len(ranges)

    def update(self, block):
        for row, a, b in zip(self.rows, self.a, self.b):
            row = row[block.at]
            np.multiply(block.src, b, out=row)
            row += a


def _wide(rng, size):
    """Signed values over 80 binades, so sums of three or more of their
    products round differently in another order."""
    return rng.choice([-1.0, 1.0], size) * rng.uniform(1.0, 2.0, size) * 2.0 ** rng.integers(-40, 40, size)


@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 4), st.booleans())
@settings(max_examples=80, deadline=None)
def test_score_plan_matches_einsum_bytes(seed, n_cand, n_off, dynamic):
    # The plan against the arithmetic it replaced, einsum("jkl,jl->kl") and
    # np.max / np.argmax over axis 0, on stencils mixing all-zero,
    # node-constant and varying rows, with exact ties between candidates
    # and flat patches in the field.  A periodic dimension puts ghost
    # positions inside the span, where the scalar form differs from the
    # zero rows; only node positions are compared.
    rng = np.random.default_rng(seed)
    spec = GridSpec([-1.0, -1.0], [1.0, 1.0], (5, 6), periodic=(True, False))
    interior = rng.random(spec.size) < 0.8
    neighbors = [(s1, s2) for s1 in (-1, 0, 1) for s2 in (-1, 0, 1) if s1 or s2]
    offsets = [neighbors[i] for i in rng.choice(len(neighbors), n_off, replace=False)]
    stencil = _Stencil(spec, interior, {}, offsets)
    pos, fixed = stencil.pos, n_cand - dynamic
    # The rows on the span: zero at ghost positions, as the stencil pads them.
    rows = np.zeros((n_off, n_cand, stencil.span))
    for k in range(fixed):
        if k and rng.random() < 0.3:  # an exact tie with an earlier candidate
            rows[:, k] = rows[:, rng.integers(k)]
        else:
            for j in range(n_off):
                kind = rng.integers(3)  # all-zero, node-constant, varying
                rows[j, k, pos] = (0.0 if kind == 0 else _wide(rng, 1)[0] if kind == 1
                                   else _wide(rng, pos.size) * (rng.random(pos.size) < 0.9))
        stencil.add_candidate(rows[:, k, pos])
    if dynamic:
        kinds = rng.integers(3, size=n_off)
        stencil.dynamic = _FieldRows(stencil.add_dynamic(), _wide(rng, n_off) * (kinds > 0),
                                     _wide(rng, n_off) * (kinds > 1))
    stencil.compile()
    _assert_distinct_rows(stencil)
    values = _wide(rng, spec.size)
    flat = rng.random(spec.size) < 0.3
    values[flat] = values[flat][:1]
    stencil.load(values)

    arg = stencil.argmax()
    if dynamic:
        rows[:, -1] = stencil._dynamic_rows  # as the argmax rewrote them
    src = stencil._views[stencil._cur]
    diffs = np.array([src[o] - src[stencil._centre] for o in offsets])
    ref = np.einsum("jkl,jl->kl", rows, diffs)[:, pos]
    block, = stencil._blocks[stencil._cur]  # a span this short is one block
    scores = np.array([stencil._score(terms, np.empty(stencil.span), np.empty(stencil.span))
                       for terms in block.plan])[:, pos]
    best = stencil._max_score(block)[pos]

    def same_bytes(a, b):
        return np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                              np.ascontiguousarray(b).view(np.uint64))

    # einsum starts each sum from +0.0, so a score whose every term is
    # -0.0 is +0.0 there and -0.0 here; adding +0.0 maps -0.0 to +0.0 and
    # leaves every other value as it is.
    moved = scores.view(np.uint64) != ref.view(np.uint64)
    assert np.all(np.signbit(scores[moved]) & (scores[moved] == 0.0) & (ref[moved] == 0.0))
    assert same_bytes(scores + 0.0, ref)
    assert same_bytes(best + 0.0, np.max(ref, axis=0))
    assert np.array_equal(arg, np.argmax(ref, axis=0))


def _di_box(lower, upper, counts=(9, 17)):
    """``di_omni`` with the input box ``[lower, upper]``."""
    di = make_benchmark("di_omni", grid_counts=counts)
    return SystemModel(name="di_box", n_x=2, n_u=1, n_w=2, drift=di.drift,
                       diffusion=di.diffusion, input_lower=[lower], input_upper=[upper],
                       grid=di.grid, safe_set=di.safe_set)


@pytest.fixture(scope="module")
def corner_operators():
    """``di_omni`` 9x17, both corners at rate 4.0, built twice: once with
    the one maximum over the shifted field, once with the general scorer."""
    sys, cfg = make_benchmark("di_omni", grid_counts=(9, 17)), PropagationConfig(horizon=0.1)
    one_max = _Operator(sys, cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Stencil, "_shared_rate", lambda self: None)
        general = _Operator(sys, cfg)
    block, = one_max.stencil._blocks[0]
    assert block.rate == 4.0 and len(block.corners) == 2
    assert not general.stencil._blocks[0][0].corners
    return one_max, general


# Values whose differences tie, cancel to either signed zero and reach the
# subnormals; the killed nodes read +0.0.
_TIE_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 2.0**-1022]


@given(st.lists(st.sampled_from(_TIE_VALUES), min_size=153, max_size=153))
@settings(max_examples=150, deadline=None)
def test_one_max_step_matches_the_general_scorer_bytes(corner_operators, values):
    # c (max_k P[o_k] - P) has the bits of max_k c (P[o_k] - P), with ties
    # between the two neighbours, exact zeros and -0.0 entries (semigroup
    # module docstring): the candidate part and the whole step.
    parts, fields = [], []
    for op in corner_operators:
        op.stencil.load(np.array(values))
        block, = op.stencil._blocks[op.stencil._cur]
        best = op.stencil._max_shifted(block) if block.corners else op.stencil._max_score(block)
        parts.append(best.copy())
        op.stencil.step()
        fields.append(op.stencil.values())
    assert parts[0].tobytes() == parts[1].tobytes()
    assert fields[0].tobytes() == fields[1].tobytes()


@pytest.mark.parametrize("build", [
    lambda: _di_box(-1.0, 2.0),  # unequal corner rates, 4.0 and 8.0
    lambda: make_benchmark("di_input_noise", grid_counts=(9, 17)),  # array terms
    lambda: _di_box(-0.1, 0.1),  # one rate, 0.4
], ids=["asymmetric_box", "di_input_noise", "rate_below_one"])
def test_other_plans_keep_the_general_scorer(build):
    op = _Operator(build(), PropagationConfig(horizon=0.1))
    assert all(not block.corners for blocks in op.stencil._blocks for block in blocks)


def test_one_max_below_rate_one_would_move_a_zero():
    # Why a shared rate below 1 keeps the general scorer: there a subnormal
    # difference can scale to -0.0 and tie the +0.0 score of a greater
    # source, and the maximum of the scores and the maximum of the sources
    # then keep different zeros.
    sys = _di_box(-0.1, 0.1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Stencil, "_shared_rate", lambda self: self._plan[0][0][1])
        op = _Operator(sys, PropagationConfig(horizon=0.0))
    assert op.stencil._plan == [[(0, 0.4)], [(1, 0.4)]]
    assert op.stencil.offsets == [(0, -1), (0, 1)]
    values = np.zeros(sys.grid.shape)
    values[4, 8], values[4, 9] = -0.0, -5e-324  # P and its neighbour above
    op.stencil.load(values.ravel())
    block, = op.stencil._blocks[op.stencil._cur]
    at = op.stencil.pos[np.ravel_multi_index((4, 8), sys.grid.shape)]
    general = op.stencil._max_score(block)[at]
    one_max = op.stencil._max_shifted(block)[at]
    assert general == one_max == 0.0 and np.signbit(general) != np.signbit(one_max)


class TestPropagateOptimal:
    def test_dominates_fixed_policies(self, di_small):
        sys = di_small
        f = interior_random_field(sys, 3)
        dt = 1e-3  # stable for every admissible policy (corner loads dominate)
        cfg = PropagationConfig(horizon=0.05, dt=dt)
        opt, _ = propagate_optimal(f, sys, cfg)
        rng = np.random.default_rng(8)
        for _ in range(5):
            inputs = rng.uniform(-1.0, 1.0, size=(sys.grid.size, 1))
            pol = PolicyTable(sys.grid, inputs, sys.input_lower, sys.input_upper)
            fixed = propagate(f, sys, pol, cfg)
            assert np.all(opt.values >= fixed.values - 1e-11)

    def test_bang_bang_policy(self, di_small):
        # [DERIVED] linear-in-u maximization over an interval attains an
        # endpoint: the argmax policy picks sign of d(psi)/dv wherever the
        # upwind choice is unambiguous (both one-sided differences agree).
        sys = di_small
        nodes = sys.grid.nodes()
        bump = np.maximum(0.0, 1.0 - nodes[:, 0] ** 2 - (nodes[:, 1] / 2.0) ** 2)
        f = ScalarField(sys.grid, np.where(sys.interior_mask(), bump, 0.0))
        policy = argmax_policy(f, sys, PropagationConfig(horizon=0.05))
        assert set(np.unique(policy.inputs)) <= {-1.0, 1.0}
        v = f.shaped()
        dv_fwd = np.diff(v, axis=1)
        agree = (dv_fwd[:, :-1] * dv_fwd[:, 1:]) > 1e-6
        sign = np.sign(dv_fwd[:, :-1])
        pol = policy.inputs[:, 0].reshape(sys.grid.shape)[:, 1:-1]
        interior = sys.interior_mask().reshape(sys.grid.shape)[:, 1:-1]
        check = agree & interior
        assert np.all(pol[check] == sign[check])
        # the operator's returned policy is scored against the *output* field
        out, out_policy = propagate_optimal(f, sys, PropagationConfig(horizon=0.05))
        resc = argmax_policy(out, sys, PropagationConfig(horizon=0.05))
        assert np.array_equal(out_policy.inputs, resc.inputs)

    def test_quadratic_candidate_rule(self):
        # di_input_noise: argmax over {lo, hi, clamp(-b_v/b_vv)} of the
        # discrete generator; the winner must beat both endpoints.
        sys = make_benchmark("di_input_noise", grid_counts=(21, 41))
        nodes = sys.grid.nodes()
        bump = np.maximum(0.0, 1.0 - nodes[:, 0] ** 2 - (nodes[:, 1] / 2.0) ** 2) ** 2
        f = ScalarField(sys.grid, np.where(sys.interior_mask(), bump, 0.0))
        policy = argmax_policy(f, sys, PropagationConfig(horizon=0.05))
        cls = sys.node_classes()
        rng = np.random.default_rng(4)
        interior_nodes = np.nonzero(cls == 0)[0]
        for node in rng.choice(interior_nodes, size=60, replace=False):
            node = int(node)
            chosen = apply_generator(f, sys, policy.inputs[node], node)
            for u_end in (-1.0, 1.0):
                assert chosen >= apply_generator(f, sys, np.array([u_end]), node) - 1e-10

    def test_deterministic_positivity(self):
        sys = make_benchmark("di_deterministic", grid_counts=(21, 41))
        f = interior_random_field(sys, 12)
        out, _ = propagate_optimal(f, sys, PropagationConfig(horizon=0.2))
        assert np.min(out.values) >= 0.0

    def test_zero_horizon_returns_input(self, di_small):
        f = interior_random_field(di_small, 2)
        out, policy = propagate_optimal(f, di_small, PropagationConfig(horizon=0.0))
        assert np.array_equal(out.values, f.values)
        assert policy.inputs.shape == (di_small.grid.size, 1)


@pytest.mark.parametrize("name, counts, cfg", [
    ("bicycle", (13, 13, 12, 7), PropagationConfig(horizon=0.02)),        # periodic ghosts
    ("di_input_noise", (21, 41), PropagationConfig(horizon=0.05)),        # critical input
    ("di_omni", (21, 41), PropagationConfig(horizon=3e-3, dt=1e-3)),      # odd step count
])
def test_operator_reuse_matches_fresh_calls(name, counts, cfg):
    # Power iteration applies one operator again and again; each application
    # must give the bits of a freshly built one, whatever the last one left
    # in the ghosts, the ping-pong buffers and the critical input.
    sys = make_benchmark(name, grid_counts=counts)
    fields = [interior_random_field(sys, seed) for seed in (5, 6)]
    policy = argmax_policy(fields[0], sys, cfg)
    optimal, fixed = _Operator(sys, cfg), _Operator(sys, cfg, policy)
    if cfg.dt is not None:
        assert optimal.steps % 2 == 1 and fixed.steps % 2 == 1
    for f in fields:
        out, out_policy = propagate_optimal(f, sys, cfg)
        assert optimal.apply(f.values).tobytes() == out.values.tobytes()
        assert optimal.policy().inputs.tobytes() == out_policy.inputs.tobytes()
        fresh = propagate(f, sys, policy, cfg)
        assert fixed.apply(f.values).tobytes() == fresh.values.tobytes()


def correlated_noise_system(c):
    """2-D system with noise Gram [[1, c], [c, 1]] on a (21, 41) grid over
    [-1, 1]^2 (h = 0.1, 0.05).  Scaled diagonal dominance
    a_ii/h_i >= sum_j |a_ij|/h_j holds for |c| <= 0.5 and fails above."""
    chol = np.linalg.cholesky(np.array([[1.0, c], [c, 1.0]]))

    def drift(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        out = np.empty(np.broadcast_shapes(x[..., 0].shape, u[..., 0].shape) + (2,))
        out[..., 0] = x[..., 1]
        out[..., 1] = u[..., 0] - 0.5 * x[..., 0]
        return out

    def diffusion(x, u):
        shape = np.broadcast_shapes(np.asarray(x)[..., 0].shape, np.asarray(u)[..., 0].shape)
        return np.broadcast_to(chol, shape + (2, 2)).copy()

    return SystemModel(name=f"correlated_{c}", n_x=2, n_u=1, n_w=2, drift=drift,
                       diffusion=diffusion, input_lower=[-1.0], input_upper=[1.0],
                       grid=GridSpec([-1.0, -1.0], [1.0, 1.0], (21, 41)),
                       safe_set=ImplicitSet("box"))


class TestMixedDerivativeStencil:
    def test_non_dominant_noise_raises(self):
        sys = correlated_noise_system(0.8)
        f = interior_random_field(sys, 1)
        cfg = PropagationConfig(horizon=0.01)
        with pytest.raises(StabilityViolation, match=r"node \d+ .* offset \(-?1, 0\)"):
            propagate(f, sys, PolicyTable.zero(sys), cfg)
        with pytest.raises(StabilityViolation, match="diagonally dominant"):
            propagate_optimal(f, sys, cfg)

    @pytest.mark.parametrize("c", [0.4, -0.4])
    def test_dominant_noise_runs_monotone(self, c):
        sys = correlated_noise_system(c)
        cfg = PropagationConfig(horizon=0.05)
        for seed in range(5):
            f = interior_random_field(sys, seed)
            out = propagate(f, sys, PolicyTable.constant(sys, [0.3]), cfg)
            assert np.min(out.values) >= 0.0
            assert sup_norm(out) <= sup_norm(f) + 1e-14
            opt, _ = propagate_optimal(f, sys, cfg)
            assert np.min(opt.values) >= 0.0

    @pytest.mark.parametrize("c", [0.4, -0.4])
    def test_generator_consistency(self, c):
        # One explicit step of length delta reproduces apply_generator,
        # including its sign-split cross stencil.
        sys = correlated_noise_system(c)
        nodes = sys.grid.nodes()
        smooth = np.cos(nodes[:, 0]) * np.exp(-0.3 * nodes[:, 1] ** 2) + 0.2 * nodes[:, 0] * nodes[:, 1]
        f = ScalarField(sys.grid, np.where(sys.interior_mask(), smooth, 0.0))
        u = np.array([0.25])
        delta = 1e-5
        out = propagate(f, sys, PolicyTable.constant(sys, u), PropagationConfig(horizon=delta))
        quotient = (out.values - f.values) / delta
        rng = np.random.default_rng(0)
        for node in rng.choice(np.nonzero(sys.interior_mask())[0], size=40, replace=False):
            gen = apply_generator(f, sys, u, int(node))
            assert quotient[node] == pytest.approx(gen, rel=1e-9, abs=1e-9)


def thin_input_noise_system():
    """A quadratic-regime system on a (21, 41) grid over [-1, 1]^2 (h = 0.1,
    0.05) with noise Gram ``[[2, c], [c, 0.1 + 0.5 u^2]]``, ``c = 0.2 (1 + x)``:
    diagonally dominant (``a_vv / h_v >= |c| / h_x``) at the box corners
    ``u = +-1`` but not near ``u = 0``, most of all at large ``x``."""

    def drift(x, u):
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)[..., 0]
        return np.stack(np.broadcast_arrays(x[..., 1], u), axis=-1)

    def diffusion(x, u):
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)[..., 0]
        c, u = np.broadcast_arrays(0.2 * (1.0 + x[..., 0]), u)
        s = np.zeros(c.shape + (2, 2))
        s[..., 0, 0], s[..., 1, 0] = np.sqrt(2.0), c / np.sqrt(2.0)
        s[..., 1, 1] = np.sqrt(0.1 + 0.5 * u**2 - 0.5 * c**2)
        return s

    return SystemModel(name="thin_input_noise", n_x=2, n_u=1, n_w=2, drift=drift,
                       diffusion=diffusion, input_lower=[-1.0], input_upper=[1.0],
                       grid=GridSpec([-1.0, -1.0], [1.0, 1.0], (21, 41)),
                       safe_set=ImplicitSet("box"))


@pytest.mark.parametrize("block", [None, 512])
def test_critical_input_with_non_dominant_noise_raises(monkeypatch, block):
    # The critical input of a bump is near 0 along v = 0, where the axis
    # rate towards (0, -+1) is negative; the step reports the worst node of
    # the whole span, also when the span is split into blocks and the worst
    # node lies in the second one.
    if block is not None:
        monkeypatch.setattr(semigroup, "_SPAN_BLOCK", block)
    sys = thin_input_noise_system()
    assert sys.regime == "quadratic"
    nodes = sys.grid.nodes()
    bump = (1.0 - nodes[:, 0] ** 2) * (1.0 - nodes[:, 1] ** 2)
    f = ScalarField(sys.grid, np.where(sys.interior_mask(), bump, 0.0))
    semigroup._take_idle()
    try:
        with pytest.raises(StabilityViolation) as raised:
            propagate_optimal(f, sys, PropagationConfig(horizon=0.05))
    finally:
        semigroup._take_idle()
    assert str(raised.value) == (
        "non-monotone stencil under candidate 2: weight -2.571e-02 at node 799 (19, 20) "
        "on offset (0, -1); the noise Gram matrix is not diagonally dominant "
        "(a_ii/h_i >= sum_j |a_ij|/h_j)")


@pytest.mark.parametrize("name, counts, kw", [
    ("di_omni", (21, 41), {}),                               # box corners
    ("di_input_noise", (21, 41), {}),                        # corners + critical point
    ("wig_aircraft", (9, 9, 9), {"candidate_points": 5}),    # candidate grid
])
def test_optimal_policy_attains_candidate_max(name, counts, kw):
    # Tie-tolerant: the returned input's generator value equals the best
    # candidate's, whichever of several tied candidates was returned.
    sys = make_benchmark(name, grid_counts=counts)
    cfg = PropagationConfig(horizon=0.05, **kw)
    out, policy = propagate_optimal(interior_random_field(sys, 11), sys, cfg)
    # The candidates, listed here: the box corners, or the aircraft's input
    # grid; one point on a degenerate axis.
    candidates = list(itertools.product(*[
        (lo,) if lo == hi else np.linspace(lo, hi, cfg.candidate_points)
        if name == "wig_aircraft" else (lo, hi)
        for lo, hi in zip(sys.input_lower, sys.input_upper)]))
    rng = np.random.default_rng(5)
    for node in rng.choice(np.nonzero(sys.interior_mask())[0], size=30, replace=False):
        node = int(node)
        chosen = apply_generator(out, sys, policy.inputs[node], node)
        best = max(apply_generator(out, sys, u, node) for u in candidates)
        assert chosen == pytest.approx(max(best, chosen), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("kw", [
    {"horizon": math.nan}, {"horizon": math.inf}, {"horizon": -1.0},
    {"dt": math.nan}, {"dt": math.inf}, {"dt": 0.0},
])
def test_non_finite_horizon_and_dt_rejected(kw):
    # A nan horizon made zero steps, so the operator was the identity and a
    # synthesis reported gamma = nan as converged; inf overflowed the step count.
    key = next(iter(kw))
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        PropagationConfig(**kw)


def test_non_integer_candidate_points_rejected():
    # 5.0 used to pass here and, on a nonaffine system, fail in np.linspace
    # with a TypeError.
    with pytest.raises(ValueError, match="candidate_points must be an integer, got 5.0"):
        PropagationConfig(candidate_points=5.0)


@pytest.mark.parametrize("points", [0, 1, -3])
def test_candidate_points_below_two_rejected(points):
    with pytest.raises(ValueError, match="candidate_points must be at least 2"):
        PropagationConfig(candidate_points=points)
    assert PropagationConfig(candidate_points=2).candidate_points == 2


class TestPolicyTable:
    def test_clamps_on_write(self, di_small):
        inputs = np.full((di_small.grid.size, 1), 7.0)
        pol = PolicyTable(di_small.grid, inputs, di_small.input_lower, di_small.input_upper)
        assert np.all(pol.inputs == 1.0)

    def test_channel_fields_roundtrip(self, di_small):
        rng = np.random.default_rng(1)
        inputs = rng.uniform(-1, 1, size=(di_small.grid.size, 1))
        pol = PolicyTable(di_small.grid, inputs, di_small.input_lower, di_small.input_upper)
        fields = pol.channel_fields()
        assert len(fields) == 1
        assert_allclose(fields[0].values, pol.inputs[:, 0])

    def test_one_dimensional_inputs_are_one_channel(self, di_small):
        values = np.linspace(-2.0, 2.0, di_small.grid.size)
        pol = PolicyTable(di_small.grid, values, di_small.input_lower, di_small.input_upper)
        assert pol.inputs.shape == (di_small.grid.size, 1)
        assert_allclose(pol.inputs[:, 0], np.clip(values, -1.0, 1.0))

    # a 1-D array is read as one channel, so its shape is shown with it
    @pytest.mark.parametrize("shape, shown", [
        ((861, 2), "(861, 2)"), ((860, 1), "(860, 1)"), ((860,), "(860, 1)")])
    def test_shape_must_be_nodes_by_channels(self, di_small, shape, shown):
        with pytest.raises(ValueError,
                           match=re.escape(f"policy shape {shown} != (nodes=861, n_u=1)")):
            PolicyTable(di_small.grid, np.zeros(shape), di_small.input_lower,
                        di_small.input_upper)


# --- the idle operator of the one-shot calls --------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """The arguments of every operator build from here on; the slot starts empty."""
    real, calls = _Operator.__init__, []

    def counted(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(_Operator, "__init__", counted)
    semigroup._take_idle()
    yield calls
    semigroup._take_idle()


def _one_shot(call, f, sys, cfg, policy=None):
    """The bytes of a one-shot call's arrays."""
    if call == "propagate_optimal":
        out, policy = propagate_optimal(f, sys, cfg)
        return [out.values.tobytes(), policy.inputs.tobytes()]
    if call == "propagate":
        return [propagate(f, sys, policy, cfg).values.tobytes()]
    return [argmax_policy(f, sys, cfg).inputs.tobytes()]


@pytest.mark.parametrize("call", ["propagate_optimal", "propagate", "argmax_policy"])
@pytest.mark.parametrize("name, counts, cfg", [
    ("di_omni", (21, 41), PropagationConfig(horizon=3e-3, dt=1e-3)),      # box corners
    ("di_input_noise", (21, 41), PropagationConfig(horizon=0.05)),        # critical input
    ("bicycle", (13, 13, 12, 7), PropagationConfig(horizon=0.02)),        # periodic ghosts
])
def test_repeated_one_shot_call_reuses_its_operator(builds, call, name, counts, cfg):
    # The second call with one key builds nothing and gives the bits of a
    # call made on an empty slot, whatever the first call left in the
    # stencil; an equal config object is the same key.
    sys = make_benchmark(name, grid_counts=counts)
    policy = PolicyTable.constant(sys, 0.5 * (sys.input_lower + sys.input_upper))
    first, second = (interior_random_field(sys, seed) for seed in (7, 8))
    _one_shot(call, first, sys, cfg, policy)
    assert len(builds) == 1
    reused = _one_shot(call, second, sys, cfg, policy)
    again = _one_shot(call, first, sys, replace(cfg), policy)
    assert len(builds) == 1
    semigroup._take_idle()
    assert _one_shot(call, second, sys, cfg, policy) == reused
    semigroup._take_idle()
    assert _one_shot(call, first, sys, cfg, policy) == again
    assert len(builds) == 3


def test_other_keys_build(builds, di_small):
    cfg = PropagationConfig(horizon=0.01)
    f = interior_random_field(di_small, 4)
    policy = PolicyTable.zero(di_small)
    propagate(f, di_small, policy, cfg)
    propagate(f, di_small, PolicyTable.zero(di_small), cfg)           # equal inputs, another object
    propagate(f, di_small, PolicyTable.zero(di_small), replace(cfg, cfl_safety=0.5))
    propagate_optimal(f, di_small, cfg)                                # the optimal operator
    propagate_optimal(f, di_small, replace(cfg, horizon=0.02))         # another config
    other = make_benchmark("di_omni", grid_counts=(21, 41))            # an equal model
    propagate_optimal(ScalarField(other.grid, f.values), other, replace(cfg, horizon=0.02))
    assert len(builds) == 6


def test_build_frees_the_idle_operator_first(monkeypatch, di_small):
    # The idle operator is freed, by reference count alone, before the next
    # build allocates: an idle operator never lives beside a build.
    semigroup._take_idle()
    propagate_optimal(interior_random_field(di_small, 1), di_small, PropagationConfig(horizon=0.01))
    idle = weakref.ref(semigroup._idle[3])
    real, alive = semigroup._split_stencil, []

    def split(*args, **kwargs):
        alive.append(idle() is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(semigroup, "_split_stencil", split)
    power_iteration(di_small, PolicyTable.zero(di_small), PropagationConfig(horizon=0.01),
                    interior_random_field(di_small, 2), max_iter=2)
    assert alive == [False]


@pytest.mark.parametrize("synthesis", ["power", "power_policy", "power_policy_two_step"])
def test_syntheses_leave_the_slot_empty(builds, di_small, synthesis):
    cfg = PropagationConfig(horizon=0.01)
    f = interior_random_field(di_small, 3)
    propagate_optimal(f, di_small, cfg)
    assert semigroup._idle is not None
    if synthesis == "power":
        power_iteration(di_small, PolicyTable.zero(di_small), cfg, f, max_iter=2)
    else:
        power_policy_iteration(di_small, cfg, f, max_iter=2,
                               accelerated=synthesis == "power_policy")
    assert semigroup._idle is None


def test_failed_call_leaves_nothing(builds, monkeypatch, brownian):
    f, zero, cfg = sine_mode(brownian), PolicyTable.zero(brownian), PropagationConfig(horizon=0.01)
    propagate(f, brownian, zero, cfg)
    with pytest.raises(StabilityViolation):                      # a failed build
        propagate(f, brownian, zero, PropagationConfig(horizon=0.1, dt=1.0))
    assert semigroup._idle is None
    propagate(f, brownian, zero, cfg)

    def fail(self, values):
        raise FloatingPointError("stopped")

    monkeypatch.setattr(_Operator, "apply", fail)
    with pytest.raises(FloatingPointError):                      # a reused operator that fails
        propagate(f, brownian, zero, cfg)
    assert semigroup._idle is None and len(builds) == 3


def test_threads_never_share_an_operator(builds):
    # Each thread takes the idle operator or builds its own; the bytes are
    # those of the same calls made one after another.  A shared operator
    # would mix two fields in one stencil.
    sys = make_benchmark("di_input_noise", grid_counts=(21, 41))
    cfg = PropagationConfig(horizon=0.05)
    fields = [interior_random_field(sys, seed) for seed in (21, 22, 23, 24)]

    def calls(f):
        return [_one_shot("propagate_optimal", f, sys, cfg) for _ in range(3)]

    expected = [calls(f) for f in fields]
    got, start = [None] * len(fields), threading.Barrier(len(fields), timeout=60)

    def worker(i):
        start.wait()
        got[i] = calls(fields[i])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(fields))]
    interval = sys_module.getswitchinterval()
    sys_module.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys_module.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected
