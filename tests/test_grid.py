import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scbf.errors import DegenerateSet, OutOfDomain
from scbf.grid import (
    BOUNDARY,
    _blend,
    _corners,
    EXTERIOR,
    INTERIOR,
    GridSpec,
    ImplicitSet,
    ScalarField,
    classify_nodes,
    gradient_at,
    hessian_at,
    interpolate,
    read_field,
    sup_norm,
    write_field,
)


def grid2d(counts=(11, 21)):
    return GridSpec([-1.0, -2.0], [1.0, 2.0], counts)


def corner_by_corner(spec, stack, x):
    """Reference multilinear blend of ``(K, size)`` node arrays, built one
    cell corner at a time in ``itertools.product`` order."""
    cell, frac = spec.locate(x)
    strides = np.array([int(np.prod(spec.counts[d + 1:])) for d in range(spec.dims)])
    out = np.zeros((cell.shape[0], stack.shape[0]))
    for corner in itertools.product((0, 1), repeat=spec.dims):
        idx = cell + np.asarray(corner)
        for d in range(spec.dims):
            if spec.periodic[d]:
                idx[:, d] %= spec.counts[d]
        w = np.ones(cell.shape[0])
        for d, c in enumerate(corner):
            w *= frac[:, d] if c else (1.0 - frac[:, d])
        out += w[:, None] * stack[:, idx @ strides].T
    return out


def located_reference(spec, table, x):
    """Multilinear blend of a node-major ``(size, K)`` table at points ``x``,
    written apart from ``GridSpec``'s locate: each point is located one
    coordinate at a time in Python floats, and each corner of its cell in
    ``itertools.product`` order adds ``table[node] * weight`` to a sum that
    starts at 0.0, the weight multiplied in dimension order."""
    h = spec.spacing
    out = np.empty((len(x), table.shape[1]))
    for b, point in enumerate(x):
        cell, frac = [], []
        for d in range(spec.dims):
            lo, hi, n = spec.lower[d], spec.upper[d], spec.counts[d]
            v = float(point[d])
            if spec.periodic[d]:
                v = lo + float(np.mod(v - lo, hi - lo))
            t = (v - lo) / float(h[d])
            i = min(max(int(t), 0), n - 1 if spec.periodic[d] else n - 2)
            cell.append(i)
            frac.append(t - i)
        total = np.zeros(table.shape[1])
        for corner in itertools.product((0, 1), repeat=spec.dims):
            node, weight = 0, None
            for d, c in enumerate(corner):
                i = cell[d] + c
                if spec.periodic[d]:
                    i %= spec.counts[d]
                node = node * spec.counts[d] + i
                f = frac[d] if c else 1.0 - frac[d]
                weight = f if weight is None else weight * f
            total = total + table[node] * weight
        out[b] = total
    return out


@st.composite
def grids_and_points(draw):
    """A 1-D to 4-D grid with at least one periodic axis, and points on it:
    anywhere in a cell, on a node, on the upper face and, along a periodic
    axis, up to three periods outside the box."""
    dims = draw(st.integers(1, 4))
    periodic = draw(st.lists(st.booleans(), min_size=dims, max_size=dims))
    periodic[draw(st.integers(0, dims - 1))] = True
    lower = [draw(st.floats(-2.0, 1.0)) for _ in range(dims)]
    spec = GridSpec(lower, [lo + draw(st.floats(0.5, 3.0)) for lo in lower],
                    [draw(st.integers(3, 6)) for _ in range(dims)], periodic)

    def coordinate(d):
        lo, hi = spec.lower[d], spec.upper[d]
        kind = draw(st.sampled_from(["cell", "node", "upper"]
                                    + ["outside"] * spec.periodic[d]))
        if kind == "node":
            return float(spec.coordinates(d)[draw(st.integers(0, spec.counts[d] - 1))])
        if kind == "upper":
            return hi
        if kind == "outside":
            return draw(st.floats(lo - 3.0 * (hi - lo), hi + 3.0 * (hi - lo)))
        return draw(st.floats(lo, hi))

    points = [[coordinate(d) for d in range(dims)] for _ in range(draw(st.integers(1, 6)))]
    return spec, np.array(points)


class TestCornersAgainstReference:
    @given(grids_and_points(), st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_blend_bit_identical(self, grid_points, seed, channels):
        spec, x = grid_points
        table = np.random.default_rng(seed).normal(size=(spec.size, channels))
        got = _blend(table, _corners(spec, x))
        assert got.tobytes() == located_reference(spec, table, x).tobytes()

    @given(grids_and_points(), st.floats(1e-9, 10.0), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_outside_point_names_its_coordinate(self, grid_points, by, below):
        spec, x = grid_points
        bounded = [d for d in range(spec.dims) if not spec.periodic[d]]
        if not bounded:
            return
        d, j = bounded[0], len(x) - 1
        lo, hi = spec.lower[d], spec.upper[d]
        x[j, d] = lo - by if below else hi + by
        message = f"coordinate {d} = {np.float64(x[j, d])} outside [{lo}, {hi}]"
        with pytest.raises(OutOfDomain, match=f"^{re.escape(message)}$"):
            _corners(spec, x)

    def test_last_node_rounded_above_upper_is_located(self):
        # lower + h (n - 1) rounds one ulp above upper here; that node was
        # rejected as outside the grid it belongs to.
        spec = GridSpec((0.0, 0.0), (1.5545545667235758, 1.0), (4, 3), (False, True))
        assert spec.coordinates(0)[-1] > spec.upper[0]
        table = np.arange(spec.size, dtype=float)[:, None]
        assert np.array_equal(_blend(table, _corners(spec, spec.nodes()))[:, 0], table[:, 0])
        with pytest.raises(OutOfDomain, match=r"^coordinate 0 = 1\.6 outside"):
            spec.locate(np.array([1.6, 0.0]))


class TestSupNorm:
    def test_constant_field(self):
        spec = grid2d()
        assert sup_norm(ScalarField(spec, np.full(spec.size, 0.5))) == 0.5

    def test_zero_field(self):
        spec = grid2d()
        assert sup_norm(ScalarField(spec, np.zeros(spec.size))) == 0.0

    def test_sign_symmetry(self):
        spec = GridSpec([0.0], [1.0], [3])
        assert sup_norm(ScalarField(spec, [-3.0, 1.0, 2.0])) == 3.0

    @given(st.integers(0, 2**32 - 1), st.floats(-100, 100), st.floats(-100, 100))
    @settings(max_examples=25, deadline=None)
    def test_norm_axioms(self, seed, a, b):
        spec = GridSpec([0.0], [1.0], [7])
        rng = np.random.default_rng(seed)
        u = ScalarField(spec, rng.normal(size=7))
        v = ScalarField(spec, rng.normal(size=7))
        # absolute homogeneity
        assert sup_norm(ScalarField(spec, a * u.values)) == pytest.approx(
            abs(a) * sup_norm(u), rel=1e-12, abs=1e-12
        )
        # triangle inequality
        s = ScalarField(spec, u.values + v.values)
        assert sup_norm(s) <= sup_norm(u) + sup_norm(v) + 1e-12


class TestInterpolate:
    def test_node_exactness(self):
        spec = grid2d((5, 7))
        rng = np.random.default_rng(0)
        f = ScalarField(spec, rng.normal(size=spec.size))
        nodes = spec.nodes()
        for k in [0, 3, spec.size // 2, spec.size - 1]:
            assert interpolate(f, nodes[k]) == pytest.approx(f.values[k], abs=1e-12)

    def test_linearity_1d(self):
        spec = GridSpec([0.0], [1.0], [3])
        f = ScalarField(spec, [0.0, 0.5, 1.0])
        assert interpolate(f, [0.25]) == pytest.approx(0.25)

    def test_cell_center_symmetry(self):
        spec = GridSpec([0.0, 0.0], [1.0, 1.0], [3, 3])
        vals = np.zeros((3, 3))
        vals[1, :] = [0.0, 0.0, 0.0]
        vals[0, :] = [0.0, 0.0, 0.0]
        # cell with corners 0,0,1,1 around (0.25, 0.25)
        vals[0, 0] = 0.0
        vals[0, 1] = 0.0
        vals[1, 0] = 1.0
        vals[1, 1] = 1.0
        f = ScalarField(spec, vals.ravel())
        assert interpolate(f, [0.25, 0.25]) == pytest.approx(0.5)

    def test_out_of_domain(self):
        spec = grid2d()
        f = ScalarField(spec, np.zeros(spec.size))
        with pytest.raises(OutOfDomain):
            interpolate(f, [1.5, 0.0])

    def test_out_of_domain_beside_nan(self):
        spec = grid2d()
        f = ScalarField(spec, np.zeros(spec.size))
        with pytest.raises(OutOfDomain, match="coordinate 0 = 1.5"):
            interpolate(f, [[np.nan, 0.0], [1.5, 0.0]])

    def test_empty_batch(self):
        spec = grid2d()
        f = ScalarField(spec, np.zeros(spec.size))
        X = np.empty((0, 2))
        assert interpolate(f, X).shape == (0,)
        assert gradient_at(f, X).shape == (0, 2)
        assert hessian_at(f, X).shape == (0, 2, 2)

    def test_locate_cells_and_offsets(self):
        spec = GridSpec([0.0, 0.0], [1.0, 1.0], [5, 4], periodic=[False, True])
        cell, frac = spec.locate([[1.0, 0.5], [0.3, -0.25]])
        assert cell.tolist() == [[3, 2], [1, 3]]   # upper face stays in the last cell
        assert_allclose(frac, [[1.0, 0.0], [0.2, 0.0]], atol=1e-12)

    def test_periodic_wrap(self):
        spec = GridSpec([0.0], [1.0], [4], periodic=[True])
        f = ScalarField(spec, [1.0, 2.0, 3.0, 4.0])
        assert interpolate(f, [1.0]) == pytest.approx(1.0)   # wraps to 0
        assert interpolate(f, [-0.125]) == pytest.approx(2.5)  # between last and first

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_to_corner_by_corner(self, seed, dims):
        rng = np.random.default_rng(seed)
        counts = rng.integers(3, 7, size=dims)
        spec = GridSpec(-rng.random(dims), 1.0 + rng.random(dims), counts,
                        periodic=rng.random(dims) < 0.5)
        f = ScalarField(spec, rng.normal(size=spec.size))
        lo, hi = np.asarray(spec.lower), np.asarray(spec.upper)
        x = lo + (hi - lo) * rng.random((40, dims))
        x[:4] = np.where(rng.integers(0, 2, size=(4, dims)), hi, lo)   # box corners
        x[4:8] += np.where(spec.periodic, (hi - lo) * rng.integers(-2, 3, size=(4, dims)), 0.0)
        for table, at in ((f.values[None, :], lambda y: interpolate(f, y)[:, None]),
                          (np.stack([f.values, -f.values]), None)):
            ref = corner_by_corner(spec, table, x)
            got = at(x) if at else _blend(table.T.copy(), _corners(spec, x))
            assert got.tobytes() == ref.tobytes()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_bounds_random(self, seed):
        rng = np.random.default_rng(seed)
        spec = grid2d((6, 5))
        f = ScalarField(spec, rng.normal(size=spec.size))
        x = np.array([
            rng.uniform(spec.lower[0], spec.upper[0]),
            rng.uniform(spec.lower[1], spec.upper[1]),
        ])
        val = interpolate(f, x)
        assert f.values.min() - 1e-12 <= val <= f.values.max() + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_node_exactness_random(self, seed):
        rng = np.random.default_rng(seed)
        spec = GridSpec([0.0, -1.0], [2.0, 1.0], (5, 4), periodic=[False, True])
        f = ScalarField(spec, rng.normal(size=spec.size))
        k = int(rng.integers(spec.size))
        assert interpolate(f, spec.nodes()[k]) == pytest.approx(f.values[k], abs=1e-10)


class TestDerivatives:
    def test_linear_field(self):
        spec = grid2d((9, 9))
        nodes = spec.nodes()
        f = ScalarField(spec, nodes[:, 0])
        x = np.array([0.3, 0.4])
        assert_allclose(gradient_at(f, x), [1.0, 0.0], atol=1e-12)
        assert_allclose(hessian_at(f, x), np.zeros((2, 2)), atol=1e-12)

    def test_quadratic_exactness(self):
        spec = GridSpec([-1.0], [1.0], [21])  # h = 0.1
        nodes = spec.nodes()
        f = ScalarField(spec, nodes[:, 0] ** 2)
        H = hessian_at(f, np.array([0.35]))
        assert H[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_sine_gradient_order(self):
        # [DERIVED] central difference of sin at 0: error bounded by 2 h^2
        spec = GridSpec([-1.0], [1.0], [41])
        h = spec.spacing[0]
        nodes = spec.nodes()
        f = ScalarField(spec, np.sin(nodes[:, 0]))
        g = gradient_at(f, np.array([0.0]))[0]
        assert abs(g - 1.0) <= 2.0 * h * h

    def test_cross_derivative(self):
        spec = GridSpec([-1.0, -1.0], [1.0, 1.0], (11, 11))
        nodes = spec.nodes()
        f = ScalarField(spec, nodes[:, 0] * nodes[:, 1])
        H = hessian_at(f, np.array([0.1, -0.2]))
        assert H[0, 1] == pytest.approx(1.0, abs=1e-10)
        assert H[1, 0] == H[0, 1]

    def test_hessian_symmetric(self):
        rng = np.random.default_rng(3)
        spec = grid2d((8, 8))
        f = ScalarField(spec, rng.normal(size=spec.size))
        H = hessian_at(f, np.array([0.17, 0.71]))
        assert_allclose(H, H.T)


class TestClassify:
    def test_box_counts(self):
        spec = GridSpec([0.0, 0.0], [1.0, 1.0], (5, 5))
        cls = classify_nodes(spec, ImplicitSet("box"))
        assert (cls == INTERIOR).sum() == 9
        assert (cls == BOUNDARY).sum() == 16

    def test_disk_obstacle(self):
        spec = GridSpec([-2.0, -2.0], [2.0, 2.0], (21, 21))
        nodes = spec.nodes()
        sdf = ScalarField(spec, 1.0 - np.hypot(nodes[:, 0], nodes[:, 1]))
        cls = classify_nodes(spec, ImplicitSet("sdf", sdf))
        inside_obstacle = np.hypot(nodes[:, 0], nodes[:, 1]) < 1.0
        assert np.all(cls[inside_obstacle] == EXTERIOR)
        # ring of boundary nodes around the obstacle
        assert (cls == BOUNDARY).sum() > 4 * 20  # box shell plus obstacle ring

    def test_degenerate(self):
        spec = GridSpec([0.0], [1.0], [5])
        sdf = ScalarField(spec, np.full(5, 1.0))
        with pytest.raises((DegenerateSet, ValueError)):
            classify_nodes(spec, ImplicitSet("sdf", sdf))

    def test_periodic_dim_has_no_shell(self):
        spec = GridSpec([0.0, 0.0], [1.0, 1.0], (5, 8), periodic=[False, True])
        cls = classify_nodes(spec, ImplicitSet("box")).reshape(5, 8)
        assert np.all(cls[0, :] == BOUNDARY)
        assert np.all(cls[-1, :] == BOUNDARY)
        assert np.all(cls[1:-1, :] == INTERIOR)


class TestFieldFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        spec = GridSpec([-1.0, 0.0], [1.0, 3.0], (6, 5), periodic=[False, True])
        f = ScalarField(spec, rng.normal(size=spec.size))
        p1 = tmp_path / "a.fld"
        p2 = tmp_path / "b.fld"
        write_field(f, p1)
        g = read_field(p1)
        write_field(g, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert g.spec == spec
        assert np.array_equal(g.values, f.values)

    def test_rejects_non_finite(self):
        spec = GridSpec([0.0], [1.0], [3])
        with pytest.raises(ValueError):
            ScalarField(spec, [0.0, np.nan, 1.0])

    def test_header_errors(self, tmp_path):
        bad = tmp_path / "bad.fld"
        bad.write_text("not a field\n")
        with pytest.raises(ValueError):
            read_field(bad)


class TestGridSpec:
    def test_invariants(self):
        with pytest.raises(ValueError):
            GridSpec([0.0], [0.0], [5])
        with pytest.raises(ValueError):
            GridSpec([0.0], [1.0], [2])

    @pytest.mark.parametrize("count", [41.7, 41.0, "41"])
    def test_non_integer_count_rejected(self, count):
        # int() used to truncate 41.7 to a 41-node grid without a word.
        with pytest.raises(ValueError, match=f"counts must be an integer, got {count}"):
            GridSpec([0.0], [1.0], [count])
        assert GridSpec([0.0], [1.0], np.array([41])).counts == (41,)

    def test_periodic_excludes_endpoint(self):
        spec = GridSpec([0.0], [1.0], [4], periodic=[True])
        assert spec.spacing[0] == pytest.approx(0.25)
        assert spec.coordinates(0)[-1] == pytest.approx(0.75)

    def test_spacing_nonperiodic(self):
        spec = GridSpec([0.0], [1.0], [5])
        assert spec.spacing[0] == pytest.approx(0.25)
        assert spec.coordinates(0)[-1] == pytest.approx(1.0)


def _sdf_set(spec, values):
    return ImplicitSet("sdf", ScalarField(spec, values))


@pytest.mark.parametrize("build, message", [
    (lambda: GridSpec([0.0, 0.0], [1.0, 1.0], [5]), "lower/upper/counts/periodic lengths disagree"),
    (lambda: GridSpec([0.0], [1.0], [5], periodic=[False, True]),
     "lower/upper/counts/periodic lengths disagree"),
    (lambda: GridSpec([], [], []), "grid needs at least one dimension"),
    (lambda: GridSpec([-1e308], [1e308], [5]), "non-finite grid spacing"),
    (lambda: GridSpec([0.0, 0.0], [1.0, 1.0], (3, 3)).locate([0.5, 0.5, 0.5]),
     "expected 2-dimensional points"),
    (lambda: ScalarField(GridSpec([0.0], [1.0], [5]), np.zeros(4)),
     "value count 4 does not match grid size 5"),
    (lambda: ImplicitSet("disk"), "unknown set kind 'disk'"),
    (lambda: ImplicitSet("sdf"), "sdf kind requires a signed-distance field"),
    (lambda: _sdf_set(GridSpec([-1.0], [1.0], [5]), [0.0, -1.0, -1.0, -1.0, -1.0]),
     "sdf zero level set touches the grid bounding box"),
    (lambda: classify_nodes(GridSpec([-1.0], [1.0], [7]),
                            _sdf_set(GridSpec([-1.0], [1.0], [5]), [-1.0] * 5)),
     "sdf lives on a different grid"),
])
def test_grid_inputs_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("text, message", [
    ("dims 0\n", "{path}:1: need at least one dimension, got 0"),
    ("dims 1\n0.0 1.0 3 2\n0.0\n0.0\n0.0\n", "{path}:2: periodic flag must be 0 or 1, got 2"),
])
def test_field_file_header_rejected(tmp_path, text, message):
    path = tmp_path / "bad.fld"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
        read_field(path)
