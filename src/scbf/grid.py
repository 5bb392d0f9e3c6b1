"""Tensor-product grids over the safe set and scalar fields on them.

The safe set is carried as a rectangular box (the grid bounding box) or as
the box minus the positive region of a signed-distance field.  Scalar
functions (barrier candidates, eigenfunctions, per-channel policies) are
stored as dense row-major node arrays.  This module owns:

* node classification into interior / boundary / exterior,
* multilinear interpolation with periodic wraparound,
* central-difference gradients and Hessians sampled off-grid
  (nodal stencils multilinearly blended to the query point),
* the ``.fld`` text format with bit-exact round-trips.

Non-periodic dimensions place nodes on the closed interval
``[lower, upper]`` with spacing ``(upper - lower)/(count - 1)``; periodic
dimensions cover ``[lower, upper)`` with spacing ``(upper - lower)/count``
and index wraparound (the duplicate endpoint node is excluded).

All operations are pure functions of immutable inputs; value arrays are
frozen at construction so fields behave as snapshots.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DegenerateSet, OutOfDomain

__all__ = [
    "INTERIOR",
    "BOUNDARY",
    "EXTERIOR",
    "GridSpec",
    "ScalarField",
    "ImplicitSet",
    "sup_norm",
    "interpolate",
    "gradient_at",
    "hessian_at",
    "classify_nodes",
    "read_field",
    "write_field",
]

INTERIOR = 0
BOUNDARY = 1
EXTERIOR = 2


def _index(value, name: str) -> int:
    """``value`` as an int (``operator.index``): a float, even a whole one,
    raises ValueError naming the field ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value}") from None


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a rectangular tensor-product grid.

    Attributes:
        lower: box lower corner, one entry per dimension.
        upper: box upper corner; ``upper[i] > lower[i]``.
        counts: nodes per dimension, each >= 3.
        periodic: True for angular coordinates (wraparound indexing).
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    counts: tuple[int, ...]
    periodic: tuple[bool, ...]

    def __init__(self, lower, upper, counts, periodic=None):
        lower = tuple(float(v) for v in np.atleast_1d(lower))
        upper = tuple(float(v) for v in np.atleast_1d(upper))
        counts = tuple(_index(v, "counts") for v in np.atleast_1d(counts))
        if periodic is None:
            periodic = (False,) * len(lower)
        periodic = tuple(bool(v) for v in np.atleast_1d(periodic))
        if not (len(lower) == len(upper) == len(counts) == len(periodic)):
            raise ValueError("lower/upper/counts/periodic lengths disagree")
        if len(lower) == 0:
            raise ValueError("grid needs at least one dimension")
        for lo, hi, n in zip(lower, upper, counts):
            if not hi > lo:
                raise ValueError(f"degenerate extent [{lo}, {hi}]")
            if n < 3:
                raise ValueError(f"need at least 3 nodes per dimension, got {n}")
            if not np.isfinite((hi - lo) / (n - 1)):
                raise ValueError("non-finite grid spacing")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "periodic", periodic)

    @property
    def dims(self) -> int:
        return len(self.counts)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts

    @property
    def size(self) -> int:
        return int(np.prod(self.counts))

    @property
    def spacing(self) -> np.ndarray:
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        n = np.asarray(self.counts)
        per = np.asarray(self.periodic)
        return (hi - lo) / np.where(per, n, n - 1)

    def coordinates(self, dim: int) -> np.ndarray:
        """Node coordinates along one dimension."""
        h = self.spacing[dim]
        return self.lower[dim] + h * np.arange(self.counts[dim])

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape ``(size, dims)``, row-major order."""
        axes = [self.coordinates(d) for d in range(self.dims)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def locate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Containing cell index and fractional offset for each query point.

        Accepts shape ``(dims,)`` or ``(B, dims)``.  Raises OutOfDomain if a
        point leaves the closed box in a non-periodic dimension; a last node
        that ``lower + h (n - 1)`` rounds above ``upper`` counts as inside.
        """
        cell, frac = self._locate_by_dim(x)
        return cell.T.copy(), frac.T.copy()

    @cached_property
    def _columns(self):
        """Lower corner, spacing, largest cell index and flat strides as
        ``(dims, 1)`` columns, for ``_locate_by_dim`` and ``_corners``."""
        top = [n - 1 if p else n - 2 for n, p in zip(self.counts, self.periodic)]
        return tuple(np.asarray(v)[:, None] for v in
                     (self.lower, self.spacing, top, _flat_strides(self.counts)))

    @cached_property
    def _reach(self) -> tuple[float, ...]:
        """Largest coordinate located per dimension: ``upper``, or the last
        node where rounding puts it above ``upper``."""
        return tuple(max(hi, float(self.coordinates(d)[-1])) for d, hi in enumerate(self.upper))

    @cached_property
    def _periodic_dims(self) -> tuple[int, ...]:
        return tuple(d for d, p in enumerate(self.periodic) if p)

    def _locate_by_dim(self, x) -> tuple[np.ndarray, np.ndarray]:
        """``locate`` with dimension-major results, shape ``(dims, B)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.dims:
            raise ValueError(f"expected {self.dims}-dimensional points")
        lower, h, top, _ = self._columns
        x = x.T.copy()
        for d in self._periodic_dims:
            lo = self.lower[d]
            x[d] = lo + np.mod(x[d] - lo, self.upper[d] - lo)
        # fmin/fmax skip NaN, so a NaN beside an outside point still fails.
        low = np.fmin.reduce(x, axis=1, initial=np.inf).tolist()
        high = np.fmax.reduce(x, axis=1, initial=-np.inf).tolist()
        for d in range(self.dims):
            lo, hi = self.lower[d], self._reach[d]
            if not self.periodic[d] and (low[d] < lo or high[d] > hi):
                j = int(np.argmax((x[d] < lo) | (x[d] > hi)))
                raise OutOfDomain(f"coordinate {d} = {x[d, j]} outside [{lo}, {self.upper[d]}]")
        t = x
        t -= lower
        t /= h
        # t >= 0 here (or NaN), so truncation is floor; NaN clips to cell 0
        cell = t.astype(np.int64)
        np.maximum(cell, 0, out=cell)
        np.minimum(cell, top, out=cell)
        t -= cell
        return cell, t


def _flat_strides(counts: tuple[int, ...]) -> np.ndarray:
    strides = np.ones(len(counts), dtype=np.int64)
    for d in range(len(counts) - 2, -1, -1):
        strides[d] = strides[d + 1] * counts[d + 1]
    return strides


class ScalarField:
    """Values of a scalar function on the nodes of a grid.

    Value arrays are stored flat in row-major node order, are validated to
    be finite, and are frozen; the nodal derivative table is cached lazily
    (safe because the values cannot change).
    """

    __slots__ = ("spec", "values", "_table")

    def __init__(self, spec: GridSpec, values: np.ndarray):
        values = np.asarray(values, dtype=float).ravel()
        if values.size != spec.size:
            raise ValueError(
                f"value count {values.size} does not match grid size {spec.size}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        values = values.copy()
        values.setflags(write=False)
        self.spec = spec
        self.values = values
        self._table = None

    def shaped(self) -> np.ndarray:
        return self.values.reshape(self.spec.shape)

    def __repr__(self):
        return f"ScalarField(shape={self.spec.shape})"


@dataclass(frozen=True)
class ImplicitSet:
    """Safe set: the grid box, optionally minus the region where sdf > 0.

    The signed-distance convention is negative inside the safe set and
    positive outside; the zero level set must stay strictly inside the
    grid bounding box.
    """

    kind: str = "box"
    sdf: ScalarField | None = None

    def __post_init__(self):
        if self.kind not in ("box", "sdf"):
            raise ValueError(f"unknown set kind {self.kind!r}")
        if self.kind == "sdf":
            if self.sdf is None:
                raise ValueError("sdf kind requires a signed-distance field")
            # The zero level set must stay strictly inside the box along
            # every dimension the sdf actually constrains (it may extend
            # through dimensions it is constant along, e.g. a cylindrical
            # obstacle in a position-heading-speed state space).
            spec = self.sdf.spec
            vals = self.sdf.values.reshape(spec.shape)
            for d in range(spec.dims):
                if spec.periodic[d]:
                    continue
                if np.ptp(vals, axis=d).max() == 0.0:
                    continue
                idx = [slice(None)] * spec.dims
                for face in (0, spec.counts[d] - 1):
                    idx[d] = face
                    if np.any(vals[tuple(idx)] >= 0.0):
                        raise ValueError(
                            "sdf zero level set touches the grid bounding box"
                        )

    def contains(self, spec: GridSpec, x: np.ndarray) -> np.ndarray:
        """Membership test for states, shape ``(dims,)`` or ``(B, dims)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        inside = np.ones(x.shape[0], dtype=bool)
        for d in range(spec.dims):
            if not spec.periodic[d]:
                inside &= (x[:, d] >= spec.lower[d]) & (x[:, d] <= spec.upper[d])
        if self.kind == "sdf":
            vals = np.full(x.shape[0], np.inf)
            if np.any(inside):
                vals[inside] = interpolate(self.sdf, x[inside])
            inside &= vals <= 0.0
        return inside


def _box_shell_mask(spec: GridSpec) -> np.ndarray:
    """Outermost node layer of every non-periodic dimension (shaped bool)."""
    mask = np.zeros(spec.shape, dtype=bool)
    for d in range(spec.dims):
        if spec.periodic[d]:
            continue
        idx = [slice(None)] * spec.dims
        idx[d] = 0
        mask[tuple(idx)] = True
        idx[d] = spec.counts[d] - 1
        mask[tuple(idx)] = True
    return mask


def classify_nodes(spec: GridSpec, safe_set: ImplicitSet) -> np.ndarray:
    """Partition grid nodes into interior / boundary / exterior (flat int8).

    Box sets: the boundary is the outermost node layer of each non-periodic
    dimension.  Implicit sets additionally mark nodes with sdf > 0 as
    exterior and non-exterior nodes with an exterior face-neighbor as
    boundary.
    """
    cls = np.zeros(spec.shape, dtype=np.int8)
    cls[_box_shell_mask(spec)] = BOUNDARY
    if safe_set.kind == "sdf":
        if safe_set.sdf.spec != spec:
            raise ValueError("sdf lives on a different grid")
        ext = safe_set.sdf.values.reshape(spec.shape) > 0.0
        cls[ext] = EXTERIOR
        near = np.zeros(spec.shape, dtype=bool)
        for d in range(spec.dims):
            if spec.periodic[d]:
                near |= np.roll(ext, 1, axis=d) | np.roll(ext, -1, axis=d)
            else:
                lo = [slice(None)] * spec.dims
                hi = [slice(None)] * spec.dims
                lo[d] = slice(None, -1)
                hi[d] = slice(1, None)
                near[tuple(lo)] |= ext[tuple(hi)]
                near[tuple(hi)] |= ext[tuple(lo)]
        cls[near & ~ext] = BOUNDARY
    if not np.any(cls == INTERIOR):
        raise DegenerateSet("safe set has no interior grid node")
    return cls.ravel()


def sup_norm(field: ScalarField) -> float:
    """Supremum norm: the largest absolute node value."""
    return float(np.max(np.abs(field.values)))


def _corners(spec: GridSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Locate points once: the flat node index and multilinear weight of
    every corner of each point's cell, both shape ``(2**dims, B)``.

    Corners run in ``itertools.product((0, 1), repeat=dims)`` order and each
    weight is the product of its per-dimension factors taken in dimension
    order, so a blend is bit-identical to one built corner by corner.
    """
    cell, frac = spec._locate_by_dim(x)
    dims, B = cell.shape
    strides = spec._columns[3]
    # per dimension, the flat offset and the weight factor of the lower
    # (index 0) and upper (index 1) corner
    index = np.empty((dims, 2, B), dtype=np.int64)
    np.multiply(cell, strides, out=index[:, 0])
    np.add(index[:, 0], strides, out=index[:, 1])
    for d in spec._periodic_dims:
        index[d, 1] = (cell[d] + 1) % spec.counts[d] * strides[d, 0]
    factor = np.empty((dims, 2, B))
    np.subtract(1.0, frac, out=factor[:, 0])
    factor[:, 1] = frac
    flat, weight = index[0], factor[0]
    for d in range(1, dims):
        flat = (flat[:, None] + index[d]).reshape(2 ** (d + 1), B)
        weight = (weight[:, None] * factor[d]).reshape(2 ** (d + 1), B)
    return flat, weight


def _blend(table: np.ndarray, corners) -> np.ndarray:
    """Multilinear blend of a node-major table ``(size, K)`` at located
    points; returns ``(B, K)``.  The corner terms are summed in corner order
    from +0.0 (so a blend is never -0.0)."""
    flat, weight = corners
    terms = table.take(flat, axis=0)
    terms *= weight[:, :, None]
    out = terms[0] + 0.0
    for term in terms[1:]:
        out += term
    return out


def _blend_clamped(table: np.ndarray, corners, lower, upper) -> np.ndarray:
    """``_blend`` clamped into the box ``[lower, upper]`` in place.  A zero
    that meets a zero bound of the other sign may keep either sign, as it
    may under ``np.clip``."""
    out = _blend(table, corners)
    np.maximum(out, lower, out=out)
    np.minimum(out, upper, out=out)
    return out


def interpolate(field: ScalarField, x: np.ndarray):
    """Multilinear interpolation; exact at nodes, bounded by cell corners.

    Accepts a single point ``(dims,)`` (returns float) or a batch
    ``(B, dims)`` (returns ``(B,)``).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    vals = _blend(field.values[:, None], _corners(field.spec, x))[:, 0]
    return float(vals[0]) if single else vals


def _derivative_1d(values: np.ndarray, dim: int, h: float, periodic: bool,
                   order: int) -> np.ndarray:
    """Nodal derivative along one axis: central inside, 3-point one-sided
    at non-periodic faces (both exact for quadratics)."""
    v = values
    if periodic:
        vp = np.roll(v, -1, axis=dim)
        vm = np.roll(v, 1, axis=dim)
        if order == 1:
            return (vp - vm) / (2.0 * h)
        return (vp - 2.0 * v + vm) / h**2
    out = np.empty_like(v)
    n = v.shape[dim]

    def seg(a, b):
        idx = [slice(None)] * v.ndim
        idx[dim] = slice(a, b)
        return tuple(idx)

    def at(j):
        idx = [slice(None)] * v.ndim
        idx[dim] = j
        return tuple(idx)

    if order == 1:
        out[seg(1, -1)] = (v[seg(2, None)] - v[seg(0, -2)]) / (2.0 * h)
        out[at(0)] = (-3.0 * v[at(0)] + 4.0 * v[at(1)] - v[at(2)]) / (2.0 * h)
        out[at(n - 1)] = (3.0 * v[at(n - 1)] - 4.0 * v[at(n - 2)] + v[at(n - 3)]) / (2.0 * h)
    else:
        out[seg(1, -1)] = (v[seg(2, None)] - 2.0 * v[seg(1, -1)] + v[seg(0, -2)]) / h**2
        out[at(0)] = (v[at(0)] - 2.0 * v[at(1)] + v[at(2)]) / h**2
        out[at(n - 1)] = (v[at(n - 1)] - 2.0 * v[at(n - 2)] + v[at(n - 3)]) / h**2
    return out


def _derivative_table(field: ScalarField) -> np.ndarray:
    """Node-major ``[value, gradient, Hessian upper triangle]`` columns,
    shape (size, 1 + dims + dims*(dims+1)/2), so one blend gives all three
    at a located state; a blend of a column slice gives one of them (each
    column blends on its own).  Cached on the field.

    Hessian columns run row-major over (i, j) with i <= j.  Cross terms are
    symmetrized compositions of the 1-D stencils (the 4-point central
    stencil on interior nodes, with one-sided fallback within one cell of a
    face)."""
    if field._table is None:
        spec = field.spec
        v = field.shaped()
        h = spec.spacing
        grad = [_derivative_1d(v, d, h[d], spec.periodic[d], 1) for d in range(spec.dims)]
        cols = [field.values] + [g.ravel() for g in grad]
        for i in range(spec.dims):
            for j in range(i, spec.dims):
                if i == j:
                    cols.append(_derivative_1d(v, i, h[i], spec.periodic[i], 2).ravel())
                else:
                    dij = _derivative_1d(grad[i], j, h[j], spec.periodic[j], 1)
                    dji = _derivative_1d(grad[j], i, h[i], spec.periodic[i], 1)
                    cols.append((0.5 * (dij + dji)).ravel())
        field._table = np.stack(cols, axis=1)
    return field._table


def _unpack_hessian(upper: np.ndarray, n: int) -> np.ndarray:
    """Symmetric ``(B, n, n)`` matrices from ``(B, n*(n+1)/2)`` upper
    triangles in row-major (i <= j) order."""
    H = np.empty((upper.shape[0], n, n))
    k = 0
    for i in range(n):
        for j in range(i, n):
            H[:, i, j] = upper[:, k]
            H[:, j, i] = upper[:, k]
            k += 1
    return H


def gradient_at(field: ScalarField, x: np.ndarray) -> np.ndarray:
    """Gradient at a state: nodal central differences blended to ``x``.

    Accepts ``(dims,)`` -> ``(dims,)`` or ``(B, dims)`` -> ``(B, dims)``.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    n = field.spec.dims
    out = _blend(_derivative_table(field)[:, 1:1 + n], _corners(field.spec, x))
    return out[0] if single else out


def hessian_at(field: ScalarField, x: np.ndarray) -> np.ndarray:
    """Symmetric Hessian at a state, from nodal stencils blended to ``x``.

    Accepts ``(dims,)`` -> ``(dims, dims)`` or ``(B, dims)`` ->
    ``(B, dims, dims)``.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    n = field.spec.dims
    upper = _blend(_derivative_table(field)[:, 1 + n:], _corners(field.spec, x))
    H = _unpack_hessian(upper, n)
    return H[0] if single else H


# --- .fld text format -------------------------------------------------------
#
# dims <n>
# <lower> <upper> <count> <periodic 0|1>     (one line per dimension)
# <value>                                    (one repr'd float per node line)
#
# repr() emits the shortest decimal that round-trips the binary double, so
# write -> read -> write is guaranteed byte-identical.


def write_field(field: ScalarField, path) -> None:
    spec = field.spec
    lines = [f"dims {spec.dims}"]
    for d in range(spec.dims):
        lines.append(
            f"{spec.lower[d]!r} {spec.upper[d]!r} {spec.counts[d]} {int(spec.periodic[d])}"
        )
    lines.extend(repr(float(v)) for v in field.values)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _read_text(path, encoding: str) -> str:
    """A text file's contents; bytes that do not decode raise ValueError
    naming ``<path>:<line>``."""
    data = Path(path).read_bytes()
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: not {encoding} text") from None


def read_field(path) -> ScalarField:
    """Read a ``.fld`` file; a malformed one raises ValueError naming
    ``<path>:<line>``."""
    lines = _read_text(path, "ascii").splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "dims":
        raise ValueError(f"{path}:1: not a field file (expected 'dims <n>')")
    try:
        n = int(head[1])
    except ValueError:
        raise ValueError(f"{path}:1: dimension count {head[1]!r} is not an integer") from None
    if n < 1:
        raise ValueError(f"{path}:1: need at least one dimension, got {n}")
    if len(lines) < 1 + n:
        raise ValueError(f"{path}:{len(lines)}: header ends after {len(lines) - 1} "
                         f"of {n} dimension lines")
    axes = []
    for lineno in range(2, 2 + n):
        parts = lines[lineno - 1].split()
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: malformed header line "
                             "(expected '<lower> <upper> <count> <periodic 0|1>')")
        try:
            axis = (float(parts[0]), float(parts[1]), int(parts[2]), int(parts[3]))
            if axis[3] not in (0, 1):
                raise ValueError(f"periodic flag must be 0 or 1, got {axis[3]}")
            # validate this line alone, so an error names its line
            GridSpec(*([v] for v in axis))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        axes.append(axis)
    spec = GridSpec(*zip(*axes))
    body = lines[1 + n:]
    try:
        values = np.array([float(text) for text in body if text], dtype=float)
    except ValueError:
        values = None
    if values is None or values.size != spec.size or not np.all(np.isfinite(values)):
        _locate_value_error(path, body, 2 + n, spec.size)
    return ScalarField(spec, values)


def _locate_value_error(path, body, first_line: int, size: int):
    """Raise a ValueError naming the first bad line of a field's values."""
    count = 0
    for lineno, text in enumerate(body, start=first_line):
        if not text:
            continue
        if count == size:
            raise ValueError(f"{path}:{lineno}: more than the {size} values "
                             "the header declares")
        try:
            v = float(text)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a number: {text!r}") from None
        if not math.isfinite(v):
            raise ValueError(f"{path}:{lineno}: non-finite value {text!r}")
        count += 1
    raise ValueError(f"{path}:{first_line + len(body) - 1}: file ends after {count} "
                     f"of the {size} values the header declares")
